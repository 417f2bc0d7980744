//! Table 2: network deployment types for the usage panel.

use airstat_sim::industry::{Industry, IndustryMix};
use airstat_stats::summary::fmt_count;
use airstat_stats::SeedTree;
use std::fmt;

use crate::render::TextTable;

/// Table 2's reproduction: networks per industry vertical.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndustryTable {
    /// `(vertical, networks)` in Table 2 order.
    pub rows: Vec<(Industry, u32)>,
}

impl IndustryTable {
    /// Samples a usage panel of `networks` networks and counts verticals.
    pub(crate) fn compute(networks: u32, seed: &SeedTree) -> Self {
        let mix = IndustryMix::paper();
        let mut rng = seed.child("table2").rng();
        let mut counts = std::collections::BTreeMap::new();
        for _ in 0..networks {
            *counts.entry(mix.sample(&mut rng)).or_insert(0u32) += 1;
        }
        IndustryTable {
            rows: Industry::ALL
                .iter()
                .map(|&i| (i, counts.get(&i).copied().unwrap_or(0)))
                .collect(),
        }
    }

    /// Total networks across all verticals.
    pub fn total(&self) -> u32 {
        self.rows.iter().map(|r| r.1).sum()
    }
}

impl fmt::Display for IndustryTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = TextTable::new(["Industry", "# networks"]);
        for &(industry, count) in &self.rows {
            t.row([industry.name().to_string(), fmt_count(u64::from(count))]);
        }
        t.row(["Total".to_string(), fmt_count(u64::from(self.total()))]);
        f.write_str(&t.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_scale_tracks_table2() {
        let t = IndustryTable::compute(20_667, &SeedTree::new(1));
        assert_eq!(t.total(), 20_667);
        let get = |i: Industry| t.rows.iter().find(|r| r.0 == i).unwrap().1;
        // Education ≈ 4,075 (19.7%), Retail ≈ 2,355.
        assert!((f64::from(get(Industry::Education)) - 4_075.0).abs() < 250.0);
        assert!((f64::from(get(Industry::Retail)) - 2_355.0).abs() < 200.0);
    }

    #[test]
    fn deterministic() {
        let a = IndustryTable::compute(500, &SeedTree::new(2));
        let b = IndustryTable::compute(500, &SeedTree::new(2));
        assert_eq!(a, b);
    }

    #[test]
    fn renders_all_verticals() {
        let t = IndustryTable::compute(100, &SeedTree::new(3));
        let s = t.to_string();
        assert!(s.contains("Education"));
        assert!(s.contains("VAR/System Integrator"));
        assert!(s.contains("Total"));
    }
}
