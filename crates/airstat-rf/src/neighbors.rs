//! Nearby-network census: who can this AP hear beaconing?
//!
//! §4.1 and Table 7: each Meraki AP scans for nearby BSSIDs when idle. In
//! January 2015 the average US AP heard **55.5** non-Meraki networks at
//! 2.4 GHz (up from 28.6 six months earlier) and **3.68** at 5 GHz (up from
//! 2.47); ~20% of 2.4 GHz networks were personal mobile hotspots. Figure 2
//! shows the channel distribution: mass on 1/6/11 with channel 1 ~37%
//! higher than 6 or 11, and 5 GHz concentrated in UNII-1/UNII-3 because
//! DFS-band channels were rarely used.
//!
//! This module provides the channel-placement distribution and the hotspot
//! share; the simulator crate decides *how many* neighbours each AP has
//! (density varies from rural stores to Manhattan skyscrapers).

use airstat_stats::dist::WeightedIndex;
use rand::Rng;

use crate::band::{Band, Channel, CHANNELS_5};

/// The channel-placement distribution for neighbouring networks.
///
/// Reproduces Figure 2's structure:
/// * 2.4 GHz: most mass on 1/6/11 with channel 1 ≈ 37% above 6 and 11, a
///   thin smear across 2–5 and 7–10 from misconfigured or auto-selecting
///   devices;
/// * 5 GHz: concentrated on UNII-1 (36–48) and UNII-3 (149–165); DFS
///   channels see little use.
#[derive(Debug, Clone)]
pub struct ChannelPlacement {
    weights_2_4: WeightedIndex,
    weights_5: WeightedIndex,
}

impl Default for ChannelPlacement {
    fn default() -> Self {
        Self::paper_like()
    }
}

impl ChannelPlacement {
    /// The placement model matching the paper's observed distribution.
    pub fn paper_like() -> Self {
        // 2.4 GHz channels 1..=11. Channel 1 is 1.37x channels 6/11.
        let w24: Vec<f64> = (1..=11u16)
            .map(|n| match n {
                1 => 1.37,
                6 | 11 => 1.0,
                _ => 0.05,
            })
            .collect();
        // 5 GHz: UNII-1 and UNII-3 dominate, DFS bands nearly unused.
        let w5: Vec<f64> = CHANNELS_5
            .iter()
            .map(|&n| {
                let ch = Channel::new(Band::Ghz5, n)
                    .expect("invariant: CHANNELS_5 holds valid 5 GHz channel numbers");
                if ch.requires_dfs() {
                    0.03
                } else if n <= 48 {
                    1.0 // UNII-1
                } else {
                    0.85 // UNII-3
                }
            })
            .collect();
        ChannelPlacement {
            weights_2_4: WeightedIndex::new(w24),
            weights_5: WeightedIndex::new(w5),
        }
    }

    /// Samples a channel for a new neighbouring network on `band`.
    pub fn sample<R: Rng + ?Sized>(&self, band: Band, rng: &mut R) -> Channel {
        match band {
            Band::Ghz2_4 => {
                let idx = self.weights_2_4.sample(rng);
                Channel::new(Band::Ghz2_4, (idx + 1) as u16)
                    .expect("invariant: the sampler only returns indices inside the channel table")
            }
            Band::Ghz5 => {
                let idx = self.weights_5.sample(rng);
                Channel::new(Band::Ghz5, CHANNELS_5[idx])
                    .expect("invariant: the sampler only returns indices inside the channel table")
            }
        }
    }
}

/// The probability that a neighbour on `band` is a personal mobile hotspot.
///
/// The paper measured ~20% in January 2015 (§4.1), roughly doubling in six
/// months; at 5 GHz only 1.7% of networks were hotspots.
pub fn hotspot_probability(band: Band) -> f64 {
    match band {
        Band::Ghz2_4 => 0.20,
        Band::Ghz5 => 0.017,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::band::NON_OVERLAPPING_2_4;
    use airstat_stats::SeedTree;

    #[test]
    fn placement_2_4_favours_one_six_eleven() {
        let p = ChannelPlacement::paper_like();
        let mut rng = SeedTree::new(31).rng();
        let mut counts = std::collections::HashMap::new();
        let n = 100_000;
        for _ in 0..n {
            let ch = p.sample(Band::Ghz2_4, &mut rng);
            *counts.entry(ch.number).or_insert(0usize) += 1;
        }
        let c1 = counts[&1] as f64;
        let c6 = counts[&6] as f64;
        let c11 = counts[&11] as f64;
        let c3 = *counts.get(&3).unwrap_or(&0) as f64;
        // Channel 1 ≈ 37% above 6/11 (paper §4.1).
        assert!((c1 / c6 - 1.37).abs() < 0.1, "c1/c6 = {}", c1 / c6);
        assert!((c1 / c11 - 1.37).abs() < 0.1);
        // Non-primary channels are rare but present.
        assert!(c3 > 0.0 && c3 < c6 * 0.15);
        // The primaries hold the overwhelming majority of mass.
        let primary_frac = (c1 + c6 + c11) / n as f64;
        assert!(primary_frac > 0.85, "primary fraction {primary_frac}");
        for ch in NON_OVERLAPPING_2_4 {
            assert!(counts.contains_key(&ch));
        }
    }

    #[test]
    fn placement_5_avoids_dfs() {
        let p = ChannelPlacement::paper_like();
        let mut rng = SeedTree::new(32).rng();
        let n = 100_000;
        let mut dfs = 0usize;
        for _ in 0..n {
            let ch = p.sample(Band::Ghz5, &mut rng);
            if ch.requires_dfs() {
                dfs += 1;
            }
        }
        let frac = dfs as f64 / n as f64;
        assert!(frac < 0.08, "DFS fraction {frac} should be small");
    }

    #[test]
    fn hotspot_probability_matches_paper() {
        assert_eq!(hotspot_probability(Band::Ghz2_4), 0.20);
        assert_eq!(hotspot_probability(Band::Ghz5), 0.017);
    }
}
