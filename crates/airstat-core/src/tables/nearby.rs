//! Table 7: growth in nearby networks over six months.

use airstat_rf::band::Band;
use airstat_stats::summary::fmt_count;
use airstat_store::FleetQuery;
use airstat_telemetry::backend::WindowId;
use std::fmt;

use crate::render::TextTable;

/// One band × epoch cell of Table 7.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NearbyCell {
    /// Total nearby non-fleet networks summed over the panel.
    pub total_networks: u64,
    /// Mean networks per reporting AP.
    pub per_ap: f64,
    /// Total personal hotspots among them.
    pub hotspots: u64,
    /// Number of APs that reported a census.
    pub reporting_aps: usize,
}

/// Table 7's reproduction: both bands, both epochs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NearbyTable {
    /// 2.4 GHz now (January 2015).
    pub now_2_4: NearbyCell,
    /// 2.4 GHz six months ago (July 2014).
    pub before_2_4: NearbyCell,
    /// 5 GHz now.
    pub now_5: NearbyCell,
    /// 5 GHz six months ago.
    pub before_5: NearbyCell,
}

fn cell<Q: FleetQuery>(backend: &Q, window: WindowId, band: Band) -> NearbyCell {
    let (total_networks, per_ap, hotspots) = backend.nearby_summary(window, band);
    NearbyCell {
        total_networks,
        per_ap,
        hotspots,
        reporting_aps: backend.census_device_count(window),
    }
}

impl NearbyTable {
    /// Computes all four cells.
    pub(crate) fn compute<Q: FleetQuery>(backend: &Q, before: WindowId, now: WindowId) -> Self {
        NearbyTable {
            now_2_4: cell(backend, now, Band::Ghz2_4),
            before_2_4: cell(backend, before, Band::Ghz2_4),
            now_5: cell(backend, now, Band::Ghz5),
            before_5: cell(backend, before, Band::Ghz5),
        }
    }
}

impl fmt::Display for NearbyTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = TextTable::new(["", "Networks", "Networks per AP", "Hotspots"]);
        let mut push = |label: &str, c: &NearbyCell| {
            t.row([
                label.to_string(),
                fmt_count(c.total_networks),
                format!("{:.2}", c.per_ap),
                fmt_count(c.hotspots),
            ]);
        };
        push("2.4 GHz (now)", &self.now_2_4);
        push("2.4 GHz (six months ago)", &self.before_2_4);
        push("5 GHz (now)", &self.now_5);
        push("5 GHz (six months ago)", &self.before_5);
        f.write_str(&t.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use airstat_rf::band::Channel;
    use airstat_telemetry::backend::Backend;
    use airstat_telemetry::report::{NeighborRecord, Report, ReportPayload};

    const NOW: WindowId = WindowId(1501);
    const BEFORE: WindowId = WindowId(1407);

    fn backend() -> Backend {
        let mut b = Backend::new();
        let ch1 = Channel::new(Band::Ghz2_4, 1).unwrap();
        let ch36 = Channel::new(Band::Ghz5, 36).unwrap();
        for (window, device, n24, hs, n5) in [
            (BEFORE, 1u64, 20u32, 2u32, 2u32),
            (BEFORE, 2, 30, 3, 3),
            (NOW, 1, 50, 10, 4),
            (NOW, 2, 60, 12, 3),
        ] {
            b.ingest(
                window,
                &Report {
                    device,
                    seq: u64::from(window.0),
                    timestamp_s: 0,
                    payload: ReportPayload::Neighbors(vec![
                        NeighborRecord {
                            channel: ch1,
                            networks: n24,
                            hotspots: hs,
                        },
                        NeighborRecord {
                            channel: ch36,
                            networks: n5,
                            hotspots: 0,
                        },
                    ]),
                },
            );
        }
        b
    }

    #[test]
    fn cells_and_growth() {
        let t = NearbyTable::compute(&backend(), BEFORE, NOW);
        assert_eq!(t.before_2_4.total_networks, 50);
        assert_eq!(t.now_2_4.total_networks, 110);
        assert!((t.before_2_4.per_ap - 25.0).abs() < 1e-9);
        assert!((t.now_2_4.per_ap - 55.0).abs() < 1e-9);
        assert_eq!(t.now_2_4.hotspots, 22);
        assert_eq!(t.now_5.total_networks, 7);
    }

    #[test]
    fn empty_backend_is_zeroes() {
        let t = NearbyTable::compute(&Backend::new(), BEFORE, NOW);
        assert_eq!(t.now_2_4.total_networks, 0);
        assert_eq!(t.now_2_4.per_ap, 0.0);
    }

    #[test]
    fn renders_paper_rows() {
        let t = NearbyTable::compute(&backend(), BEFORE, NOW);
        let s = t.to_string();
        assert!(s.contains("2.4 GHz (now)"));
        assert!(s.contains("5 GHz (six months ago)"));
        assert!(s.contains("Networks per AP"));
    }
}
