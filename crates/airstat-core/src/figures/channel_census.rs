//! Figure 2: nearby networks by channel number.

use airstat_rf::band::Band;
use airstat_store::FleetQuery;
use airstat_telemetry::backend::WindowId;
use std::fmt;

use crate::render::render_bars;

/// Figure 2's reproduction: network counts per channel, both bands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelCensusFigure {
    /// `(channel, count)` for 2.4 GHz channels 1–11.
    pub counts_2_4: Vec<(u16, u64)>,
    /// `(channel, count)` for the 5 GHz plan.
    pub counts_5: Vec<(u16, u64)>,
}

impl ChannelCensusFigure {
    /// Computes per-channel totals from all censuses in the window.
    pub(crate) fn compute<Q: FleetQuery>(backend: &Q, window: WindowId) -> Self {
        ChannelCensusFigure {
            counts_2_4: backend.nearby_per_channel(window, Band::Ghz2_4),
            counts_5: backend.nearby_per_channel(window, Band::Ghz5),
        }
    }
}

impl fmt::Display for ChannelCensusFigure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "2.4 GHz:")?;
        let bars24: Vec<(String, u64)> = self
            .counts_2_4
            .iter()
            .map(|&(c, n)| (format!("ch{c}"), n))
            .collect();
        f.write_str(&render_bars(&bars24, 50))?;
        writeln!(f, "5 GHz:")?;
        let bars5: Vec<(String, u64)> = self
            .counts_5
            .iter()
            .map(|&(c, n)| (format!("ch{c}"), n))
            .collect();
        f.write_str(&render_bars(&bars5, 50))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use airstat_rf::band::Channel;
    use airstat_telemetry::backend::Backend;
    use airstat_telemetry::report::{NeighborRecord, Report, ReportPayload};

    const W: WindowId = WindowId(1501);

    fn backend() -> Backend {
        let mut b = Backend::new();
        let rec = |n: u16, band: Band, count: u32| NeighborRecord {
            channel: Channel::new(band, n).unwrap(),
            networks: count,
            hotspots: 0,
        };
        b.ingest(
            W,
            &Report {
                device: 1,
                seq: 0,
                timestamp_s: 0,
                payload: ReportPayload::Neighbors(vec![
                    rec(1, Band::Ghz2_4, 137),
                    rec(6, Band::Ghz2_4, 100),
                    rec(11, Band::Ghz2_4, 100),
                    rec(3, Band::Ghz2_4, 5),
                    rec(36, Band::Ghz5, 10),
                    rec(52, Band::Ghz5, 1), // DFS
                ]),
            },
        );
        b
    }

    /// Count on one 2.4 GHz channel.
    fn on_2_4(fig: &ChannelCensusFigure, channel: u16) -> u64 {
        fig.counts_2_4
            .iter()
            .find(|&&(c, _)| c == channel)
            .map_or(0, |&(_, n)| n)
    }

    #[test]
    fn per_channel_structure() {
        let fig = ChannelCensusFigure::compute(&backend(), W);
        assert_eq!(on_2_4(&fig, 1), 137);
        assert_eq!(on_2_4(&fig, 6), 100);
    }

    #[test]
    fn covers_full_plan() {
        let fig = ChannelCensusFigure::compute(&backend(), W);
        assert_eq!(fig.counts_2_4.len(), 11);
        assert_eq!(fig.counts_5.len(), 24);
    }

    #[test]
    fn renders_bars() {
        let s = ChannelCensusFigure::compute(&backend(), W).to_string();
        assert!(s.contains("ch1"));
        assert!(s.contains("ch36"));
        assert!(s.contains('#'));
    }

    #[test]
    fn empty_backend() {
        let fig = ChannelCensusFigure::compute(&Backend::new(), W);
        assert_eq!(on_2_4(&fig, 6), 0);
    }
}
