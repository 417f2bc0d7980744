//! Figure 6: channel utilization measured by the MR16 serving radios.
//!
//! Paper: the 2.4 GHz median AP sees the energy-detect trigger ~25% of the
//! time, the 90th percentile ~50%; 5 GHz: 5% median, 30% p90. Crucially
//! these numbers describe the AP's *own serving channel* — Figure 9's
//! scanner view is lower because most channels are idle (§5.2).

use airstat_rf::band::Band;
use airstat_stats::Ecdf;
use airstat_store::FleetQuery;
use airstat_telemetry::backend::WindowId;
use std::fmt;

use crate::render::render_cdfs;

/// Figure 6's reproduction.
#[derive(Debug, Clone, PartialEq)]
pub struct UtilizationFigure {
    /// Per-AP utilization on the 2.4 GHz serving channel.
    pub util_2_4: Ecdf,
    /// Per-AP utilization on the 5 GHz serving channel.
    pub util_5: Ecdf,
}

impl UtilizationFigure {
    /// Computes the per-AP utilization distributions.
    pub(crate) fn compute<Q: FleetQuery>(backend: &Q, window: WindowId) -> Self {
        UtilizationFigure {
            util_2_4: Ecdf::new(backend.serving_utilizations(window, Band::Ghz2_4)),
            util_5: Ecdf::new(backend.serving_utilizations(window, Band::Ghz5)),
        }
    }

    /// `(median, p90)` for a band, as fractions.
    pub fn summary(&self, band: Band) -> Option<(f64, f64)> {
        let e = match band {
            Band::Ghz2_4 => &self.util_2_4,
            Band::Ghz5 => &self.util_5,
        };
        Some((e.median()?, e.quantile(0.9)?))
    }
}

impl fmt::Display for UtilizationFigure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some((median, p90)) = self.summary(Band::Ghz2_4) {
            writeln!(
                f,
                "2.4 GHz: median {:.0}%, p90 {:.0}% ({} APs)",
                median * 100.0,
                p90 * 100.0,
                self.util_2_4.len()
            )?;
        }
        if let Some((median, p90)) = self.summary(Band::Ghz5) {
            writeln!(
                f,
                "5 GHz:   median {:.0}%, p90 {:.0}% ({} APs)",
                median * 100.0,
                p90 * 100.0,
                self.util_5.len()
            )?;
        }
        f.write_str(&render_cdfs(
            &[("2.4 GHz", &self.util_2_4), ("5 GHz", &self.util_5)],
            0.0,
            1.0,
            60,
            12,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use airstat_rf::band::Channel;
    use airstat_telemetry::backend::Backend;
    use airstat_telemetry::report::{AirtimeRecord, Report, ReportPayload};

    const W: WindowId = WindowId(1501);

    fn backend() -> Backend {
        let mut b = Backend::new();
        for (device, busy24, busy5) in [(1u64, 200u64, 50u64), (2, 500, 100), (3, 300, 20)] {
            b.ingest(
                W,
                &Report {
                    device,
                    seq: 0,
                    timestamp_s: 0,
                    payload: ReportPayload::Airtime(vec![
                        AirtimeRecord {
                            channel: Channel::new(Band::Ghz2_4, 6).unwrap(),
                            elapsed_us: 1000,
                            busy_us: busy24,
                            wifi_us: busy24 / 2,
                        },
                        AirtimeRecord {
                            channel: Channel::new(Band::Ghz5, 36).unwrap(),
                            elapsed_us: 1000,
                            busy_us: busy5,
                            wifi_us: busy5,
                        },
                    ]),
                },
            );
        }
        b
    }

    #[test]
    fn distributions_per_band() {
        let fig = UtilizationFigure::compute(&backend(), W);
        assert_eq!(fig.util_2_4.len(), 3);
        assert_eq!(fig.util_5.len(), 3);
        let (median24, p90) = fig.summary(Band::Ghz2_4).unwrap();
        assert!((median24 - 0.3).abs() < 1e-9);
        assert!(p90 > 0.4);
        let (median5, _) = fig.summary(Band::Ghz5).unwrap();
        assert!(median5 < median24);
    }

    #[test]
    fn empty_window() {
        let fig = UtilizationFigure::compute(&Backend::new(), W);
        assert_eq!(fig.summary(Band::Ghz2_4), None);
    }

    #[test]
    fn renders_summaries() {
        let s = UtilizationFigure::compute(&backend(), W).to_string();
        assert!(s.contains("median"));
        assert!(s.contains("p90"));
    }
}
