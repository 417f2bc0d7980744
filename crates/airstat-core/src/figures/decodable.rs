//! Figure 10: fraction of busy time containing decodable 802.11 headers.
//!
//! Paper: "the majority of the total channel utilization contained
//! decodable 802.11 headers" — most interference is other WiFi, which the
//! 802.11 MAC can at least coordinate with; the remainder is corrupted
//! preambles and non-802.11 energy (Bluetooth, microwave ovens, ...).

use airstat_rf::band::Band;
use airstat_stats::Ecdf;
use airstat_store::FleetQuery;
use airstat_telemetry::backend::WindowId;
use std::fmt;

use crate::render::render_cdfs;

/// Minimum utilization for a sample to be included: the decodable share of
/// a nearly idle channel is numerically meaningless.
pub const MIN_UTILIZATION: f64 = 0.02;

/// Figure 10's reproduction.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodableFigure {
    /// Decodable fractions on busy 2.4 GHz channel samples.
    pub decodable_2_4: Ecdf,
    /// Decodable fractions on busy 5 GHz channel samples.
    pub decodable_5: Ecdf,
}

impl DecodableFigure {
    /// Computes the distributions over all sufficiently busy scan samples.
    pub(crate) fn compute<Q: FleetQuery>(backend: &Q, window: WindowId) -> Self {
        let collect = |band| {
            Ecdf::new(
                backend
                    .scan_observations(window, band)
                    .iter()
                    .filter(|o| f64::from(o.record.utilization_ppm) / 1e6 >= MIN_UTILIZATION)
                    .map(|o| f64::from(o.record.decodable_ppm) / 1e6),
            )
        };
        DecodableFigure {
            decodable_2_4: collect(Band::Ghz2_4),
            decodable_5: collect(Band::Ghz5),
        }
    }
}

impl fmt::Display for DecodableFigure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "median decodable share: {} (2.4 GHz, {} samples), {} (5 GHz, {} samples)",
            self.decodable_2_4
                .median()
                .map_or("n/a".into(), |m| format!("{:.0}%", m * 100.0)),
            self.decodable_2_4.len(),
            self.decodable_5
                .median()
                .map_or("n/a".into(), |m| format!("{:.0}%", m * 100.0)),
            self.decodable_5.len(),
        )?;
        f.write_str(&render_cdfs(
            &[
                ("2.4 GHz", &self.decodable_2_4),
                ("5 GHz", &self.decodable_5),
            ],
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
    use airstat_telemetry::report::{ChannelScanRecord, Report, ReportPayload};

    const W: WindowId = WindowId(1501);

    fn backend() -> Backend {
        let mut b = Backend::new();
        let mut seq = 0;
        let mut put = |util: f64, decodable: f64| {
            seq += 1;
            b.ingest(
                W,
                &Report {
                    device: 1,
                    seq,
                    timestamp_s: 0,
                    payload: ReportPayload::ChannelScan(vec![ChannelScanRecord {
                        channel: Channel::new(Band::Ghz2_4, 6).unwrap(),
                        utilization_ppm: (util * 1e6) as u32,
                        decodable_ppm: (decodable * 1e6) as u32,
                        networks: 3,
                    }]),
                },
            );
        };
        put(0.30, 0.90);
        put(0.20, 0.80);
        put(0.25, 0.70);
        put(0.005, 0.0); // idle: excluded
        b
    }

    #[test]
    fn excludes_idle_samples() {
        let fig = DecodableFigure::compute(&backend(), W);
        assert_eq!(fig.decodable_2_4.len(), 3);
    }

    #[test]
    fn median_math() {
        let fig = DecodableFigure::compute(&backend(), W);
        assert!((fig.decodable_2_4.median().unwrap() - 0.8).abs() < 1e-9);
    }

    #[test]
    fn empty_band() {
        let fig = DecodableFigure::compute(&backend(), W);
        assert!(fig.decodable_5.is_empty());
    }

    #[test]
    fn renders() {
        let s = DecodableFigure::compute(&backend(), W).to_string();
        assert!(s.contains("median decodable share"));
    }
}
