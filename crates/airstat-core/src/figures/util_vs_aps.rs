//! Figures 7 and 8: utilization vs number of nearby APs (scatter).
//!
//! The paper's negative result: "we do not see a clear correlation between
//! utilization and the number of interferers in either band", hence
//! channel planning should use direct utilization measurements. We
//! reproduce the scatter from the MR18 3-minute aggregates and quantify
//! the (lack of) correlation with Pearson's r and Spearman's ρ.

use airstat_rf::band::Band;
use airstat_stats::correlation::{pearson, spearman};
use airstat_store::FleetQuery;
use airstat_telemetry::backend::WindowId;
use std::fmt;

use crate::render::render_scatter;

/// One band's scatter and correlation summary.
#[derive(Debug, Clone, PartialEq)]
pub struct UtilVsApsFigure {
    /// The band (Figure 7: 2.4 GHz; Figure 8: 5 GHz).
    pub band: Band,
    /// `(networks_heard, utilization)` per 3-minute channel sample.
    pub points: Vec<(f64, f64)>,
    /// Pearson correlation coefficient, if computable.
    pub pearson_r: Option<f64>,
    /// Spearman rank correlation, if computable.
    pub spearman_rho: Option<f64>,
}

impl UtilVsApsFigure {
    /// Builds the scatter from all scan observations in the window.
    pub(crate) fn compute<Q: FleetQuery>(backend: &Q, window: WindowId, band: Band) -> Self {
        let points: Vec<(f64, f64)> = backend
            .scan_observations(window, band)
            .iter()
            .map(|o| {
                (
                    f64::from(o.record.networks),
                    f64::from(o.record.utilization_ppm) / 1e6,
                )
            })
            .collect();
        UtilVsApsFigure {
            band,
            pearson_r: pearson(&points),
            spearman_rho: spearman(&points),
            points,
        }
    }
}

impl fmt::Display for UtilVsApsFigure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: {} samples, Pearson r = {}, Spearman rho = {}",
            self.band,
            self.points.len(),
            self.pearson_r.map_or("n/a".into(), |r| format!("{r:.3}")),
            self.spearman_rho
                .map_or("n/a".into(), |r| format!("{r:.3}")),
        )?;
        // airstat::allow(float-fold-order): max is order-insensitive over finite x coordinates
        let x_hi = self.points.iter().map(|p| p.0).fold(1.0f64, f64::max);
        f.write_str(&render_scatter(&self.points, 60, 14, x_hi, 1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use airstat_rf::band::Channel;
    use airstat_telemetry::backend::Backend;
    use airstat_telemetry::report::{ChannelScanRecord, Report, ReportPayload};

    const W: WindowId = WindowId(1501);

    fn backend_with(points: &[(u32, f64)]) -> Backend {
        let mut b = Backend::new();
        for (i, &(networks, util)) in points.iter().enumerate() {
            b.ingest(
                W,
                &Report {
                    device: 1,
                    seq: i as u64,
                    timestamp_s: 0,
                    payload: ReportPayload::ChannelScan(vec![ChannelScanRecord {
                        channel: Channel::new(Band::Ghz2_4, 6).unwrap(),
                        utilization_ppm: (util * 1e6) as u32,
                        decodable_ppm: 900_000,
                        networks,
                    }]),
                },
            );
        }
        b
    }

    #[test]
    fn correlated_data_detected() {
        // Strongly correlated points → figure must say so.
        let points: Vec<(u32, f64)> = (0..50).map(|i| (i, f64::from(i) / 60.0)).collect();
        let fig = UtilVsApsFigure::compute(&backend_with(&points), W, Band::Ghz2_4);
        assert!(fig.pearson_r.unwrap() > 0.95);
        assert!(fig.spearman_rho.unwrap() > 0.95);
    }

    #[test]
    fn uncorrelated_data_passes_paper_check() {
        // Deterministic pseudo-independent data.
        let points: Vec<(u32, f64)> = (0..200)
            .map(|i| ((i * 7) % 40, f64::from((i * 13) % 100) / 100.0))
            .collect();
        let fig = UtilVsApsFigure::compute(&backend_with(&points), W, Band::Ghz2_4);
        let weak = |r: Option<f64>| r.unwrap().abs() < 0.4;
        assert!(
            weak(fig.pearson_r) && weak(fig.spearman_rho),
            "r = {:?}, rho = {:?}",
            fig.pearson_r,
            fig.spearman_rho
        );
    }

    #[test]
    fn utilization_scaled_from_ppm() {
        let fig = UtilVsApsFigure::compute(&backend_with(&[(10, 0.25)]), W, Band::Ghz2_4);
        assert_eq!(fig.points.len(), 1);
        assert!((fig.points[0].1 - 0.25).abs() < 1e-6);
        assert!((fig.points[0].0 - 10.0).abs() < 1e-12);
    }

    #[test]
    fn empty_is_na() {
        let fig = UtilVsApsFigure::compute(&Backend::new(), W, Band::Ghz5);
        assert_eq!(fig.pearson_r, None);
        assert_eq!(fig.spearman_rho, None);
        assert!(fig.to_string().contains("n/a"));
    }
}
