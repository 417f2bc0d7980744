//! Figure 9: channel utilization by day vs night (MR18 scanner view).
//!
//! Paper: CDFs of utilization measured at 10 a.m. and 10 p.m. Pacific.
//! At 2.4 GHz the median channel sees ~5 percentage points more
//! utilization by day; at 5 GHz day and night are similar because most
//! channels are simply unused (which also skews the whole distribution
//! toward zero relative to Figure 6's serving-channel view).

use airstat_rf::band::Band;
use airstat_stats::Ecdf;
use airstat_store::FleetQuery;
use airstat_telemetry::backend::WindowId;
use std::fmt;

use crate::render::render_cdfs;

/// Hour-of-day extraction from a device timestamp.
fn hour_of(timestamp_s: u64) -> u64 {
    (timestamp_s % 86_400) / 3_600
}

/// Figure 9's reproduction for one band.
#[derive(Debug, Clone, PartialEq)]
pub struct DayNightFigure {
    /// The band.
    pub band: Band,
    /// Utilization samples taken at the daytime sampling hour.
    pub day: Ecdf,
    /// Utilization samples taken at the nighttime sampling hour.
    pub night: Ecdf,
}

impl DayNightFigure {
    /// Splits the window's scan observations by sampling hour.
    pub(crate) fn compute<Q: FleetQuery>(
        backend: &Q,
        window: WindowId,
        band: Band,
        day_hour: u64,
        night_hour: u64,
    ) -> Self {
        let mut day = Vec::new();
        let mut night = Vec::new();
        for o in backend.scan_observations(window, band) {
            let util = f64::from(o.record.utilization_ppm) / 1e6;
            let h = hour_of(o.timestamp_s);
            if h == day_hour {
                day.push(util);
            } else if h == night_hour {
                night.push(util);
            }
        }
        DayNightFigure {
            band,
            day: Ecdf::new(day),
            night: Ecdf::new(night),
        }
    }

    /// Median day-night utilization gap in percentage points.
    pub(crate) fn median_gap_points(&self) -> Option<f64> {
        Some((self.day.median()? - self.night.median()?) * 100.0)
    }

    /// Mean day-night gap in percentage points (the medians of sparse
    /// 5 GHz distributions are often both zero; the mean still moves).
    pub fn mean_gap_points(&self) -> Option<f64> {
        Some((self.day.mean()? - self.night.mean()?) * 100.0)
    }
}

impl fmt::Display for DayNightFigure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: {} day / {} night samples, median gap {} pts, mean gap {} pts",
            self.band,
            self.day.len(),
            self.night.len(),
            self.median_gap_points()
                .map_or("n/a".into(), |g| format!("{g:.1}")),
            self.mean_gap_points()
                .map_or("n/a".into(), |g| format!("{g:.1}")),
        )?;
        f.write_str(&render_cdfs(
            &[("day (10:00)", &self.day), ("night (22:00)", &self.night)],
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
        let mut put = |hour: u64, util: f64| {
            seq += 1;
            b.ingest(
                W,
                &Report {
                    device: 1,
                    seq,
                    timestamp_s: hour * 3600,
                    payload: ReportPayload::ChannelScan(vec![ChannelScanRecord {
                        channel: Channel::new(Band::Ghz2_4, 6).unwrap(),
                        utilization_ppm: (util * 1e6) as u32,
                        decodable_ppm: 900_000,
                        networks: 5,
                    }]),
                },
            );
        };
        for _ in 0..5 {
            put(10, 0.30);
            put(22, 0.25);
            put(3, 0.10); // off-hour sample, must be ignored
        }
        b
    }

    #[test]
    fn splits_by_hour_and_ignores_others() {
        let fig = DayNightFigure::compute(&backend(), W, Band::Ghz2_4, 10, 22);
        assert_eq!(fig.day.len(), 5);
        assert_eq!(fig.night.len(), 5);
        let gap = fig.median_gap_points().unwrap();
        assert!((gap - 5.0).abs() < 1e-9, "gap {gap}");
    }

    #[test]
    fn hour_extraction_wraps_days() {
        assert_eq!(hour_of(10 * 3600), 10);
        assert_eq!(hour_of(86_400 + 22 * 3600), 22);
        assert_eq!(hour_of(3 * 86_400), 0);
    }

    #[test]
    fn empty_gap_is_none() {
        let fig = DayNightFigure::compute(&Backend::new(), W, Band::Ghz5, 10, 22);
        assert_eq!(fig.median_gap_points(), None);
        assert_eq!(fig.mean_gap_points(), None);
    }

    #[test]
    fn renders() {
        let s = DayNightFigure::compute(&backend(), W, Band::Ghz2_4, 10, 22).to_string();
        assert!(s.contains("day (10:00)"));
        assert!(s.contains("median gap"));
    }
}
