//! Figures 4 and 5: delivery-ratio variation over a week for sample links.
//!
//! The paper plots two randomly chosen links per band. We pick, per band,
//! the links whose mean ratio is most "intermediate" (closest to 0.5 and
//! 0.75) so the plots show the interesting dynamics, then render their
//! week-long series.

use airstat_rf::band::Band;
use airstat_store::FleetQuery;
use airstat_telemetry::backend::{LinkKey, WindowId};
use std::fmt;

/// One link's plotted series.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkSeries {
    /// Which link.
    pub key: LinkKey,
    /// `(timestamp_s, delivery_ratio)` points across the week.
    pub points: Vec<(u64, f64)>,
}

impl LinkSeries {
    /// Mean ratio across the series.
    pub(crate) fn mean(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        // airstat::allow(float-fold-order): points is one link's series in sealed time order, identical for every shard/thread count
        self.points.iter().map(|p| p.1).sum::<f64>() / self.points.len() as f64
    }

    /// Peak-to-trough swing of the series.
    pub fn swing(&self) -> f64 {
        // airstat::allow(float-fold-order): max is order-insensitive over finite samples
        let max = self.points.iter().map(|p| p.1).fold(f64::MIN, f64::max);
        // airstat::allow(float-fold-order): min is order-insensitive over finite samples
        let min = self.points.iter().map(|p| p.1).fold(f64::MAX, f64::min);
        if self.points.is_empty() {
            0.0
        } else {
            max - min
        }
    }
}

/// Figures 4/5: sample link series for one band.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkTimeseriesFigure {
    /// The band plotted (Figure 4: 2.4 GHz; Figure 5: 5 GHz).
    pub band: Band,
    /// The selected sample links (two in the paper).
    pub series: Vec<LinkSeries>,
}

impl LinkTimeseriesFigure {
    /// Selects `count` links with mean ratios nearest the given anchors
    /// and extracts their series.
    pub(crate) fn compute<Q: FleetQuery>(
        backend: &Q,
        window: WindowId,
        band: Band,
        count: usize,
    ) -> Self {
        let anchors = [0.5, 0.75, 0.3, 0.9];
        let keys = backend.link_keys(window, band);
        let mut scored: Vec<(LinkKey, f64)> = keys
            .into_iter()
            .filter_map(|key| {
                let obs = backend.link_series(window, key);
                if obs.len() < 4 {
                    return None;
                }
                // airstat::allow(float-fold-order): obs comes back from the store in sealed CSR order, identical for every shard/thread count
                let mean = obs.iter().map(|o| o.ratio).sum::<f64>() / obs.len() as f64;
                Some((key, mean))
            })
            .collect();
        let mut series = Vec::new();
        for anchor in anchors {
            if series.len() >= count || scored.is_empty() {
                break;
            }
            // Closest remaining link to this anchor.
            let (pos, _) = scored
                .iter()
                .enumerate()
                .min_by(|a, b| {
                    (a.1 .1 - anchor)
                        .abs()
                        .partial_cmp(&(b.1 .1 - anchor).abs())
                        .expect("invariant: these floats are finite by construction, so partial_cmp is total")
                })
                .expect("invariant: scored checked non-empty by the len() guard above");
            let (key, _) = scored.swap_remove(pos);
            let points = backend
                .link_series(window, key)
                .iter()
                .map(|o| (o.timestamp_s, o.ratio))
                .collect();
            series.push(LinkSeries { key, points });
        }
        LinkTimeseriesFigure { band, series }
    }
}

impl fmt::Display for LinkTimeseriesFigure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for s in &self.series {
            writeln!(
                f,
                "link {} -> {} ({}): mean {:.2}, swing {:.2}",
                s.key.tx_device,
                s.key.rx_device,
                self.band,
                s.mean(),
                s.swing()
            )?;
            // Sparkline: one character per observation, 9 levels.
            const LEVELS: &[char] = &['_', '.', ':', '-', '=', '+', '*', '%', '#'];
            let line: String = s
                .points
                .iter()
                .map(|&(_, r)| {
                    let idx = (r * (LEVELS.len() - 1) as f64).round() as usize;
                    LEVELS[idx.min(LEVELS.len() - 1)]
                })
                .collect();
            writeln!(f, "  {line}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use airstat_telemetry::backend::Backend;
    use airstat_telemetry::report::{LinkRecord, Report, ReportPayload};

    const W: WindowId = WindowId(1501);

    fn backend() -> Backend {
        let mut b = Backend::new();
        let mut seq = 0;
        // Link A: hovers near 0.5. Link B: near 1.0. Link C: near 0.75.
        for (tx, base) in [(10u64, 10u32), (11, 20), (12, 15)] {
            for t in 0..10u64 {
                seq += 1;
                b.ingest(
                    W,
                    &Report {
                        device: 1,
                        seq,
                        timestamp_s: t * 3600,
                        payload: ReportPayload::Links(vec![LinkRecord {
                            peer_device: tx,
                            band: Band::Ghz2_4,
                            probes_expected: 20,
                            probes_received: base.min(20),
                        }]),
                    },
                );
            }
        }
        b
    }

    #[test]
    fn selects_intermediate_links_first() {
        let fig = LinkTimeseriesFigure::compute(&backend(), W, Band::Ghz2_4, 2);
        assert_eq!(fig.series.len(), 2);
        // First anchor is 0.5 → link with tx=10 (ratio 0.5).
        assert_eq!(fig.series[0].key.tx_device, 10);
        assert!((fig.series[0].mean() - 0.5).abs() < 1e-9);
        // Second anchor 0.75 → tx=12.
        assert_eq!(fig.series[1].key.tx_device, 12);
    }

    #[test]
    fn series_have_full_week() {
        let fig = LinkTimeseriesFigure::compute(&backend(), W, Band::Ghz2_4, 1);
        assert_eq!(fig.series[0].points.len(), 10);
        assert_eq!(fig.series[0].points[3].0, 3 * 3600);
    }

    #[test]
    fn handles_fewer_links_than_requested() {
        let fig = LinkTimeseriesFigure::compute(&backend(), W, Band::Ghz2_4, 10);
        assert_eq!(fig.series.len(), 3);
        let empty = LinkTimeseriesFigure::compute(&Backend::new(), W, Band::Ghz2_4, 2);
        assert!(empty.series.is_empty());
    }

    #[test]
    fn renders_sparklines() {
        let s = LinkTimeseriesFigure::compute(&backend(), W, Band::Ghz2_4, 2).to_string();
        assert!(s.contains("mean 0.50"));
        assert!(s.lines().count() >= 4);
    }
}
