//! Figure 3: distribution of link delivery ratios, now vs six months ago.

use airstat_rf::band::Band;
use airstat_stats::Ecdf;
use airstat_store::FleetQuery;
use airstat_telemetry::backend::WindowId;
use std::fmt;

use crate::render::render_cdfs;

/// Figure 3's reproduction: four delivery-ratio CDFs.
#[derive(Debug, Clone, PartialEq)]
pub struct DeliveryFigure {
    /// 2.4 GHz links, current window.
    pub now_2_4: Ecdf,
    /// 2.4 GHz links, six months earlier.
    pub before_2_4: Ecdf,
    /// 5 GHz links, current window.
    pub now_5: Ecdf,
    /// 5 GHz links, six months earlier.
    pub before_5: Ecdf,
}

impl DeliveryFigure {
    /// Computes the CDFs from each link's mean delivery ratio per window.
    pub(crate) fn compute<Q: FleetQuery>(backend: &Q, before: WindowId, now: WindowId) -> Self {
        DeliveryFigure {
            now_2_4: Ecdf::new(backend.mean_delivery_ratios(now, Band::Ghz2_4)),
            before_2_4: Ecdf::new(backend.mean_delivery_ratios(before, Band::Ghz2_4)),
            now_5: Ecdf::new(backend.mean_delivery_ratios(now, Band::Ghz5)),
            before_5: Ecdf::new(backend.mean_delivery_ratios(before, Band::Ghz5)),
        }
    }

    /// Fraction of links with intermediate delivery (ratio in `(lo, hi]`).
    pub fn intermediate_fraction(ecdf: &Ecdf, lo: f64, hi: f64) -> f64 {
        if ecdf.is_empty() {
            return 0.0;
        }
        ecdf.fraction_at_or_below(hi) - ecdf.fraction_at_or_below(lo)
    }

    /// Fraction of 5 GHz links delivering everything (paper: over half).
    pub(crate) fn perfect_fraction_5_now(&self) -> f64 {
        self.now_5.mass_at(1.0, 0.025)
    }
}

impl fmt::Display for DeliveryFigure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "links: {} (2.4 GHz) / {} (5 GHz) now; {} / {} six months ago",
            self.now_2_4.len(),
            self.now_5.len(),
            self.before_2_4.len(),
            self.before_5.len()
        )?;
        writeln!(
            f,
            "2.4 GHz intermediate (0.1-0.9): {:.0}% now; 5 GHz at ratio 1.0: {:.0}%",
            Self::intermediate_fraction(&self.now_2_4, 0.1, 0.9) * 100.0,
            self.perfect_fraction_5_now() * 100.0
        )?;
        f.write_str(&render_cdfs(
            &[
                ("2.4 GHz now", &self.now_2_4),
                ("2.4 GHz -6mo", &self.before_2_4),
                ("5 GHz now", &self.now_5),
                ("5 GHz -6mo", &self.before_5),
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
    use airstat_telemetry::backend::Backend;
    use airstat_telemetry::report::{LinkRecord, Report, ReportPayload};

    const NOW: WindowId = WindowId(1501);
    const BEFORE: WindowId = WindowId(1407);

    fn backend() -> Backend {
        let mut b = Backend::new();
        let mut seq = 0;
        let mut put = |window, rx: u64, tx: u64, band, received: u32| {
            seq += 1;
            b.ingest(
                window,
                &Report {
                    device: rx,
                    seq,
                    timestamp_s: 0,
                    payload: ReportPayload::Links(vec![LinkRecord {
                        peer_device: tx,
                        band,
                        probes_expected: 20,
                        probes_received: received,
                    }]),
                },
            );
        };
        // Six months ago: strong 2.4 links.
        put(BEFORE, 1, 2, Band::Ghz2_4, 19);
        put(BEFORE, 1, 3, Band::Ghz2_4, 18);
        // Now: degraded.
        put(NOW, 1, 2, Band::Ghz2_4, 12);
        put(NOW, 1, 3, Band::Ghz2_4, 10);
        // 5 GHz now: one perfect, one intermediate.
        put(NOW, 1, 2, Band::Ghz5, 20);
        put(NOW, 1, 3, Band::Ghz5, 13);
        b
    }

    #[test]
    fn link_counts_and_degradation() {
        let fig = DeliveryFigure::compute(&backend(), BEFORE, NOW);
        assert_eq!(fig.now_2_4.len(), 2);
        assert_eq!(fig.before_2_4.len(), 2);
        assert_eq!(fig.now_5.len(), 2);
        assert!(fig.now_2_4.median().unwrap() < fig.before_2_4.median().unwrap());
    }

    #[test]
    fn perfect_and_intermediate_fractions() {
        let fig = DeliveryFigure::compute(&backend(), BEFORE, NOW);
        assert!((fig.perfect_fraction_5_now() - 0.5).abs() < 1e-12);
        let inter = DeliveryFigure::intermediate_fraction(&fig.now_2_4, 0.1, 0.9);
        assert!((inter - 1.0).abs() < 1e-12, "both 2.4 links intermediate");
    }

    #[test]
    fn intermediate_window_is_open_below_and_closed_above() {
        let ecdf = Ecdf::new([0.1, 0.5, 0.9, 1.0]);
        let inter = DeliveryFigure::intermediate_fraction(&ecdf, 0.1, 0.9);
        assert!(
            (inter - 0.5).abs() < 1e-12,
            "0.5 and 0.9 count, 0.1 does not"
        );
    }

    #[test]
    fn empty_backend_safe() {
        let fig = DeliveryFigure::compute(&Backend::new(), BEFORE, NOW);
        assert_eq!(fig.now_2_4.median(), None);
        assert_eq!(fig.perfect_fraction_5_now(), 0.0);
    }

    #[test]
    fn renders() {
        let s = DeliveryFigure::compute(&backend(), BEFORE, NOW).to_string();
        assert!(s.contains("2.4 GHz now"));
        assert!(s.contains("intermediate"));
    }
}
