//! Inter-AP probe links: delivery probability and time variation.
//!
//! §4.2 of the paper: each AP broadcasts a 60-byte probe every 15 s; each
//! receiving AP computes a delivery ratio over a sliding 300 s window. The
//! headline observations are:
//!
//! * at 2.4 GHz the **majority of links are intermediate** (neither ~0 nor
//!   ~1), and delivery degraded over six months as interference grew;
//! * at 5 GHz **over half the links deliver everything**, with fewer
//!   intermediate links, but they still vary over time (Figure 5);
//! * delivery is *not* predictable from RSSI alone (citing Aguayo et al.
//!   and Halperin et al.) — frequency-selective multipath fading puts some
//!   strong-signal links in the intermediate region.
//!
//! [`LinkModel`] captures that with three ingredients:
//!
//! 1. an SNR-vs-delivery sigmoid for the probe modulation,
//! 2. a static per-link **multipath penalty** (an extra dB loss drawn from
//!    an exponential distribution — most links are clean, a heavy tail is
//!    badly faded), which is what decouples delivery from mean RSSI,
//! 3. interference-driven collision loss proportional to channel
//!    utilization, plus a slow AR(1) process that wanders over hours so
//!    week-long time series look like Figures 4/5.

use airstat_stats::dist::Exponential;
use rand::Rng;

use crate::band::Band;
use crate::propagation::NOISE_FLOOR_DBM;

/// Static description of one directed AP→AP probe link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeLink {
    /// Band the probes are sent on.
    pub band: Band,
    /// Mean received signal strength at the receiver (dBm).
    pub rssi_dbm: f64,
    /// Static multipath/fading penalty for this path (dB, >= 0).
    pub multipath_penalty_db: f64,
}

impl ProbeLink {
    /// Mean SNR of this link above the thermal floor (dB), before the
    /// multipath penalty.
    pub fn snr_db(&self) -> f64 {
        self.rssi_dbm - NOISE_FLOOR_DBM
    }

    /// Effective SNR after the multipath penalty.
    pub(crate) fn effective_snr_db(&self) -> f64 {
        self.snr_db() - self.multipath_penalty_db
    }
}

/// Parameters of the delivery-probability model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkModel {
    /// SNR (dB) at which delivery is 50% for the probe modulation.
    pub snr_mid_db: f64,
    /// Logistic steepness (dB per unit logit).
    pub snr_scale_db: f64,
    /// Fraction of collision loss per unit channel utilization.
    ///
    /// A probe that arrives during foreign airtime is lost; with
    /// utilization `u` the collision-survival factor is `1 - collision_coupling * u`.
    pub collision_coupling: f64,
}

impl LinkModel {
    /// Model for the 60-byte probes of §4.2.
    ///
    /// 1 Mb/s DSSS (2.4 GHz) decodes a few dB lower than 6 Mb/s OFDM
    /// (5 GHz), but both are robust modulations — the mid-point sits a few
    /// dB above the floor.
    pub fn for_band(band: Band) -> Self {
        match band {
            Band::Ghz2_4 => LinkModel {
                snr_mid_db: 5.0,
                snr_scale_db: 2.0,
                collision_coupling: 0.9,
            },
            Band::Ghz5 => LinkModel {
                snr_mid_db: 8.0,
                snr_scale_db: 1.8,
                // A 144 µs OFDM probe is on the air ~6x shorter than the
                // 896 µs 1 Mb/s DSSS probe, so its collision window with
                // foreign traffic is proportionally smaller.
                collision_coupling: 0.6,
            },
        }
    }

    /// Probability that one probe on `link` is delivered, given the current
    /// channel utilization `u` in `[0, 1]` and an instantaneous fading
    /// offset in dB (0 for the long-term mean).
    pub fn delivery_probability(&self, link: &ProbeLink, utilization: f64, fading_db: f64) -> f64 {
        let u = utilization.clamp(0.0, 1.0);
        let snr = link.effective_snr_db() + fading_db;
        let decode = 1.0 / (1.0 + (-(snr - self.snr_mid_db) / self.snr_scale_db).exp());
        let survive = 1.0 - self.collision_coupling * u;
        (decode * survive).clamp(0.0, 1.0)
    }
}

/// Samples the static multipath penalty for a new link.
///
/// Exponentially distributed: most links see < 3 dB, the unlucky tail sees
/// 15+ dB, putting strong-RSSI links into the intermediate-delivery region
/// exactly as the measurement literature reports.
pub fn sample_multipath_penalty_db<R: Rng + ?Sized>(band: Band, rng: &mut R) -> f64 {
    // 2.4 GHz suffers more multipath in practice (more reflective clutter
    // per wavelength and more co-channel energy exciting it).
    let mean_db = match band {
        Band::Ghz2_4 => 4.5,
        // Wider channels and less co-channel energy give 5 GHz links far
        // less multipath trouble (Halperin et al.'s CSI findings).
        Band::Ghz5 => 1.8,
    };
    Exponential::with_mean(mean_db).sample(rng)
}

/// A slow AR(1) (Ornstein–Uhlenbeck-like) process for link fading over time.
///
/// Step once per probe interval; the process has unit-free state in dB with
/// standard deviation `sigma_db` and mean-reversion `phi` per step, so a
/// week-long trace shows multi-hour excursions like Figures 4/5.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FadingProcess {
    state_db: f64,
    phi: f64,
    sigma_db: f64,
}

impl FadingProcess {
    /// Creates a process with mean-reversion `phi` in `[0, 1)` and
    /// stationary standard deviation `sigma_db`.
    ///
    /// # Panics
    /// Panics unless `0 <= phi < 1` and `sigma_db >= 0`.
    pub(crate) fn new(phi: f64, sigma_db: f64) -> Self {
        assert!((0.0..1.0).contains(&phi), "phi must be in [0, 1)");
        assert!(sigma_db >= 0.0, "sigma must be >= 0");
        FadingProcess {
            state_db: 0.0,
            phi,
            sigma_db,
        }
    }

    /// Default parameters for probe-interval (15 s) stepping: ~2 h
    /// correlation time, 2 dB stationary deviation.
    pub fn probe_interval_default() -> Self {
        FadingProcess::new(0.998, 2.0)
    }

    /// Advances one step and returns the new offset.
    pub fn step<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        // Innovation variance chosen so the stationary std dev is sigma_db.
        let innovation = self.sigma_db * (1.0 - self.phi * self.phi).sqrt();
        let noise: f64 = airstat_stats::dist::standard_normal(rng);
        self.state_db = self.phi * self.state_db + innovation * noise;
        self.state_db
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use airstat_stats::SeedTree;

    fn link(band: Band, rssi: f64, penalty: f64) -> ProbeLink {
        ProbeLink {
            band,
            rssi_dbm: rssi,
            multipath_penalty_db: penalty,
        }
    }

    #[test]
    fn strong_clean_link_delivers() {
        let m = LinkModel::for_band(Band::Ghz5);
        let l = link(Band::Ghz5, -60.0, 0.0);
        let p = m.delivery_probability(&l, 0.0, 0.0);
        assert!(p > 0.999, "p = {p}");
    }

    #[test]
    fn weak_link_fails() {
        let m = LinkModel::for_band(Band::Ghz2_4);
        let l = link(Band::Ghz2_4, -93.0, 0.0); // 1 dB SNR
        let p = m.delivery_probability(&l, 0.0, 0.0);
        assert!(p < 0.25, "p = {p}");
    }

    #[test]
    fn multipath_penalty_makes_strong_link_intermediate() {
        let m = LinkModel::for_band(Band::Ghz2_4);
        let clean = link(Band::Ghz2_4, -70.0, 0.0);
        let faded = link(Band::Ghz2_4, -70.0, 19.0); // same RSSI!
        let p_clean = m.delivery_probability(&clean, 0.0, 0.0);
        let p_faded = m.delivery_probability(&faded, 0.0, 0.0);
        assert!(p_clean > 0.99);
        assert!(
            p_faded > 0.1 && p_faded < 0.9,
            "faded link should be intermediate: {p_faded}"
        );
    }

    #[test]
    fn utilization_degrades_delivery() {
        let m = LinkModel::for_band(Band::Ghz2_4);
        let l = link(Band::Ghz2_4, -60.0, 0.0);
        let p0 = m.delivery_probability(&l, 0.0, 0.0);
        let p25 = m.delivery_probability(&l, 0.25, 0.0);
        let p50 = m.delivery_probability(&l, 0.5, 0.0);
        assert!(p0 > p25 && p25 > p50);
        // With 25% utilization and 0.9 coupling, survival ≈ 0.775.
        assert!((p25 / p0 - 0.775).abs() < 0.01);
    }

    #[test]
    fn probability_always_in_unit_interval() {
        let m = LinkModel::for_band(Band::Ghz2_4);
        for rssi in [-120.0, -90.0, -60.0, -20.0] {
            for u in [0.0, 0.5, 1.0, 2.0] {
                for fade in [-30.0, 0.0, 30.0] {
                    let p = m.delivery_probability(&link(Band::Ghz2_4, rssi, 0.0), u, fade);
                    assert!((0.0..=1.0).contains(&p));
                }
            }
        }
    }

    #[test]
    fn penalty_distribution_heavy_tail() {
        let mut rng = SeedTree::new(5).rng();
        let n = 20_000;
        let penalties: Vec<f64> = (0..n)
            .map(|_| sample_multipath_penalty_db(Band::Ghz2_4, &mut rng))
            .collect();
        let under3 = penalties.iter().filter(|&&p| p < 3.0).count() as f64 / n as f64;
        let over15 = penalties.iter().filter(|&&p| p > 15.0).count() as f64 / n as f64;
        assert!(under3 > 0.4, "most links are clean: {under3}");
        assert!(over15 > 0.01 && over15 < 0.15, "tail exists: {over15}");
    }

    #[test]
    fn five_ghz_penalties_smaller_on_average() {
        let mut rng = SeedTree::new(6).rng();
        let n = 20_000;
        let mean24: f64 = (0..n)
            .map(|_| sample_multipath_penalty_db(Band::Ghz2_4, &mut rng))
            .sum::<f64>()
            / n as f64;
        let mean5: f64 = (0..n)
            .map(|_| sample_multipath_penalty_db(Band::Ghz5, &mut rng))
            .sum::<f64>()
            / n as f64;
        assert!(mean24 > mean5);
    }

    #[test]
    fn fading_process_stationary_stats() {
        let mut rng = SeedTree::new(7).rng();
        let mut f = FadingProcess::new(0.9, 2.0);
        // Burn in, then measure.
        for _ in 0..1000 {
            f.step(&mut rng);
        }
        let n = 200_000;
        let mut sum = 0.0;
        let mut sq = 0.0;
        for _ in 0..n {
            let x = f.step(&mut rng);
            sum += x;
            sq += x * x;
        }
        let mean = sum / n as f64;
        let std = (sq / n as f64 - mean * mean).sqrt();
        assert!(mean.abs() < 0.15, "mean {mean}");
        assert!((std - 2.0).abs() < 0.15, "std {std}");
    }

    #[test]
    fn fading_process_is_correlated() {
        let mut rng = SeedTree::new(8).rng();
        let mut f = FadingProcess::probe_interval_default();
        for _ in 0..5000 {
            f.step(&mut rng);
        }
        // Consecutive steps should be nearly identical (phi ≈ 0.998).
        let a = f.step(&mut rng);
        let b = f.step(&mut rng);
        assert!((a - b).abs() < 1.0, "steps {a} vs {b}");
    }

    #[test]
    #[should_panic(expected = "phi must be in [0, 1)")]
    fn fading_rejects_unstable_phi() {
        let _ = FadingProcess::new(1.0, 1.0);
    }

    #[test]
    fn snr_accessors() {
        let l = link(Band::Ghz5, -64.0, 10.0);
        assert!((l.snr_db() - 30.0).abs() < 1e-12);
        assert!((l.effective_snr_db() - 20.0).abs() < 1e-12);
    }
}
