//! Indoor radio propagation: path loss, shadowing, noise and SNR.
//!
//! The paper's link findings hinge on two propagation facts this module
//! reproduces:
//!
//! 1. **5 GHz attenuates faster than 2.4 GHz.** Free-space loss alone is
//!    ~6.6 dB higher at 5.2 GHz, and walls hit the higher band harder.
//!    That is the paper's explanation for why only 20% of clients were
//!    associated at 5 GHz even though ~65% were 5 GHz-capable (§3.1), and
//!    why 5 GHz inter-AP links are bimodal (few neighbours in range, but
//!    the ones in range are strong — Figure 3).
//! 2. **Indoor shadowing is log-normal** with σ ≈ 7–9 dB, which is what
//!    turns a deterministic distance-loss curve into the broad RSSI
//!    distribution of Figure 1.
//!
//! The model is the classic log-distance form
//! `PL(d) = PL(d0) + 10·n·log10(d/d0) + X_sigma` with band-dependent
//! exponent and reference loss.

use airstat_stats::dist::Normal;
use rand::Rng;

use crate::band::Band;

/// Thermal noise floor for a 20 MHz channel (dBm): −174 dBm/Hz + 73 dB of
/// bandwidth + ~7 dB receiver noise figure.
pub const NOISE_FLOOR_DBM: f64 = -94.0;

/// Deployment environment, controlling path-loss exponent and shadowing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Environment {
    /// Open-plan office / retail floor.
    OpenIndoor,
    /// Dense office with many walls (the typical enterprise deployment).
    DenseIndoor,
    /// Outdoor campus / warehouse with long sight lines.
    OpenOutdoor,
}

impl Environment {
    /// Path-loss exponent `n`.
    pub(crate) fn exponent(self) -> f64 {
        match self {
            Environment::OpenIndoor => 2.8,
            Environment::DenseIndoor => 3.5,
            Environment::OpenOutdoor => 2.2,
        }
    }

    /// Log-normal shadowing standard deviation (dB).
    pub(crate) fn shadowing_sigma_db(self) -> f64 {
        match self {
            Environment::OpenIndoor => 6.0,
            Environment::DenseIndoor => 8.5,
            Environment::OpenOutdoor => 4.0,
        }
    }
}

/// A log-distance path-loss model for one environment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathLoss {
    environment: Environment,
}

impl PathLoss {
    /// Creates a model for the given environment.
    pub fn new(environment: Environment) -> Self {
        PathLoss { environment }
    }

    /// Reference loss at 1 m (free space), band dependent.
    ///
    /// FSPL(1 m) = 20·log10(f_MHz) − 27.55 ≈ 40.0 dB at 2.437 GHz and
    /// 46.8 dB at 5.22 GHz.
    pub(crate) fn reference_loss_db(&self, band: Band) -> f64 {
        let f_mhz: f64 = match band {
            Band::Ghz2_4 => 2437.0,
            Band::Ghz5 => 5220.0,
        };
        20.0 * f_mhz.log10() - 27.55
    }

    /// Median path loss (dB) at distance `d_m` metres (no shadowing).
    ///
    /// Distances below 1 m clamp to the reference loss. The 5 GHz band
    /// additionally pays a 3 dB material-penetration penalty per decade,
    /// folded into the exponent.
    pub fn median_loss_db(&self, band: Band, d_m: f64) -> f64 {
        let d = d_m.max(1.0);
        let band_exponent_bonus = match band {
            Band::Ghz2_4 => 0.0,
            // 5 GHz pays a materially higher effective exponent indoors:
            // walls, furniture and people absorb the shorter wavelength
            // far more, which is what keeps most clients and most probe
            // links on 2.4 GHz in the paper.
            Band::Ghz5 => 0.8,
        };
        let n = self.environment.exponent() + band_exponent_bonus;
        self.reference_loss_db(band) + 10.0 * n * d.log10()
    }

    /// Samples a shadowing term (dB) for one link.
    ///
    /// Shadowing is a property of the *path* (walls, furniture), so callers
    /// should sample it once per link and reuse it, not per packet.
    pub fn sample_shadowing_db<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        Normal::new(0.0, self.environment.shadowing_sigma_db()).sample(rng)
    }

    /// Received signal strength (dBm) for a given transmit power, distance
    /// and per-link shadowing term.
    pub fn rssi_dbm(&self, band: Band, tx_power_dbm: f64, d_m: f64, shadowing_db: f64) -> f64 {
        tx_power_dbm - self.median_loss_db(band, d_m) + shadowing_db
    }
}

/// Converts dBm to milliwatts.
pub(crate) fn dbm_to_mw(dbm: f64) -> f64 {
    10f64.powf(dbm / 10.0)
}

/// Converts milliwatts to dBm.
///
/// # Panics
/// Panics if `mw <= 0`.
pub(crate) fn mw_to_dbm(mw: f64) -> f64 {
    assert!(mw > 0.0, "power must be positive");
    10.0 * mw.log10()
}

#[cfg(test)]
mod tests {
    use super::*;
    use airstat_stats::SeedTree;

    #[test]
    fn reference_loss_band_gap() {
        let pl = PathLoss::new(Environment::DenseIndoor);
        let gap = pl.reference_loss_db(Band::Ghz5) - pl.reference_loss_db(Band::Ghz2_4);
        // 20*log10(5220/2437) ≈ 6.6 dB.
        assert!((gap - 6.6).abs() < 0.2, "gap {gap}");
    }

    #[test]
    fn loss_monotone_in_distance() {
        let pl = PathLoss::new(Environment::OpenIndoor);
        let mut prev = f64::NEG_INFINITY;
        for d in [1.0, 2.0, 5.0, 10.0, 30.0, 100.0] {
            let l = pl.median_loss_db(Band::Ghz2_4, d);
            assert!(l > prev, "loss must grow with distance");
            prev = l;
        }
    }

    #[test]
    fn five_ghz_always_lossier() {
        let pl = PathLoss::new(Environment::DenseIndoor);
        for d in [1.0, 5.0, 20.0, 80.0] {
            assert!(
                pl.median_loss_db(Band::Ghz5, d) > pl.median_loss_db(Band::Ghz2_4, d),
                "5 GHz must attenuate more at {d} m"
            );
        }
    }

    #[test]
    fn sub_metre_clamps() {
        let pl = PathLoss::new(Environment::OpenIndoor);
        assert_eq!(
            pl.median_loss_db(Band::Ghz2_4, 0.1),
            pl.median_loss_db(Band::Ghz2_4, 1.0)
        );
    }

    #[test]
    fn rssi_realistic_office_range() {
        // 23 dBm AP (MR16 2.4 GHz) at 20 m dense office: RSSI should be a
        // plausible mid-range value (paper's median client is ~28 dB SNR).
        let pl = PathLoss::new(Environment::DenseIndoor);
        let rssi = pl.rssi_dbm(Band::Ghz2_4, 23.0, 20.0, 0.0);
        assert!(rssi < -50.0 && rssi > -85.0, "rssi {rssi}");
        let snr = rssi - NOISE_FLOOR_DBM;
        assert!(snr > 10.0 && snr < 45.0, "snr {snr}");
    }

    #[test]
    fn shadowing_is_zero_mean() {
        let pl = PathLoss::new(Environment::DenseIndoor);
        let mut rng = SeedTree::new(11).rng();
        let n = 50_000;
        let mean: f64 = (0..n)
            .map(|_| pl.sample_shadowing_db(&mut rng))
            .sum::<f64>()
            / n as f64;
        assert!(mean.abs() < 0.2, "mean {mean}");
    }

    #[test]
    fn dbm_mw_roundtrip() {
        for dbm in [-90.0, -30.0, 0.0, 23.0] {
            assert!((mw_to_dbm(dbm_to_mw(dbm)) - dbm).abs() < 1e-9);
        }
        assert!((dbm_to_mw(0.0) - 1.0).abs() < 1e-12);
        assert!((dbm_to_mw(23.0) - 199.5).abs() < 0.1);
    }

    #[test]
    #[should_panic(expected = "power must be positive")]
    fn mw_to_dbm_rejects_zero() {
        let _ = mw_to_dbm(0.0);
    }
}
