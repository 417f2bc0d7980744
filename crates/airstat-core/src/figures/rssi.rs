//! Figure 1: distribution of client received signal strength.
//!
//! The paper's snapshot: ~309,000 connected clients one January 2015
//! evening, ~80% associated at 2.4 GHz despite ~65% being 5 GHz-capable,
//! median signal ~28 dB above the noise floor on both bands.

use airstat_rf::band::Band;
use airstat_rf::propagation::NOISE_FLOOR_DBM;
use airstat_stats::{Ecdf, Reservoir, SeedTree};
use airstat_store::FleetQuery;
use airstat_telemetry::backend::WindowId;
use std::fmt;

use crate::render::render_cdfs;

/// Figure 1's reproduction.
#[derive(Debug, Clone, PartialEq)]
pub struct RssiFigure {
    /// RSSI samples (dBm) of clients associated at 2.4 GHz.
    pub rssi_2_4: Ecdf,
    /// RSSI samples (dBm) of clients associated at 5 GHz.
    pub rssi_5: Ecdf,
}

impl RssiFigure {
    /// The paper's methodology: a bounded point-in-time sample of
    /// *currently connected* clients (~309,000 of the week's 5.58M, §3.1),
    /// taken with a uniform reservoir so snapshot cost never scales with
    /// fleet size.
    pub(crate) fn compute_snapshot<Q: FleetQuery>(
        backend: &Q,
        window: WindowId,
        sample_size: usize,
        seed: &SeedTree,
    ) -> Self {
        let mut rng = seed.child("rssi-snapshot").rng();
        let mut reservoir = Reservoir::new(sample_size.max(1));
        for (_, identity) in backend.clients(window) {
            reservoir.offer((identity.band, identity.rssi_dbm), &mut rng);
        }
        let mut r24 = Vec::new();
        let mut r5 = Vec::new();
        for &(band, rssi) in reservoir.items() {
            match band {
                Band::Ghz2_4 => r24.push(rssi),
                Band::Ghz5 => r5.push(rssi),
            }
        }
        RssiFigure {
            rssi_2_4: Ecdf::new(r24),
            rssi_5: Ecdf::new(r5),
        }
    }

    /// Fraction of clients associated at 2.4 GHz (paper: ~0.80).
    pub fn fraction_on_2_4(&self) -> f64 {
        let total = self.rssi_2_4.len() + self.rssi_5.len();
        if total == 0 {
            0.0
        } else {
            self.rssi_2_4.len() as f64 / total as f64
        }
    }

    /// Median SNR above the noise floor on a band (paper: ~28 dB).
    pub fn median_snr_db(&self, band: Band) -> Option<f64> {
        let ecdf = match band {
            Band::Ghz2_4 => &self.rssi_2_4,
            Band::Ghz5 => &self.rssi_5,
        };
        ecdf.median().map(|m| m - NOISE_FLOOR_DBM)
    }
}

impl fmt::Display for RssiFigure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "clients: {} at 2.4 GHz, {} at 5 GHz ({:.0}% on 2.4 GHz)",
            self.rssi_2_4.len(),
            self.rssi_5.len(),
            self.fraction_on_2_4() * 100.0
        )?;
        writeln!(
            f,
            "median SNR: {:.1} dB (2.4 GHz), {:.1} dB (5 GHz)",
            self.median_snr_db(Band::Ghz2_4).unwrap_or(f64::NAN),
            self.median_snr_db(Band::Ghz5).unwrap_or(f64::NAN)
        )?;
        f.write_str(&render_cdfs(
            &[("2.4 GHz", &self.rssi_2_4), ("5 GHz", &self.rssi_5)],
            -95.0,
            -30.0,
            60,
            12,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use airstat_classify::device::OsFamily;
    use airstat_classify::mac::MacAddress;
    use airstat_rf::phy::{Capabilities, Generation};
    use airstat_telemetry::backend::Backend;
    use airstat_telemetry::report::{ClientInfoRecord, Report, ReportPayload};

    const W: WindowId = WindowId(1501);

    /// The figure over every client identity in the window: the oracle a
    /// snapshot as large as the panel must reproduce.
    fn compute<Q: FleetQuery>(backend: &Q, window: WindowId) -> RssiFigure {
        let mut r24 = Vec::new();
        let mut r5 = Vec::new();
        for (_, identity) in backend.clients(window) {
            match identity.band {
                Band::Ghz2_4 => r24.push(identity.rssi_dbm),
                Band::Ghz5 => r5.push(identity.rssi_dbm),
            }
        }
        RssiFigure {
            rssi_2_4: Ecdf::new(r24),
            rssi_5: Ecdf::new(r5),
        }
    }

    fn backend() -> Backend {
        let mut b = Backend::new();
        let records: Vec<ClientInfoRecord> = (0..10u8)
            .map(|i| ClientInfoRecord {
                mac: MacAddress::new([0, 0, 0, 0, 0, i]),
                os: OsFamily::Windows,
                caps: Capabilities::new(Generation::N, true, false, 1),
                band: if i < 8 { Band::Ghz2_4 } else { Band::Ghz5 },
                rssi_dbm: -60.0 - f64::from(i),
            })
            .collect();
        b.ingest(
            W,
            &Report {
                device: 1,
                seq: 0,
                timestamp_s: 0,
                payload: ReportPayload::ClientInfo(records),
            },
        );
        b
    }

    #[test]
    fn band_split_and_counts() {
        let fig = compute(&backend(), W);
        assert_eq!(fig.rssi_2_4.len(), 8);
        assert_eq!(fig.rssi_5.len(), 2);
        assert!((fig.fraction_on_2_4() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn snr_is_rssi_above_floor() {
        let fig = compute(&backend(), W);
        let snr = fig.median_snr_db(Band::Ghz2_4).unwrap();
        // Median 2.4 GHz RSSI = -63.5 dBm → 30.5 dB above -94.
        assert!((snr - 30.5).abs() < 1e-9);
    }

    #[test]
    fn empty_is_graceful() {
        let fig = compute(&Backend::new(), W);
        assert_eq!(fig.fraction_on_2_4(), 0.0);
        assert_eq!(fig.median_snr_db(Band::Ghz5), None);
    }

    #[test]
    fn snapshot_is_a_bounded_unbiased_sample() {
        let b = backend();
        let seed = airstat_stats::SeedTree::new(4);
        let snap = RssiFigure::compute_snapshot(&b, W, 4, &seed);
        assert_eq!(snap.rssi_2_4.len() + snap.rssi_5.len(), 4);
        // Deterministic for a seed.
        let again = RssiFigure::compute_snapshot(&b, W, 4, &seed);
        assert_eq!(snap, again);
        // A sample as large as the panel reproduces compute() exactly
        // (up to ordering, which Ecdf normalizes).
        let full = RssiFigure::compute_snapshot(&b, W, 1000, &seed);
        let exact = compute(&b, W);
        assert_eq!(full.rssi_2_4.len(), exact.rssi_2_4.len());
        assert_eq!(full, exact);
    }

    #[test]
    fn renders() {
        let s = compute(&backend(), W).to_string();
        assert!(s.contains("2.4 GHz"));
        assert!(s.contains("median SNR"));
    }
}
