//! Property-based tests for the RF substrate.
//!
//! Invariants: airtime conservation (`wifi <= busy <= elapsed`), delivery
//! probabilities stay in [0, 1] and are monotone in SNR and anti-monotone
//! in utilization, channel overlap is a symmetric [0, 1] kernel, path loss
//! is monotone in distance, and scanner bookkeeping never loses dwells.

use airstat_rf::airtime::{AirtimeLedger, ChannelLoad};
use airstat_rf::band::Band;
use airstat_rf::link::{LinkModel, ProbeLink};
use airstat_rf::propagation::{Environment, PathLoss};
use airstat_rf::scanner::{ScanningRadio, SCAN_DWELL_US};
use proptest::prelude::*;

fn any_band() -> impl Strategy<Value = Band> {
    prop_oneof![Just(Band::Ghz2_4), Just(Band::Ghz5)]
}

fn any_environment() -> impl Strategy<Value = Environment> {
    prop_oneof![
        Just(Environment::OpenIndoor),
        Just(Environment::DenseIndoor),
        Just(Environment::OpenOutdoor),
    ]
}

proptest! {
    #[test]
    fn ledger_invariant(intervals in prop::collection::vec(
        (0u64..10_000_000, 0u64..20_000_000, 0u64..30_000_000), 0..50)) {
        let mut ledger = AirtimeLedger::default();
        for (elapsed, busy, wifi) in intervals {
            ledger.account(elapsed, busy, wifi);
            prop_assert!(ledger.wifi_us() <= ledger.busy_us());
            prop_assert!(ledger.busy_us() <= ledger.elapsed_us());
            if let Some(u) = ledger.utilization() {
                prop_assert!((0.0..=1.0).contains(&u));
            }
            if let Some(d) = ledger.decodable_fraction() {
                prop_assert!((0.0..=1.0).contains(&d));
            }
        }
    }

    #[test]
    fn channel_load_fractions_bounded(
        bssids in 0u32..500,
        legacy in 0.0f64..1.0,
        load_bps in 0.0f64..1e10,
        rate in 1.0f64..300.0,
        duty in 0.0f64..1.0,
        corrupt in 0.0f64..1.0) {
        let load = ChannelLoad {
            beaconing_bssids: bssids,
            legacy_beacon_fraction: legacy,
            data_load_bps: load_bps,
            mean_data_rate_mbps: rate,
            non_wifi_duty: duty,
            corrupt_preamble_fraction: corrupt,
        };
        let u = load.utilization();
        let d = load.decodable_fraction();
        prop_assert!((0.0..=1.0).contains(&u), "utilization {u}");
        prop_assert!((0.0..=1.0).contains(&d), "decodable {d}");
        // Wifi time can never exceed busy time.
        prop_assert!(d * u <= u + 1e-12);
    }

    #[test]
    fn delivery_probability_bounded_and_monotone(
        band in any_band(),
        rssi in -120.0f64..-20.0,
        penalty in 0.0f64..40.0,
        util in 0.0f64..1.0) {
        let model = LinkModel::for_band(band);
        let link = ProbeLink { band, rssi_dbm: rssi, multipath_penalty_db: penalty };
        let p = model.delivery_probability(&link, util, 0.0);
        prop_assert!((0.0..=1.0).contains(&p));

        // Monotone in RSSI.
        let stronger = ProbeLink { band, rssi_dbm: rssi + 5.0, multipath_penalty_db: penalty };
        prop_assert!(model.delivery_probability(&stronger, util, 0.0) >= p - 1e-12);

        // Anti-monotone in utilization.
        let busier = model.delivery_probability(&link, (util + 0.2).min(1.0), 0.0);
        prop_assert!(busier <= p + 1e-12);

        // Anti-monotone in multipath penalty.
        let worse = ProbeLink { band, rssi_dbm: rssi, multipath_penalty_db: penalty + 5.0 };
        prop_assert!(model.delivery_probability(&worse, util, 0.0) <= p + 1e-12);
    }

    #[test]
    fn path_loss_monotone(env in any_environment(), band in any_band(),
                          d1 in 1.0f64..500.0, delta in 0.1f64..500.0) {
        let pl = PathLoss::new(env);
        prop_assert!(pl.median_loss_db(band, d1 + delta) > pl.median_loss_db(band, d1));
    }

    #[test]
    fn path_loss_band_ordering(env in any_environment(), d in 1.0f64..500.0) {
        let pl = PathLoss::new(env);
        prop_assert!(pl.median_loss_db(Band::Ghz5, d) > pl.median_loss_db(Band::Ghz2_4, d));
    }

    #[test]
    fn scanner_conserves_dwell_time(sweeps in 1u64..20) {
        let mut s = ScanningRadio::new();
        let total_us = sweeps * s.sweep_duration_us();
        s.run_for(total_us, &|_| ChannelLoad::idle());
        let samples = s.collect(&|_| 0);
        // Every channel was visited `sweeps` times; utilization of idle
        // channels is 0 and defined (not NaN).
        prop_assert_eq!(samples.len(), s.sweep_len());
        for c in samples {
            prop_assert_eq!(c.utilization, 0.0);
        }
    }

    #[test]
    fn scanner_measures_load_exactly(util in 0.0f64..1.0) {
        let mut s = ScanningRadio::new();
        let load = ChannelLoad { non_wifi_duty: util, ..ChannelLoad::idle() };
        s.run_for(10 * s.sweep_duration_us(), &|_| load);
        let samples = s.collect(&|_| 0);
        for c in samples {
            // Quantization error: one dwell accounts whole microseconds.
            prop_assert!((c.utilization - util).abs() < 1.0 / SCAN_DWELL_US as f64 + 1e-9,
                "measured {} expected {}", c.utilization, util);
        }
    }
}
