//! Differential tests: the sharded store's query engine against the
//! legacy single-map backend.
//!
//! Both sinks are fed the exact same campaign stream (via
//! [`airstat::sim::FleetSimulation::run_into`]), then every
//! [`FleetQuery`] method is compared across two seeds and shard counts
//! {1, 4, 7}. Queries whose legacy ordering is a `BTreeMap` walk must
//! match exactly; `serving_utilizations` and `scan_observations` iterate
//! `HashMap`s on the legacy side, so they compare as sorted multisets;
//! the crash aggregate compares by its triage summaries (the engine
//! rebuilds per-device report order, the backend keeps arrival order).
//!
//! A second test pins the paper-artifact contract: the full rendered
//! report is byte-identical at 1 vs 4 threads and 1 vs 8 shards, and the
//! report path always hits the engine's result cache at least once.

use airstat::classify::apps::Application;
use airstat::core::PaperReport;
use airstat::rf::band::Band;
use airstat::sim::config::{WINDOW_JAN_2014, WINDOW_JAN_2015, WINDOW_JUL_2014};
use airstat::sim::{FleetConfig, FleetSimulation};
use airstat::store::{FleetQuery, QueryEngine};
use airstat::telemetry::backend::{Backend, ScanObservation, WindowId};

const WINDOWS: [WindowId; 3] = [WINDOW_JAN_2014, WINDOW_JUL_2014, WINDOW_JAN_2015];
const BANDS: [Band; 2] = [Band::Ghz2_4, Band::Ghz5];

fn sorted_f64(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

fn scan_key(o: &ScanObservation) -> (u16, u64, u32, u32, u32) {
    (
        o.record.channel.number,
        o.timestamp_s,
        o.record.utilization_ppm,
        o.record.decodable_ppm,
        o.record.networks,
    )
}

fn sorted_scans(mut scans: Vec<ScanObservation>) -> Vec<(u16, u64, u32, u32, u32)> {
    scans.sort_by_key(scan_key);
    scans.iter().map(scan_key).collect()
}

/// Compares the full [`FleetQuery`] surface of the two implementations.
fn assert_equivalent(backend: &Backend, engine: &QueryEngine, label: &str) {
    for window in WINDOWS {
        assert_eq!(
            FleetQuery::usage_by_app(backend, window),
            engine.usage_by_app(window),
            "usage_by_app {window:?} ({label})"
        );
        assert_eq!(
            FleetQuery::usage_by_os(backend, window),
            engine.usage_by_os(window),
            "usage_by_os {window:?} ({label})"
        );
        assert_eq!(
            FleetQuery::client_count(backend, window),
            engine.client_count(window),
            "client_count {window:?} ({label})"
        );
        assert_eq!(
            FleetQuery::clients(backend, window),
            engine.clients(window),
            "clients {window:?} ({label})"
        );
        for &app in Application::ALL {
            assert_eq!(
                FleetQuery::app_client_count(backend, window, app),
                engine.app_client_count(window, app),
                "app_client_count {window:?} {app:?} ({label})"
            );
        }
        assert_eq!(
            FleetQuery::census_device_count(backend, window),
            engine.census_device_count(window),
            "census_device_count {window:?} ({label})"
        );
        for band in BANDS {
            let keys = FleetQuery::link_keys(backend, window, band);
            assert_eq!(
                keys,
                engine.link_keys(window, band),
                "link_keys {window:?} {band:?} ({label})"
            );
            for key in keys {
                assert_eq!(
                    FleetQuery::link_series(backend, window, key),
                    engine.link_series(window, key),
                    "link_series {window:?} {key:?} ({label})"
                );
            }
            assert_eq!(
                FleetQuery::latest_delivery_ratios(backend, window, band),
                engine.latest_delivery_ratios(window, band),
                "latest_delivery_ratios {window:?} {band:?} ({label})"
            );
            assert_eq!(
                FleetQuery::mean_delivery_ratios(backend, window, band),
                engine.mean_delivery_ratios(window, band),
                "mean_delivery_ratios {window:?} {band:?} ({label})"
            );
            assert_eq!(
                sorted_f64(FleetQuery::serving_utilizations(backend, window, band)),
                sorted_f64(engine.serving_utilizations(window, band)),
                "serving_utilizations {window:?} {band:?} ({label})"
            );
            assert_eq!(
                FleetQuery::nearby_summary(backend, window, band),
                engine.nearby_summary(window, band),
                "nearby_summary {window:?} {band:?} ({label})"
            );
            assert_eq!(
                FleetQuery::nearby_per_channel(backend, window, band),
                engine.nearby_per_channel(window, band),
                "nearby_per_channel {window:?} {band:?} ({label})"
            );
            assert_eq!(
                sorted_scans(FleetQuery::scan_observations(backend, window, band)),
                sorted_scans(engine.scan_observations(window, band)),
                "scan_observations {window:?} {band:?} ({label})"
            );
        }
        let legacy = FleetQuery::crashes(backend, window);
        let sharded = engine.crashes(window);
        match (legacy, sharded) {
            (None, None) => {}
            (Some(legacy), Some(sharded)) => {
                assert_eq!(
                    legacy.crash_count(),
                    sharded.crash_count(),
                    "crash_count {window:?} ({label})"
                );
                assert_eq!(
                    legacy.by_signature(),
                    sharded.by_signature(),
                    "crashes by_signature {window:?} ({label})"
                );
                for (signature, _) in legacy.by_signature() {
                    assert_eq!(
                        legacy.distinct_pcs(&signature),
                        sharded.distinct_pcs(&signature),
                        "distinct_pcs {window:?} ({label})"
                    );
                    assert_eq!(
                        legacy.affected_devices(&signature),
                        sharded.affected_devices(&signature),
                        "affected_devices {window:?} ({label})"
                    );
                }
            }
            (legacy, sharded) => panic!(
                "crash presence diverged in {window:?} ({label}): legacy={} sharded={}",
                legacy.is_some(),
                sharded.is_some()
            ),
        }
    }
}

#[test]
fn every_query_plan_matches_the_legacy_backend() {
    for seed in [0xA1u64, 0x5EED] {
        let base = FleetConfig {
            seed,
            ..FleetConfig::smoke()
        };
        // One legacy backend fed directly by the campaign stream…
        let mut backend = Backend::new();
        FleetSimulation::new(base.clone()).run_into(&mut backend);
        // …against the sharded store at several partition widths.
        for shards in [1usize, 4, 7] {
            let config = FleetConfig {
                shards,
                ..base.clone()
            };
            let output = FleetSimulation::new(config).run();
            assert_eq!(
                output.store.duplicates_dropped(),
                backend.duplicates_dropped(),
                "duplicates_dropped (seed {seed:#x}, shards {shards})"
            );
            let engine = output.query();
            assert_equivalent(
                &backend,
                &engine,
                &format!("seed {seed:#x}, shards {shards}"),
            );
        }
    }
}

#[test]
fn report_is_byte_identical_across_threads_and_shards() {
    let render = |threads: usize, shards: usize| {
        let config = FleetConfig {
            threads,
            shards,
            ..FleetConfig::smoke()
        };
        let output = FleetSimulation::new(config.clone()).run();
        let engine = output.query();
        let report = PaperReport::from_query(&engine, &config).to_string();
        let cold = engine.stats();
        assert!(
            cold.hits >= 1,
            "the report path must hit the result cache (t{threads} s{shards}: {cold})"
        );
        // The cache holds a whole report — more plans than the 64 the old
        // entry bound kept — so a second one recomputes and evicts nothing.
        assert!(cold.misses > 64, "t{threads} s{shards}: {cold}");
        assert_eq!(
            report,
            PaperReport::from_query(&engine, &config).to_string()
        );
        let warm = engine.stats();
        assert_eq!(
            (warm.misses, warm.evictions),
            (cold.misses, 0),
            "the second report missed the cache (t{threads} s{shards}: {warm})"
        );
        report
    };
    let baseline = render(1, 1);
    assert_eq!(baseline, render(4, 1), "threads must not change the report");
    assert_eq!(baseline, render(1, 8), "shards must not change the report");
    assert_eq!(baseline, render(4, 8), "nor both knobs together");
}
