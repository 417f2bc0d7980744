//! Differential tests: the query engine's vectorized kernels against
//! the legacy map-backed oracle.
//!
//! Both backends read the same sealed snapshot — the vectorized two-pass
//! kernels over its columnar projection, the
//! legacy fold over its row tables — so every [`FleetQuery`] method
//! must match **exactly** — including the float-valued ones, because
//! each kernel reproduces the legacy canonical merge order and
//! therefore the legacy floating-point reduction order. The surface is
//! swept across two seeds and shard counts {1, 4, 7}.
//!
//! A second test pins the acceptance contract: the full rendered
//! [`PaperReport`] is byte-identical across backends, shard counts
//! {1, 4, 8}, and thread counts {1, 4}.

use airstat::classify::apps::Application;
use airstat::core::PaperReport;
use airstat::rf::band::Band;
use airstat::sim::config::{WINDOW_JAN_2014, WINDOW_JAN_2015, WINDOW_JUL_2014};
use airstat::sim::{FleetConfig, FleetSimulation};
use airstat::store::{FleetQuery, QueryBackend, QueryEngine};
use airstat::telemetry::backend::WindowId;

const WINDOWS: [WindowId; 3] = [WINDOW_JAN_2014, WINDOW_JUL_2014, WINDOW_JAN_2015];
const BANDS: [Band; 2] = [Band::Ghz2_4, Band::Ghz5];

/// Compares the full [`FleetQuery`] surface of the vectorized engine
/// against the legacy baseline, bit for bit.
fn assert_backends_identical(columnar: &QueryEngine, legacy: &QueryEngine, label: &str) {
    assert_eq!(columnar.backend(), QueryBackend::Vectorized, "{label}");
    assert_eq!(legacy.backend(), QueryBackend::Legacy, "{label}");
    for window in WINDOWS {
        assert_eq!(
            columnar.usage_by_app(window),
            legacy.usage_by_app(window),
            "usage_by_app {window:?} ({label})"
        );
        assert_eq!(
            columnar.usage_by_os(window),
            legacy.usage_by_os(window),
            "usage_by_os {window:?} ({label})"
        );
        assert_eq!(
            columnar.client_count(window),
            legacy.client_count(window),
            "client_count {window:?} ({label})"
        );
        assert_eq!(
            columnar.clients(window),
            legacy.clients(window),
            "clients {window:?} ({label})"
        );
        for &app in Application::ALL {
            assert_eq!(
                columnar.app_client_count(window, app),
                legacy.app_client_count(window, app),
                "app_client_count {window:?} {app:?} ({label})"
            );
        }
        assert_eq!(
            columnar.census_device_count(window),
            legacy.census_device_count(window),
            "census_device_count {window:?} ({label})"
        );
        for band in BANDS {
            let keys = columnar.link_keys(window, band);
            assert_eq!(
                keys,
                legacy.link_keys(window, band),
                "link_keys {window:?} {band:?} ({label})"
            );
            for key in keys {
                assert_eq!(
                    columnar.link_series(window, key),
                    legacy.link_series(window, key),
                    "link_series {window:?} {key:?} ({label})"
                );
            }
            assert_eq!(
                columnar.latest_delivery_ratios(window, band),
                legacy.latest_delivery_ratios(window, band),
                "latest_delivery_ratios {window:?} {band:?} ({label})"
            );
            assert_eq!(
                columnar.mean_delivery_ratios(window, band),
                legacy.mean_delivery_ratios(window, band),
                "mean_delivery_ratios {window:?} {band:?} ({label})"
            );
            assert_eq!(
                columnar.serving_utilizations(window, band),
                legacy.serving_utilizations(window, band),
                "serving_utilizations {window:?} {band:?} ({label})"
            );
            assert_eq!(
                columnar.nearby_summary(window, band),
                legacy.nearby_summary(window, band),
                "nearby_summary {window:?} {band:?} ({label})"
            );
            assert_eq!(
                columnar.nearby_per_channel(window, band),
                legacy.nearby_per_channel(window, band),
                "nearby_per_channel {window:?} {band:?} ({label})"
            );
            assert_eq!(
                columnar.scan_observations(window, band),
                legacy.scan_observations(window, band),
                "scan_observations {window:?} {band:?} ({label})"
            );
        }
        let from_columns = columnar.crashes(window);
        let from_maps = legacy.crashes(window);
        assert_eq!(
            from_columns.is_some(),
            from_maps.is_some(),
            "crash presence {window:?} ({label})"
        );
        if let (Some(from_columns), Some(from_maps)) = (from_columns, from_maps) {
            assert_eq!(
                from_columns.crash_count(),
                from_maps.crash_count(),
                "crash_count {window:?} ({label})"
            );
            assert_eq!(
                from_columns.by_signature(),
                from_maps.by_signature(),
                "crashes by_signature {window:?} ({label})"
            );
            for (signature, _) in from_maps.by_signature() {
                assert_eq!(
                    from_columns.distinct_pcs(&signature),
                    from_maps.distinct_pcs(&signature),
                    "distinct_pcs {window:?} ({label})"
                );
                assert_eq!(
                    from_columns.affected_devices(&signature),
                    from_maps.affected_devices(&signature),
                    "affected_devices {window:?} ({label})"
                );
            }
        }
    }
}

#[test]
fn every_query_plan_matches_across_backends() {
    for seed in [0xA1u64, 0x5EED] {
        for shards in [1usize, 4, 7] {
            let config = FleetConfig {
                seed,
                shards,
                ..FleetConfig::smoke()
            };
            let output = FleetSimulation::new(config).run();
            let snapshot = output.store.seal();
            let legacy = QueryEngine::with_backend(
                snapshot.clone(),
                output.run.threads,
                QueryBackend::Legacy,
            );
            let engine =
                QueryEngine::with_backend(snapshot, output.run.threads, QueryBackend::Vectorized);
            assert_backends_identical(
                &engine,
                &legacy,
                &format!("seed {seed:#x}, shards {shards}"),
            );
        }
    }
}

#[test]
fn report_is_byte_identical_across_backends_shards_and_threads() {
    // One campaign per `(threads, shards)`; both engines read its one
    // sealed snapshot, so only the backend differs between each pair.
    let render = |threads: usize, shards: usize| {
        let config = FleetConfig {
            threads,
            shards,
            ..FleetConfig::smoke()
        };
        let output = FleetSimulation::new(config.clone()).run();
        let snapshot = output.store.seal();
        [QueryBackend::Vectorized, QueryBackend::Legacy].map(|backend| {
            let engine = QueryEngine::with_backend(snapshot.clone(), output.run.threads, backend);
            assert_eq!(engine.backend(), backend);
            PaperReport::from_query(&engine, &config).to_string()
        })
    };
    // The legacy report at t1 s1 (the first combination) is the baseline.
    let mut baseline = None;
    for threads in [1usize, 4] {
        for shards in [1usize, 4, 8] {
            let [vectorized, legacy] = render(threads, shards);
            let baseline = baseline.get_or_insert_with(|| legacy.clone());
            assert_eq!(
                *baseline, vectorized,
                "vectorized report diverged at t{threads} s{shards}"
            );
            assert_eq!(
                *baseline, legacy,
                "legacy report diverged at t{threads} s{shards}"
            );
        }
    }
}
