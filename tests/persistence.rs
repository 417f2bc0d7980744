//! Differential tests for the on-disk segment store
//! (docs/SEGMENT_FORMAT.md): a store persisted, dropped, and reopened
//! must answer the **full [`FleetQuery`] surface byte-identically** to
//! the in-memory original, and a run that crashes before persisting
//! must recover every fully-appended batch from the tail log.

use airstat::classify::apps::Application;
use airstat::core::PaperReport;
use airstat::rf::band::Band;
use airstat::sim::config::{WINDOW_JAN_2014, WINDOW_JAN_2015, WINDOW_JUL_2014};
use airstat::sim::{FleetConfig, FleetSimulation};
use airstat::store::{
    DurableStore, FleetQuery, QueryBackend, QueryEngine, ReportSink, Sealable, ShardedStore,
    StoreConfig,
};
use airstat::telemetry::backend::WindowId;
use airstat::telemetry::report::Report;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

const WINDOWS: [WindowId; 3] = [WINDOW_JAN_2014, WINDOW_JUL_2014, WINDOW_JAN_2015];
const BANDS: [Band; 2] = [Band::Ghz2_4, Band::Ghz5];

/// A unique scratch directory per call — process id plus a
/// process-wide counter, no wall clock involved.
fn temp_store_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let id = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("airstat-persist-{}-{tag}-{id}", std::process::id()))
}

/// Compares the full [`FleetQuery`] surface of two engines, bit for bit.
fn assert_surfaces_identical(reloaded: &QueryEngine, original: &QueryEngine, label: &str) {
    for window in WINDOWS {
        assert_eq!(
            reloaded.usage_by_app(window),
            original.usage_by_app(window),
            "usage_by_app {window:?} ({label})"
        );
        assert_eq!(
            reloaded.usage_by_os(window),
            original.usage_by_os(window),
            "usage_by_os {window:?} ({label})"
        );
        assert_eq!(
            reloaded.client_count(window),
            original.client_count(window),
            "client_count {window:?} ({label})"
        );
        assert_eq!(
            reloaded.clients(window),
            original.clients(window),
            "clients {window:?} ({label})"
        );
        for &app in Application::ALL {
            assert_eq!(
                reloaded.app_client_count(window, app),
                original.app_client_count(window, app),
                "app_client_count {window:?} {app:?} ({label})"
            );
        }
        assert_eq!(
            reloaded.census_device_count(window),
            original.census_device_count(window),
            "census_device_count {window:?} ({label})"
        );
        for band in BANDS {
            let keys = reloaded.link_keys(window, band);
            assert_eq!(
                keys,
                original.link_keys(window, band),
                "link_keys {window:?} {band:?} ({label})"
            );
            for key in keys {
                assert_eq!(
                    reloaded.link_series(window, key),
                    original.link_series(window, key),
                    "link_series {window:?} {key:?} ({label})"
                );
            }
            assert_eq!(
                reloaded.latest_delivery_ratios(window, band),
                original.latest_delivery_ratios(window, band),
                "latest_delivery_ratios {window:?} {band:?} ({label})"
            );
            assert_eq!(
                reloaded.mean_delivery_ratios(window, band),
                original.mean_delivery_ratios(window, band),
                "mean_delivery_ratios {window:?} {band:?} ({label})"
            );
            assert_eq!(
                reloaded.serving_utilizations(window, band),
                original.serving_utilizations(window, band),
                "serving_utilizations {window:?} {band:?} ({label})"
            );
            assert_eq!(
                reloaded.nearby_summary(window, band),
                original.nearby_summary(window, band),
                "nearby_summary {window:?} {band:?} ({label})"
            );
            assert_eq!(
                reloaded.nearby_per_channel(window, band),
                original.nearby_per_channel(window, band),
                "nearby_per_channel {window:?} {band:?} ({label})"
            );
            assert_eq!(
                reloaded.scan_observations(window, band),
                original.scan_observations(window, band),
                "scan_observations {window:?} {band:?} ({label})"
            );
        }
        let from_disk = reloaded.crashes(window);
        let from_memory = original.crashes(window);
        assert_eq!(
            from_disk.is_some(),
            from_memory.is_some(),
            "crash presence {window:?} ({label})"
        );
        if let (Some(from_disk), Some(from_memory)) = (from_disk, from_memory) {
            assert_eq!(
                from_disk.crash_count(),
                from_memory.crash_count(),
                "crash_count {window:?} ({label})"
            );
            assert_eq!(
                from_disk.by_signature(),
                from_memory.by_signature(),
                "crashes by_signature {window:?} ({label})"
            );
            for (signature, _) in from_memory.by_signature() {
                assert_eq!(
                    from_disk.distinct_pcs(&signature),
                    from_memory.distinct_pcs(&signature),
                    "distinct_pcs {window:?} ({label})"
                );
                assert_eq!(
                    from_disk.affected_devices(&signature),
                    from_memory.affected_devices(&signature),
                    "affected_devices {window:?} ({label})"
                );
            }
        }
    }
}

#[test]
fn reopened_store_answers_every_query_byte_identically() {
    for seed in [0xA1u64, 0x5EED] {
        for shards in [1usize, 4, 7] {
            let label = format!("seed {seed:#x}, shards {shards}");
            let dir = temp_store_dir("surface");
            let config = FleetConfig {
                seed,
                shards,
                ..FleetConfig::smoke()
            };
            let mut output = FleetSimulation::new(config).run();
            output.store.persist(&dir).expect("persist");
            let (reopened, recovery) =
                ShardedStore::open(&dir, StoreConfig::default()).expect("open");
            assert_eq!(recovery.segments_loaded as usize, shards, "{label}");
            assert_eq!(recovery.epoch, output.store.epoch(), "{label}");
            assert_eq!(reopened.shard_count(), shards, "{label}");

            let original = QueryEngine::new(output.store.seal(), output.threads);
            let from_disk = QueryEngine::new(reopened.seal(), output.threads);
            assert_surfaces_identical(&from_disk, &original, &label);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn report_is_byte_identical_across_persist_reload_and_backends() {
    let dir = temp_store_dir("report");
    let config = FleetConfig {
        shards: 4,
        ..FleetConfig::smoke()
    };
    let (output, persisted) = FleetSimulation::new(config.clone())
        .run_durable(&dir)
        .expect("durable run");
    assert_eq!(persisted.segments_written, 4);
    let baseline = PaperReport::from_query(&output.query(), &config).to_string();

    let (reopened, _) = ShardedStore::open(&dir, StoreConfig::default()).expect("open");
    let snapshot = reopened.seal();
    for backend in [QueryBackend::Vectorized, QueryBackend::Legacy] {
        let engine = QueryEngine::with_backend(snapshot.clone(), output.threads, backend);
        assert_eq!(
            baseline,
            PaperReport::from_query(&engine, &config).to_string(),
            "reloaded report diverged on the {} backend",
            backend.name()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crashed_campaign_recovers_from_the_tail_log() {
    let dir = temp_store_dir("crash");
    let config = FleetConfig::smoke();
    let simulation = FleetSimulation::new(config.clone());

    // The doomed run: every batch reaches the tail log, but the process
    // "crashes" (drops the store) before any persist commits segments.
    let mut durable = DurableStore::create(
        &dir,
        StoreConfig {
            shards: config.effective_shards(),
            threads: config.effective_threads(),
        },
    )
    .expect("create");
    simulation.run_into(&mut durable);
    assert!(durable.take_error().is_none(), "tail log appends succeeded");
    let expected_epoch = durable.store().epoch();
    drop(durable);

    let (recovered, recovery) = ShardedStore::open(&dir, StoreConfig::default()).expect("recover");
    assert_eq!(recovery.segments_loaded, 0, "nothing was ever persisted");
    assert!(recovery.wal_records_replayed > 0);
    assert_eq!(recovery.wal_bytes_discarded, 0, "no torn record");
    assert_eq!(recovered.epoch(), expected_epoch);

    // The recovered query surface is the pre-crash one, byte for byte.
    let output = simulation.run();
    let original = QueryEngine::new(output.store.seal(), output.threads);
    let from_log = QueryEngine::new(recovered.seal(), output.threads);
    assert_surfaces_identical(&from_log, &original, "tail-log recovery");

    // Tear the final record mid-write: recovery must stop cleanly at the
    // last whole record instead of erroring or replaying garbage.
    let wal_path = dir.join("wal.log");
    let bytes = std::fs::read(&wal_path).expect("tail log readable");
    std::fs::write(&wal_path, &bytes[..bytes.len() - 5]).expect("tear tail log");
    let (_, torn) = ShardedStore::open(&dir, StoreConfig::default()).expect("recover torn");
    assert_eq!(torn.wal_records_replayed, recovery.wal_records_replayed - 1);
    assert!(torn.wal_bytes_discarded > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Keeps every batch a campaign drains, so one ingest can be replayed
/// at several persist cadences.
#[derive(Default)]
struct CaptureSink(Vec<(WindowId, Vec<Report>)>);

impl ReportSink for CaptureSink {
    fn ingest_batch(&mut self, window: WindowId, reports: &[Report]) -> u64 {
        self.0.push((window, reports.to_vec()));
        reports.len() as u64
    }
}

/// Every `.aseg` file in `dir` as `(name, bytes)`, in name order.
fn segment_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("store dir readable")
        .flatten()
        .filter_map(|entry| {
            let name = entry.file_name().to_str()?.to_string();
            name.ends_with(".aseg")
                .then(|| (name, std::fs::read(entry.path()).expect("segment readable")))
        })
        .collect();
    files.sort();
    files
}

/// `ShardedStore::open` moves the first segment of each shard's chain
/// into place and folds the rest in key by key; both must rebuild the
/// exact shard a monolithic persist of the same ingest would have
/// written. Proven on bytes: for on-disk chains of length 1, 2 and 8
/// (the longest a chain gets before a full rewrite) cut from a campaign
/// that also re-seals every 5 batches, the reopened store re-persisted
/// in full writes the monolithic store's segment files.
#[test]
fn reopened_delta_chains_repersist_to_the_monolithic_segment_files() {
    const SHARDS: usize = 4;
    let store_config = StoreConfig {
        shards: SHARDS,
        threads: 1,
    };
    let mut capture = CaptureSink::default();
    FleetSimulation::new(FleetConfig::smoke()).run_into(&mut capture);
    let batches = capture.0;

    let monolithic_dir = temp_store_dir("chain-monolithic");
    let mut monolithic = ShardedStore::with_config(store_config);
    for (window, reports) in &batches {
        monolithic.ingest_batch(*window, reports);
    }
    monolithic.persist(&monolithic_dir).expect("persist");
    let expected = segment_files(&monolithic_dir);
    assert_eq!(expected.len(), SHARDS);

    for chain in [1usize, 2, 8] {
        let dir = temp_store_dir("chain");
        let mut durable = DurableStore::create(&dir, store_config).expect("create");
        for (i, (window, reports)) in batches.iter().enumerate() {
            durable.ingest_batch(*window, reports);
            if (i + 1) % 5 == 0 {
                durable.reseal();
            }
            // `chain` persists, evenly spaced, the last after the last batch.
            if (i + 1) * chain / batches.len() > i * chain / batches.len() {
                durable.persist().expect("persist");
            }
        }
        drop(durable);

        let (mut reopened, recovery) = ShardedStore::open(&dir, store_config).expect("open");
        assert_eq!(
            recovery.segments_loaded,
            (SHARDS * chain) as u64,
            "every shard should hold a {chain}-file chain"
        );
        assert_eq!(recovery.wal_records_replayed, 0);
        let again = temp_store_dir("chain-again");
        reopened.persist(&again).expect("re-persist in full");
        assert!(
            segment_files(&again) == expected,
            "a reopened {chain}-file chain re-persisted to different segment bytes"
        );
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&again);
    }
    let _ = std::fs::remove_dir_all(&monolithic_dir);
}
