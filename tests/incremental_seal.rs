//! Differential tests for incremental sealing: a campaign that re-seals
//! its store mid-stream (`FleetConfig::seal_every`) builds per-shard
//! stacks of delta segments plus whatever compaction folded together —
//! and none of that may show in results. Every backend must answer
//! byte-identically to the never-sealed-mid-run baseline, for every
//! shard count, thread count, and seal cadence, including a store that
//! went through persist + reload in between.

use airstat::core::PaperReport;
use airstat::sim::{FleetConfig, FleetSimulation};
use airstat::store::{QueryBackend, QueryEngine, ReportSink, SealStats, ShardedStore, StoreConfig};
use airstat::telemetry::backend::WindowId;
use airstat::telemetry::report::Report;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

const BACKENDS: [QueryBackend; 2] = [QueryBackend::Vectorized, QueryBackend::Legacy];

/// A unique scratch directory per call — process id plus a
/// process-wide counter, no wall clock involved.
fn temp_store_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let id = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("airstat-seal-{}-{tag}-{id}", std::process::id()))
}

/// Keeps every batch a campaign drains, so one simulation can be
/// replayed at every seal cadence.
#[derive(Default)]
struct CaptureSink(Vec<(WindowId, Vec<Report>)>);

impl ReportSink for CaptureSink {
    fn ingest_batch(&mut self, window: WindowId, reports: &[Report]) -> u64 {
        self.0.push((window, reports.to_vec()));
        reports.len() as u64
    }
}

/// Feeds the captured batches to `sink`, re-sealing it after every
/// `seal_every`th — the engine driver's cadence, replayed by hand.
fn replay(capture: &CaptureSink, sink: &mut impl ReportSink, seal_every: Option<u64>) {
    for (batch, (window, reports)) in (1u64..).zip(&capture.0) {
        sink.ingest_batch(*window, reports);
        if seal_every.is_some_and(|every| batch % every == 0) {
            sink.reseal();
        }
    }
}

/// The smoke campaign, simulated once for the whole suite: its batches
/// in drain order, and the baseline report — the one a store that never
/// sealed mid-run answers with. The batch stream does not depend on
/// `threads`/`shards` (`tests/store_equivalence.rs` holds that), so
/// every combination below replays this one capture.
fn smoke_campaign() -> &'static (CaptureSink, String) {
    static CAMPAIGN: OnceLock<(CaptureSink, String)> = OnceLock::new();
    CAMPAIGN.get_or_init(|| {
        let mut capture = CaptureSink::default();
        FleetSimulation::new(FleetConfig::smoke()).run_into(&mut capture);
        let mut store = ShardedStore::with_config(StoreConfig::default());
        replay(&capture, &mut store, None);
        let engine = QueryEngine::new(store.seal(), 1);
        let baseline = PaperReport::from_query(&engine, &FleetConfig::smoke()).to_string();
        (capture, baseline)
    })
}

#[test]
fn mid_campaign_seals_are_invisible_to_every_backend() {
    let (capture, baseline) = smoke_campaign();
    let config = FleetConfig::smoke();
    for shards in [1usize, 4, 8] {
        for threads in [1usize, 4] {
            for seal_every in [1u64, 7] {
                let label = format!("shards {shards}, threads {threads}, seal every {seal_every}");
                let mut store = ShardedStore::with_config(StoreConfig { shards, threads });
                replay(capture, &mut store, Some(seal_every));
                let snapshot = store.seal();
                let stats = snapshot.seal_stats();
                assert!(stats.seals_total > 1, "no mid-run seal happened ({label})");
                assert!(stats.segments_live >= 1, "no live segments ({label})");
                assert!(stats.rows_resealed > 0, "no rows projected ({label})");
                for backend in BACKENDS {
                    let engine = QueryEngine::with_backend(snapshot.clone(), threads, backend);
                    assert_eq!(
                        *baseline,
                        PaperReport::from_query(&engine, &config).to_string(),
                        "report diverged on the {} backend ({label})",
                        backend.name()
                    );
                }
            }
        }
    }
}

#[test]
fn sealed_segment_stacks_survive_persist_and_reload() {
    let (_, baseline) = smoke_campaign();

    let dir = temp_store_dir("reload");
    let config = FleetConfig {
        shards: 4,
        threads: 4,
        seal_every: Some(5),
        ..FleetConfig::smoke()
    };
    // The durable run seals every 5 batches, so the final persist writes
    // a store whose read layout went through many delta seals and
    // compactions. Reloading must reconstruct identical answers.
    let (output, persisted) = FleetSimulation::new(config.clone())
        .run_durable(&dir)
        .expect("durable run");
    assert!(persisted.segments_written > 0);
    assert_eq!(
        *baseline,
        PaperReport::from_query(&output.query(), &config).to_string(),
        "durable sealed run diverged before reload"
    );

    let (reopened, recovery) = ShardedStore::open(&dir, StoreConfig::default()).expect("open");
    assert!(recovery.segments_loaded > 0);
    let snapshot = reopened.seal();
    for backend in BACKENDS {
        let engine = QueryEngine::with_backend(snapshot.clone(), 4, backend);
        assert_eq!(
            *baseline,
            PaperReport::from_query(&engine, &config).to_string(),
            "reloaded report diverged on the {} backend",
            backend.name()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The compaction *schedule* — when stacks fold and how many rows each
/// seal and fold writes — pinned for a fixed campaign. The constants
/// were captured on the commit before compaction became a column merge
/// (it rebuilt merged segments out of the live row tables then), so they
/// move only when a PR means to change the policy (`COMPACTION_RATIO`,
/// top-two, row counts), never when it changes how a fold is computed.
#[test]
fn compaction_schedule_is_pinned_for_two_seeds() {
    let pinned = [
        (
            1u64,
            SealStats {
                seals_total: 6,
                segments_live: 29,
                segments_compacted: 36,
                rows_resealed: 442_089,
            },
        ),
        (
            7,
            SealStats {
                seals_total: 6,
                segments_live: 28,
                segments_compacted: 38,
                rows_resealed: 442_739,
            },
        ),
    ];
    for (seed, expected) in pinned {
        let config = FleetConfig {
            seed,
            threads: 1,
            shards: 8,
            seal_every: Some(32),
            ..FleetConfig::paper(0.002)
        };
        let output = FleetSimulation::new(config).run();
        assert_eq!(
            output.store.seal().seal_stats(),
            expected,
            "seed {seed}: the compaction schedule moved"
        );
    }
}
