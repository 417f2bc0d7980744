//! Same-host cost ratios the design promises, as plain tests.
//!
//! Nothing here records a number — `bench/` is the one place the
//! pipeline is *timed* (metrics named in `BENCHMARK.json`). These gates
//! only hold three invariants that are ratios of two costs measured
//! back to back on whatever host runs the suite, so they need no
//! core-count excuse: each has at least 1.6× headroom in a debug build
//! on two cores and pinned to one (`docs/perf-log/PR-19.md`).

use airstat::classify::apps::Application;
use airstat::classify::mac::MacAddress;
use airstat::sim::config::WINDOW_JAN_2015;
use airstat::sim::{FleetConfig, FleetSimulation};
use airstat::store::{QueryBackend, QueryEngine, QueryPlan, ShardedStore, StoreConfig};
use airstat::telemetry::report::{Report, ReportPayload, UsageRecord};
use std::hint::black_box;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// `cargo test` runs a file's tests on parallel threads, and a ratio of
/// wall times means nothing while a sibling's set-up competes for the
/// core: every gate holds this from its first line to its last.
fn alone() -> MutexGuard<'static, ()> {
    static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());
    ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner)
}

fn timed<R>(f: impl FnOnce() -> R) -> Duration {
    let started = Instant::now();
    black_box(f());
    started.elapsed()
}

/// The one gate. `rep` runs both sides once and returns their wall
/// times as `(cost, yardstick)`; the fastest of `reps` on each side is
/// compared, and `cost` may be at most `limit` × `yardstick`.
fn assert_ratio(
    what: &str,
    reps: usize,
    limit: f64,
    mut rep: impl FnMut() -> (Duration, Duration),
) {
    let (cost, yardstick) = (0..reps)
        .map(|_| rep())
        .reduce(|best, next| (best.0.min(next.0), best.1.min(next.1)))
        .expect("at least one rep");
    let ratio = cost.as_secs_f64() / yardstick.as_secs_f64();
    println!("{what}: {cost:.2?} / {yardstick:.2?} = {ratio:.3} (limit {limit})");
    assert!(
        ratio <= limit,
        "{what}: {cost:?} is {ratio:.3}x of {yardstick:?}, limit {limit}"
    );
}

/// The serial 0.1 % campaign every gate below is sized around.
fn campaign() -> FleetSimulation {
    FleetSimulation::new(FleetConfig {
        seed: 1,
        poll_drop_probability: 0.0,
        threads: 1,
        ..FleetConfig::paper(0.001)
    })
}

/// The columnar projection and its kernels exist to beat the
/// map-clone-and-fold oracle on the flagship cold query (measured
/// 13–18× in debug; `store.query.usage_by_os_us` is the timed number).
#[test]
fn vectorized_cold_usage_by_os_beats_the_legacy_oracle() {
    let _alone = alone();
    let output = campaign().run();
    let plan = QueryPlan::UsageByOs(WINDOW_JAN_2015);
    // A fresh engine per run has an empty result cache; `seal()` is
    // memoized per epoch, so only the kernel is timed.
    let cold = |backend| {
        let engine = QueryEngine::with_backend(output.store.seal(), 1, backend);
        timed(|| engine.execute(&plan))
    };
    assert_ratio("vectorized / legacy cold usage_by_os", 3, 1.0, || {
        (cold(QueryBackend::Vectorized), cold(QueryBackend::Legacy))
    });
}

/// Reopening a persisted store is pure decode; re-simulating replays
/// every poll cycle. If decode did not win clearly, `--resume` would
/// have no reason to exist (measured 12–14× in debug;
/// `store.segment.open_ms` is the timed number).
#[test]
fn reopening_a_persisted_campaign_beats_rerunning_it() {
    let _alone = alone();
    let dir = std::env::temp_dir().join(format!("airstat-gate-open-{}", std::process::id()));
    assert_ratio("open / campaign run", 2, 1.0, || {
        let started = Instant::now();
        let mut store = campaign().run().store;
        let run = started.elapsed();
        store.persist(&dir).expect("persist");
        let open = timed(|| ShardedStore::open(&dir, StoreConfig::default()).expect("open"));
        (open, run)
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// A usage batch covering `devices`, 8 records per device, MACs unique
/// per (device, record).
fn usage_batch(devices: std::ops::Range<u64>, seq: u64) -> Vec<Report> {
    devices
        .map(|device| Report {
            device,
            seq,
            timestamp_s: 1,
            payload: ReportPayload::Usage(
                (0..8u8)
                    .map(|i| {
                        let d = device.to_be_bytes();
                        UsageRecord {
                            mac: MacAddress::new([2, d[4], d[5], d[6], d[7], i]),
                            app: Application::ALL[usize::from(i) % Application::ALL.len()],
                            up_bytes: 1_000 + u64::from(i),
                            down_bytes: 9_000 + u64::from(i),
                        }
                    })
                    .collect(),
            ),
        })
        .collect()
}

/// The point of the delta-segment stack: re-sealing after a 1 %-device
/// delta costs in proportion to the delta, not the store. Nine deltas in
/// a row land on one sealed 240k-row store, each ingested and then
/// sealed (from the second on, the seal also folds the previous delta
/// in). Sealing a row and ingesting it are each a few tree operations,
/// so the ratio sits near 1.0 in debug and release alike; a seal that
/// scaled with the store would read ≈ 8× (this store's full seal ÷ this
/// ingest). `store.seal.incr_p50_ms` / `incr_p95_ms` are the timed
/// numbers.
#[test]
fn resealing_a_one_percent_delta_costs_at_most_twice_its_ingest() {
    const DEVICES: u64 = 30_000;
    let _alone = alone();
    let mut store = ShardedStore::with_config(StoreConfig {
        shards: 8,
        threads: 1,
    });
    store.ingest_batch(WINDOW_JAN_2015, &usage_batch(0..DEVICES, 1));
    black_box(store.seal());
    let mut seq = 1;
    assert_ratio("delta seal / delta ingest", 9, 2.0, || {
        seq += 1;
        let delta = usage_batch(0..DEVICES / 100, seq);
        let ingest = timed(|| store.ingest_batch(WINDOW_JAN_2015, &delta));
        let seal = timed(|| store.seal());
        (seal, ingest)
    });
}
