//! Property tests for the sharded store.
//!
//! The determinism contract, attacked from proptest's corner: for any
//! report batch (including wire-level duplicate retransmissions), the
//! aggregates the paper's tables hang off — `usage_by_os`,
//! `client_count`, `duplicates_dropped` — are invariant under both the
//! ingest-order permutation and the shard count. The reference is always
//! the unsharded store fed in generation order.

use airstat_classify::apps::Application;
use airstat_classify::device::OsFamily;
use airstat_classify::mac::MacAddress;
use airstat_rf::band::{Band, Channel};
use airstat_rf::phy::{Capabilities, Generation};
use airstat_stats::rng::splitmix64;
use airstat_store::{FleetQuery, QueryBackend, QueryEngine, QueryPlan, ShardedStore, StoreConfig};
use airstat_telemetry::backend::WindowId;
use airstat_telemetry::report::{
    AirtimeRecord, ChannelScanRecord, ClientInfoRecord, CrashRecord, LinkRecord, NeighborRecord,
    Report, ReportPayload, UsageRecord,
};
use proptest::prelude::*;

const W: WindowId = WindowId(1501);
/// A window no generated report ever lands in: no shard holds a segment
/// for it, so every shard is skipped, and the result must still equal
/// the full scan's.
const W_EMPTY: WindowId = WindowId(1407);

fn any_mac() -> impl Strategy<Value = MacAddress> {
    // A small MAC space so distinct reports collide on clients, exercising
    // the cross-shard merge rules rather than pure unions.
    (0u8..6).prop_map(|i| MacAddress::new([2, 0, 0, 0, 0, i]))
}

fn any_payload() -> impl Strategy<Value = ReportPayload> {
    prop_oneof![
        prop::collection::vec(
            (any_mac(), 0usize..Application::ALL.len(), any::<u32>()).prop_map(
                |(mac, app, bytes)| UsageRecord {
                    mac,
                    app: Application::ALL[app],
                    up_bytes: u64::from(bytes),
                    down_bytes: u64::from(bytes) * 9,
                }
            ),
            0..6
        )
        .prop_map(ReportPayload::Usage),
        prop::collection::vec(
            (any_mac(), 0usize..OsFamily::ALL.len(), -90.0f64..-30.0).prop_map(
                |(mac, os, rssi_dbm)| ClientInfoRecord {
                    mac,
                    os: OsFamily::ALL[os],
                    caps: Capabilities::new(Generation::N, true, false, 2),
                    band: Band::Ghz2_4,
                    rssi_dbm,
                }
            ),
            0..6
        )
        .prop_map(ReportPayload::ClientInfo),
        prop::collection::vec(
            (any::<u8>(), 1u32..100).prop_map(|(peer, expected)| LinkRecord {
                peer_device: u64::from(peer),
                band: Band::Ghz5,
                probes_expected: expected,
                probes_received: expected / 2,
            }),
            0..6
        )
        .prop_map(ReportPayload::Links),
        prop::collection::vec(
            (any_channel(), 0u32..40, 0u32..10).prop_map(|(channel, networks, hotspots)| {
                NeighborRecord {
                    channel,
                    networks,
                    hotspots: hotspots.min(networks),
                }
            }),
            0..6
        )
        .prop_map(ReportPayload::Neighbors),
        prop::collection::vec(
            (any_channel(), 0u32..1_000_000, 0u32..1_000_000, 0u32..40).prop_map(
                |(channel, utilization_ppm, decodable_ppm, networks)| ChannelScanRecord {
                    channel,
                    utilization_ppm,
                    decodable_ppm: decodable_ppm.min(utilization_ppm),
                    networks,
                }
            ),
            0..6
        )
        .prop_map(ReportPayload::ChannelScan),
        prop::collection::vec(
            (any_channel(), 0u64..4, any::<u32>(), any::<u32>()).prop_map(
                // A quarter of the records observe no time at all, so a
                // ledger can stay at zero elapsed and drop out of
                // `serving_utilizations`.
                |(channel, quarters, busy_us, wifi_us)| AirtimeRecord {
                    channel,
                    elapsed_us: quarters * 250_000,
                    busy_us: u64::from(busy_us),
                    wifi_us: u64::from(wifi_us),
                }
            ),
            0..6
        )
        .prop_map(ReportPayload::Airtime),
        // Empty crash payloads included: they still make `crashes` `Some`.
        prop::collection::vec(
            (0u8..3, 0u8..6, any::<u32>(), any::<u32>()).prop_map(
                |(build, reason, pc, uptime_s)| CrashRecord {
                    firmware: format!("mr16-25.{build}"),
                    reason,
                    program_counter: u64::from(pc),
                    uptime_s: u64::from(uptime_s),
                    free_memory_bytes: u64::from(pc) / 7,
                }
            ),
            0..3
        )
        .prop_map(ReportPayload::Crash),
    ]
}

fn any_channel() -> impl Strategy<Value = Channel> {
    (any::<bool>(), any::<u16>()).prop_map(|(five_ghz, pick)| {
        let band = if five_ghz { Band::Ghz5 } else { Band::Ghz2_4 };
        let all = Channel::all_in(band);
        all[usize::from(pick) % all.len()]
    })
}

/// Deterministic Fisher–Yates driven by `splitmix64`, so every failing
/// case shrinks reproducibly (the vendored proptest has no shuffle
/// strategy).
fn shuffle(reports: &[Report], salt: u64) -> Vec<Report> {
    let mut out = reports.to_vec();
    let mut state = salt;
    for i in (1..out.len()).rev() {
        state = splitmix64(state.wrapping_add(0x9E37_79B9_7F4A_7C15));
        let j = (state % (i as u64 + 1)) as usize;
        out.swap(i, j);
    }
    out
}

/// The aggregate triple under test, from one ingest of `reports`.
fn aggregates(
    reports: &[Report],
    shards: usize,
    threads: usize,
) -> (
    Vec<(OsFamily, airstat_telemetry::backend::UsageTotals, u64)>,
    usize,
    u64,
) {
    let mut store = ShardedStore::with_config(StoreConfig { shards, threads });
    store.ingest_batch(W, reports);
    let duplicates = store.duplicates_dropped();
    let engine = QueryEngine::new(store.seal(), threads);
    (engine.usage_by_os(W), engine.client_count(W), duplicates)
}

proptest! {
    #[test]
    fn aggregates_are_order_and_shard_invariant(
        payloads in prop::collection::vec(any_payload(), 1..20),
        dup_salt in any::<u64>(),
        order_salt in any::<u64>(),
        shards in 1usize..9,
        threads in 1usize..4,
    ) {
        // Unique (device, seq) per generated report; a pseudo-random
        // subset is retransmitted verbatim, as the lossy tunnel would.
        let base: Vec<Report> = payloads
            .into_iter()
            .enumerate()
            .map(|(i, payload)| Report {
                device: (i % 5) as u64,
                seq: (i / 5) as u64 + 1,
                timestamp_s: 1_000 + i as u64,
                payload,
            })
            .collect();
        let mut reports = base.clone();
        let mut state = dup_salt;
        for report in &base {
            state = splitmix64(state);
            if state % 3 == 0 {
                reports.push(report.clone());
            }
        }

        let reference = aggregates(&reports, 1, 1);
        let permuted = aggregates(&shuffle(&reports, order_salt), shards, threads);
        prop_assert_eq!(&reference, &permuted);
        // And the expected duplicate count is exactly the retransmissions.
        prop_assert_eq!(reference.2, (reports.len() - base.len()) as u64);
    }

    /// The columnar projection a `seal()` builds is a pure function of
    /// the aggregate state: feeding the same batch in any order yields
    /// column-for-column identical `ColumnarShard`s.
    #[test]
    fn columnar_projection_is_ingest_order_invariant(
        payloads in prop::collection::vec(any_payload(), 1..20),
        order_salt in any::<u64>(),
        shards in 1usize..9,
        threads in 1usize..4,
    ) {
        let reports: Vec<Report> = payloads
            .into_iter()
            .enumerate()
            .map(|(i, payload)| Report {
                device: (i % 5) as u64,
                seq: (i / 5) as u64 + 1,
                timestamp_s: 1_000 + i as u64,
                payload,
            })
            .collect();

        let mut in_order = ShardedStore::with_config(StoreConfig { shards, threads });
        in_order.ingest_batch(W, &reports);
        let mut permuted = ShardedStore::with_config(StoreConfig { shards, threads });
        permuted.ingest_batch(W, &shuffle(&reports, order_salt));

        let (a, b) = (in_order.seal(), permuted.seal());
        prop_assert_eq!(a.columnar(), b.columnar());
    }

    /// Shard skipping is invisible in results: for any fleet and any
    /// filter the vectorized path (which reads only the shards holding
    /// the window, and one shard for a link series) answers identically
    /// to the legacy fold, which scans every shard — including on a
    /// window no report ever touched, where every shard is skipped.
    #[test]
    fn pruned_execution_matches_unpruned_full_scan(
        payloads in prop::collection::vec(any_payload(), 1..20),
        shards in 1usize..9,
        threads in 1usize..4,
    ) {
        let reports: Vec<Report> = payloads
            .into_iter()
            .enumerate()
            .map(|(i, payload)| Report {
                device: (i % 5) as u64,
                seq: (i / 5) as u64 + 1,
                timestamp_s: 1_000 + i as u64,
                payload,
            })
            .collect();
        let mut store = ShardedStore::with_config(StoreConfig { shards, threads });
        store.ingest_batch(W, &reports);
        let snapshot = store.seal();
        let pruned =
            QueryEngine::with_backend(snapshot.clone(), threads, QueryBackend::Vectorized);
        let full = QueryEngine::with_backend(snapshot, threads, QueryBackend::Legacy);
        for plan in every_plan(&pruned, &[W, W_EMPTY]) {
            prop_assert_eq!(pruned.execute(&plan), full.execute(&plan), "{:?}", plan);
        }
        // The engine must actually have skipped something on the empty
        // window sweep (no shard holds a segment for it).
        prop_assert!(pruned.stats().shards_pruned > 0, "no shard was ever skipped");
    }

    /// Seal placement is invisible in results: chopping one ingest
    /// stream into chunks and sealing after every 1st, 3rd, 7th, or no
    /// intermediate chunk leaves every backend's answers identical to
    /// the single monolithic seal — whatever delta-segment stacks and
    /// compaction schedules each cadence produced along the way.
    #[test]
    fn results_are_seal_placement_invariant(
        payloads in prop::collection::vec(any_payload(), 1..20),
        shards in 1usize..9,
        threads in 1usize..4,
    ) {
        let reports: Vec<Report> = payloads
            .into_iter()
            .enumerate()
            .map(|(i, payload)| Report {
                device: (i % 5) as u64,
                seq: (i / 5) as u64 + 1,
                timestamp_s: 1_000 + i as u64,
                payload,
            })
            .collect();
        let mut monolithic = ShardedStore::with_config(StoreConfig { shards, threads });
        monolithic.ingest_batch(W, &reports);
        let reference = QueryEngine::new(monolithic.seal(), threads);

        for seal_every in [1usize, 3, 7, usize::MAX] {
            let mut store = ShardedStore::with_config(StoreConfig { shards, threads });
            let mut sealed_mid_stream = 0u64;
            for (i, chunk) in reports.chunks(2).enumerate() {
                store.ingest_batch(W, chunk);
                if (i + 1) % seal_every == 0 {
                    let _ = store.seal();
                    sealed_mid_stream += 1;
                }
            }
            let snapshot = store.seal();
            prop_assert!(
                snapshot.seal_stats().seals_total >= sealed_mid_stream,
                "seal counters went backwards"
            );
            for backend in [QueryBackend::Vectorized, QueryBackend::Legacy] {
                let engine = QueryEngine::with_backend(snapshot.clone(), threads, backend);
                for plan in every_plan(&reference, &[W]) {
                    prop_assert_eq!(
                        engine.execute(&plan),
                        reference.execute(&plan),
                        "{:?} {:?}",
                        backend,
                        plan
                    );
                }
            }
        }
    }
}

/// A second window the round-trip stream fills beside [`W`].
const W_LATER: WindowId = WindowId(1502);

/// A unique scratch directory per call — process id plus a
/// process-wide counter, no wall clock involved.
fn temp_store_dir(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let id = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("airstat-props-{}-{tag}-{id}", std::process::id()))
}

/// The segment files in `dir`, by name, with their bytes.
fn segment_files(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("store dir readable")
        .flatten()
        .filter_map(|entry| {
            let name = entry.file_name().to_str()?.to_string();
            let bytes = std::fs::read(entry.path()).expect("segment readable");
            name.ends_with(".aseg").then_some((name, bytes))
        })
        .collect();
    files.sort();
    files
}

/// Every plan on `windows`: the fixed ones, each band's link keys, and
/// a series plan per key `engine` holds.
fn every_plan(engine: &QueryEngine, windows: &[WindowId]) -> Vec<QueryPlan> {
    let mut plans = Vec::new();
    for &window in windows {
        plans.extend([
            QueryPlan::UsageByApp(window),
            QueryPlan::UsageByOs(window),
            QueryPlan::ClientCount(window),
            QueryPlan::Clients(window),
            QueryPlan::CensusDeviceCount(window),
            QueryPlan::Crashes(window),
        ]);
        for &app in Application::ALL {
            plans.push(QueryPlan::AppClientCount(window, app));
        }
        for band in [Band::Ghz2_4, Band::Ghz5] {
            plans.extend([
                QueryPlan::LinkKeys(window, band),
                QueryPlan::LatestDeliveryRatios(window, band),
                QueryPlan::MeanDeliveryRatios(window, band),
                QueryPlan::ServingUtilizations(window, band),
                QueryPlan::NearbySummary(window, band),
                QueryPlan::NearbyPerChannel(window, band),
                QueryPlan::ScanObservations(window, band),
            ]);
            let keys = engine.link_keys(window, band);
            plans.extend(
                keys.into_iter()
                    .map(|key| QueryPlan::LinkSeries(window, key)),
            );
        }
    }
    plans
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Whatever stream the store takes, the files it persists open: the
    /// opened store answers every plan as the writer does, and persists
    /// the same segment bytes again. The stream spans two windows,
    /// empty payloads included (row-less windows, empty census, scan and
    /// crash groups), with or without a seal part-way through — so the
    /// decoder never refuses a file the encoder writes.
    #[test]
    fn persist_then_open_round_trips_any_stream(
        payloads in prop::collection::vec(any_payload(), 1..24),
        shards in 1usize..4,
        seal_after in prop::option::of(0usize..8),
    ) {
        let reports: Vec<Report> = payloads
            .into_iter()
            .enumerate()
            .map(|(i, payload)| Report {
                device: (i % 5) as u64,
                seq: (i / 5) as u64 + 1,
                timestamp_s: 1_000 + i as u64,
                payload,
            })
            .collect();
        let config = StoreConfig { shards, threads: 1 };
        let mut writer = ShardedStore::with_config(config);
        for (i, chunk) in reports.chunks(3).enumerate() {
            writer.ingest_batch([W, W_LATER][i % 2], chunk);
            if seal_after == Some(i) {
                let _ = writer.seal();
            }
        }
        let first = temp_store_dir("round-trip");
        writer.persist(&first).expect("persist");
        let original = QueryEngine::new(writer.seal(), 1);

        let (mut opened, _) = ShardedStore::open(&first, config).expect("open");
        let engine = QueryEngine::new(opened.seal(), 1);
        for plan in every_plan(&original, &[W, W_LATER]) {
            prop_assert_eq!(engine.execute(&plan), original.execute(&plan), "{:?}", plan);
        }
        let second = temp_store_dir("round-trip-again");
        opened.persist(&second).expect("re-persist");
        prop_assert_eq!(segment_files(&first), segment_files(&second));
        let _ = std::fs::remove_dir_all(&first);
        let _ = std::fs::remove_dir_all(&second);
    }
}
