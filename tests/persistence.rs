//! Differential tests for the on-disk segment store
//! (docs/SEGMENT_FORMAT.md): a store persisted, dropped, and reopened
//! must answer the **full [`FleetQuery`] surface byte-identically** to
//! the in-memory original, and a run that crashes before persisting
//! must recover every fully-appended batch from the tail log.

use airstat::classify::apps::Application;
use airstat::classify::device::OsFamily;
use airstat::classify::mac::{MacAddress, Oui};
use airstat::core::PaperReport;
use airstat::rf::band::{Band, Channel};
use airstat::rf::phy::{Capabilities, Generation};
use airstat::sim::config::{WINDOW_JAN_2014, WINDOW_JAN_2015, WINDOW_JUL_2014};
use airstat::sim::{FleetConfig, FleetSimulation};
use airstat::stats::rng::fnv1a;
use airstat::store::{
    DurableStore, FleetQuery, QueryBackend, QueryEngine, ReportSink, ShardedStore, StoreConfig,
};
use airstat::telemetry::backend::WindowId;
use airstat::telemetry::report::{
    AirtimeRecord, ChannelScanRecord, ClientInfoRecord, CrashRecord, LinkRecord, NeighborRecord,
    Report, ReportPayload, UsageRecord,
};
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

            let original = QueryEngine::new(output.store.seal(), output.run.threads);
            let from_disk = QueryEngine::new(reopened.seal(), output.run.threads);
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
        let engine = QueryEngine::with_backend(snapshot.clone(), output.run.threads, backend);
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
    let original = QueryEngine::new(output.store.seal(), output.run.threads);
    let from_log = QueryEngine::new(recovered.seal(), output.run.threads);
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

/// `stream`'s batches ingested into a fresh store in order, resealed
/// after every `seal_every`th batch and persisted into `dir` after
/// every `persist_every`th and once after the last, through a
/// [`DurableStore`] as a campaign's `--store-dir` run does.
fn persist_at_cadence(
    stream: &[(WindowId, Vec<Report>)],
    config: StoreConfig,
    seal_every: Option<usize>,
    persist_every: Option<usize>,
    dir: &Path,
) {
    let mut durable = DurableStore::create(dir, config).expect("create");
    let due = |every: Option<usize>, i: usize| every.is_some_and(|n| (i + 1) % n == 0);
    for (i, (window, reports)) in stream.iter().enumerate() {
        durable.ingest_batch(*window, reports);
        if due(seal_every, i) {
            durable.reseal();
        }
        if due(persist_every, i) {
            durable.persist().expect("persist");
        }
    }
    durable.persist().expect("final persist");
}

/// The hand-built stream below plus, each round, four payloads that
/// file no row (empty usage, client, link and airtime lists) into a
/// third window: a window only the dedup ledger and a row-less block
/// hold, which no sealed delta and no compaction carries.
fn row_less_rounds() -> Vec<(WindowId, Vec<Report>)> {
    let mut stream = Vec::new();
    for round in 0..9u64 {
        stream.extend(image_round(round));
        let row_less = (1..=5u64).flat_map(|device| {
            let payloads = [
                ReportPayload::Usage(Vec::new()),
                ReportPayload::ClientInfo(Vec::new()),
                ReportPayload::Links(Vec::new()),
                ReportPayload::Airtime(Vec::new()),
            ];
            payloads
                .into_iter()
                .enumerate()
                .map(move |(kind, payload)| Report {
                    device,
                    seq: round * 4 + kind as u64,
                    timestamp_s: 3_600 * round,
                    payload,
                })
        });
        stream.push((WINDOW_JUL_2014, row_less.collect()));
    }
    stream
}

/// A persist's bytes depend only on the rows: the smoke campaign and a
/// stream with a row-less window, persisted once with no seal before
/// it, once after sealing every 5 batches, and into one directory
/// every k batches, all leave the same segment files, and so does the
/// last of those stores reopened and persisted into another directory.
#[test]
fn a_persists_bytes_depend_only_on_the_rows() {
    let config = StoreConfig {
        shards: 4,
        threads: 1,
    };
    let mut capture = CaptureSink::default();
    FleetSimulation::new(FleetConfig::smoke()).run_into(&mut capture);
    for (label, stream) in [("smoke", capture.0), ("row-less", row_less_rounds())] {
        let monolithic = temp_store_dir("monolithic");
        persist_at_cadence(&stream, config, None, None, &monolithic);
        let expected = segment_files(&monolithic);
        assert_eq!(expected.len(), config.shards, "{label}");

        let sealed = temp_store_dir("sealed");
        persist_at_cadence(&stream, config, Some(5), None, &sealed);
        assert!(
            segment_files(&sealed) == expected,
            "{label}: sealing every 5 batches moved the persisted bytes"
        );

        let every = stream.len().div_ceil(4);
        let repeated = temp_store_dir("repeated");
        persist_at_cadence(&stream, config, None, Some(every), &repeated);
        assert!(
            segment_files(&repeated) == expected,
            "{label}: persisting every {every} batches into one directory moved the bytes"
        );
        let (mut reopened, recovery) = ShardedStore::open(&repeated, config).expect("open");
        assert_eq!(recovery.wal_records_replayed, 0, "{label}");
        let again = temp_store_dir("again");
        reopened
            .persist(&again)
            .expect("persist the reopened store");
        assert!(
            segment_files(&again) == expected,
            "{label}: persisting every {every} batches, reopened, moved the bytes"
        );
        for dir in [monolithic, sealed, repeated, again] {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// One round of the hand-built stream behind the directory-image pin:
/// for each of five devices one report of every payload kind (crashes
/// from two of them), values moving with `round`, split over two
/// windows. Device 2 leaves gaps in its sequence numbers so the dedup
/// ledger carries a sparse tail.
fn image_round(round: u64) -> [(WindowId, Vec<Report>); 2] {
    let channel = |band, number| Channel::new(band, number).expect("a valid channel");
    let mut batches = [(WINDOW_JAN_2014, Vec::new()), (WINDOW_JAN_2015, Vec::new())];
    for device in 1..=5u64 {
        let mac = |k: u64| MacAddress::from_id(Oui([2, 4, 6]), device * 10 + k);
        let pick = (device + round) as usize;
        let band = BANDS[pick % 2];
        let mut payloads = vec![
            ReportPayload::Usage(vec![
                UsageRecord {
                    mac: mac(0),
                    app: Application::Netflix,
                    up_bytes: 1_000 * device + round,
                    down_bytes: 50_000 * (round + 1),
                },
                UsageRecord {
                    mac: mac(1),
                    app: Application::ALL[pick % Application::ALL.len()],
                    up_bytes: 300,
                    down_bytes: device << (round % 40),
                },
            ]),
            ReportPayload::ClientInfo(vec![
                ClientInfoRecord {
                    mac: mac(0),
                    os: OsFamily::ALL[pick % OsFamily::ALL.len()],
                    caps: Capabilities::new(Generation::Ac, true, true, 3),
                    band,
                    rssi_dbm: -40.5 - device as f64,
                },
                ClientInfoRecord {
                    mac: mac(1),
                    os: OsFamily::Android,
                    caps: Capabilities::new(Generation::G, false, false, 1),
                    band: Band::Ghz2_4,
                    rssi_dbm: -71.25 + round as f64,
                },
            ]),
            ReportPayload::Links(vec![
                LinkRecord {
                    peer_device: device % 5 + 1,
                    band,
                    probes_expected: 20,
                    probes_received: ((device * 3 + round) % 21) as u32,
                },
                LinkRecord {
                    peer_device: 9,
                    band: Band::Ghz5,
                    probes_expected: 0,
                    probes_received: 0,
                },
            ]),
            ReportPayload::Airtime(vec![AirtimeRecord {
                channel: channel(Band::Ghz5, 36),
                elapsed_us: 1_000_000,
                busy_us: 400_000 + 1_000 * round,
                wifi_us: 300_000 + device,
            }]),
            ReportPayload::Neighbors(vec![
                NeighborRecord {
                    channel: channel(Band::Ghz2_4, 6),
                    networks: (device + round) as u32,
                    hotspots: (round % 3) as u32,
                },
                NeighborRecord {
                    channel: channel(Band::Ghz5, 149),
                    networks: 2,
                    hotspots: 0,
                },
            ]),
            ReportPayload::ChannelScan(vec![
                ChannelScanRecord {
                    channel: channel(Band::Ghz2_4, 1),
                    utilization_ppm: (37_000 * device + round) as u32,
                    decodable_ppm: 800_000,
                    networks: device as u32,
                },
                ChannelScanRecord {
                    channel: channel(Band::Ghz5, 36),
                    utilization_ppm: 9_000,
                    decodable_ppm: (990_000 - round) as u32,
                    networks: 1,
                },
            ]),
        ];
        if device % 2 == 1 {
            payloads.push(ReportPayload::Crash(vec![CrashRecord {
                firmware: format!("mr18-2015.{round}"),
                reason: (pick % 5) as u8,
                program_counter: 0x4000_0000 + device,
                uptime_s: 86_400 * (round + 1),
                free_memory_bytes: 1 << 20,
            }]));
        }
        let stride = if device == 2 { 2 } else { 1 };
        let reports = &mut batches[usize::from(device > 3)].1;
        for (kind, payload) in payloads.into_iter().enumerate() {
            reports.push(Report {
                device,
                seq: (round * 8 + kind as u64) * stride,
                timestamp_s: 3_600 * round + device,
                payload,
            });
        }
    }
    batches
}

/// A store directory as text: one `name length fnv1a` line per file, in
/// name order.
fn directory_image(dir: &Path) -> Vec<String> {
    let mut lines: Vec<String> = std::fs::read_dir(dir)
        .expect("store dir readable")
        .flatten()
        .map(|entry| {
            let bytes = std::fs::read(entry.path()).expect("store file readable");
            let name = entry.file_name();
            let name = name.to_str().expect("utf-8 file name");
            format!("{name} {} {:016x}\n", bytes.len(), fnv1a(&bytes))
        })
        .collect();
    lines.sort();
    lines
}

/// Every file the store leaves on disk — each segment, `MANIFEST` and
/// `wal.log` — after each step: the tail log ahead of the first
/// persist, nine persists into the same directory (reopened between
/// them), and a persist into another directory. Each step lists its
/// file count and the files that are new or changed since the step
/// before (the rest are the lines already listed). Every persist is
/// whole, so each in-place step lists exactly what a persist of the
/// same store into an empty directory writes. The first and ninth
/// persists and the one into another directory were captured on the
/// commit before the two persist writers, three preambles and the
/// column loops of `segment.rs` were folded into one of each; the other
/// seven, when persists into the same directory still wrote delta
/// chains, as what a full persist of each round's store wrote. It
/// changes only with a `SEGMENT_SCHEMA_VERSION` bump.
const DIRECTORY_IMAGES: &str = "\
== tail log before the first persist: 1 file(s)\n\
wal.log 1351 d6c4e2e7cf998c69\n\
== persist 1 wrote 2: 4 file(s)\n\
MANIFEST 64 aee7fdf8d09f4953\n\
seg-0000000000000004-0000.aseg 595 118daef14fc78328\n\
seg-0000000000000004-0001.aseg 495 0e50e08e5c81f548\n\
wal.log 20 55b915e3d66f8392\n\
== persist 2 wrote 2: 4 file(s)\n\
MANIFEST 64 2991b572cd8e8bc1\n\
seg-0000000000000008-0000.aseg 787 ec97f705f93dc98a\n\
seg-0000000000000008-0001.aseg 659 eb082e86c95cc5e8\n\
wal.log 20 7c7aae8f3fa7d11c\n\
== persist 3 wrote 2: 4 file(s)\n\
MANIFEST 64 21d9e7dcb25774ab\n\
seg-000000000000000c-0000.aseg 971 ec900a8c6dd16613\n\
seg-000000000000000c-0001.aseg 817 0af30f9979ebdea1\n\
wal.log 20 9e28181e94acaa96\n\
== persist 4 wrote 2: 4 file(s)\n\
MANIFEST 64 f9f643eb1a6a5c7e\n\
seg-0000000000000010-0000.aseg 1151 603655613d74861a\n\
seg-0000000000000010-0001.aseg 974 c0de6c146e04740b\n\
wal.log 20 6c612c698f78649b\n\
== persist 5 wrote 2: 4 file(s)\n\
MANIFEST 64 e4122bf591540da0\n\
seg-0000000000000014-0000.aseg 1333 619d1e8de753081a\n\
seg-0000000000000014-0001.aseg 1132 0cca031a38f34203\n\
wal.log 20 cd43861b39c94f6d\n\
== persist 6 wrote 2: 4 file(s)\n\
MANIFEST 64 b083f706a75e6e4f\n\
seg-0000000000000018-0000.aseg 1530 08a76b4a2e385a6c\n\
seg-0000000000000018-0001.aseg 1299 e02252a37009b179\n\
wal.log 20 33208ad50a2c5ab7\n\
== persist 7 wrote 2: 4 file(s)\n\
MANIFEST 64 55f2e7ea061dad8c\n\
seg-000000000000001c-0000.aseg 1727 d32616379fd9c19c\n\
seg-000000000000001c-0001.aseg 1464 2c1a2ecb95dc1310\n\
wal.log 20 a6d404c8e17b8419\n\
== persist 8 wrote 2: 4 file(s)\n\
MANIFEST 64 7ad3c96e82766b5a\n\
seg-0000000000000020-0000.aseg 1919 6b857ae845ec1966\n\
seg-0000000000000020-0001.aseg 1628 e1e7f6ded4e800d7\n\
wal.log 20 4ac1045c9d8dea01\n\
== persist 9 wrote 2: 4 file(s)\n\
MANIFEST 64 08e251a7325c5476\n\
seg-0000000000000024-0000.aseg 2126 ccd4d2314f0e09d8\n\
seg-0000000000000024-0001.aseg 1794 0793b5fdfb792041\n\
wal.log 20 6896fd181b801a5f\n\
== persist into another directory wrote 2: 4 file(s)\n\
";

/// Round-trip tests cannot see an encoder and its decoder drift
/// together, and the spec's worked example pins one one-row segment;
/// this pins whole directories, across commits.
#[test]
fn store_directory_bytes_are_pinned_across_every_persist_transition() {
    let dir = temp_store_dir("image");
    let other = temp_store_dir("image-other");
    let config = StoreConfig {
        shards: 2,
        threads: 1,
    };
    let mut durable = DurableStore::create(&dir, config).expect("create");
    let mut images = String::new();
    let mut listed = Vec::new();
    let mut record = |step: String, dir: &Path| {
        let image = directory_image(dir);
        images += &format!("== {step}: {} file(s)\n", image.len());
        for line in image.iter().filter(|line| !listed.contains(*line)) {
            images += line;
        }
        listed = image;
    };
    for round in 0..9u64 {
        for (window, reports) in image_round(round) {
            durable.ingest_batch(window, &reports);
            // A retransmission, for the duplicate counter.
            durable.ingest_batch(window, &reports[..1]);
        }
        if round == 0 {
            record("tail log before the first persist".to_string(), &dir);
        }
        let written = durable.persist().expect("persist").segments_written;
        record(format!("persist {} wrote {written}", round + 1), &dir);
        let fresh = temp_store_dir("image-fresh");
        let mut copy = durable.store().clone();
        copy.persist(&fresh)
            .expect("persist into a fresh directory");
        assert_eq!(
            directory_image(&dir),
            directory_image(&fresh),
            "persist {} into the same directory wrote other bytes than into an empty one",
            round + 1
        );
        let _ = std::fs::remove_dir_all(&fresh);
        // Reopen, and read the reopened store through the map-backed
        // oracle before anything is ingested into it: the next round
        // then writes into a store whose row tables a reader built.
        let original = QueryEngine::new(durable.store().seal(), 1);
        drop(durable);
        let (reopened, _) = DurableStore::open(&dir, config).expect("reopen");
        let legacy = QueryEngine::with_backend(reopened.store().seal(), 1, QueryBackend::Legacy);
        assert_surfaces_identical(&legacy, &original, &format!("reopened after round {round}"));
        durable = reopened;
    }
    let mut copy = durable.store().clone();
    let written = copy
        .persist(&other)
        .expect("persist elsewhere")
        .segments_written;
    record(
        format!("persist into another directory wrote {written}"),
        &other,
    );
    assert!(
        images == DIRECTORY_IMAGES,
        "the store's on-disk bytes moved; this run wrote:\n{images}"
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&other);
}
