//! The store's differential and on-disk tests. One seeded model test
//! runs random op sequences — ingest, retransmit, seal, persist,
//! persist elsewhere, reopen, query — over a durable store at a drawn
//! shard and thread count, and holds every answer to the flat
//! [`Backend`], which shares no code with the store. Beside it: a run
//! that crashes before persisting recovers from the tail log, a
//! persist's bytes depend only on the rows, whole store directories are
//! pinned across commits (docs/SEGMENT_FORMAT.md), and a second report
//! render is served from the result cache.

use airstat::classify::apps::Application;
use airstat::classify::device::OsFamily;
use airstat::classify::mac::{MacAddress, Oui};
use airstat::core::PaperReport;
use airstat::rf::band::{Band, Channel};
use airstat::rf::phy::{Capabilities, Generation};
use airstat::sim::config::{WINDOW_JAN_2014, WINDOW_JAN_2015, WINDOW_JUL_2014};
use airstat::sim::{FleetConfig, FleetSimulation};
use airstat::stats::rng::{fnv1a, splitmix64};
use airstat::store::{
    DurableStore, FleetQuery, QueryBackend, QueryEngine, QueryPlan, QueryValue, ReportSink,
    ShardedStore, StoreConfig,
};
use airstat::telemetry::backend::{Backend, WindowId};
use airstat::telemetry::crash::CrashSignature;
use airstat::telemetry::report::{
    AirtimeRecord, ChannelScanRecord, ClientInfoRecord, CrashRecord, LinkRecord, NeighborRecord,
    Report, ReportPayload, UsageRecord,
};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

const WINDOWS: [WindowId; 3] = [WINDOW_JAN_2014, WINDOW_JUL_2014, WINDOW_JAN_2015];
const BANDS: [Band; 2] = [Band::Ghz2_4, Band::Ghz5];

/// A unique scratch directory per call — process id plus a
/// process-wide counter, no wall clock involved.
fn temp_store_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let id = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("airstat-persist-{}-{tag}-{id}", std::process::id()))
}

/// A run that crashes before its first persist recovers every batch
/// from the tail log, and a record torn mid-write is dropped, not
/// replayed and not an error: pins tail-log recovery and the torn-tail
/// rule of docs/SEGMENT_FORMAT.md §7.
#[test]
fn crashed_campaign_recovers_from_the_tail_log() {
    let dir = temp_store_dir("crash");
    let config = StoreConfig::default();

    // The doomed run: every batch reaches the tail log, but the process
    // "crashes" (drops the store) before any persist commits segments.
    let mut durable = DurableStore::create(&dir, config).expect("create");
    let mut model = Backend::new();
    for (window, reports) in &model_streams()[1] {
        durable.ingest_batch(*window, reports);
        model.ingest_batch(*window, reports);
    }
    assert!(durable.take_error().is_none(), "tail log appends succeeded");
    let expected_epoch = QueryEngine::new(durable.store().seal(), 1).stats().epoch;
    drop(durable);

    let (recovered, recovery) = ShardedStore::open(&dir, config).expect("recover");
    assert_eq!(recovery.segments_loaded, 0, "nothing was ever persisted");
    assert!(recovery.wal_records_replayed > 0);
    assert_eq!(recovery.wal_bytes_discarded, 0, "no torn record");
    assert_eq!(
        QueryEngine::new(recovered.seal(), 1).stats().epoch,
        expected_epoch
    );
    // The recovered store answers every plan as the stream's offers do.
    let plans = every_plan(&model);
    if let Err(error) = answers_like(&recovered, config.threads, &model, &plans) {
        panic!("tail-log recovery: {error}");
    }

    // Tear the final record mid-write: recovery must stop cleanly at the
    // last whole record instead of erroring or replaying garbage.
    let wal_path = dir.join("wal.log");
    let bytes = std::fs::read(&wal_path).expect("tail log readable");
    std::fs::write(&wal_path, &bytes[..bytes.len() - 5]).expect("tear tail log");
    let (_, torn) = ShardedStore::open(&dir, config).expect("recover torn");
    assert_eq!(torn.wal_records_replayed, recovery.wal_records_replayed - 1);
    assert!(torn.wal_bytes_discarded > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A second render of the report is served whole from the result
/// cache: it adds no miss and evicts nothing. Pins the byte-budgeted
/// cache against the old 64-entry bound, which evicted within one
/// report.
#[test]
fn a_second_report_is_served_from_the_result_cache() {
    let mut store = ShardedStore::with_config(StoreConfig {
        shards: 8,
        threads: 4,
    });
    for (window, reports) in &model_streams()[0] {
        store.ingest_batch(*window, reports);
    }
    let engine = QueryEngine::new(store.seal(), 4);
    let config = FleetConfig::smoke();
    let report = PaperReport::from_query(&engine, &config).to_string();
    let cold = engine.stats();
    assert!(cold.hits >= 1, "the report path must hit the cache: {cold}");
    assert!(cold.misses > 64, "{cold}");
    assert_eq!(
        report,
        PaperReport::from_query(&engine, &config).to_string()
    );
    let warm = engine.stats();
    assert_eq!(
        (warm.misses, warm.evictions),
        (cold.misses, 0),
        "the second report missed the cache: {warm}"
    );
}

/// Keeps every batch a campaign drains, so one simulation serves every
/// test here.
#[derive(Default)]
struct CaptureSink(Stream);

impl ReportSink for CaptureSink {
    fn ingest_batch(&mut self, window: WindowId, reports: &[Report]) -> u64 {
        self.0.push((window, reports.to_vec()));
        reports.len() as u64
    }
}

/// A stream of drained batches, in drain order.
type Stream = Vec<(WindowId, Vec<Report>)>;

/// The two streams the tests here replay, built once per process: the
/// smoke campaign as its engine drains it, and the hand-built stream
/// with row-less windows (five devices, seven payload kinds, sparse
/// sequence numbers).
fn model_streams() -> &'static [Stream; 2] {
    static STREAMS: OnceLock<[Stream; 2]> = OnceLock::new();
    STREAMS.get_or_init(|| {
        let mut capture = CaptureSink::default();
        FleetSimulation::new(FleetConfig::smoke()).run_into(&mut capture);
        [capture.0, row_less_rounds()]
    })
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
fn row_less_rounds() -> Stream {
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
/// Pins the whole persist: persists once wrote delta chains, whose
/// bytes moved with the seal and persist cadence.
#[test]
fn a_persists_bytes_depend_only_on_the_rows() {
    let config = StoreConfig {
        shards: 4,
        threads: 1,
    };
    let [smoke, row_less] = model_streams();
    for (label, stream) in [("smoke", smoke), ("row-less", row_less)] {
        let monolithic = temp_store_dir("monolithic");
        persist_at_cadence(stream, config, None, None, &monolithic);
        let expected = segment_files(&monolithic);
        assert_eq!(expected.len(), config.shards, "{label}");

        let sealed = temp_store_dir("sealed");
        persist_at_cadence(stream, config, Some(5), None, &sealed);
        assert!(
            segment_files(&sealed) == expected,
            "{label}: sealing every 5 batches moved the persisted bytes"
        );

        let every = stream.len().div_ceil(4);
        let repeated = temp_store_dir("repeated");
        persist_at_cadence(stream, config, None, Some(every), &repeated);
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
/// this pins whole directories, across commits, and that every reopened
/// store answers like the flat backend fed the same offers.
#[test]
fn store_directory_bytes_are_pinned_across_every_persist_transition() {
    let dir = temp_store_dir("image");
    let other = temp_store_dir("image-other");
    let config = StoreConfig {
        shards: 2,
        threads: 1,
    };
    let mut durable = DurableStore::create(&dir, config).expect("create");
    let mut model = Backend::new();
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
            // The second offer is a retransmission, for the duplicate
            // counter.
            for offer in [&reports[..], &reports[..1]] {
                durable.ingest_batch(window, offer);
                model.ingest_batch(window, offer);
            }
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
        // Reopen, and read the reopened store through both engines, the
        // map-backed oracle included, before anything is ingested into
        // it: the next round then writes into a store whose row tables
        // a reader built.
        drop(durable);
        let (reopened, _) = DurableStore::reopen(&dir, config).expect("reopen");
        let plans = every_plan(&model);
        if let Err(error) = answers_like(reopened.store(), 1, &model, &plans) {
            panic!("reopened after round {round}: {error}");
        }
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

/// One step of a store's life in the model test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    /// Offers the stream's next batch (a no-op once it is used up).
    Ingest,
    /// Offers again the `j`th batch, modulo how many were offered (a
    /// no-op before the first `Ingest`).
    Retransmit(usize),
    /// Brings the store's read layout up to date.
    Seal,
    /// Persists into the store's own directory.
    Persist,
    /// Persists a copy of the store into a fresh directory.
    PersistElsewhere,
    /// Drops the store and opens its directory again.
    Reopen,
    /// Asks the `k`th plan, modulo how many the model's answers span.
    Query(usize),
}

impl Op {
    /// How many op kinds there are.
    const KINDS: usize = 7;

    /// This op's kind, numbered for the coverage guard.
    fn kind(self) -> usize {
        match self {
            Op::Ingest => 0,
            Op::Retransmit(_) => 1,
            Op::Seal => 2,
            Op::Persist => 3,
            Op::PersistElsewhere => 4,
            Op::Reopen => 5,
            Op::Query(_) => 6,
        }
    }
}

/// The fixed sequences: a range of seeds over each of the
/// [`model_streams`]. The cheap hand-built stream goes first, so that a
/// failure it finds shrinks in seconds; a smoke-campaign sequence takes
/// about 11 s in a debug build.
const MODEL_SEEDS: [(usize, Range<u64>); 2] = [(1, 0..32), (0, 32..33)];

/// Every `(stream, seed)` of [`MODEL_SEEDS`], in run order.
fn model_sequences() -> impl Iterator<Item = (usize, u64)> {
    MODEL_SEEDS
        .into_iter()
        .flat_map(|(stream, seeds)| seeds.map(move |seed| (stream, seed)))
}

/// Ops other than `Ingest` per sequence, on average.
const MODEL_OTHER_OPS: usize = 64;

/// The sequence `seed` draws over `stream`: a store shape, and the
/// stream's length plus [`MODEL_OTHER_OPS`] ops, each an `Ingest` with
/// the odds that offer about the whole stream.
fn draw(stream: &Stream, seed: u64) -> (StoreConfig, Vec<Op>) {
    let mut state = seed;
    let mut next = |bound: usize| {
        state = splitmix64(state);
        (state % bound as u64) as usize
    };
    let config = StoreConfig {
        shards: 1 + next(8),
        threads: 1 + next(4),
    };
    let len = stream.len() + MODEL_OTHER_OPS;
    let ops = (0..len)
        .map(|_| {
            if next(len) < stream.len() {
                return Op::Ingest;
            }
            match next(10) {
                0..=1 => Op::Retransmit(next(usize::MAX)),
                2..=3 => Op::Seal,
                4..=5 => Op::Persist,
                6 => Op::PersistElsewhere,
                7 => Op::Reopen,
                _ => Op::Query(next(usize::MAX)),
            }
        })
        .collect();
    (config, ops)
}

/// `ops` run over a durable store of shape `config`, checked against
/// the flat [`Backend`] fed the same offers: after every op the
/// duplicate counts agree; after each `Query` and at the end both
/// engines answer like the backend; after each `Reopen` and
/// `PersistElsewhere` the store persists the same segment bytes as a
/// twin that took the same offers and seals and was never persisted.
/// An `Err` holds how many ops ran, the failing one last, and what
/// diverged.
fn run_model(stream: &Stream, config: StoreConfig, ops: &[Op]) -> Result<(), (usize, String)> {
    let dir = temp_store_dir("model");
    let result = drive_model(stream, config, ops, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn drive_model(
    stream: &Stream,
    config: StoreConfig,
    ops: &[Op],
    dir: &Path,
) -> Result<(), (usize, String)> {
    let mut durable = DurableStore::create(dir, config).map_err(|e| (0, e.to_string()))?;
    let mut twin = ShardedStore::with_config(config);
    let mut model = Backend::new();
    let mut model_dropped = 0;
    let mut offered = 0;
    for (step, &op) in ops.iter().enumerate() {
        let mut apply = || -> Result<(), String> {
            let batch = match op {
                Op::Ingest if offered < stream.len() => {
                    offered += 1;
                    Some(&stream[offered - 1])
                }
                Op::Retransmit(j) if offered > 0 => Some(&stream[j % offered]),
                _ => None,
            };
            if let Some((window, reports)) = batch {
                durable.ingest_batch(*window, reports);
                twin.ingest_batch(*window, reports);
                model_dropped += reports.len() as u64 - model.ingest_batch(*window, reports);
            }
            match op {
                Op::Seal => {
                    durable.reseal();
                    twin.reseal();
                }
                Op::Persist => {
                    durable.persist().map_err(|e| e.to_string())?;
                }
                Op::PersistElsewhere => persists_like(durable.store(), &twin)?,
                Op::Reopen => {
                    durable = DurableStore::reopen(dir, config)
                        .map_err(|e| e.to_string())?
                        .0;
                    persists_like(durable.store(), &twin)?;
                }
                Op::Query(k) => {
                    let plans = every_plan(&model);
                    let plan = std::slice::from_ref(&plans[k % plans.len()]);
                    answers_like(durable.store(), config.threads, &model, plan)?;
                }
                Op::Ingest | Op::Retransmit(_) => {}
            }
            let dropped = durable.store().duplicates_dropped();
            same("duplicates_dropped", dropped, model_dropped)
        };
        apply().map_err(|error| (step + 1, format!("step {step} {op:?}: {error}")))?;
    }
    answers_like(durable.store(), config.threads, &model, &every_plan(&model))
        .map_err(|error| (ops.len(), format!("after the last op: {error}")))
}

/// `Err` naming `what` unless `got == want`.
fn same<T: PartialEq + std::fmt::Debug>(what: &str, got: T, want: T) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: store {got:?}, backend {want:?}"))
    }
}

/// Every plan on the three windows: the fixed ones and a series plan
/// per link key `model` holds.
fn every_plan(model: &Backend) -> Vec<QueryPlan> {
    let mut plans = Vec::new();
    for window in WINDOWS {
        plans.extend([
            QueryPlan::UsageByApp(window),
            QueryPlan::UsageByOs(window),
            QueryPlan::ClientCount(window),
            QueryPlan::Clients(window),
            QueryPlan::CensusDeviceCount(window),
            QueryPlan::Crashes(window),
        ]);
        plans.extend(
            Application::ALL
                .iter()
                .map(|&app| QueryPlan::AppClientCount(window, app)),
        );
        for band in BANDS {
            plans.extend([
                QueryPlan::LinkKeys(window, band),
                QueryPlan::LatestDeliveryRatios(window, band),
                QueryPlan::MeanDeliveryRatios(window, band),
                QueryPlan::ServingUtilizations(window, band),
                QueryPlan::NearbySummary(window, band),
                QueryPlan::NearbyPerChannel(window, band),
                QueryPlan::ScanObservations(window, band),
            ]);
            plans.extend(
                model
                    .link_keys(window, band)
                    .into_iter()
                    .map(|key| QueryPlan::LinkSeries(window, key)),
            );
        }
    }
    plans
}

/// A crash aggregate as triage reads it: the crash count, and per
/// signature its count, distinct program counters and devices.
type Triage = (usize, Vec<(CrashSignature, usize, usize, usize)>);

/// An answer as the model test compares it: exactly, except the crash
/// aggregate, which compares by its triage summaries because the
/// backend keeps crash reports in arrival order and the engine in
/// device order.
#[derive(Debug, PartialEq)]
enum Answer {
    Exact(QueryValue),
    Crashes(Option<Triage>),
}

impl From<QueryValue> for Answer {
    fn from(value: QueryValue) -> Answer {
        let QueryValue::Crashes(crashes) = value else {
            return Answer::Exact(value);
        };
        Answer::Crashes(crashes.map(|c| {
            let signatures = c.by_signature().into_iter();
            let signatures = signatures.map(|(signature, count)| {
                let pcs = c.distinct_pcs(&signature);
                let devices = c.affected_devices(&signature);
                (signature, count, pcs, devices)
            });
            (c.crash_count(), signatures.collect())
        }))
    }
}

/// `plan` answered by the flat backend, through the same query surface
/// the engine serves.
fn backend_answer(model: &Backend, plan: QueryPlan) -> QueryValue {
    let q: &dyn FleetQuery = model;
    match plan {
        QueryPlan::UsageByApp(w) => QueryValue::AppUsage(q.usage_by_app(w)),
        QueryPlan::UsageByOs(w) => QueryValue::OsUsage(q.usage_by_os(w)),
        QueryPlan::ClientCount(w) => QueryValue::Count(q.client_count(w) as u64),
        QueryPlan::Clients(w) => QueryValue::Clients(q.clients(w)),
        QueryPlan::AppClientCount(w, app) => QueryValue::Count(q.app_client_count(w, app)),
        QueryPlan::LinkKeys(w, band) => QueryValue::LinkKeys(q.link_keys(w, band)),
        QueryPlan::LinkSeries(w, key) => QueryValue::Series(q.link_series(w, key)),
        QueryPlan::LatestDeliveryRatios(w, band) => {
            QueryValue::Ratios(q.latest_delivery_ratios(w, band))
        }
        QueryPlan::MeanDeliveryRatios(w, band) => {
            QueryValue::Ratios(q.mean_delivery_ratios(w, band))
        }
        QueryPlan::ServingUtilizations(w, band) => {
            QueryValue::Ratios(q.serving_utilizations(w, band))
        }
        QueryPlan::CensusDeviceCount(w) => QueryValue::Count(q.census_device_count(w) as u64),
        QueryPlan::NearbySummary(w, band) => {
            let (total, mean_per_ap, hotspots) = q.nearby_summary(w, band);
            QueryValue::NearbySummary {
                total,
                mean_per_ap,
                hotspots,
            }
        }
        QueryPlan::NearbyPerChannel(w, band) => {
            QueryValue::PerChannel(q.nearby_per_channel(w, band))
        }
        QueryPlan::Crashes(w) => QueryValue::Crashes(q.crashes(w)),
        QueryPlan::ScanObservations(w, band) => QueryValue::Scans(q.scan_observations(w, band)),
    }
}

/// Both engines on a snapshot of `store` answer each of `plans` like
/// `model`.
fn answers_like(
    store: &ShardedStore,
    threads: usize,
    model: &Backend,
    plans: &[QueryPlan],
) -> Result<(), String> {
    let snapshot = store.seal();
    let engines = [QueryBackend::Vectorized, QueryBackend::Legacy].map(|backend| {
        let engine = QueryEngine::with_backend(snapshot.clone(), threads, backend);
        (backend, engine)
    });
    for &plan in plans {
        let want = Answer::from(backend_answer(model, plan));
        for (backend, engine) in &engines {
            let got = Answer::from(engine.execute(&plan));
            same(&format!("{backend:?} {plan:?}"), &got, &want)?;
        }
    }
    Ok(())
}

/// `store` and `twin`, each copied and persisted into a fresh
/// directory, write the same segment files: a persist's bytes depend
/// only on the rows.
fn persists_like(store: &ShardedStore, twin: &ShardedStore) -> Result<(), String> {
    let [mine, theirs] = [store, twin].map(|store| {
        let dir = temp_store_dir("twin");
        let files = store.clone().persist(&dir).map(|_| segment_files(&dir));
        let _ = std::fs::remove_dir_all(&dir);
        files.map_err(|e| e.to_string())
    });
    if mine? == theirs? {
        Ok(())
    } else {
        Err("persisted other segment bytes than its twin".to_string())
    }
}

/// The shortest sublist of `ops` that `fails` still holds for, by
/// delta debugging over the op vector: drop ever smaller chunks while
/// the rest still fails. Every sublist is a valid sequence, so any
/// chunk may go.
fn shrink(mut ops: Vec<Op>, fails: impl Fn(&[Op]) -> bool) -> Vec<Op> {
    let mut chunks = 2;
    while ops.len() > 1 {
        let size = ops.len().div_ceil(chunks);
        let rest = (0..ops.len()).step_by(size).find_map(|start| {
            let mut rest = ops.clone();
            rest.drain(start..(start + size).min(ops.len()));
            fails(&rest).then_some(rest)
        });
        match rest {
            Some(rest) => {
                ops = rest;
                chunks = (chunks - 1).max(2);
            }
            None if size == 1 => break,
            None => chunks = (chunks * 2).min(ops.len()),
        }
    }
    ops
}

/// The store's one differential: random op sequences over a durable
/// store at a drawn shape, every answer held to the flat backend, which
/// shares no code with the store. A failure prints the seed and the
/// shortest op list that still fails.
#[test]
fn any_op_sequence_answers_like_the_flat_backend() {
    for (index, seed) in model_sequences() {
        let stream = &model_streams()[index];
        let (config, ops) = draw(stream, seed);
        if let Err((ran, error)) = run_model(stream, config, &ops) {
            eprintln!("stream {index} seed {seed} ({config:?}): {error}; shrinking");
            // The ops after the failing one never ran: shrink only
            // those before it.
            let fails = |ops: &[Op]| run_model(stream, config, ops).is_err();
            let minimal = shrink(ops[..ran].to_vec(), fails);
            let (_, error) = run_model(stream, config, &minimal).unwrap_err();
            panic!("stream {index} seed {seed} ({config:?}): {error}\nshortest failing ops: {minimal:?}");
        }
    }
}

/// The generator interleaves every op kind with every other: across
/// the fixed seeds each ordered pair of kinds occurs back to back.
#[test]
fn model_seeds_reach_every_ordered_pair_of_ops() {
    let mut pairs = [[false; Op::KINDS]; Op::KINDS];
    for (index, seed) in model_sequences() {
        let (_, ops) = draw(&model_streams()[index], seed);
        for pair in ops.windows(2) {
            pairs[pair[0].kind()][pair[1].kind()] = true;
        }
    }
    for (first, row) in pairs.iter().enumerate() {
        for (second, &seen) in row.iter().enumerate() {
            assert!(
                seen,
                "no seed runs op kind {first} right before kind {second}"
            );
        }
    }
}
