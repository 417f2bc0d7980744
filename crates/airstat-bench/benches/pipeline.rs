//! Pipeline micro-benchmarks: the substrate costs behind the paper's
//! "1 kbit/s per AP" telemetry budget.
//!
//! * wire-format encode/decode throughput for a typical usage report;
//! * application classification throughput (the AP's fast-path rule walk);
//! * device-OS classification throughput;
//! * backend ingest throughput, legacy vs sharded store (`store_ingest`);
//! * query-engine latency, cold vs cached (`store_query`);
//! * end-to-end fleet simulation rate (clients simulated per second).

use airstat_bench::fixture;
use airstat_bench::harness::{criterion_group, criterion_main, Criterion, Throughput};
use airstat_classify::apps::{FlowMetadata, RuleSet};
use airstat_classify::device::{
    ClassifierVersion, DeviceClassifier, DeviceEvidence, DhcpFingerprint,
};
use airstat_classify::mac::MacAddress;
use airstat_classify::Application;
use airstat_sim::{FleetConfig, FleetSimulation};
use airstat_stats::SeedTree;
use airstat_store::{QueryBackend, QueryEngine, QueryPlan, ShardedStore, StoreConfig};
use airstat_telemetry::backend::{Backend, WindowId};
use airstat_telemetry::report::{Report, ReportPayload, UsageRecord};
use std::hint::black_box;

fn sample_report(records: usize) -> Report {
    Report {
        device: 42,
        seq: 7,
        timestamp_s: 12_345,
        payload: ReportPayload::Usage(
            (0..records)
                .map(|i| UsageRecord {
                    mac: MacAddress::new([0, 1, 2, 3, 4, i as u8]),
                    app: Application::ALL[i % Application::ALL.len()],
                    up_bytes: 1_000 + i as u64,
                    down_bytes: 90_000 + i as u64,
                })
                .collect(),
        ),
    }
}

fn wire_roundtrip(c: &mut Criterion) {
    let report = sample_report(64);
    let encoded = report.encode();
    println!(
        "\n[pipeline] 64-record usage report encodes to {} bytes ({:.1} B/record)",
        encoded.len(),
        encoded.len() as f64 / 64.0
    );
    let mut group = c.benchmark_group("wire");
    group.throughput(Throughput::Bytes(encoded.len() as u64));
    group.bench_function("encode_64_records", |b| {
        b.iter(|| black_box(&report).encode())
    });
    group.bench_function("decode_64_records", |b| {
        b.iter(|| Report::decode(black_box(&encoded)).unwrap())
    });
    group.finish();
}

fn classify_flows(c: &mut Criterion) {
    let ruleset = RuleSet::standard_2015();
    let flows: Vec<FlowMetadata> = vec![
        FlowMetadata::https("movies.netflix.com"),
        FlowMetadata::https("unknown-host.example"),
        FlowMetadata::tcp(445),
        FlowMetadata::udp(9999),
        FlowMetadata::https("drive.google.com"),
        FlowMetadata::http("site123.example.com"),
    ];
    let mut group = c.benchmark_group("classify");
    group.throughput(Throughput::Elements(flows.len() as u64));
    group.bench_function("app_ruleset_index", |b| {
        b.iter(|| {
            for f in &flows {
                black_box(ruleset.classify(black_box(f)));
            }
        })
    });
    let classifier = DeviceClassifier::new(ClassifierVersion::V2015);
    let evidence = DeviceEvidence {
        mac: Some(MacAddress::new([0x28, 0xCF, 0xE9, 1, 2, 3])),
        dhcp: vec![DhcpFingerprint::IosStyle],
        user_agents: vec!["Mozilla/5.0 (iPhone; CPU iPhone OS 8_1 like Mac OS X)".into()],
    };
    group.throughput(Throughput::Elements(1));
    group.bench_function("device_os", |b| {
        b.iter(|| black_box(classifier.classify(black_box(&evidence))))
    });
    group.finish();
}

fn backend_ingest(c: &mut Criterion) {
    let mut group = c.benchmark_group("backend");
    group.throughput(Throughput::Elements(64));
    group.bench_function("ingest_64_record_report", |b| {
        b.iter_with_setup(
            || (Backend::new(), sample_report(64)),
            |(mut backend, report)| {
                backend.ingest(WindowId(1501), black_box(&report));
                backend
            },
        )
    });
    group.finish();
}

fn store_ingest(c: &mut Criterion) {
    // Same 64-record reports as the legacy `backend` group, one per
    // device, so the two ingest paths are directly comparable.
    let batch: Vec<_> = (0..64u64)
        .map(|device| {
            let mut report = sample_report(64);
            report.device = device;
            report.seq = 1;
            report
        })
        .collect();
    let mut group = c.benchmark_group("store_ingest");
    group.throughput(Throughput::Elements(batch.len() as u64));
    for shards in [1usize, 8] {
        group.bench_function(format!("ingest_64_reports_s{shards}"), |b| {
            b.iter_with_setup(
                || ShardedStore::with_config(StoreConfig { shards, threads: 1 }),
                |mut store| {
                    store.ingest_batch(WindowId(1501), black_box(&batch));
                    store
                },
            )
        });
    }
    group.finish();
}

fn store_query(c: &mut Criterion) {
    let (output, _) = fixture();
    let plan = QueryPlan::UsageByOs(airstat_sim::config::WINDOW_JAN_2015);
    let mut group = c.benchmark_group("store_query");
    // Cold: a fresh engine (empty cache) per sample — full per-shard
    // compute plus the deterministic merge. The default backend is the
    // vectorized kernels; the legacy map-backed oracle runs alongside
    // so the two paths are directly comparable.
    group.bench_function("usage_by_os_cold", |b| {
        b.iter_with_setup(|| output.query(), |engine| engine.execute(black_box(&plan)))
    });
    for backend in [QueryBackend::Vectorized, QueryBackend::Legacy] {
        group.bench_function(format!("usage_by_os_cold_{}", backend.name()), |b| {
            b.iter_with_setup(
                || QueryEngine::with_backend(output.store.seal(), output.threads, backend),
                |engine| engine.execute(black_box(&plan)),
            )
        });
    }
    // Cached: the same engine serves every sample after the first, so
    // this measures an epoch-keyed cache hit.
    let warm = output.query();
    warm.execute(&plan);
    group.bench_function("usage_by_os_cached", |b| {
        b.iter(|| warm.execute(black_box(&plan)))
    });
    let stats = warm.stats();
    println!(
        "[store_query] warm engine: {} hits / {} misses after sampling",
        stats.hits, stats.misses
    );
    group.finish();
}

fn fleet_simulation(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulation");
    group.sample_size(10);
    let base = FleetConfig {
        seed: 1,
        poll_drop_probability: 0.0,
        threads: 1,
        ..FleetConfig::paper(0.001)
    };
    let clients = base.clients(airstat_sim::MeasurementYear::Y2015)
        + base.clients(airstat_sim::MeasurementYear::Y2014);
    group.throughput(Throughput::Elements(clients));
    // Same campaign at both ends of the thread knob: the strictly serial
    // path and the full fan-out. Output is byte-identical either way, so
    // any delta between the two cases is pure engine overhead/speedup.
    let max_threads = airstat_sim::config::default_threads();
    for threads in [1, max_threads] {
        let config = FleetConfig {
            threads,
            ..base.clone()
        };
        group.bench_function(format!("full_campaign_0.1pct_t{threads}"), |b| {
            b.iter(|| FleetSimulation::new(black_box(config.clone())).run())
        });
        if max_threads == 1 {
            break; // single-core host: the two cases are the same run
        }
    }
    group.finish();
    let _ = SeedTree::new(0);
}

criterion_group! {
    name = pipeline;
    config = Criterion::default().sample_size(30);
    targets = wire_roundtrip, classify_flows, backend_ingest, store_ingest,
              store_query, fleet_simulation
}
criterion_main!(pipeline);
