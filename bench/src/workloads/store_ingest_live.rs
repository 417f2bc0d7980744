//! `store_ingest_live`: the store's write path with reads beside it —
//! WAL append, shard ingest with dedup, incremental seals with a
//! dashboard refresh after every 32nd batch, and the final persist. The
//! simulator does no timed work: its batches are captured at set-up.

use std::fs;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use airstat_core::report::PaperReport;
use airstat_rf::band::Band;
use airstat_sim::FleetConfig;
use airstat_store::{DurableStore, FleetQuery, QueryEngine, ReportSink, ShardedStore};
use airstat_telemetry::backend::WindowId;
use airstat_telemetry::report::Report;

use super::{
    campaign_clients, capture_campaign, fleet_config, legacy_digest, median_total_ms, record_count,
    wire_bytes, LayerMetrics, Rep, Sizes, Workload, STORE,
};
use crate::stats::{digest, median, quantile};
use crate::trace::{durations_ms, Span, Tracer};

/// Every `REOFFER_EVERY`th batch is offered twice, as a re-poll after a
/// lost ack delivers it: 12.5 % of batches are duplicates.
const REOFFER_EVERY: usize = 8;
/// Batches between dashboard refreshes.
const REFRESH_EVERY: usize = 32;

pub struct StoreIngestLive {
    config: FleetConfig,
    dir: PathBuf,
    batches: Vec<(WindowId, Vec<Report>)>,
    /// Indices into `batches` in offer order, re-offers included.
    order: Vec<usize>,
    captured_reports: u64,
    reoffered_reports: u64,
    /// Records in every offer, re-offers included.
    offered_records: u64,
    /// Digest of the report over a store that ingested the capture in one
    /// go, never sealed mid-way, answered by the legacy backend.
    oracle_digest: u64,
    traced: Option<TracedCounts>,
}

struct TracedCounts {
    wal_bytes: u64,
    bytes_written: u64,
    bytes_on_disk: u64,
    rows_resealed: u64,
    segments_live: u64,
    segments_compacted: u64,
}

impl StoreIngestLive {
    pub fn setup(seed: u64, sizes: &Sizes, dir: &Path) -> Self {
        let config = fleet_config(seed, sizes.capture_scale);
        let batches = capture_campaign(&config);
        let mut order = Vec::with_capacity(batches.len() + batches.len() / REOFFER_EVERY);
        let (mut reoffered_reports, mut offered_records) = (0, 0);
        for (i, (_, reports)) in batches.iter().enumerate() {
            order.push(i);
            offered_records += record_count(reports);
            if i % REOFFER_EVERY == REOFFER_EVERY - 1 {
                order.push(i);
                reoffered_reports += reports.len() as u64;
                offered_records += record_count(reports);
            }
        }
        let mut monolithic = ShardedStore::with_config(STORE);
        for (window, reports) in &batches {
            monolithic.ingest_batch(*window, reports);
        }
        StoreIngestLive {
            oracle_digest: legacy_digest(&monolithic, &config),
            captured_reports: batches.iter().map(|(_, r)| r.len() as u64).sum(),
            reoffered_reports,
            offered_records,
            config,
            dir: dir.join("live"),
            batches,
            order,
            traced: None,
        }
    }

    fn offered(&self) -> impl Iterator<Item = (usize, WindowId, &[Report])> + '_ {
        self.order.iter().enumerate().map(|(n, &i)| {
            let (window, reports) = &self.batches[i];
            (n, *window, reports.as_slice())
        })
    }

    /// The dashboard a live operator keeps open on the window that is
    /// arriving: usage by OS, client count, 2.4 GHz delivery ratios.
    fn dashboard<Q: FleetQuery>(query: &Q, window: WindowId) {
        black_box(query.usage_by_os(window));
        black_box(query.client_count(window));
        black_box(query.mean_delivery_ratios(window, Band::Ghz2_4));
    }

    /// Checks the finished store, then drops it and removes its directory.
    fn check_and_clean(&self, store: ShardedStore) -> bool {
        let engine = QueryEngine::new(store.seal(), STORE.threads);
        let text = PaperReport::from_query(&engine, &self.config).to_string();
        let ok = digest(&text) == self.oracle_digest
            && store.reports_ingested() == self.captured_reports
            && store.duplicates_dropped() == self.reoffered_reports;
        drop((engine, store));
        let _ = fs::remove_dir_all(&self.dir);
        ok
    }
}

impl Workload for StoreIngestLive {
    fn work_items(&self) -> u64 {
        campaign_clients(&self.config)
    }

    fn rep(&mut self) -> Result<Rep, String> {
        let start = Instant::now();
        let mut durable = DurableStore::create(&self.dir, STORE).map_err(|e| e.to_string())?;
        for (n, window, reports) in self.offered() {
            durable.ingest_batch(window, reports);
            if (n + 1) % REFRESH_EVERY == 0 {
                let engine = QueryEngine::new(durable.store().seal(), STORE.threads);
                Self::dashboard(&engine, window);
            }
        }
        let (store, _) = durable.into_store().map_err(|e| e.to_string())?;
        let elapsed = start.elapsed();
        Ok(Rep {
            elapsed,
            ok: self.check_and_clean(store),
        })
    }

    fn traced_rep(&mut self, tracer: &Tracer) -> Result<Rep, String> {
        let start = Instant::now();
        let (store, counts) = tracer.span("bench.rep", || -> Result<_, String> {
            let mut durable = tracer
                .span("store.segment.create", || {
                    DurableStore::create(&self.dir, STORE)
                })
                .map_err(|e| e.to_string())?;
            for (n, window, reports) in self.offered() {
                tracer.span("store.ingest.batch", || {
                    durable.ingest_batch(window, reports)
                });
                if (n + 1) % REFRESH_EVERY == 0 {
                    tracer.span("store.live.refresh", || {
                        let snapshot = tracer.span("store.seal.incr", || durable.store().seal());
                        let engine = QueryEngine::new(snapshot, STORE.threads);
                        tracer.span("store.query.dashboard", || Self::dashboard(&engine, window));
                    });
                }
            }
            let wal_bytes = fs::metadata(self.dir.join("wal.log")).map_or(0, |m| m.len());
            let (store, persisted) = tracer
                .span("store.segment.persist", || durable.into_store())
                .map_err(|e| e.to_string())?;
            Ok((store, (wal_bytes, persisted.bytes_written)))
        })?;
        let elapsed = start.elapsed();
        let seal = store.seal().seal_stats();
        self.traced = Some(TracedCounts {
            wal_bytes: counts.0,
            bytes_written: counts.1,
            bytes_on_disk: dir_bytes(&self.dir),
            rows_resealed: seal.rows_resealed,
            segments_live: seal.segments_live,
            segments_compacted: seal.segments_compacted,
        });
        Ok(Rep {
            elapsed,
            ok: self.check_and_clean(store),
        })
    }

    fn layer_metrics(&mut self, spans: &[Span], reps: u32) -> Result<LayerMetrics, String> {
        let counts = self.traced.as_ref().ok_or("no traced rep was run")?;
        let mut m = LayerMetrics::new();

        // The same offers through a plain in-memory store: what is left
        // of the durable ingest after subtracting this is the WAL append.
        let plain_ms = {
            let walls: Vec<f64> = (0..3)
                .map(|_| {
                    let mut plain = ShardedStore::with_config(STORE);
                    let start = Instant::now();
                    for (_, window, reports) in self.offered() {
                        plain.ingest_batch(window, reports);
                    }
                    start.elapsed().as_secs_f64() * 1e3
                })
                .collect();
            median(&walls)
        };
        let durable_ms = median_total_ms(spans, reps, "store.ingest.batch");
        m.insert("store.ingest.ms", plain_ms);
        m.insert(
            "store.ingest.ns_per_record",
            plain_ms * 1e6 / self.offered_records as f64,
        );
        m.insert(
            "store.ingest.dup_share",
            self.reoffered_reports as f64 / (self.captured_reports + self.reoffered_reports) as f64,
        );
        m.insert("store.wal.append_ms", durable_ms - plain_ms);
        m.insert("store.wal.bytes", counts.wal_bytes as f64);

        let seals = durations_ms(spans, "store.seal.incr");
        m.insert("store.seal.incr_p50_ms", median(&seals));
        m.insert("store.seal.incr_p95_ms", quantile(&seals, 0.95));
        m.insert("store.seal.rows_resealed", counts.rows_resealed as f64);
        m.insert("store.seal.segments_live", counts.segments_live as f64);
        m.insert(
            "store.seal.segments_compacted",
            counts.segments_compacted as f64,
        );
        let refreshes = durations_ms(spans, "store.live.refresh");
        m.insert("store.live.refresh_p50_ms", median(&refreshes));
        m.insert("store.live.refresh_p95_ms", quantile(&refreshes, 0.95));

        m.insert(
            "store.segment.persist_ms",
            median_total_ms(spans, reps, "store.segment.persist"),
        );
        m.insert("store.segment.bytes_written", counts.bytes_written as f64);
        m.insert(
            "store.segment.space_amp",
            counts.bytes_on_disk as f64 / wire_bytes(&self.batches) as f64,
        );
        Ok(m)
    }
}

/// Bytes of the regular files directly inside `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|entry| entry.metadata().ok())
        .filter(|meta| meta.is_file())
        .map(|meta| meta.len())
        .sum()
}
