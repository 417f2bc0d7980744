//! `resume_query`: the store's read path — reopen a persisted campaign,
//! rebuild the columnar projection in full, answer every plan kind cold
//! on every window, compute and render the report, then compute it again
//! from the result cache.

use std::fs;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use airstat_classify::apps::Application;
use airstat_core::report::PaperReport;
use airstat_rf::band::Band;
use airstat_sim::config::{WINDOW_JAN_2014, WINDOW_JAN_2015, WINDOW_JUL_2014};
use airstat_sim::FleetConfig;
use airstat_store::{QueryEngine, QueryPlan, QueryValue, RecoveryStats, ShardedStore};
use airstat_telemetry::backend::WindowId;

use super::{
    campaign_clients, capture_campaign, fleet_config, legacy_digest, median_picked_ms,
    median_self_ms, median_total_ms, LayerMetrics, Rep, Sizes, Workload, STORE,
};
use crate::seams::TimedQuery;
use crate::stats::digest;
use crate::trace::{Span, Tracer};

const WINDOWS: [WindowId; 3] = [WINDOW_JAN_2014, WINDOW_JUL_2014, WINDOW_JAN_2015];
const BANDS: [Band; 2] = [Band::Ghz2_4, Band::Ghz5];
/// Link series fetched per window and band (Figures 4 and 5 plot two).
const SERIES_PER_BAND: usize = 2;

pub struct ResumeQuery {
    config: FleetConfig,
    dir: PathBuf,
    reports: u64,
    oracle_digest: u64,
    traced: Option<TracedCounts>,
}

struct TracedCounts {
    bytes_read: u64,
    crc_checks: u64,
    report_bytes: usize,
    cache_hits: u64,
    cache_misses: u64,
    shards_scanned: u64,
    shards_pruned: u64,
}

impl ResumeQuery {
    pub fn setup(seed: u64, sizes: &Sizes, dir: &Path) -> Result<Self, String> {
        let config = fleet_config(seed, sizes.capture_scale);
        let mut store = ShardedStore::with_config(STORE);
        for (window, reports) in capture_campaign(&config) {
            store.ingest_batch(window, &reports);
        }
        let dir = dir.join("resume");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        store.persist(&dir).map_err(|e| e.to_string())?;
        Ok(ResumeQuery {
            oracle_digest: legacy_digest(&store, &config),
            reports: store.reports_ingested(),
            config,
            dir,
            traced: None,
        })
    }

    fn check(&self, text: &str, store: &ShardedStore, recovery: &RecoveryStats) -> bool {
        digest(text) == self.oracle_digest
            && store.reports_ingested() == self.reports
            && recovery.segments_loaded == STORE.shards as u64
            && recovery.wal_records_replayed == 0
    }
}

/// Every plan kind on `window`: the 13 that need no data-dependent
/// argument. `LinkKeys` and `LinkSeries` follow in [`surface`], because
/// a series plan needs a key the store holds.
fn fixed_plans(window: WindowId) -> Vec<QueryPlan> {
    let mut plans = vec![
        QueryPlan::UsageByApp(window),
        QueryPlan::UsageByOs(window),
        QueryPlan::ClientCount(window),
        QueryPlan::Clients(window),
        QueryPlan::AppClientCount(window, Application::Netflix),
        QueryPlan::CensusDeviceCount(window),
        QueryPlan::Crashes(window),
    ];
    for band in BANDS {
        plans.extend([
            QueryPlan::LatestDeliveryRatios(window, band),
            QueryPlan::MeanDeliveryRatios(window, band),
            QueryPlan::ServingUtilizations(window, band),
            QueryPlan::NearbySummary(window, band),
            QueryPlan::NearbyPerChannel(window, band),
            QueryPlan::ScanObservations(window, band),
        ]);
    }
    plans
}

/// Executes all 15 plan kinds on every window, calling `run` for each.
fn surface(mut run: impl FnMut(&QueryPlan) -> QueryValue) {
    for window in WINDOWS {
        for plan in fixed_plans(window) {
            black_box(run(&plan));
        }
        for band in BANDS {
            let QueryValue::LinkKeys(keys) = run(&QueryPlan::LinkKeys(window, band)) else {
                unreachable!("a LinkKeys plan answers with link keys");
            };
            for key in keys.into_iter().take(SERIES_PER_BAND) {
                black_box(run(&QueryPlan::LinkSeries(window, key)));
            }
        }
    }
}

/// The span a surface plan is recorded under.
fn plan_span(plan: &QueryPlan) -> &'static str {
    match plan {
        QueryPlan::UsageByApp(_) => "store.query.exec_usage_by_app",
        QueryPlan::UsageByOs(_) => "store.query.exec_usage_by_os",
        QueryPlan::ClientCount(_) => "store.query.exec_client_count",
        QueryPlan::Clients(_) => "store.query.exec_clients",
        QueryPlan::AppClientCount(..) => "store.query.exec_app_client_count",
        QueryPlan::LinkKeys(..) => "store.query.exec_link_keys",
        QueryPlan::LinkSeries(..) => "store.query.exec_link_series",
        QueryPlan::LatestDeliveryRatios(..) => "store.query.exec_latest_delivery_ratios",
        QueryPlan::MeanDeliveryRatios(..) => "store.query.exec_mean_delivery_ratios",
        QueryPlan::ServingUtilizations(..) => "store.query.exec_serving_utilizations",
        QueryPlan::CensusDeviceCount(_) => "store.query.exec_census_device_count",
        QueryPlan::NearbySummary(..) => "store.query.exec_nearby_summary",
        QueryPlan::NearbyPerChannel(..) => "store.query.exec_nearby_per_channel",
        QueryPlan::Crashes(_) => "store.query.exec_crashes",
        QueryPlan::ScanObservations(..) => "store.query.exec_scan_observations",
    }
}

impl Workload for ResumeQuery {
    fn work_items(&self) -> u64 {
        campaign_clients(&self.config)
    }

    fn rep(&mut self) -> Result<Rep, String> {
        let start = Instant::now();
        let (store, recovery) = ShardedStore::open(&self.dir, STORE).map_err(|e| e.to_string())?;
        let engine = QueryEngine::new(store.seal(), STORE.threads);
        surface(|plan| engine.execute(plan));
        let text = PaperReport::from_query(&engine, &self.config).to_string();
        black_box(PaperReport::from_query(&engine, &self.config));
        let elapsed = start.elapsed();
        Ok(Rep {
            elapsed,
            ok: self.check(&text, &store, &recovery),
        })
    }

    fn traced_rep(&mut self, tracer: &Tracer) -> Result<Rep, String> {
        let start = Instant::now();
        let (text, store, recovery, engine) =
            tracer.span("bench.rep", || -> Result<_, String> {
                let (store, recovery) = tracer
                    .span("store.segment.open", || {
                        ShardedStore::open(&self.dir, STORE)
                    })
                    .map_err(|e| e.to_string())?;
                let snapshot = tracer.span("store.seal.full", || store.seal());
                let engine = QueryEngine::new(snapshot, STORE.threads);
                tracer.span("store.query.surface", || {
                    surface(|plan| tracer.span(plan_span(plan), || engine.execute(plan)))
                });
                let timed = TimedQuery::new(&engine, tracer);
                let report = tracer.span("core.from_query", || {
                    PaperReport::from_query(&timed, &self.config)
                });
                let text = tracer.span("core.render", || report.to_string());
                tracer.span("core.from_query_cached", || {
                    black_box(PaperReport::from_query(&timed, &self.config))
                });
                Ok((text, store, recovery, engine))
            })?;
        let elapsed = start.elapsed();
        let stats = engine.stats();
        self.traced = Some(TracedCounts {
            bytes_read: recovery.bytes_read,
            crc_checks: recovery.crc_checks,
            report_bytes: text.len(),
            cache_hits: stats.hits,
            cache_misses: stats.misses,
            shards_scanned: stats.shards_scanned,
            shards_pruned: stats.shards_pruned,
        });
        Ok(Rep {
            elapsed,
            ok: self.check(&text, &store, &recovery),
        })
    }

    fn layer_metrics(&mut self, spans: &[Span], reps: u32) -> Result<LayerMetrics, String> {
        let counts = self.traced.as_ref().ok_or("no traced rep was run")?;
        let mut m = LayerMetrics::new();

        let open_ms = median_total_ms(spans, reps, "store.segment.open");
        m.insert("store.segment.open_ms", open_ms);
        m.insert(
            "store.segment.open_mb_per_s",
            counts.bytes_read as f64 / 1e6 / (open_ms / 1e3),
        );
        m.insert("store.segment.crc_checks", counts.crc_checks as f64);
        m.insert(
            "store.seal.full_ms",
            median_total_ms(spans, reps, "store.seal.full"),
        );

        m.insert(
            "store.query.surface_cold_ms",
            median_total_ms(spans, reps, "store.query.surface"),
        );
        // One kind, cold, summed over the three windows (and both bands).
        let kind_us = |name: &str| median_total_ms(spans, reps, name) * 1e3;
        m.insert(
            "store.query.usage_by_os_us",
            kind_us("store.query.exec_usage_by_os"),
        );
        m.insert(
            "store.query.clients_us",
            kind_us("store.query.exec_clients"),
        );
        m.insert(
            "store.query.mean_delivery_ratios_us",
            kind_us("store.query.exec_mean_delivery_ratios"),
        );
        m.insert(
            "store.query.scan_observations_us",
            kind_us("store.query.exec_scan_observations"),
        );
        m.insert(
            "store.query.link_series_us",
            kind_us("store.query.exec_link_series"),
        );

        // FleetQuery calls under the first, uncached-by-itself report.
        let under_report = |span: &Span| {
            span.parent
                .is_some_and(|p| spans[p].name == "core.from_query")
        };
        m.insert(
            "store.query.report_ms",
            median_picked_ms(spans, reps, under_report),
        );
        m.insert(
            "store.query.report_calls",
            spans.iter().filter(|s| under_report(s)).count() as f64 / f64::from(reps),
        );
        m.insert(
            "store.query.cache_hit_share",
            counts.cache_hits as f64 / (counts.cache_hits + counts.cache_misses) as f64,
        );
        m.insert(
            "store.query.pruned_share",
            counts.shards_pruned as f64 / (counts.shards_scanned + counts.shards_pruned) as f64,
        );

        // A warm engine answering one plan from the result cache.
        let (store, _) = ShardedStore::open(&self.dir, STORE).map_err(|e| e.to_string())?;
        let engine = QueryEngine::new(store.seal(), STORE.threads);
        let plan = QueryPlan::UsageByOs(WINDOW_JAN_2015);
        black_box(engine.execute(&plan));
        const CACHED_CALLS: u32 = 2_000;
        let start = Instant::now();
        for _ in 0..CACHED_CALLS {
            black_box(engine.execute(black_box(&plan)));
        }
        m.insert(
            "store.query.cached_ns",
            start.elapsed().as_nanos() as f64 / f64::from(CACHED_CALLS),
        );

        m.insert(
            "core.compute_ms",
            median_self_ms(spans, reps, "core.from_query"),
        );
        m.insert(
            "core.render_ms",
            median_total_ms(spans, reps, "core.render"),
        );
        m.insert("core.report_bytes", counts.report_bytes as f64);
        Ok(m)
    }
}

impl Drop for ResumeQuery {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.dir);
    }
}
