//! The four workloads. Each is a closed loop with one client: a rep
//! starts only after the previous one returned, `threads = 1` and
//! `shards = 8` everywhere, and the program under test only ever sees
//! inputs generated from `--seed`.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Duration;

use airstat_core::report::PaperReport;
use airstat_sim::{FleetConfig, FleetSimulation, MeasurementYear};
use airstat_store::{QueryBackend, QueryEngine, ShardedStore, StoreConfig};
use airstat_telemetry::backend::WindowId;
use airstat_telemetry::report::Report;

use crate::seams::CaptureSink;
use crate::stats::digest;
use crate::trace::{Span, Tracer};

mod campaign_report;
mod poll_pressure;
mod resume_query;
mod store_ingest_live;

/// Workload names, in the order `run.sh` runs them.
pub const NAMES: [&str; 4] = [
    "campaign_report",
    "poll_pressure",
    "store_ingest_live",
    "resume_query",
];

/// Input sizes. `FULL` is what every reported number uses; `SMOKE` only
/// lets the package's own test drive all four workloads in a second.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// `FleetConfig::paper` scale of the `campaign_report` campaign.
    pub campaign_scale: f64,
    /// APs the `poll_pressure` fleet admits.
    pub fleet_aps: usize,
    /// `FleetConfig::paper` scale of the capture the store workloads replay.
    pub capture_scale: f64,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        campaign_scale: 0.003,
        fleet_aps: 750_000,
        capture_scale: 0.008,
    };
    #[cfg(test)]
    pub const SMOKE: Sizes = Sizes {
        campaign_scale: 0.0004,
        fleet_aps: 6_000,
        capture_scale: 0.0006,
    };
}

/// One timed rep: how long the timed region took and whether every
/// correctness check on its outputs held.
#[derive(Debug, Clone, Copy)]
pub struct Rep {
    pub elapsed: Duration,
    pub ok: bool,
}

/// Per-layer metric values of one traced run, by metric name.
pub type LayerMetrics = BTreeMap<&'static str, f64>;

/// A workload after set-up: inputs generated, oracle computed.
pub trait Workload {
    /// The work items one rep completes (the numerator of `work_per_s`).
    fn work_items(&self) -> u64;

    /// One untraced rep. Dropping the previous rep's outputs, removing
    /// store directories and checking results all happen outside the
    /// timed region.
    fn rep(&mut self) -> Result<Rep, String>;

    /// The same rep through the seam decorators, recorded under one
    /// `bench.rep` root span.
    fn traced_rep(&mut self, tracer: &Tracer) -> Result<Rep, String>;

    /// Turns the spans of `reps` traced reps, plus direct-call
    /// measurements made here, into this workload's per-layer metrics.
    fn layer_metrics(&mut self, spans: &[Span], reps: u32) -> Result<LayerMetrics, String>;
}

/// Sets a workload up: generates its inputs from `seed` and computes the
/// oracle its reps are checked against. Store directories go under `dir`.
pub fn setup(
    name: &str,
    seed: u64,
    sizes: &Sizes,
    dir: &Path,
) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "campaign_report" => Box::new(campaign_report::CampaignReport::setup(seed, sizes)),
        "poll_pressure" => Box::new(poll_pressure::PollPressure::setup(seed, sizes)),
        "store_ingest_live" => {
            Box::new(store_ingest_live::StoreIngestLive::setup(seed, sizes, dir))
        }
        "resume_query" => Box::new(resume_query::ResumeQuery::setup(seed, sizes, dir)?),
        other => {
            return Err(format!(
                "unknown workload {other:?}; expected one of {}",
                NAMES.join(", ")
            ))
        }
    })
}

/// The store shape every workload pins.
const STORE: StoreConfig = StoreConfig {
    shards: 8,
    threads: 1,
};

/// The paper-faithful fleet at `scale`, single-threaded, seeded.
fn fleet_config(seed: u64, scale: f64) -> FleetConfig {
    FleetConfig {
        seed,
        threads: STORE.threads,
        shards: STORE.shards,
        ..FleetConfig::paper(scale)
    }
}

/// Runs the campaign once and keeps every batch it drained.
fn capture_campaign(config: &FleetConfig) -> Vec<(WindowId, Vec<Report>)> {
    let mut sink = CaptureSink::default();
    FleetSimulation::new(config.clone()).run_into(&mut sink);
    sink.batches
}

/// The oracle: the report rendered through the legacy map-fold backend,
/// which shares no kernel with the planner path the reps use.
fn legacy_digest(store: &ShardedStore, config: &FleetConfig) -> u64 {
    let engine = QueryEngine::with_backend(store.seal(), STORE.threads, QueryBackend::Legacy);
    digest(&PaperReport::from_query(&engine, config).to_string())
}

/// Clients whose week a campaign at `config` covers. All three
/// campaign-fed workloads count their work in these: the count is fixed
/// by the scale, as the time nearly is, whereas across seeds the reports
/// a campaign drains move by ±7 % and the records by ±4 % (link and
/// census reports follow the sampled topology and are cheap to store).
fn campaign_clients(config: &FleetConfig) -> u64 {
    config.clients(MeasurementYear::Y2014) + config.clients(MeasurementYear::Y2015)
}

/// Records (rows) inside `reports`.
fn record_count<'a>(reports: impl IntoIterator<Item = &'a Report>) -> u64 {
    reports.into_iter().map(|r| r.payload.len() as u64).sum()
}

/// Wire bytes of `batches`: every report through `Report::encode_into`.
fn wire_bytes(batches: &[(WindowId, Vec<Report>)]) -> u64 {
    let (mut out, mut scratch) = (Vec::new(), Vec::new());
    let mut bytes = 0;
    for report in batches.iter().flat_map(|(_, reports)| reports) {
        out.clear();
        report.encode_into(&mut out, &mut scratch);
        bytes += out.len() as u64;
    }
    bytes
}

/// Median over `reps` traced reps of the per-rep sum of `samples`, given
/// as `(rep, nanoseconds)`, in milliseconds.
fn median_per_rep_ms(reps: u32, samples: impl Iterator<Item = (u32, u64)>) -> f64 {
    let mut totals = vec![0.0; reps as usize];
    for (rep, ns) in samples {
        totals[rep as usize] += ns as f64;
    }
    crate::stats::median(&totals) / 1e6
}

/// Median over reps of the per-rep total of the spans `pick` selects, in ms.
fn median_picked_ms(spans: &[Span], reps: u32, pick: impl Fn(&Span) -> bool) -> f64 {
    let picked = spans.iter().filter(|span| pick(span));
    median_per_rep_ms(reps, picked.map(|span| (span.rep, span.duration_ns())))
}

/// Median over reps of the per-rep total of spans named `name`, in ms.
fn median_total_ms(spans: &[Span], reps: u32, name: &str) -> f64 {
    median_picked_ms(spans, reps, |span| span.name == name)
}

/// Median over reps of the per-rep *self* time of spans named `name`, in ms.
fn median_self_ms(spans: &[Span], reps: u32, name: &str) -> f64 {
    let named = spans
        .iter()
        .zip(crate::trace::self_times(spans))
        .filter(|(span, _)| span.name == name);
    median_per_rep_ms(reps, named.map(|(span, own)| (span.rep, own)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::layer_self_ns;

    /// Every workload, tiny, two untraced reps and one traced: set-up
    /// succeeds, every correctness check holds, and the traced rep
    /// yields a span tree whose self times partition the root.
    #[test]
    fn every_workload_runs_clean_at_smoke_scale() {
        let dir =
            std::env::temp_dir().join(format!("airstat-e2e-bench-smoke-{}", std::process::id()));
        for name in NAMES {
            let mut workload = setup(name, 7, &Sizes::SMOKE, &dir).expect("set-up");
            assert!(workload.work_items() > 0, "{name}: no work");
            let mut failed = 0;
            for _ in 0..2 {
                let rep = workload.rep().expect("rep");
                failed += u32::from(!rep.ok);
                assert!(rep.elapsed > Duration::ZERO);
            }
            assert_eq!(failed, 0, "{name}: failed_share must be 0");

            let tracer = Tracer::default();
            tracer.set_rep(0);
            let rep = workload.traced_rep(&tracer).expect("traced rep");
            assert!(rep.ok, "{name}: traced rep failed its checks");
            let spans = tracer.into_spans();
            let roots: Vec<_> = spans.iter().filter(|s| s.parent.is_none()).collect();
            assert_eq!(roots.len(), 1, "{name}: one root span per rep");
            assert_eq!(roots[0].name, "bench.rep");
            assert_eq!(
                layer_self_ns(&spans).values().sum::<u64>(),
                roots[0].duration_ns(),
                "{name}: self times partition the rep"
            );
            let metrics = workload.layer_metrics(&spans, 1).expect("layer metrics");
            for (metric, value) in &metrics {
                assert!(value.is_finite(), "{name}: {metric} = {value}");
                assert!(
                    crate::PER_LAYER.iter().any(|(n, _)| n == metric),
                    "{name}: {metric} is not a declared per-layer metric"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn another_seed_gives_other_inputs_and_still_passes() {
        let a = campaign_report::CampaignReport::setup(1, &Sizes::SMOKE);
        let mut b = campaign_report::CampaignReport::setup(2, &Sizes::SMOKE);
        assert_ne!(a.oracle_digest(), b.oracle_digest());
        assert!(b.rep().expect("rep").ok);
    }
}
