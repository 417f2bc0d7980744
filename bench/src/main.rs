//! AirStat's end-to-end benchmark.
//!
//! One workload per process:
//!
//! ```text
//! airstat-e2e-bench --workload <name> [--seed <u64>] [--seconds <n>] [--trace <0|1>]
//! ```
//!
//! Human-readable metric lines go to stdout first; the last line of
//! stdout is one JSON object `{correct, attempted, failed, metrics}`.
//! `--trace 0` measures the end-to-end metrics with no tracing anywhere;
//! `--trace 1` is a separate run that reports the per-layer metrics and
//! writes its spans to `bench/out/trace-<workload>.json`. See
//! `bench/README.md` for what each metric means and how they interact.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

mod proc;
mod seams;
mod stats;
mod trace;
mod workloads;

use stats::{median, quantile, tail_percentile};
use trace::{json_string, Tracer};
use workloads::{LayerMetrics, Sizes, Workload};

/// The end-to-end metrics `--trace 0` reports, with units.
pub const END_TO_END: [(&str, &str); 4] = [
    ("rep_ms", "ms"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// The per-layer metrics `--trace 1` reports, with units. A metric a
/// workload's traced run does not produce reads 0 there: that layer did
/// no work on that workload.
pub const PER_LAYER: [(&str, &str); 63] = [
    ("sim.generate_ms", "ms"),
    ("sim.clients_per_s", "1/s"),
    ("sim.reports", "count"),
    ("sim.wire_bytes", "B"),
    ("sim.traffic_ns_per_client", "ns"),
    ("sim.population_ns_per_client", "ns"),
    ("sim.t2_speedup", "ratio"),
    ("classify.rules_ns_per_flow", "ns"),
    ("classify.device_ns_per_client", "ns"),
    ("telemetry.wire.encode_ns_per_report", "ns"),
    ("telemetry.wire.decode_ns_per_report", "ns"),
    ("telemetry.wire.bytes_per_record", "B"),
    ("telemetry.transport.polls", "count"),
    ("telemetry.transport.lost_share", "ratio"),
    ("telemetry.transport.drain_ns_per_report", "ns"),
    ("telemetry.sched.self_ms", "ms"),
    ("telemetry.sched.endpoint_ms", "ms"),
    ("telemetry.sched.admit_build_ms", "ms"),
    ("telemetry.sched.ns_per_poll", "ns"),
    ("telemetry.sched.ticks", "count"),
    ("telemetry.sched.polls", "count"),
    ("telemetry.sched.retries", "count"),
    ("telemetry.sched.evicted_share", "ratio"),
    ("telemetry.sched.max_ready_depth", "count"),
    ("store.ingest.ms", "ms"),
    ("store.ingest.ns_per_record", "ns"),
    ("store.ingest.dup_share", "ratio"),
    ("store.wal.append_ms", "ms"),
    ("store.wal.bytes", "B"),
    ("store.seal.full_ms", "ms"),
    ("store.seal.incr_p50_ms", "ms"),
    ("store.seal.incr_p95_ms", "ms"),
    ("store.seal.rows_resealed", "count"),
    ("store.seal.segments_live", "count"),
    ("store.seal.segments_compacted", "count"),
    ("store.segment.open_ms", "ms"),
    ("store.segment.open_mb_per_s", "MB/s"),
    ("store.segment.crc_checks", "count"),
    ("store.segment.persist_ms", "ms"),
    ("store.segment.bytes_written", "B"),
    ("store.segment.space_amp", "ratio"),
    ("store.query.surface_cold_ms", "ms"),
    ("store.query.usage_by_os_us", "us"),
    ("store.query.clients_us", "us"),
    ("store.query.mean_delivery_ratios_us", "us"),
    ("store.query.scan_observations_us", "us"),
    ("store.query.link_series_us", "us"),
    ("store.query.cached_ns", "ns"),
    ("store.query.report_calls", "count"),
    ("store.query.report_ms", "ms"),
    ("store.query.cache_hit_share", "ratio"),
    ("store.query.pruned_share", "ratio"),
    ("store.live.refresh_p50_ms", "ms"),
    ("store.live.refresh_p95_ms", "ms"),
    ("core.compute_ms", "ms"),
    ("core.render_ms", "ms"),
    ("core.report_bytes", "B"),
    ("proc.cpu_share", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("trace.rep_ms", "ms"),
    ("trace.attributed_share", "ratio"),
    ("trace.reps", "count"),
    ("trace.untraced_rep_ms", "ms"),
];

/// Rounds of set-up plus timed reps in an untraced run. `rep_ms` is the
/// lower quartile of all their reps and `setup_s` of their set-ups, which
/// with three is the fastest.
const ROUNDS: usize = 3;

#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: 15,
        trace: false,
    };
    let mut args = args;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = value()?,
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&parsed.seconds) {
                    return Err("--seconds must be between 1 and 60".into());
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if parsed.workload.is_empty() {
        return Err(format!(
            "--workload is required: one of {}",
            workloads::NAMES.join(", ")
        ));
    }
    Ok(parsed)
}

/// What one run found, ready to print.
struct Outcome {
    attempted: usize,
    failed: usize,
    /// `(name, value, unit, note)` in declaration order.
    metrics: Vec<(&'static str, f64, &'static str, String)>,
}

/// The directory this process keeps its stores in: inside the checkout,
/// so a run reads and writes nothing outside it.
fn store_dir() -> Result<PathBuf, String> {
    let bench = Path::new("bench");
    if !bench.join("Cargo.toml").is_file() {
        return Err("run from the repository root: ./bench/Cargo.toml not found".into());
    }
    Ok(bench
        .join("out")
        .join(format!("store-{}", std::process::id())))
}

/// Runs timed reps until `budget` has passed (and at least one).
fn timed_reps(
    budget: Duration,
    mut rep: impl FnMut() -> Result<workloads::Rep, String>,
) -> Result<(Vec<f64>, usize), String> {
    let started = Instant::now();
    let mut times_ms = Vec::new();
    let mut failed = 0;
    while times_ms.is_empty() || started.elapsed() < budget {
        let outcome = rep()?;
        times_ms.push(outcome.elapsed.as_secs_f64() * 1e3);
        failed += usize::from(!outcome.ok);
    }
    Ok((times_ms, failed))
}

fn run_untraced(args: &Args, dir: &Path) -> Result<Outcome, String> {
    // A shared host slows down for seconds at a time. Set-up and timed
    // reps therefore alternate in rounds: each round sets the workload up
    // afresh (one `setup_s` sample) and spends a third of `--seconds` on
    // timed reps, so a slow spell lands on a minority of either kind of
    // sample and the order statistics step over it.
    let slice = Duration::from_secs(args.seconds) / ROUNDS as u32;
    let mut setups = Vec::with_capacity(ROUNDS);
    let mut times_ms = Vec::new();
    let mut failed = 0;
    let mut work_items = 0;
    let mut workload: Option<Box<dyn Workload>> = None;
    for round in 0..ROUNDS {
        // The previous round's inputs go before the next are generated,
        // outside both clocks.
        drop(workload.take());
        let start = Instant::now();
        let current = workload.insert(workloads::setup(
            &args.workload,
            args.seed,
            &Sizes::FULL,
            dir,
        )?);
        setups.push(start.elapsed().as_secs_f64());
        if round == 0 {
            // One discarded rep: heap growth and first-touch page faults
            // are paid once per process, not once per rep.
            failed += usize::from(!current.rep()?.ok);
        }
        let (times, round_failed) = timed_reps(slice, || current.rep())?;
        times_ms.extend(times);
        failed += round_failed;
        work_items = current.work_items();
    }

    // On a shared host noise only ever adds time, in spells that last
    // seconds to minutes: the lower quartile of the samples stays put
    // while a spell covers up to three quarters of them, where the median
    // already moves at half. Over the same 10 runs the quartile's spread
    // was 0.6 of the median's (README, "Noise"). The median and the tail
    // percentile are printed beside it.
    let n = times_ms.len();
    let rep_ms = quantile(&times_ms, 0.25);
    let list = |samples: &[f64], digits: usize| {
        let listed: Vec<String> = samples.iter().map(|x| format!("{x:.digits$}")).collect();
        listed.join(", ")
    };
    println!(
        "{}/rep_ms samples = [{}] ms",
        args.workload,
        list(&times_ms, 1)
    );
    println!(
        "{}/setup_s samples = [{}] s",
        args.workload,
        list(&setups, 3)
    );
    let tail = match tail_percentile(n) {
        Some((percentile, index)) => {
            let mut sorted = times_ms.clone();
            sorted.sort_by(f64::total_cmp);
            format!(
                "p{percentile:.0} = {:.1} ms is the highest percentile with ten samples beyond it",
                sorted[index]
            )
        }
        None => "under 21 reps, so no percentile has ten samples beyond it".into(),
    };
    let samples = format!(
        "lower quartile of {n} reps; median {:.1} ms; {tail}",
        median(&times_ms)
    );
    Ok(Outcome {
        attempted: n + 1,
        failed,
        metrics: vec![
            ("rep_ms", rep_ms, "ms", samples),
            (
                "work_per_s",
                work_items as f64 / (rep_ms / 1e3),
                "1/s",
                format!("{work_items} work items / rep_ms"),
            ),
            (
                "peak_rss_mb",
                proc::peak_rss_mb()?,
                "MB",
                "VmHWM at exit".into(),
            ),
            (
                "setup_s",
                quantile(&setups, 0.25),
                "s",
                format!(
                    "lower quartile of {ROUNDS} set-ups; median {:.3} s",
                    median(&setups)
                ),
            ),
        ],
    })
}

fn run_traced(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let mut workload = workloads::setup(&args.workload, args.seed, &Sizes::FULL, dir)?;
    let warm_up = workload.rep()?;

    // Untraced and traced reps alternate, so the overhead is a ratio of
    // two lower quartiles taken under the same conditions; the
    // direct-call measurements of `layer_metrics` come after.
    let tracer = Tracer::default();
    let mut untraced_ms = Vec::new();
    let mut traced_reps = 0u32;
    let wall = Instant::now();
    let cpu = proc::cpu_ticks()?;
    let (traced_ms, mut failed) = timed_reps(Duration::from_secs(args.seconds), || {
        let plain = workload.rep()?;
        untraced_ms.push(plain.elapsed.as_secs_f64() * 1e3);
        tracer.set_rep(traced_reps);
        traced_reps += 1;
        let traced = workload.traced_rep(&tracer)?;
        Ok(workloads::Rep {
            elapsed: traced.elapsed,
            ok: plain.ok && traced.ok,
        })
    })?;
    let cpu_share =
        (proc::cpu_ticks()? - cpu) as f64 / proc::TICKS_PER_S / wall.elapsed().as_secs_f64();
    failed += usize::from(!warm_up.ok);

    let spans = tracer.into_spans();
    let mut values: LayerMetrics = workload.layer_metrics(&spans, traced_reps)?;

    let root_ns: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.duration_ns())
        .sum();
    let layers = trace::layer_self_ns(&spans);
    let unattributed = layers.get("bench").copied().unwrap_or(0);
    values.insert("proc.cpu_share", cpu_share);
    let (traced, untraced) = (quantile(&traced_ms, 0.25), quantile(&untraced_ms, 0.25));
    values.insert("trace.overhead_share", traced / untraced - 1.0);
    values.insert("trace.rep_ms", traced);
    values.insert("trace.untraced_rep_ms", untraced);
    values.insert(
        "trace.attributed_share",
        1.0 - unattributed as f64 / root_ns as f64,
    );
    values.insert("trace.reps", f64::from(traced_reps));

    println!("layer self time per traced rep ({traced_reps} reps):");
    for (layer, ns) in &layers {
        println!(
            "  {layer:<24} {:>12.3} ms  {:>5.1} %",
            *ns as f64 / 1e6 / f64::from(traced_reps),
            100.0 * *ns as f64 / root_ns as f64
        );
    }

    let path = dir
        .parent()
        .expect("store dir has a parent")
        .join(format!("trace-{}.json", args.workload));
    std::fs::write(
        &path,
        trace::spans_to_json(&args.workload, args.seed, &spans),
    )
    .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("spans written to {}", path.display());

    let note = format!("{traced_reps} traced reps");
    Ok(Outcome {
        attempted: 2 * traced_ms.len() + 1,
        failed,
        metrics: PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = values.get(name).copied().unwrap_or(0.0);
                (name, value, unit, note.clone())
            })
            .collect(),
    })
}

fn print_outcome(workload: &str, outcome: &Outcome) {
    for (name, value, unit, note) in &outcome.metrics {
        println!("{workload}/{name} = {value:.4} {unit}  ({note})");
    }
    println!(
        "{workload}/failed_share = {} ratio  ({} of {} reps failed a correctness check)",
        outcome.failed as f64 / outcome.attempted as f64,
        outcome.failed,
        outcome.attempted
    );
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed
    );
    for (i, (name, value, unit, _)) in outcome.metrics.iter().enumerate() {
        if i > 0 {
            json.push_str(", ");
        }
        json_string(&mut json, name);
        let _ = write!(json, ": {{\"value\": {value}, \"unit\": ");
        json_string(&mut json, unit);
        json.push('}');
    }
    json.push_str("}}");
    println!("{json}");
}

fn run(args: &Args) -> Result<Outcome, String> {
    let dir = store_dir()?;
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let outcome = if args.trace {
        run_traced(args, &dir)
    } else {
        run_untraced(args, &dir)
    };
    let _ = std::fs::remove_dir_all(&dir);
    let outcome = outcome?;
    // JSON has no NaN: a ratio over an empty count is a bug to report,
    // not a value to print.
    match outcome.metrics.iter().find(|m| !m.1.is_finite()) {
        Some((name, value, ..)) => Err(format!("metric {name} is {value}")),
        None => Ok(outcome),
    }
}

fn main() -> ExitCode {
    let outcome = parse_args(std::env::args().skip(1)).and_then(|args| {
        let outcome = run(&args)?;
        print_outcome(&args.workload, &outcome);
        Ok(())
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("airstat-e2e-bench: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments_parse_with_defaults_and_reject_nonsense() {
        assert_eq!(
            args(&["--workload", "resume_query"]).unwrap(),
            Args {
                workload: "resume_query".into(),
                seed: 1,
                seconds: 15,
                trace: false
            }
        );
        let full = args(&[
            "--workload",
            "poll_pressure",
            "--seed",
            "9",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!((full.seed, full.seconds, full.trace), (9, 3, true));
        assert!(args(&[]).is_err());
        assert!(args(&["--workload", "x", "--seconds", "0"]).is_err());
        assert!(args(&["--workload", "x", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "x", "--seed"]).is_err());
        assert!(args(&["--bogus"]).is_err());
    }

    /// `BENCHMARK.json` declares exactly the metrics and workloads this
    /// binary prints, with the same units.
    #[test]
    fn benchmark_json_matches_the_declared_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        let declared = |name: &str, unit: &str| {
            json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\""))
        };
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                declared(name, unit),
                "{name} [{unit}] missing from BENCHMARK.json"
            );
        }
        for name in workloads::NAMES {
            assert!(
                json.contains(&format!("\"name\": \"{name}\", \"why\"")),
                "workload {name} missing from BENCHMARK.json"
            );
        }
        assert_eq!(
            json.matches("\"name\": ").count(),
            END_TO_END.len() + PER_LAYER.len() + workloads::NAMES.len(),
            "BENCHMARK.json declares a metric or workload this binary does not know"
        );
    }
}
