//! `airstat` — the command-line front end.
//!
//! ```text
//! airstat report  [--scale 0.01] [--seed N] [--threads T] [--shards K]
//! airstat table   <2|3|4|5|6|7>  [--scale ...]             # one table
//! airstat figure  <1..11>        [--scale ...]             # one figure
//! airstat release <dir>          [--scale ...]             # the anonymized dataset
//! airstat info                                             # panel sizes at a scale
//! ```
//!
//! Any simulating command also accepts `--faults <scenario>` to run the
//! campaign under a deterministic fault-injection schedule; a degradation
//! report is then printed to stderr next to the throughput summary.
//!
//! Reports land in a sharded snapshot store (`--shards`, default 8) and
//! the analytics run through its parallel cached query engine; stdout is
//! byte-identical for every `--shards`/`--threads` combination, and
//! the store's cache and shard-scan statistics print to stderr
//! (`--explain` adds one line per plan computed cold: its name, the
//! shards it read, and the shards it skipped because they hold no
//! segment for its window or, for a link series, are not the shard the
//! link's reports route to).
//!
//! `--store-dir DIR` makes the run durable: batches stream into a
//! crash-safe tail log and the final store is committed as columnar
//! segment files (docs/SEGMENT_FORMAT.md). `--resume` reloads that
//! store — replaying any tail-log records a crashed run left behind —
//! and answers byte-identically without re-simulating, provided it is
//! given the `--scale` and `--seed` of the run that wrote the store:
//! neither is persisted, Table 2 and Figure 11 are computed from the
//! configuration alone, and Figure 1's snapshot is drawn with its seed.

use airstat::core::export::build_release;
use airstat::core::{DegradationReport, PaperReport};
use airstat::sim::config::{WINDOW_JAN_2015, WINDOW_JUL_2014};
use airstat::sim::faults::SCENARIO_NAMES;
use airstat::sim::{
    FaultSchedule, FleetConfig, FleetSimulation, MeasurementYear, SimulationOutput,
};
use airstat::store::{DurableStore, QueryEngine, SegmentError, ShardedStore, StoreConfig};
use std::path::Path;
use std::process::ExitCode;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
enum Command {
    Report,
    Table(u8),
    Figure(u8),
    Release(String),
    Info,
}

#[derive(Debug, Clone, PartialEq)]
struct Options {
    command: Command,
    scale: f64,
    seed: Option<u64>,
    threads: Option<usize>,
    shards: Option<usize>,
    faults: Option<String>,
    explain: bool,
    store_dir: Option<String>,
    resume: bool,
}

fn usage() -> &'static str {
    "\
usage: airstat <report | table N | figure N | release DIR | info> [--scale S] [--seed N] [--threads T] [--shards K] [--faults NAME] [--explain] [--store-dir DIR [--resume]]

report        print every table and figure of the paper
table N       print table N (2-7)
figure N      print figure N (1-11)
release DIR   write the anonymized dataset CSVs into DIR
info          print panel sizes at the chosen scale
--scale S     fleet scale in (0, 1], default 0.01
--seed N      root random seed (u64, decimal or 0x-hex)
--threads T   worker threads (>= 1); output is byte-identical for
              every value, default = available CPU cores
--shards K    snapshot-store shards (>= 1); output is byte-identical
              for every value, default 8
--faults NAME run under a fault-injection campaign and print a
              degradation report; NAME is one of zero, tunnel-loss,
              dc-outage, queue-pressure, queue-pressure-fleet
--explain     print one stderr line per plan the vectorized engine
              computes cold: plan name, shards read, shards skipped
              (no segment for the plan's window, or not the shard
              a link series routes to)
--store-dir DIR
              persist the store into DIR (docs/SEGMENT_FORMAT.md):
              every batch hits a crash-safe tail log during the run
              and the final state is committed as columnar segments
--resume      skip the simulation and answer from the store
              persisted in --store-dir (tail-log records from a
              crashed run are replayed); stdout is byte-identical
              to the run that wrote it when given that run's
              --scale and --seed (the store does not record them;
              Table 2, Figure 11 and Figure 1's sampling come from
              the configuration, not the store)"
}

fn parse_u64(s: &str) -> Result<u64, String> {
    let parsed = if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        s.parse()
    };
    parsed.map_err(|_| format!("not a u64: {s}"))
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut positional = Vec::new();
    let mut scale = 0.01f64;
    let mut seed = None;
    let mut threads = None;
    let mut shards = None;
    let mut faults = None;
    let mut explain = false;
    let mut store_dir = None;
    let mut resume = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                let value = args.get(i).ok_or("--scale needs a value")?;
                scale = value.parse().map_err(|_| format!("bad scale: {value}"))?;
                if !(scale > 0.0 && scale <= 1.0) {
                    return Err(format!("scale must be in (0, 1], got {scale}"));
                }
            }
            "--seed" => {
                i += 1;
                let value = args.get(i).ok_or("--seed needs a value")?;
                seed = Some(parse_u64(value)?);
            }
            "--threads" => {
                i += 1;
                let value = args.get(i).ok_or("--threads needs a value")?;
                let t: usize = value
                    .parse()
                    .map_err(|_| format!("bad thread count: {value}"))?;
                if t == 0 {
                    return Err("--threads must be >= 1".into());
                }
                threads = Some(t);
            }
            "--shards" => {
                i += 1;
                let value = args.get(i).ok_or("--shards needs a value")?;
                let k: usize = value
                    .parse()
                    .map_err(|_| format!("bad shard count: {value}"))?;
                if k == 0 {
                    return Err("--shards must be >= 1".into());
                }
                shards = Some(k);
            }
            "--faults" => {
                i += 1;
                let value = args.get(i).ok_or("--faults needs a scenario name")?;
                if FaultSchedule::by_name(value).is_none() {
                    return Err(format!(
                        "unknown fault scenario {value}; valid scenarios: {}",
                        SCENARIO_NAMES.join(", ")
                    ));
                }
                faults = Some(value.clone());
            }
            "--explain" => explain = true,
            "--store-dir" => {
                i += 1;
                let value = args.get(i).ok_or("--store-dir needs a directory")?;
                store_dir = Some(value.clone());
            }
            "--resume" => resume = true,
            "--help" | "-h" => return Err(String::new()),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            other => positional.push(other.to_string()),
        }
        i += 1;
    }
    let command = match positional.first().map(String::as_str) {
        Some("report") => Command::Report,
        Some("table") => {
            let n: u8 = positional
                .get(1)
                .ok_or("table needs a number (2-7)")?
                .parse()
                .map_err(|_| "table number must be 2-7".to_string())?;
            if !(2..=7).contains(&n) {
                return Err("table number must be 2-7".into());
            }
            Command::Table(n)
        }
        Some("figure") => {
            let n: u8 = positional
                .get(1)
                .ok_or("figure needs a number (1-11)")?
                .parse()
                .map_err(|_| "figure number must be 1-11".to_string())?;
            if !(1..=11).contains(&n) {
                return Err("figure number must be 1-11".into());
            }
            Command::Figure(n)
        }
        Some("release") => Command::Release(
            positional
                .get(1)
                .ok_or("release needs an output directory")?
                .clone(),
        ),
        Some("info") => Command::Info,
        Some(other) => return Err(format!("unknown command {other}")),
        None => return Err(String::new()),
    };
    let takes = match command {
        Command::Report | Command::Info => 1,
        _ => 2,
    };
    if let Some(extra) = positional.get(takes) {
        return Err(format!("unexpected argument {extra}"));
    }
    if resume && store_dir.is_none() {
        return Err("--resume requires --store-dir".into());
    }
    if resume && command == Command::Info {
        return Err("--resume does not apply to info (nothing is simulated)".into());
    }
    if resume && faults.is_some() {
        return Err("--faults does not apply with --resume (nothing is simulated)".into());
    }
    Ok(Options {
        command,
        scale,
        seed,
        threads,
        shards,
        faults,
        explain,
        store_dir,
        resume,
    })
}

fn run(options: Options) -> Result<(), String> {
    let mut config = FleetConfig::paper(options.scale);
    if let Some(seed) = options.seed {
        config.seed = seed;
    }
    if let Some(threads) = options.threads {
        config.threads = threads;
    }
    if let Some(shards) = options.shards {
        config.shards = shards;
    }
    if let Some(name) = &options.faults {
        config.faults = FaultSchedule::by_name(name);
    }
    if options.command == Command::Info {
        println!(
            "scale {:.4}: {} usage networks, {} MR16 APs, {} MR18 APs, {} clients (2015) / {} (2014), seed {:#x}",
            options.scale,
            config.usage_networks(),
            config.mr16_aps(),
            config.mr18_aps(),
            config.clients(MeasurementYear::Y2015),
            config.clients(MeasurementYear::Y2014),
            config.seed,
        );
        return Ok(());
    }

    let store_config = StoreConfig {
        shards: config.effective_shards(),
        threads: config.effective_threads(),
    };
    // One engine serves every command below, so repeated lookups (the
    // report recomputes client panels several times) hit its cache.
    let mut engine = if options.resume {
        let dir = options.store_dir.as_deref().unwrap_or_default();
        let (store, recovery) = ShardedStore::open(Path::new(dir), store_config)
            .map_err(|e| format!("open store {dir}: {e}"))?;
        if recovery.segments_loaded == 0 && recovery.wal_records_replayed == 0 {
            return Err(format!(
                "no persisted store in {dir}; run once with --store-dir {dir} (and no --resume) first"
            ));
        }
        eprintln!("resuming from {dir}: {recovery}");
        QueryEngine::new(store.seal(), config.effective_threads())
    } else {
        eprintln!(
            "running campaign at {:.2}% scale on {} thread(s), {} store shard(s)...",
            options.scale * 100.0,
            config.effective_threads(),
            config.effective_shards()
        );
        let simulation = FleetSimulation::new(config.clone());
        let output = match &options.store_dir {
            // Every drained batch hits the store's tail log before its
            // shards, and the final state is committed as segments.
            Some(dir) => {
                let persist_error = |e: SegmentError| format!("persist store to {dir}: {e}");
                let mut durable =
                    DurableStore::create(Path::new(dir), store_config).map_err(persist_error)?;
                let run = simulation.run_into(&mut durable);
                let (store, persisted) = durable.into_store().map_err(persist_error)?;
                eprintln!(
                    "persisted {} segment(s), {} bytes to {dir}",
                    persisted.segments_written, persisted.bytes_written
                );
                SimulationOutput { store, run }
            }
            None => simulation.run(),
        };
        eprintln!("{}", output.throughput_summary());
        eprintln!("{}", output.run.sched);
        if let Some(schedule) = &config.faults {
            eprintln!(
                "{}",
                DegradationReport::from_simulation(&output, schedule.name())
            );
        }
        output.query()
    };
    engine.set_explain(options.explain);
    let engine = engine;

    match options.command {
        Command::Report => {
            let report = PaperReport::from_query(&engine, &config);
            println!("{report}");
        }
        Command::Table(n) => {
            let report = PaperReport::from_query(&engine, &config);
            match n {
                2 => println!("{}", report.table2),
                3 => println!("{}", report.table3),
                4 => println!("{}", report.table4),
                5 => println!("{}", report.table5),
                6 => println!("{}", report.table6),
                7 => println!("{}", report.table7),
                _ => unreachable!("validated"),
            }
        }
        Command::Figure(n) => {
            let report = PaperReport::from_query(&engine, &config);
            match n {
                1 => println!("{}", report.figure1),
                2 => println!("{}", report.figure2),
                3 => println!("{}", report.figure3),
                4 => println!("{}", report.figure4),
                5 => println!("{}", report.figure5),
                6 => println!("{}", report.figure6),
                7 => println!("{}", report.figure7),
                8 => println!("{}", report.figure8),
                9 => {
                    println!("{}", report.figure9_2_4);
                    println!("{}", report.figure9_5);
                }
                10 => println!("{}", report.figure10),
                11 => println!("{}", report.figure11),
                _ => unreachable!("validated"),
            }
        }
        Command::Release(dir) => {
            let release = build_release(
                &engine,
                &[(WINDOW_JUL_2014, "2014-07"), (WINDOW_JAN_2015, "2015-01")],
                config.seed ^ 0x5EC2E7,
            );
            std::fs::create_dir_all(&dir).map_err(|e| format!("create {dir}: {e}"))?;
            for (name, contents) in [
                ("links.csv", &release.links_csv),
                ("nearby.csv", &release.nearby_csv),
                ("utilization.csv", &release.utilization_csv),
            ] {
                let path = format!("{dir}/{name}");
                std::fs::write(&path, contents).map_err(|e| format!("write {path}: {e}"))?;
                println!("wrote {path}");
            }
        }
        Command::Info => unreachable!("handled above"),
    }
    eprintln!("{}", engine.stats());
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok(options) => match run(options) {
            Ok(()) => ExitCode::SUCCESS,
            Err(message) => {
                eprintln!("error: {message}");
                ExitCode::FAILURE
            }
        },
        Err(message) => {
            if !message.is_empty() {
                eprintln!("error: {message}\n");
            }
            eprintln!("{}", usage());
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_commands() {
        assert_eq!(parse(&["report"]).unwrap().command, Command::Report);
        assert_eq!(parse(&["table", "3"]).unwrap().command, Command::Table(3));
        assert_eq!(
            parse(&["figure", "11"]).unwrap().command,
            Command::Figure(11)
        );
        assert_eq!(
            parse(&["release", "/tmp/x"]).unwrap().command,
            Command::Release("/tmp/x".into())
        );
        assert_eq!(parse(&["info"]).unwrap().command, Command::Info);
    }

    #[test]
    fn parses_flags_anywhere() {
        let o = parse(&[
            "--scale",
            "0.5",
            "table",
            "4",
            "--seed",
            "0xBEEF",
            "--threads",
            "8",
            "--shards",
            "5",
        ])
        .unwrap();
        assert_eq!(o.command, Command::Table(4));
        assert_eq!(o.scale, 0.5);
        assert_eq!(o.seed, Some(0xBEEF));
        assert_eq!(o.threads, Some(8));
        assert_eq!(o.shards, Some(5));
    }

    #[test]
    fn default_scale() {
        assert_eq!(parse(&["report"]).unwrap().scale, 0.01);
        assert_eq!(parse(&["report"]).unwrap().seed, None);
        assert_eq!(parse(&["report"]).unwrap().threads, None);
        assert_eq!(parse(&["report"]).unwrap().shards, None);
        assert_eq!(parse(&["report"]).unwrap().faults, None);
        assert!(!parse(&["report"]).unwrap().explain);
        assert_eq!(parse(&["report"]).unwrap().store_dir, None);
        assert!(!parse(&["report"]).unwrap().resume);
    }

    #[test]
    fn parses_store_dir_and_resume() {
        let o = parse(&["report", "--store-dir", "/tmp/store"]).unwrap();
        assert_eq!(o.store_dir.as_deref(), Some("/tmp/store"));
        assert!(!o.resume);
        let o = parse(&["--store-dir", "/tmp/store", "table", "4", "--resume"]).unwrap();
        assert_eq!(o.store_dir.as_deref(), Some("/tmp/store"));
        assert!(o.resume);
        let err = parse(&["report", "--resume"]).unwrap_err();
        assert!(err.contains("--store-dir"), "names the missing flag: {err}");
        assert!(parse(&["report", "--store-dir"]).is_err());
        assert!(parse(&["info", "--store-dir", "/tmp/s", "--resume"]).is_err());
        // A flag that only shapes a simulation is refused, not ignored.
        let resume = ["report", "--store-dir", "/tmp/s", "--resume"];
        let extra = ["--faults", "dc-outage"];
        let err = parse(&[&resume[..], &extra[..]].concat()).unwrap_err();
        assert!(err.starts_with(extra[0]), "names the flag: {err}");
        assert!(err.contains("--resume"), "names the conflict: {err}");
        // Without --resume the same flag is fine.
        assert!(parse(&[&resume[..3], &extra[..]].concat()).is_ok());
    }

    #[test]
    fn parses_explain_flag() {
        assert!(parse(&["report", "--explain"]).unwrap().explain);
        assert!(
            parse(&["--explain", "table", "4"]).unwrap().explain,
            "flag position should not matter"
        );
    }

    #[test]
    fn parses_fault_scenarios() {
        for name in SCENARIO_NAMES {
            let o = parse(&["report", "--faults", name]).unwrap();
            assert_eq!(o.faults.as_deref(), Some(name));
        }
        let err = parse(&["report", "--faults", "meteor-strike"]).unwrap_err();
        assert!(err.contains("dc-outage"), "lists valid names: {err}");
        assert!(
            err.contains("queue-pressure-fleet"),
            "lists fleet mix: {err}"
        );
        assert!(parse(&["report", "--faults"]).is_err());
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&["table", "8"]).is_err());
        assert!(parse(&["table", "1"]).is_err());
        assert!(parse(&["figure", "12"]).is_err());
        assert!(parse(&["figure"]).is_err());
        assert!(parse(&["release"]).is_err());
        assert!(parse(&["frobnicate"]).is_err());
        assert!(parse(&["report", "--scale", "2.0"]).is_err());
        assert!(parse(&["report", "--scale", "0"]).is_err());
        assert!(parse(&["report", "--bogus"]).is_err());
        assert!(parse(&["report", "--threads", "0"]).is_err());
        assert!(parse(&["report", "--threads", "many"]).is_err());
        assert!(parse(&["report", "--shards", "0"]).is_err());
        assert!(parse(&["report", "--shards", "few"]).is_err());
        assert!(parse(&[]).is_err());
    }

    #[test]
    fn rejects_arguments_past_what_the_command_takes() {
        for (args, extra) in [
            (&["report", "extra"][..], "extra"),
            (&["info", "extra", "junk"], "extra"),
            (&["table", "3", "4"], "4"),
            (&["figure", "11", "2"], "2"),
            (&["release", "/tmp/x", "/tmp/y"], "/tmp/y"),
        ] {
            assert_eq!(
                parse(args).unwrap_err(),
                format!("unexpected argument {extra}"),
                "{args:?}"
            );
        }
    }

    #[test]
    fn parses_hex_and_decimal_seeds() {
        assert_eq!(parse_u64("123").unwrap(), 123);
        assert_eq!(parse_u64("0xff").unwrap(), 255);
        assert!(parse_u64("zzz").is_err());
    }

    #[test]
    fn usage_wraps_each_description_at_its_column() {
        // An entry line starts with a command or a flag; its description
        // starts at the first word after the name and any upper-case
        // placeholder (`N`, `DIR`, ...).
        let is_entry = |line: &str| {
            line.starts_with("--")
                || ["report", "table", "figure", "release", "info"]
                    .iter()
                    .any(|command| line.starts_with(command))
        };
        let description_column = |line: &str| {
            let mut at = 0;
            let mut words = Vec::new();
            for word in line.split(' ') {
                if !word.is_empty() {
                    words.push((at, word));
                }
                at += word.len() + 1;
            }
            words
                .into_iter()
                .skip(1)
                .find(|(_, word)| !word.chars().all(|c| c.is_ascii_uppercase()))
                .map(|(at, _)| at)
        };
        let mut lines = usage().lines().skip_while(|line| !line.is_empty());
        assert_eq!(lines.next(), Some(""), "a blank line follows the synopsis");
        let mut column = None;
        let mut continuations = 0;
        for line in lines {
            if is_entry(line) {
                if let Some(at) = description_column(line) {
                    assert_eq!(*column.get_or_insert(at), at, "{line:?}");
                }
            } else {
                let indent = line.len() - line.trim_start().len();
                assert_eq!(Some(indent), column, "{line:?}");
                continuations += 1;
            }
        }
        assert!(continuations > 0);
    }
}
