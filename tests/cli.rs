//! Drives the built `airstat` binary end to end: the retired oracle
//! selector flags are refused like any unknown flag, `--explain`
//! accounts for every plan the engine computed cold, `--store-dir` /
//! `--resume` round-trip a report through a real directory and refuse a
//! damaged one with a typed error, and stderr is a function of the flags
//! alone (no clock), at one worker thread and at two.

use airstat::classify::apps::Application;
use airstat::classify::mac::{MacAddress, Oui};
use airstat::store::{ShardedStore, StoreConfig};
use airstat::telemetry::backend::WindowId;
use airstat::telemetry::report::{Report, ReportPayload, UsageRecord};
use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::OnceLock;

const SHARDS: u64 = 8;

/// Runs `airstat <args>` at the smoke scale on one thread.
fn airstat(args: &[&str]) -> Output {
    airstat_on(1, args)
}

/// Runs `airstat <args>` at the smoke scale on `threads` worker threads.
fn airstat_on(threads: usize, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_airstat"))
        .args(args)
        .args(["--scale", "0.002", "--shards"])
        .arg(SHARDS.to_string())
        .arg("--threads")
        .arg(threads.to_string())
        .output()
        .expect("the airstat binary runs")
}

/// The plain `report` run every other run is compared against.
fn default_report() -> &'static Output {
    static RUN: OnceLock<Output> = OnceLock::new();
    RUN.get_or_init(|| {
        let run = airstat(&["report"]);
        assert!(run.status.success(), "report failed: {run:?}");
        assert!(!run.stdout.is_empty(), "report printed nothing");
        run
    })
}

/// The `--explain` lines of a run's stderr (`plan <name> scanned <n>
/// pruned <m>`), as `(scanned, pruned)`.
fn explain_lines(run: &Output) -> Vec<(u64, u64)> {
    String::from_utf8_lossy(&run.stderr)
        .lines()
        .filter(|line| line.starts_with("plan "))
        .map(|line| {
            let tokens: Vec<&str> = line.split_whitespace().collect();
            let number = |at: usize| -> u64 {
                tokens
                    .get(at)
                    .and_then(|t| t.parse().ok())
                    .unwrap_or_else(|| panic!("malformed explain line {line:?}"))
            };
            (number(3), number(5))
        })
        .collect()
}

/// The number preceding `word` on the stats-block line starting with
/// `label`.
fn stat(run: &Output, label: &str, word: &str) -> u64 {
    let stderr = String::from_utf8_lossy(&run.stderr);
    let line = stderr
        .lines()
        .find(|line| line.trim_start().starts_with(label))
        .unwrap_or_else(|| panic!("no {label:?} line in {stderr}"));
    let tokens: Vec<&str> = line.split_whitespace().collect();
    let at = tokens
        .iter()
        .position(|&t| t == word)
        .unwrap_or_else(|| panic!("no {word:?} in {line:?}"));
    tokens[at - 1]
        .parse()
        .unwrap_or_else(|_| panic!("no number before {word:?} in {line:?}"))
}

/// A run's stderr minus the status lines that name the thread count.
fn counter_lines(stderr: &str) -> Vec<&str> {
    stderr
        .lines()
        .filter(|line| !line.contains("thread"))
        .collect()
}

/// A refused run: exit code 1, stderr opening with `error`, no report.
fn assert_refused(run: &Output, error: &str) {
    assert_eq!(run.status.code(), Some(1), "not refused: {run:?}");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(
        stderr.starts_with(error),
        "expected {error:?}, got: {stderr}"
    );
    assert!(run.stdout.is_empty(), "a refused run printed a report");
}

/// Neither oracle has a flag any more: the flat drain loop and the
/// legacy query backend are reached from tests only.
#[test]
fn retired_drain_selector_flag_is_refused_like_any_unknown_flag() {
    for (flag, value) in [
        ("--poll-path", "flat-reference"),
        ("--query-backend", "legacy"),
    ] {
        assert_refused(
            &airstat(&["report", flag, value]),
            &format!("error: unknown flag {flag}\n"),
        );
    }
}

/// A command refuses positional arguments past the ones it takes, with
/// the usage text, rather than ignoring them.
#[test]
fn extra_positional_arguments_are_refused() {
    for (args, extra) in [
        (&["info", "extra", "junk"][..], "extra"),
        (&["table", "3", "4"], "4"),
    ] {
        let run = airstat(args);
        assert_refused(&run, &format!("error: unexpected argument {extra}\n"));
        assert!(
            String::from_utf8_lossy(&run.stderr).contains("usage"),
            "no usage text: {run:?}"
        );
    }
}

/// Nothing the CLI prints comes from a clock: the same flags print the
/// same bytes on both streams, and a second worker thread changes only
/// the two status lines that name the thread count — every counter
/// (panel volumes, scheduler, cache, pruning, seal) is thread-invariant
/// through the real binary.
#[test]
fn stderr_is_a_function_of_the_flags_and_counters_are_thread_invariant() {
    let args = ["report", "--seed", "1"];
    let (first, again, two_threads) = (airstat(&args), airstat(&args), airstat_on(2, &args));
    for run in [&first, &again, &two_threads] {
        assert!(run.status.success(), "report failed: {run:?}");
    }
    assert!(!first.stdout.is_empty(), "report printed nothing");
    assert_eq!(first.stdout, again.stdout);
    assert_eq!(first.stdout, two_threads.stdout);

    let one = String::from_utf8_lossy(&first.stderr);
    let two = String::from_utf8_lossy(&two_threads.stderr);
    assert_eq!(one, String::from_utf8_lossy(&again.stderr), "equal runs");
    let (counters, counters_two) = (counter_lines(&one), counter_lines(&two));
    assert_eq!(one.lines().count() - counters.len(), 2, "{one}");
    assert!(counters.len() > 10, "status block went missing: {one}");
    assert_eq!(counters, counters_two);
}

#[test]
fn resume_reprints_the_persisted_report_and_refuses_a_damaged_store() {
    let dir = std::env::temp_dir().join(format!("airstat-cli-{}", std::process::id()));
    let dir_arg = dir.to_str().expect("utf-8 temp dir");
    let persist = ["report", "--seed", "1", "--store-dir", dir_arg];
    let resume = [&persist[..], &["--resume"]].concat();

    let written = airstat(&persist);
    assert!(written.status.success(), "durable run failed: {written:?}");
    assert!(!written.stdout.is_empty(), "durable run printed nothing");
    let resumed = airstat(&resume);
    assert!(resumed.status.success(), "resume failed: {resumed:?}");
    assert_eq!(
        written.stdout, resumed.stdout,
        "resume printed another report"
    );
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(
        stderr.starts_with(&format!("resuming from {dir_arg}: ")),
        "no recovery line: {stderr}"
    );

    // Flags that only shape a simulation are refused, not silently
    // ignored: a resumed run simulates nothing.
    for (flag, value) in [("--faults", "dc-outage"), ("--seal-every", "5")] {
        assert_refused(
            &airstat(&[&resume[..], &[flag, value]].concat()),
            &format!("error: {flag} does not apply with --resume (nothing is simulated)\n"),
        );
    }

    // One shard's segment deleted.
    let segment = std::fs::read_dir(&dir)
        .expect("store dir readable")
        .flatten()
        .map(|entry| entry.path())
        .find(|path| path.extension().is_some_and(|ext| ext == "aseg"))
        .expect("a persisted segment");
    let segment_bytes = std::fs::read(&segment).expect("segment readable");
    std::fs::remove_file(&segment).expect("delete segment");
    assert_refused(
        &airstat(&resume),
        &format!("error: open store {dir_arg}: read segment file: "),
    );
    std::fs::write(&segment, segment_bytes).expect("restore segment");

    // MANIFEST one byte short.
    let manifest = dir.join("MANIFEST");
    let bytes = std::fs::read(&manifest).expect("manifest readable");
    std::fs::write(&manifest, &bytes[..bytes.len() - 1]).expect("truncate manifest");
    assert_refused(
        &airstat(&resume),
        &format!("error: open store {dir_arg}: corrupt store file: truncated manifest checksum\n"),
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A one-shard store directory holding two usage reports. Its manifest
/// is 20 bytes of magic, version, epoch and shard count, then the
/// shard's segment count (a `u32`, always 1) and its one `epoch u64 ·
/// length u64` entry, then the CRC.
fn persisted_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("airstat-cli-{tag}-{}", std::process::id()));
    let mut store = ShardedStore::with_config(StoreConfig {
        shards: 1,
        threads: 1,
    });
    for device in [1u64, 2] {
        let usage = UsageRecord {
            mac: MacAddress::from_id(Oui([2, 4, 6]), device),
            app: Application::Netflix,
            up_bytes: 10,
            down_bytes: 20,
        };
        let report = Report {
            device,
            seq: 0,
            timestamp_s: 0,
            payload: ReportPayload::Usage(vec![usage]),
        };
        store.ingest_batch(WindowId(1501), &[report]);
    }
    store.persist(&dir).expect("persist");
    let manifest = std::fs::read(dir.join("MANIFEST")).expect("manifest readable");
    assert_eq!(manifest[20..24], 1u32.to_le_bytes(), "one segment");
    dir
}

/// Rewrites `dir`'s manifest through `patch`, resumes from it, and
/// expects the refusal `error`.
fn assert_patched_manifest_is_refused(dir: PathBuf, patch: impl Fn(&mut Vec<u8>), error: &str) {
    let dir_arg = dir.to_str().expect("utf-8 temp dir");
    let mut manifest = std::fs::read(dir.join("MANIFEST")).expect("manifest readable");
    patch(&mut manifest);
    std::fs::write(dir.join("MANIFEST"), manifest).expect("patch manifest");
    assert_refused(
        &airstat(&["report", "--store-dir", dir_arg, "--resume"]),
        &format!("error: open store {dir_arg}: {error}\n"),
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every check below runs before the manifest's CRC is looked at, so a
/// patch need not mend the CRC to reach it.
#[test]
fn resume_refuses_a_manifest_written_by_a_newer_schema() {
    assert_patched_manifest_is_refused(
        persisted_store("schema"),
        |manifest| manifest[4..8].copy_from_slice(&3u32.to_le_bytes()),
        "unsupported segment schema version 3 (this build reads version 2; \
         see docs/SEGMENT_FORMAT.md)",
    );
}

#[test]
fn resume_refuses_a_manifest_whose_shard_lists_two_segments() {
    assert_patched_manifest_is_refused(
        persisted_store("two"),
        |manifest| {
            // A two-segment chain: the one entry, listed twice.
            manifest[20..24].copy_from_slice(&2u32.to_le_bytes());
            let entry = manifest[24..40].to_vec();
            manifest.splice(40..40, entry);
        },
        "corrupt store file: manifest shard does not list exactly one segment",
    );
}

#[test]
fn resume_refuses_a_manifest_whose_shard_lists_no_segment() {
    assert_patched_manifest_is_refused(
        persisted_store("zero"),
        |manifest| manifest[20..24].copy_from_slice(&0u32.to_le_bytes()),
        "corrupt store file: manifest shard does not list exactly one segment",
    );
}

#[test]
fn explain_accounts_for_every_cold_plan() {
    let run = airstat(&["report", "--explain"]);
    assert!(run.status.success(), "report --explain failed: {run:?}");
    assert_eq!(
        default_report().stdout,
        run.stdout,
        "--explain changed the report"
    );
    let lines = explain_lines(&run);
    assert_eq!(
        lines.len() as u64,
        stat(&run, "query cache", "misses"),
        "one explain line per cold plan"
    );
    for &(scanned, pruned) in &lines {
        assert!(
            scanned + pruned <= SHARDS,
            "a plan admitted {scanned} + {pruned} of {SHARDS} shards"
        );
    }
    assert_eq!(
        lines.iter().map(|l| l.0).sum::<u64>(),
        stat(&run, "shard pruning", "shards"),
        "scanned columns sum to the stats block's total"
    );
    assert_eq!(
        lines.iter().map(|l| l.1).sum::<u64>(),
        stat(&run, "shard pruning", "pruned"),
        "pruned columns sum to the stats block's total"
    );
}
