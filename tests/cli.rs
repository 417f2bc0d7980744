//! Drives the built `airstat` binary end to end: the two query backends
//! print the same report, retired backend names and the retired
//! drain-selector flag are refused, and `--explain` accounts for every
//! plan the engine computed cold.

use std::process::{Command, Output};
use std::sync::OnceLock;

const SHARDS: u64 = 8;

/// Runs `airstat <args>` at the smoke scale on one thread.
fn airstat(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_airstat"))
        .args(args)
        .args(["--scale", "0.002", "--threads", "1", "--shards"])
        .arg(SHARDS.to_string())
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

#[test]
fn default_backend_prints_the_legacy_oracles_report() {
    let legacy = airstat(&["report", "--query-backend", "legacy", "--explain"]);
    assert!(legacy.status.success(), "legacy report failed: {legacy:?}");
    assert_eq!(
        default_report().stdout,
        legacy.stdout,
        "default and legacy backends printed different reports"
    );
    assert_eq!(
        explain_lines(&legacy),
        [],
        "--explain describes the vectorized engine only"
    );
}

#[test]
fn retired_backend_names_are_refused() {
    for gone in ["planner", "columnar"] {
        let run = airstat(&["report", "--query-backend", gone]);
        assert!(!run.status.success(), "--query-backend {gone} was accepted");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(
            stderr.contains("vectorized, legacy"),
            "error does not list the valid backends: {stderr}"
        );
        assert!(run.stdout.is_empty(), "a refused run printed a report");
    }
}

#[test]
fn retired_drain_selector_flag_is_refused_like_any_unknown_flag() {
    let run = airstat(&["report", "--poll-path", "flat-reference"]);
    assert_eq!(run.status.code(), Some(1), "--poll-path was accepted");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(
        stderr.starts_with("error: unknown flag --poll-path\n"),
        "not the ordinary unknown-flag error: {stderr}"
    );
    assert!(run.stdout.is_empty(), "a refused run printed a report");
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
        stat(&run, "zone pruning", "shards"),
        "scanned columns sum to the stats block's total"
    );
    assert_eq!(
        lines.iter().map(|l| l.1).sum::<u64>(),
        stat(&run, "zone pruning", "pruned"),
        "pruned columns sum to the stats block's total"
    );
}
