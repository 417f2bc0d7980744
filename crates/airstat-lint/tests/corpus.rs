//! Known-bad corpus: every fixture under `tests/fixtures/` must produce
//! exactly the findings (rule, line, col) and suppressions pinned here.
//!
//! The fixtures are audited under synthetic workspace-relative paths so the
//! per-crate rule scoping (e.g. `no-wall-clock` applies in `airstat-sim`)
//! kicks in exactly as it would on the real tree.

use airstat_lint::engine::{audit_source, audit_source_with_pins};
use airstat_lint::rules::DocPins;

type Findings = Vec<(String, u32, u32)>;
type Suppressions = Vec<(String, u32, String)>;

/// Audits `src` as if it lived at `rel` and returns `(rule, line, col)`
/// triples sorted by position, plus `(rule, line, reason)` suppressions.
fn audit(rel: &str, src: &str) -> (Findings, Suppressions) {
    let report = audit_source(rel, src);
    let mut findings: Vec<(String, u32, u32)> = report
        .findings
        .iter()
        .map(|f| (f.rule.name().to_string(), f.line, f.col))
        .collect();
    findings.sort();
    let suppressed: Vec<(String, u32, String)> = report
        .suppressed
        .iter()
        .map(|s| (s.rule.name().to_string(), s.line, s.reason.clone()))
        .collect();
    (findings, suppressed)
}

fn f(rule: &str, line: u32, col: u32) -> (String, u32, u32) {
    (rule.to_string(), line, col)
}

#[test]
fn hashmap_iter_fixture() {
    // v2 narrowing: the `use` import on line 1 no longer fires; the
    // signature and constructor mentions still do.
    let (findings, suppressed) = audit(
        "crates/airstat-store/src/fx.rs",
        include_str!("fixtures/hashmap_iter.rs"),
    );
    assert_eq!(
        findings,
        vec![f("no-hashmap-iter", 3, 19), f("no-hashmap-iter", 4, 5)]
    );
    assert_eq!(
        suppressed,
        vec![(
            "no-hashmap-iter".to_string(),
            9,
            "keyed access only, never iterated".to_string()
        )]
    );
}

#[test]
fn wall_clock_fixture() {
    let (findings, suppressed) = audit(
        "crates/airstat-sim/src/fx.rs",
        include_str!("fixtures/wall_clock.rs"),
    );
    assert_eq!(
        findings,
        vec![
            f("no-wall-clock", 1, 16),
            f("no-wall-clock", 3, 30),
            f("no-wall-clock", 4, 20),
            f("no-wall-clock", 5, 16),
        ]
    );
    assert!(suppressed.is_empty());
}

#[test]
fn raw_spawn_fixture() {
    let (findings, suppressed) = audit(
        "crates/airstat-store/src/fx.rs",
        include_str!("fixtures/raw_spawn.rs"),
    );
    assert_eq!(
        findings,
        vec![f("no-raw-spawn", 2, 23), f("no-raw-spawn", 4, 25)]
    );
    assert!(suppressed.is_empty());
}

#[test]
fn raw_spawn_rule_exempts_the_exec_module() {
    let (findings, _) = audit(
        "crates/airstat-store/src/exec.rs",
        include_str!("fixtures/raw_spawn.rs"),
    );
    assert!(
        findings.is_empty(),
        "exec.rs owns thread spawning: {findings:?}"
    );
}

#[test]
fn unwrap_in_lib_fixture() {
    // The bare unwrap and the non-invariant expect fire; the
    // `expect("invariant: ...")` call and the #[cfg(test)] unwrap do not.
    let (findings, suppressed) = audit(
        "crates/airstat-core/src/fx.rs",
        include_str!("fixtures/unwrap_in_lib.rs"),
    );
    assert_eq!(
        findings,
        vec![f("no-unwrap-in-lib", 2, 7), f("no-unwrap-in-lib", 6, 7)]
    );
    assert!(suppressed.is_empty());
}

#[test]
fn float_fold_fixture() {
    let (findings, suppressed) = audit(
        "crates/airstat-core/src/fx.rs",
        include_str!("fixtures/float_fold.rs"),
    );
    assert_eq!(
        findings,
        vec![f("float-fold-order", 2, 15), f("float-fold-order", 6, 15)]
    );
    assert_eq!(
        suppressed,
        vec![(
            "float-fold-order".to_string(),
            11,
            "inputs arrive in sealed merge order".to_string()
        )]
    );
}

#[test]
fn todo_markers_fixture() {
    let (findings, suppressed) = audit(
        "crates/airstat-core/src/fx.rs",
        include_str!("fixtures/todo_markers.rs"),
    );
    assert_eq!(
        findings,
        vec![
            f("todo-markers", 1, 1),
            f("todo-markers", 3, 5),
            f("todo-markers", 6, 1),
            f("todo-markers", 8, 5),
        ]
    );
    assert!(suppressed.is_empty());
}

#[test]
fn clock_overflow_fixture() {
    // The fixture reconstructs the PR 8 backoff bug verbatim:
    // `checked_shl` guards the shift amount but not the value wrap, so
    // it must fire (line 11). The fixed shape — a `leading_zeros` guard
    // before a raw shift — must stay silent, as must float clocks
    // (`now_s: f64`), per-unit rates (`rate_bytes_per_s`), budgets
    // (`tick_poll_budget`), and `saturating_add`.
    let (findings, suppressed) = audit(
        "crates/airstat-telemetry/src/fx.rs",
        include_str!("fixtures/clock_overflow.rs"),
    );
    assert_eq!(
        findings,
        vec![
            f("clock-arithmetic-overflow", 11, 14),
            f("clock-arithmetic-overflow", 24, 20),
            f("clock-arithmetic-overflow", 25, 33),
            f("clock-arithmetic-overflow", 26, 30),
            f("clock-arithmetic-overflow", 27, 26),
        ]
    );
    assert!(suppressed.is_empty());
}

#[test]
fn seed_stream_fixture() {
    // Duplicate `child("poll")` labels, an rng-derived hash-map insert
    // key, and an rng-derived sort key all fire; the disciplined twin
    // (distinct labels, stable sort key) stays silent.
    let (findings, suppressed) = audit(
        "crates/airstat-sim/src/fx.rs",
        include_str!("fixtures/seed_stream.rs"),
    );
    assert_eq!(
        findings,
        vec![
            f("no-hashmap-iter", 4, 16),
            f("seed-stream-discipline", 3, 18),
            f("seed-stream-discipline", 5, 7),
            f("seed-stream-discipline", 6, 10),
        ]
    );
    assert!(suppressed.is_empty());
}

#[test]
fn collection_escape_fixture() {
    // A map returned as the tail expression and an iterator handed to a
    // sink both fire, and their declaration lines are exempted from the
    // generation-1 warning (the escape finding supersedes it). The
    // collect-then-sort-then-return function is fully clean: sorted
    // drain evidence stands the generation-1 warning down too.
    let (findings, suppressed) = audit(
        "crates/airstat-store/src/fx.rs",
        include_str!("fixtures/collection_escape.rs"),
    );
    assert_eq!(
        findings,
        vec![
            f("no-hashmap-iter", 3, 19),
            f("unordered-collection-escape", 5, 5),
            f("unordered-collection-escape", 10, 20),
        ]
    );
    assert!(suppressed.is_empty());
}

#[test]
fn stale_suppression_fixture() {
    // A live allow suppresses and survives; an allow whose rule no
    // longer fires is itself a finding; a stale allow vouched for by
    // `allow(stale-suppression)` is suppressed; an unvouched voucher is
    // in turn stale.
    let (findings, suppressed) = audit(
        "crates/airstat-store/src/fx.rs",
        include_str!("fixtures/stale_suppression.rs"),
    );
    assert_eq!(
        findings,
        vec![f("stale-suppression", 6, 1), f("stale-suppression", 17, 1)]
    );
    assert_eq!(
        suppressed,
        vec![
            (
                "no-unwrap-in-lib".to_string(),
                3,
                "fixture exercises liveness".to_string()
            ),
            (
                "stale-suppression".to_string(),
                12,
                "migration voucher kept on purpose".to_string()
            ),
        ]
    );
}

#[test]
fn schema_drift_fixture() {
    // With both doc pins at 2: the top-level SEGMENT_SCHEMA_VERSION = 3
    // drifts; SCHEMA_VERSION = 2 and the nested const at 2 agree.
    let pins = DocPins::parse(
        Some("Current schema — SEGMENT_SCHEMA_VERSION: 2"),
        Some("Current pin — SCHEMA_VERSION: 2"),
    );
    let report = audit_source_with_pins(
        "crates/airstat-store/src/fx.rs",
        include_str!("fixtures/schema_drift.rs"),
        &pins,
    );
    let findings: Findings = report
        .findings
        .iter()
        .map(|x| (x.rule.name().to_string(), x.line, x.col))
        .collect();
    assert_eq!(findings, vec![f("schema-spec-drift", 1, 5)]);
}

#[test]
fn schema_drift_is_silent_without_docs() {
    // Fixture trees (and audit_source callers) have no spec documents;
    // the rule only engages when the pins were actually read.
    let (findings, _) = audit(
        "crates/airstat-store/src/fx.rs",
        include_str!("fixtures/schema_drift.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn bad_allow_fixture() {
    // A directive without a reason or naming an unknown rule is itself a
    // finding, and suppresses nothing: the HashMap mentions still fire.
    let (findings, suppressed) = audit(
        "crates/airstat-store/src/fx.rs",
        include_str!("fixtures/bad_allow.rs"),
    );
    // The `use` import on line 2 is exempt since v2, but the reasonless
    // directive pointing at it still fires as malformed.
    assert_eq!(
        findings,
        vec![
            f("malformed-allow", 1, 1),
            f("malformed-allow", 4, 1),
            f("no-hashmap-iter", 7, 18),
        ]
    );
    assert!(suppressed.is_empty());
}
