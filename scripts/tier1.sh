#!/usr/bin/env bash
# Tier-1 pre-merge gate: release builds, every workspace test, clippy, lint, doc, format check.
# Usage: scripts/tier1.sh   (from anywhere inside the repo)
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --offline

echo "==> cargo build --release bench/ (the benchmark is its own workspace on the public API: a PR that deletes or renames a public name finds out here)"
cargo build --release --offline --manifest-path bench/Cargo.toml

echo "==> cargo test -q --workspace (the root suites and every crate under crates/, vendored rand/proptest excluded: tests/persistence.rs, the store model test holding random ingest/seal/persist/reopen sequences on both query backends to the flat backend, beside its directory-byte pins, tests/cli.rs driving the airstat binary incl. --resume and extra-argument refusals and stderr determinism across runs and --threads, tests/ablations.rs pinning the five design-choice claims EXPERIMENTS.md quotes, golden report digest, scheduler-vs-flat-oracle, the scheduler gates (tests/scheduler.rs's fleet pins fleet_campaign_is_pinned_for_two_seeds and hundred_k_ap_queue_pressure_campaign_holds_its_invariants, the slab model proptest prop_slab_scheduler_matches_the_by_value_model in airstat-telemetry, and both allocation budgets tests/alloc_budget.rs and tests/alloc_budget_campaign.rs), tests/perf_gates.rs ratio gates; airstat-lint tests/workspace.rs: the real tree is lint-clean, reads no wall clock even under an allow, carries no allow(clippy::...) in src/ or crates/*/src/ so clippy below gates every function, nor an allow(dead_code) or allow(unused...) outside #[cfg(test)] code, so rustc's dead_code in clippy below flags every crate-internal fn nothing calls (a fn no other crate calls is pub(crate)), every pub item in crates/*/src is named by src/, crates/*/src/, bench/src/, a README-documented example or tests/ablations.rs or sits on the exact TEST_SURFACE list with the test that needs it (by name: a dead pub fn sharing a live name passes; the exposure sweep in the perf log finds it), every example is in README.md, and the sweep stays under its 2 s ceiling)"
cargo test -q --offline --workspace --exclude rand --exclude proptest

echo "==> cargo clippy --workspace (warnings are errors; vendored crates excluded)"
cargo clippy -q --workspace --exclude rand --exclude proptest \
    --all-targets --offline -- -D warnings

echo "==> airstat-lint (determinism audit: zero unsuppressed findings, schema-2 JSON)"
lint_json="$(cargo run -q -p airstat-lint --offline -- --json)"
grep -q '"schema_version": 2' <<<"$lint_json" \
    || { echo "lint JSON is not schema 2" >&2; exit 1; }

echo "==> cargo doc (airstat crates, warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --offline \
    -p airstat -p airstat-stats -p airstat-rf -p airstat-classify \
    -p airstat-telemetry -p airstat-store -p airstat-sim -p airstat-core \
    -p airstat-lint

echo "==> cargo fmt --check"
cargo fmt --check

echo "tier-1 gate: all green"
