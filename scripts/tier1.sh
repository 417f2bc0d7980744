#!/usr/bin/env bash
# Tier-1 pre-merge gate: release build, root-package test suite, format check.
# Usage: scripts/tier1.sh   (from anywhere inside the repo)
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --offline

echo "==> cargo build --release bench/ (the benchmark is its own workspace on the public API: a PR that deletes or renames a public name finds out here)"
cargo build --release --offline --manifest-path bench/Cargo.toml

echo "==> cargo test -q (every root suite: store-vs-legacy, vectorized-vs-legacy and persist/reopen differentials, tests/persistence.rs store_directory_bytes_are_pinned_across_every_persist_transition: name/length/FNV-1a of every store file across full, incremental, rewrite and other-directory persists, tests/cli.rs driving the airstat binary incl. --store-dir/--resume and resume_refuses_a_manifest_written_by_a_newer_schema + resume_refuses_a_delta_chain_that_repeats_an_epoch, golden report digest, mid-campaign delta seals + pinned compaction schedule, scheduler-vs-flat-oracle drain differential + 100k-AP queue-pressure campaign, tests/perf_gates.rs same-host ratio gates: vectorized < legacy, reopen < re-simulate, delta seal <= 2x its ingest, ...)"
cargo test -q --offline

echo "==> cargo test -q -p airstat-classify (compiled ruleset vs linear first-match oracle on the rule corpus, shadowed-rule audit, flow-table eviction pin, proptests)"
cargo test -q --offline -p airstat-classify

echo "==> cargo test -q -p airstat-sim (traffic generator, weight-norm table bit-identity, engine determinism)"
cargo test -q --offline -p airstat-sim

echo "==> cargo test -q -p airstat-store (sharded store: unit tests incl. column-merge-vs-rebuild compaction oracle, segment format corruption sweep/schema pin/doc example and create_refuses_a_manifest_it_cannot_remove; the cross-commit pin of whole store directories is tests/persistence.rs in the root suite above; zone-map pruning and seal-placement invariance proptests; engine-vs-backend tests)"
cargo test -q --offline -p airstat-store

echo "==> cargo test -q -p airstat-telemetry (wire, transport, poll and scheduler unit tests; tests/properties.rs and tests/sched_properties.rs proptests incl. no-starvation; pipeline doctests)"
cargo test -q --offline -p airstat-telemetry

echo "==> cargo clippy --workspace (warnings are errors; vendored crates excluded)"
cargo clippy -q --workspace --exclude rand --exclude proptest \
    --all-targets --offline -- -D warnings

echo "==> airstat-lint (determinism audit: zero unsuppressed findings, schema-2 JSON)"
lint_json="$(cargo run -q -p airstat-lint --offline -- --json)"
grep -q '"schema_version": 2' <<<"$lint_json" \
    || { echo "lint JSON is not schema 2" >&2; exit 1; }

echo "==> cargo test -q -p airstat-lint (lexer, rule, corpus, and JSON schema tests; tests/workspace.rs: the real tree is lint-clean and the sweep stays under its 2 s ceiling)"
cargo test -q --offline -p airstat-lint

echo "==> cargo doc (airstat crates, warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --offline \
    -p airstat -p airstat-stats -p airstat-rf -p airstat-classify \
    -p airstat-telemetry -p airstat-store -p airstat-sim -p airstat-core \
    -p airstat-bench -p airstat-lint

echo "==> cargo fmt --check"
cargo fmt --check

echo "tier-1 gate: all green"
