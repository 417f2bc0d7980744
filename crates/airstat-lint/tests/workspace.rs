//! The lint run against the real tree: the workspace is lint-clean, no
//! source file reads a wall clock even under a suppression, and the full
//! sweep (lex, parse, symbol index, provenance dataflow, both
//! rule generations) stays inside the budget tier-1 gives it.

use airstat_lint::engine::audit_tree;
use airstat_lint::rules::RuleId;
use std::path::Path;
use std::time::{Duration, Instant};

/// Tier-1 sweeps the workspace on every merge; ≈ 0.5 s measured in a
/// debug build, on two cores and pinned to one.
const SWEEP_CEILING: Duration = Duration::from_secs(2);

#[test]
fn the_workspace_is_lint_clean_and_the_sweep_stays_under_its_ceiling() {
    let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let fastest = (0..3)
        .map(|_| {
            let started = Instant::now();
            let report = audit_tree(root).expect("lint sweep runs");
            let elapsed = started.elapsed();
            assert!(
                report.is_clean(),
                "the workspace has unsuppressed findings: {:#?}",
                report.findings
            );
            // `findings` is empty by now, so a clock could only hide here.
            let clocks: Vec<_> = report
                .suppressed
                .iter()
                .filter(|s| s.rule == RuleId::NoWallClock)
                .collect();
            assert!(
                clocks.is_empty(),
                "a linted crate reads wall time under an allow; timing belongs in bench/: {clocks:#?}"
            );
            assert!(
                report.files_scanned >= 50,
                "sweep saw only {} files; the workspace has ~95",
                report.files_scanned
            );
            elapsed
        })
        .min()
        .expect("three sweeps ran");
    println!("workspace sweep: {fastest:.2?} (ceiling {SWEEP_CEILING:?})");
    assert!(
        fastest < SWEEP_CEILING,
        "workspace lint sweep took {fastest:?}; tier-1 caps it at {SWEEP_CEILING:?}"
    );
}
