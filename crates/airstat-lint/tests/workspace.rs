//! The lint run against the real tree: the workspace is lint-clean, no
//! source file reads a wall clock even under a suppression, no source
//! file switches a clippy lint off, and the full sweep (lex, parse,
//! symbol index, provenance dataflow, both rule generations) stays
//! inside the budget tier-1 gives it.

use airstat_lint::engine::audit_tree;
use airstat_lint::rules::RuleId;
use std::path::{Path, PathBuf};
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

/// Every `.rs` file under `dir`, recursively.
fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let path = entry.path();
        if path.is_dir() {
            rs_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// `cargo clippy -D warnings` only gates what no attribute has switched
/// off. The workspace carries no `allow(clippy::…)` in `src/` or
/// `crates/*/src/`, so the next eight-argument function fails tier-1
/// instead of waiting for a reviewer to notice the attribute above it.
#[test]
fn no_source_file_switches_a_clippy_lint_off() {
    let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let mut files = Vec::new();
    rs_files(&root.join("src"), &mut files);
    for entry in std::fs::read_dir(root.join("crates"))
        .expect("crates/ is readable")
        .flatten()
    {
        rs_files(&entry.path().join("src"), &mut files);
    }
    assert!(
        files.len() >= 50,
        "walk saw only {} files; the workspace has ~95",
        files.len()
    );
    let mut allows = Vec::new();
    for file in &files {
        let source = std::fs::read_to_string(file).expect("source is readable");
        for (number, line) in (1..).zip(source.lines()) {
            if line.contains("allow(clippy::") {
                allows.push(format!("{}:{number}: {}", file.display(), line.trim()));
            }
        }
    }
    assert!(
        allows.is_empty(),
        "a clippy lint is switched off; fix what it flags instead: {allows:#?}"
    );
}
