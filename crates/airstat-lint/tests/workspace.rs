//! The lint run against the real tree: the workspace is lint-clean, no
//! source file reads a wall clock even under a suppression, no source
//! file switches a clippy lint off, every library module feeds a
//! product path, and the full sweep (lex, parse, symbol index,
//! provenance dataflow, both rule generations) stays inside the budget
//! tier-1 gives it.

use airstat_lint::engine::{audit_tree, test_regions};
use airstat_lint::lexer::{lex, Token, TokenKind};
use airstat_lint::rules::RuleId;
use std::collections::BTreeSet;
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

/// The tokens of `path` that are code: comments and `#[cfg(test)]`
/// items dropped, and each adjacent `:` `:` pair rejoined into one `::`.
fn code_tokens(path: &Path) -> Vec<Token> {
    let source = std::fs::read_to_string(path).expect("source is readable");
    let tokens = lex(&source);
    let in_test = test_regions(&tokens);
    let mut out: Vec<Token> = Vec::new();
    for (token, in_test) in tokens.into_iter().zip(in_test) {
        if in_test || token.is_comment() {
            continue;
        }
        if let Some(last) = out.last_mut() {
            let adjacent = last.line == token.line && last.col + 1 == token.col;
            if adjacent && last.text == ":" && token.text == ":" {
                last.text.push(':');
                continue;
            }
        }
        out.push(token);
    }
    out
}

fn is_punct(token: Option<&Token>, text: &str) -> bool {
    token.is_some_and(|t| t.kind == TokenKind::Punct && t.text == text)
}

fn is_ident(token: Option<&Token>, text: &str) -> bool {
    token.is_some_and(|t| t.kind == TokenKind::Ident && t.text == text)
}

/// One `pub mod` of a library crate's root, with the items the root
/// re-exports from it.
struct LibModule {
    /// The crate's name as code spells it (`airstat_rf`).
    krate: String,
    name: String,
    /// `crates/airstat-rf/src/rates`: the module's `.rs` file and its
    /// directory both start with this.
    own_files: PathBuf,
    reexports: BTreeSet<String>,
}

/// Every `pub mod` declared in a `crates/*/src/lib.rs`.
fn library_modules(root: &Path) -> Vec<LibModule> {
    let mut modules = Vec::new();
    for entry in std::fs::read_dir(root.join("crates"))
        .expect("crates/ is readable")
        .flatten()
    {
        let src = entry.path().join("src");
        let lib = src.join("lib.rs");
        if !lib.is_file() {
            continue;
        }
        let krate = entry.file_name().to_string_lossy().replace('-', "_");
        let tokens = code_tokens(&lib);
        let mut found: Vec<LibModule> = Vec::new();
        for (i, token) in tokens.iter().enumerate() {
            if is_ident(Some(token), "pub") && is_ident(tokens.get(i + 1), "mod") {
                let name = tokens[i + 2].text.clone();
                found.push(LibModule {
                    krate: krate.clone(),
                    own_files: src.join(&name),
                    name,
                    reexports: BTreeSet::new(),
                });
            }
        }
        // `pub use name::{A, B as C};` re-exports `A` and `C` from `name`.
        for (i, token) in tokens.iter().enumerate() {
            if !(is_ident(Some(token), "pub") && is_ident(tokens.get(i + 1), "use")) {
                continue;
            }
            let Some(module) = found
                .iter_mut()
                .find(|m| is_ident(tokens.get(i + 2), &m.name))
            else {
                continue;
            };
            let mut j = i + 3;
            while !is_punct(tokens.get(j), ";") {
                let names_an_item = tokens[j].kind == TokenKind::Ident
                    && !matches!(tokens.get(j + 1), Some(t) if t.text == "::" || t.text == "as")
                    && tokens[j].text != "as"
                    && tokens[j].text != "self";
                if names_an_item {
                    module.reexports.insert(tokens[j].text.clone());
                }
                j += 1;
            }
        }
        modules.extend(found);
    }
    modules.sort_by(|a, b| (&a.krate, &a.name).cmp(&(&b.krate, &b.name)));
    modules
}

/// A library module earns its place by feeding a product path: the
/// `airstat` binary, a library path it calls, `bench/`, or a pinned
/// ablation. A module counts as reached when the code (not comments,
/// not `#[cfg(test)]` items) of some file other than its own and its
/// crate root (which only declares and re-exports) either names it as a
/// path segment or names an item its crate root re-exports from it, in a
/// file that can see its crate: a file of the same crate, or one that
/// spells `airstat_rf` or `airstat::rf`. Proptests, examples and the
/// other integration tests do not count.
#[test]
fn every_library_module_feeds_a_product_path() {
    let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let modules = library_modules(root);
    assert!(
        modules.len() >= 40,
        "found only {} library modules; the workspace has ~60",
        modules.len()
    );

    let mut files = Vec::new();
    rs_files(&root.join("src"), &mut files);
    rs_files(&root.join("bench/src"), &mut files);
    for entry in std::fs::read_dir(root.join("crates"))
        .expect("crates/ is readable")
        .flatten()
    {
        rs_files(&entry.path().join("src"), &mut files);
    }
    files.push(root.join("tests/ablations.rs"));

    let mut reached = BTreeSet::new();
    for file in &files {
        let tokens = code_tokens(file);
        let crate_root = file.ends_with("src/lib.rs");
        for module in &modules {
            let same_crate = file.starts_with(module.own_files.parent().expect("src/"));
            if file.starts_with(&module.own_files)
                || file.with_extension("") == module.own_files
                || (same_crate && crate_root)
            {
                continue;
            }
            let alias = module
                .krate
                .strip_prefix("airstat_")
                .unwrap_or(&module.krate);
            let sees_crate = same_crate
                || tokens.iter().enumerate().any(|(i, t)| {
                    is_ident(Some(t), &module.krate)
                        || (is_ident(Some(t), "airstat")
                            && is_punct(tokens.get(i + 1), "::")
                            && is_ident(tokens.get(i + 2), alias))
                });
            let names_it = |i: usize, t: &Token| {
                t.kind == TokenKind::Ident
                    && ((t.text == module.name
                        && (is_punct(tokens.get(i + 1), "::")
                            || (i > 0 && is_punct(tokens.get(i - 1), "::"))))
                        || module.reexports.contains(&t.text))
            };
            if sees_crate && tokens.iter().enumerate().any(|(i, t)| names_it(i, t)) {
                reached.insert(format!("{}::{}", module.krate, module.name));
            }
        }
    }

    let unreached: Vec<String> = modules
        .iter()
        .map(|m| format!("{}::{}", m.krate, m.name))
        .filter(|name| !reached.contains(name))
        .collect();
    assert!(
        unreached.is_empty(),
        "no product path reaches these modules; wire each into an output or delete it: {unreached:#?}"
    );
}
