//! The lint run against the real tree: the workspace is lint-clean, no
//! source file reads a wall clock even under a suppression, no source
//! file switches a clippy lint or rustc's `dead_code` off, every `pub`
//! item feeds a product
//! path (or is on the exact list of what tests alone need), every
//! example is documented, and the full sweep (lex, parse, symbol index,
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

/// Every `.rs` file of `src/` and `crates/*/src/`.
fn library_sources(root: &Path) -> Vec<PathBuf> {
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
    files
}

/// `cargo clippy -D warnings` only gates what no attribute has switched
/// off. The workspace carries no `allow(clippy::…)` in `src/` or
/// `crates/*/src/`, so the next eight-argument function fails tier-1
/// instead of waiting for someone to notice the attribute above it.
#[test]
fn no_source_file_switches_a_clippy_lint_off() {
    let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let mut allows = Vec::new();
    for file in &library_sources(root) {
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

/// Every crate-internal fn is `pub(crate)` or private, so rustc's
/// `dead_code` lint — an error under tier-1 clippy — flags the first one
/// nothing calls. No code region of `src/` or `crates/*/src/` may switch
/// that lint (or the rest of `unused`) off with `allow(..)` or
/// `expect(..)`; `#[cfg(test)]` items and string literals are skipped.
#[test]
fn no_source_file_switches_the_dead_code_lint_off() {
    let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let mut allows = Vec::new();
    for file in &library_sources(root) {
        let tokens = code_tokens(file);
        for (i, token) in tokens.iter().enumerate() {
            let suppresses = is_ident(Some(token), "allow") || is_ident(Some(token), "expect");
            // `.expect(..)` is a call, not an attribute.
            let method = i > 0 && is_punct(tokens.get(i - 1), ".");
            if !suppresses || method || !is_punct(tokens.get(i + 1), "(") {
                continue;
            }
            let lints = tokens[i + 2..]
                .iter()
                .take_while(|t| !(t.kind == TokenKind::Punct && t.text == ")"));
            if let Some(lint) = lints
                .filter(|t| t.kind == TokenKind::Ident)
                .find(|t| t.text == "dead_code" || t.text.starts_with("unused"))
            {
                allows.push(format!("{}:{}: {}", file.display(), lint.line, lint.text));
            }
        }
    }
    assert!(
        allows.is_empty(),
        "dead_code is switched off; delete what it flags instead: {allows:#?}"
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

/// The files a product compiles: the `airstat` binary and its library
/// (`src/`), every crate's library code, `bench/src/`, the examples
/// README documents, and the pinned ablations.
fn product_files(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    rs_files(&root.join("src"), &mut files);
    rs_files(&root.join("bench/src"), &mut files);
    rs_files(&root.join("examples"), &mut files);
    for entry in std::fs::read_dir(root.join("crates"))
        .expect("crates/ is readable")
        .flatten()
    {
        rs_files(&entry.path().join("src"), &mut files);
    }
    files.push(root.join("tests/ablations.rs"));
    files
}

/// Keywords whose next identifier is the name of the item they define.
const ITEM_KEYWORDS: [&str; 8] = [
    "fn", "struct", "enum", "trait", "type", "const", "static", "mod",
];

/// One unrestricted `pub` item of a library crate.
struct PubItem {
    /// `airstat_store::store::DurableStore::take_error`.
    path: String,
    name: String,
}

/// Per token, the self type of the item-level `impl` (`impl Name`,
/// `impl<T> Name<T>`, `impl Trait for Name`) whose header or body holds
/// it: the last path segment of the type, before its generics.
fn impl_scopes(tokens: &[Token]) -> Vec<Option<String>> {
    let mut scopes = vec![None; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        let item_level = i == 0
            || ["}", ";", "]", "{"]
                .iter()
                .any(|p| is_punct(tokens.get(i - 1), p));
        if !(is_ident(tokens.get(i), "impl") && item_level) {
            i += 1;
            continue;
        }
        // The header runs to the body's `{`; the self type follows the
        // impl's own generics, or a `for` outside any `<…>`.
        let generic = is_punct(tokens.get(i + 1), "<");
        let mut ty = i + 1;
        let mut angle = 0i32;
        let mut open = i + 1;
        while open < tokens.len() && !(angle == 0 && is_punct(tokens.get(open), "{")) {
            match tokens[open].text.as_str() {
                "<" => angle += 1,
                ">" if !is_punct(tokens.get(open - 1), "-") => {
                    angle -= 1;
                    if angle == 0 && generic && ty == i + 1 {
                        ty = open + 1;
                    }
                }
                "for" if angle == 0 => ty = open + 1,
                _ => {}
            }
            open += 1;
        }
        let name = (ty..open)
            .take_while(|&k| !is_punct(tokens.get(k), "<") && !is_ident(tokens.get(k), "where"))
            .filter(|&k| tokens[k].kind == TokenKind::Ident)
            .last()
            .map(|k| tokens[k].text.clone());
        // The body ends at the brace that closes `open`.
        let mut depth = 0usize;
        let mut close = open;
        while close < tokens.len() {
            match tokens[close].text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            close += 1;
        }
        for scope in scopes.iter_mut().take(close + 1).skip(i) {
            scope.clone_from(&name);
        }
        i = close + 1;
    }
    scopes
}

/// The unrestricted `pub fn|struct|enum|trait|type|const|static` items
/// in `tokens`, the code of the file whose module path is `module`.
fn pub_items(module: &str, tokens: &[Token]) -> Vec<PubItem> {
    let scopes = impl_scopes(tokens);
    let mut items = Vec::new();
    for (i, token) in tokens.iter().enumerate() {
        if !is_ident(Some(token), "pub") {
            continue;
        }
        let kind = ["fn", "struct", "enum", "trait", "type", "const", "static"]
            .into_iter()
            .find(|kw| is_ident(tokens.get(i + 1), kw));
        let Some(name) = kind.and_then(|_| tokens.get(i + 2)) else {
            continue;
        };
        let owner = scopes[i]
            .as_ref()
            .map(|ty| format!("{ty}::"))
            .unwrap_or_default();
        items.push(PubItem {
            path: format!("{module}::{owner}{}", name.text),
            name: name.text.clone(),
        });
    }
    items
}

/// `crates/airstat-core/src/figures/mod.rs` → `airstat_core::figures`.
fn module_path(krate: &str, src: &Path, file: &Path) -> String {
    let rel = file.strip_prefix(src).expect("file is under src/");
    let mut path = krate.to_string();
    for part in rel.with_extension("").iter() {
        let part = part.to_string_lossy();
        if part != "lib" && part != "mod" {
            path.push_str("::");
            path.push_str(&part);
        }
    }
    path
}

/// The identifiers a format string captures inline: `name` in
/// `"{name}"` and `"{name:>8}"`.
fn format_captures(literal: &str) -> Vec<String> {
    literal
        .split('{')
        .skip(1)
        .filter_map(|rest| {
            let end = rest.find(['}', ':'])?;
            let name = &rest[..end];
            let plain = name.starts_with(|c: char| c.is_alphabetic() || c == '_')
                && name.chars().all(|c| c.is_alphanumeric() || c == '_');
            plain.then(|| name.to_string())
        })
        .collect()
}

/// Items only tests reach, each with the test that needs it: an oracle,
/// a fixture, or a read of product state no output prints.
const TEST_SURFACE: &[(&str, &str)] = &[
    (
        "airstat_core::export::DatasetRelease::row_counts",
        "tests/operations.rs dataset_release_covers_both_windows",
    ),
    (
        "airstat_lint::engine::audit_source",
        "airstat-lint tests/corpus.rs hashmap_iter_fixture and every other fixture test, through its audit helper",
    ),
    (
        "airstat_rf::scanner::ScanningRadio::sweep_duration_us",
        "airstat-rf tests/properties.rs scanner_conserves_dwell_time and scanner_measures_load_exactly",
    ),
    (
        "airstat_rf::scanner::ScanningRadio::sweep_len",
        "airstat-rf tests/properties.rs scanner_conserves_dwell_time",
    ),
    (
        "airstat_sim::config::FleetConfig::smoke",
        "tests/persistence.rs any_op_sequence_answers_like_the_flat_backend, tests/operations.rs dataset_release_covers_both_windows and the src/lib.rs doctest",
    ),
    (
        "airstat_store::segment::DurableStore::reopen",
        "tests/persistence.rs any_op_sequence_answers_like_the_flat_backend (its Reopen op) and store_directory_bytes_are_pinned_across_every_persist_transition",
    ),
    (
        "airstat_store::segment::DurableStore::take_error",
        "tests/persistence.rs crashed_campaign_recovers_from_the_tail_log",
    ),
    (
        "airstat_telemetry::poll::drain_flat_reference",
        "tests/scheduler.rs plain_tunnel_solo_drain_matches_the_flat_oracle and faulted_solo_drain_matches_the_flat_oracle_for_every_preset",
    ),
    (
        "airstat_telemetry::sched::Scheduler::clock_s",
        "airstat-telemetry tests/sched_properties.rs prop_slab_scheduler_matches_the_by_value_model",
    ),
    (
        "airstat_telemetry::transport::DeviceAgent::tenant",
        "airstat-telemetry tests/sched_properties.rs prop_slab_scheduler_matches_the_by_value_model",
    ),
];

/// A `pub` item earns its place by feeding a product path: an item
/// counts as reached when its name is a code token (not a comment, not
/// inside a `#[cfg(test)]` item) of a product file, other than the name
/// at an item's definition, a type's name inside its own `impl` (header
/// or body), or a `pub use` re-export; a format string's inline capture
/// (`"{NAME}"`) counts. The check is by name, so it can miss a dead item
/// that shares its name with a live one, but never flags a live one;
/// crate-internal fns are `pub(crate)`, where rustc's `dead_code` is
/// exact, so the blind spot is the `pub` items other crates may call. If
/// no item of a module is reached, every item in it is flagged. An item
/// only tests need sits on [`TEST_SURFACE`], and that list is exact: a
/// listed item that a product reaches, or that is gone, fails too.
#[test]
fn every_pub_item_feeds_a_product_path() {
    let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let mut items = Vec::new();
    for entry in std::fs::read_dir(root.join("crates"))
        .expect("crates/ is readable")
        .flatten()
    {
        let krate = entry.file_name().to_string_lossy().replace('-', "_");
        let src = entry.path().join("src");
        let mut files = Vec::new();
        rs_files(&src, &mut files);
        for file in files {
            let module = module_path(&krate, &src, &file);
            items.extend(pub_items(&module, &code_tokens(&file)));
        }
    }
    assert!(
        items.len() >= 500,
        "found only {} pub items; the crates have ~590",
        items.len()
    );

    let mut used = BTreeSet::new();
    for file in product_files(root) {
        let tokens = code_tokens(&file);
        let scopes = impl_scopes(&tokens);
        let mut in_reexport = false;
        for (i, token) in tokens.iter().enumerate() {
            if is_ident(Some(token), "pub") && is_ident(tokens.get(i + 1), "use") {
                in_reexport = true;
            } else if in_reexport && is_punct(Some(token), ";") {
                in_reexport = false;
            }
            let defines = i > 0
                && ITEM_KEYWORDS
                    .iter()
                    .any(|kw| is_ident(tokens.get(i - 1), kw));
            let own_impl = scopes[i].as_ref() == Some(&token.text);
            if token.kind == TokenKind::Ident && !defines && !own_impl && !in_reexport {
                used.insert(token.text.clone());
            } else if token.kind == TokenKind::Str {
                used.extend(format_captures(&token.text));
            }
        }
    }

    let unreached: BTreeSet<&str> = items
        .iter()
        .filter(|item| !used.contains(&item.name))
        .map(|item| item.path.as_str())
        .collect();
    let listed: BTreeSet<&str> = TEST_SURFACE.iter().map(|(item, _)| *item).collect();
    let new: Vec<_> = unreached.difference(&listed).collect();
    let stale: Vec<_> = listed.difference(&unreached).collect();
    println!(
        "{} pub items, {} reached only from tests",
        items.len(),
        unreached.len()
    );
    assert!(
        new.is_empty() && stale.is_empty(),
        "no product path reaches these items; wire each into an output, delete it, \
         or list it on TEST_SURFACE with the test that needs it: {new:#?}\n\
         these TEST_SURFACE items are reached or gone; drop them from the list: {stale:#?}"
    );
}

/// The item guard counts `examples/*.rs` as product paths because
/// README documents each of them; an undocumented example would keep
/// dead library code alive.
#[test]
fn every_example_is_documented_in_the_readme() {
    let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let readme = std::fs::read_to_string(root.join("README.md")).expect("README.md is readable");
    let mut examples = Vec::new();
    rs_files(&root.join("examples"), &mut examples);
    assert!(
        examples.len() >= 5,
        "found only {} examples; the workspace has nine",
        examples.len()
    );
    let undocumented: Vec<_> = examples
        .iter()
        .filter_map(|path| path.file_stem())
        .map(|stem| stem.to_string_lossy().into_owned())
        .filter(|stem| !readme.contains(&format!("`{stem}`")))
        .collect();
    assert!(
        undocumented.is_empty(),
        "README.md names no example `{undocumented:?}`; document it or delete it"
    );
}
