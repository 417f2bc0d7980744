//! The audit engine: walks the workspace, applies both rule
//! generations, resolves suppressions, and polices the suppressions
//! themselves.
//!
//! Scope: every `.rs` file under `src/` and `crates/*/src/` — library
//! and binary sources, the code whose behavior ships. Test files
//! (`tests/`, `benches/`, `examples/`) are out of scope, as are
//! `#[cfg(test)]` modules inside library files; test code may unwrap
//! and hash freely without touching report bytes.
//!
//! Per file the engine lexes once, runs the generation-1 token rules,
//! parses the token stream ([`crate::parser`]), indexes the file's
//! symbols ([`crate::symbols`]), and runs the generation-2
//! parser/dataflow rules (`rules::check_ast`). Across the
//! tree it aggregates a workspace symbol table and feeds the spec-doc
//! pins (`docs/SEGMENT_FORMAT.md`, `docs/LINTS.md`) to the
//! schema-drift rule.
//!
//! Suppressions are inline comments:
//!
//! ```text
//! // airstat::allow(no-hashmap-iter): keyed access only, never iterated
//! seen: HashMap<(WindowId, u64), SeqSet>,
//! ```
//!
//! A leading comment suppresses the next code line; a trailing comment
//! suppresses its own line. The reason is mandatory — an `airstat::allow`
//! without one is itself a `malformed-allow` finding. And a directive
//! whose rule no longer fires on the line it covers is a
//! `stale-suppression` finding: the audit trail must only contain live
//! suppressions.

use std::fs;
use std::path::{Path, PathBuf};

use crate::lexer::{lex, Token, TokenKind};
use crate::parser;
use crate::rules::{check_ast, check_tokens, DocPins, FileContext, RawFinding, RuleId};
use crate::symbols::SymbolTable;

/// An unsuppressed rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which rule fired.
    pub rule: RuleId,
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Site-specific explanation.
    pub message: String,
}

/// A violation that an `airstat::allow` directive covered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppressed {
    /// Which rule was suppressed.
    pub rule: RuleId,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line of the suppressed violation.
    pub line: u32,
    /// The justification given in the directive.
    pub reason: String,
}

/// Everything one audit run produced.
#[derive(Debug, Default)]
pub struct AuditReport {
    /// Violations that gate the build (sorted by file, line, col, rule).
    pub findings: Vec<Finding>,
    /// Violations covered by a reasoned directive, kept for the record.
    pub suppressed: Vec<Suppressed>,
    /// Number of files scanned.
    pub files_scanned: usize,
    /// Number of fn/struct/const symbols indexed across the scan.
    pub symbols_indexed: usize,
}

impl AuditReport {
    /// True when the tree is clean (exit code 0).
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Drops findings and suppressions that `keep` rejects, for the
    /// `--rule` / `--generation` CLI filters. Scan counters stay as
    /// measured.
    pub fn retain_rules(&mut self, keep: impl Fn(RuleId) -> bool) {
        self.findings.retain(|f| keep(f.rule));
        self.suppressed.retain(|s| keep(s.rule));
    }
}

/// One parsed `airstat::allow` directive.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Directive {
    rule: RuleId,
    reason: String,
    /// The line(s) of code this directive covers.
    covers: Vec<u32>,
    /// Where the directive comment itself sits.
    line: u32,
    col: u32,
    /// Whether the comment lives inside a `#[cfg(test)]` region (such
    /// directives are exempt from staleness — the rules they name do
    /// not run there).
    in_test: bool,
}

/// Audits a single file's source text with no spec docs in play (the
/// schema-drift rule stays silent). Exposed for the fixture tests.
pub fn audit_source(rel_path: &str, src: &str) -> AuditReport {
    audit_source_with_pins(rel_path, src, &DocPins::default())
}

/// Audits a single file's source text against explicit spec-doc pins.
pub fn audit_source_with_pins(rel_path: &str, src: &str, pins: &DocPins) -> AuditReport {
    let ctx = FileContext::from_rel_path(rel_path);
    let tokens = lex(src);
    let in_test = test_regions(&tokens);

    let file = parser::parse(&tokens);
    let mut symbols = SymbolTable::default();
    symbols.add_file(rel_path, &ctx.crate_name, &file);
    let test_lines = line_test_map(&tokens, &in_test);
    let ast = check_ast(&ctx, &file, &symbols, &test_lines, pins);

    let mut raw = check_tokens(&ctx, &tokens, &in_test, &ast.hashmap_exempt_lines);
    raw.extend(ast.findings);
    let (directives, mut malformed) = parse_directives(&tokens, &in_test);
    raw.append(&mut malformed);

    // Suppression hygiene, two passes so `allow(stale-suppression)` can
    // itself be vouched for: first find directives whose rule no longer
    // fires where they point, then check the vouchers against those.
    let stale_first: Vec<RawFinding> = directives
        .iter()
        .filter(|d| !d.in_test && d.rule != RuleId::StaleSuppression)
        .filter(|d| {
            !raw.iter()
                .any(|f| f.rule == d.rule && d.covers.contains(&f.line))
        })
        .map(stale_finding)
        .collect();
    let stale_second: Vec<RawFinding> = directives
        .iter()
        .filter(|d| !d.in_test && d.rule == RuleId::StaleSuppression)
        .filter(|d| !stale_first.iter().any(|f| d.covers.contains(&f.line)))
        .map(stale_finding)
        .collect();
    raw.extend(stale_first);
    raw.extend(stale_second);

    let mut report = AuditReport {
        files_scanned: 1,
        symbols_indexed: symbols.len(),
        ..AuditReport::default()
    };
    for f in raw {
        let covering = directives.iter().find(|d| {
            d.rule == f.rule
                && f.rule != RuleId::MalformedAllow
                && d.covers.contains(&f.line)
                // A voucher cannot vouch for its own staleness.
                && !(f.rule == RuleId::StaleSuppression && d.line == f.line)
        });
        match covering {
            Some(d) => report.suppressed.push(Suppressed {
                rule: f.rule,
                file: rel_path.to_string(),
                line: f.line,
                reason: d.reason.clone(),
            }),
            None => report.findings.push(Finding {
                rule: f.rule,
                file: rel_path.to_string(),
                line: f.line,
                col: f.col,
                message: f.message,
            }),
        }
    }
    report
}

fn stale_finding(d: &Directive) -> RawFinding {
    RawFinding {
        rule: RuleId::StaleSuppression,
        line: d.line,
        col: d.col,
        message: format!(
            "stale suppression: `airstat::allow({})` covers no `{}` finding any \
             more — remove the directive",
            d.rule.name(),
            d.rule.name()
        ),
    }
}

/// Maps 1-based line numbers to "sits in a `#[cfg(test)]` region", for
/// the AST rules whose nodes carry line positions rather than token
/// indices.
fn line_test_map(tokens: &[Token], in_test: &[bool]) -> Vec<bool> {
    let max_line = tokens.last().map(|t| t.line as usize).unwrap_or(0);
    let mut lines = vec![false; max_line + 2];
    for (i, t) in tokens.iter().enumerate() {
        if in_test[i] {
            lines[t.line as usize] = true;
        }
    }
    lines
}

/// Audits every in-scope file under `root`, returning a merged report.
/// Spec-doc pins are read from `docs/` under the same root when
/// present.
pub fn audit_tree(root: &Path) -> Result<AuditReport, String> {
    let mut files = Vec::new();
    collect_rs_files(&root.join("src"), &mut files);
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)
            .map_err(|e| format!("cannot read {}: {e}", crates_dir.display()))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        crate_dirs.sort();
        for dir in crate_dirs {
            collect_rs_files(&dir.join("src"), &mut files);
        }
    }
    if files.is_empty() {
        return Err(format!(
            "no Rust sources under {} (expected src/ or crates/*/src/)",
            root.display()
        ));
    }
    files.sort();

    let segment_doc = fs::read_to_string(root.join("docs/SEGMENT_FORMAT.md")).ok();
    let lints_doc = fs::read_to_string(root.join("docs/LINTS.md")).ok();
    let pins = DocPins::parse(segment_doc.as_deref(), lints_doc.as_deref());

    let mut report = AuditReport::default();
    for file in &files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        let src =
            fs::read_to_string(file).map_err(|e| format!("cannot read {}: {e}", file.display()))?;
        let one = audit_source_with_pins(&rel, &src, &pins);
        report.findings.extend(one.findings);
        report.suppressed.extend(one.suppressed);
        report.files_scanned += 1;
        report.symbols_indexed += one.symbols_indexed;
    }
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    report
        .suppressed
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(report)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.filter_map(Result::ok) {
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Marks, per token index, whether the token sits inside a
/// `#[cfg(test)]` item (a `mod tests { ... }` block, a test function,
/// or any other attributed item).
pub fn test_regions(tokens: &[Token]) -> Vec<bool> {
    let mut marked = vec![false; tokens.len()];
    let sig: Vec<usize> = (0..tokens.len())
        .filter(|&i| !tokens[i].is_comment() && tokens[i].kind != TokenKind::Error)
        .collect();
    let is = |k: usize, kind: TokenKind, text: &str| -> bool {
        sig.get(k)
            .is_some_and(|&i| tokens[i].kind == kind && tokens[i].text == text)
    };

    let mut k = 0usize;
    while k < sig.len() {
        let cfg_test = is(k, TokenKind::Punct, "#")
            && is(k + 1, TokenKind::Punct, "[")
            && is(k + 2, TokenKind::Ident, "cfg")
            && is(k + 3, TokenKind::Punct, "(")
            && is(k + 4, TokenKind::Ident, "test")
            && is(k + 5, TokenKind::Punct, ")")
            && is(k + 6, TokenKind::Punct, "]");
        if !cfg_test {
            k += 1;
            continue;
        }
        let start = k;
        let mut j = k + 7;
        // Skip any further attributes on the same item.
        while is(j, TokenKind::Punct, "#") && is(j + 1, TokenKind::Punct, "[") {
            let mut depth = 0usize;
            j += 1;
            while j < sig.len() {
                if is(j, TokenKind::Punct, "[") {
                    depth += 1;
                } else if is(j, TokenKind::Punct, "]") {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                j += 1;
            }
        }
        // The item itself: ends at the first top-level `;`, or at the
        // close of the first brace block (fn body, mod body, impl body).
        let mut brace_depth = 0usize;
        let mut entered_block = false;
        while j < sig.len() {
            if is(j, TokenKind::Punct, "{") {
                brace_depth += 1;
                entered_block = true;
            } else if is(j, TokenKind::Punct, "}") {
                brace_depth = brace_depth.saturating_sub(1);
                if entered_block && brace_depth == 0 {
                    break;
                }
            } else if is(j, TokenKind::Punct, ";") && !entered_block {
                break;
            }
            j += 1;
        }
        let end_tok = sig.get(j).copied().unwrap_or(tokens.len() - 1);
        for slot in marked.iter_mut().take(end_tok + 1).skip(sig[start]) {
            *slot = true;
        }
        k = j + 1;
    }
    marked
}

/// Extracts `airstat::allow` directives from comments; malformed ones
/// come back as findings.
fn parse_directives(tokens: &[Token], in_test: &[bool]) -> (Vec<Directive>, Vec<RawFinding>) {
    const NEEDLE: &str = "airstat::allow";
    let mut directives = Vec::new();
    let mut malformed = Vec::new();
    for (idx, t) in tokens.iter().enumerate() {
        if !t.is_comment() || !t.text.contains(NEEDLE) {
            continue;
        }
        // Directives live in plain `//` (or `/* */`) implementation
        // comments. Doc comments merely *describe* the syntax — skip
        // them so documentation can show examples verbatim.
        if t.text.starts_with("///")
            || t.text.starts_with("//!")
            || t.text.starts_with("/**")
            || t.text.starts_with("/*!")
        {
            continue;
        }
        let mut bad = |why: &str| {
            malformed.push(RawFinding {
                rule: RuleId::MalformedAllow,
                line: t.line,
                col: t.col,
                message: format!("malformed airstat::allow directive: {why}"),
            });
        };
        let Some(tail) = t.text.split_once(NEEDLE).map(|(_, tail)| tail.trim_start()) else {
            continue;
        };
        let Some(inner) = tail.strip_prefix('(') else {
            bad("expected `airstat::allow(rule-name): reason`");
            continue;
        };
        let Some((name, rest)) = inner.split_once(')') else {
            bad("missing `)` after the rule name");
            continue;
        };
        let Some(rule) = RuleId::from_name(name.trim()) else {
            bad(&format!(
                "unknown rule `{}` (see --list-rules)",
                name.trim()
            ));
            continue;
        };
        let reason = match rest.trim_start().strip_prefix(':') {
            Some(r) => r.trim(),
            None => {
                bad("missing `: reason` — a suppression must say why it is sound");
                continue;
            }
        };
        if reason.is_empty() {
            bad("empty reason — a suppression must say why it is sound");
            continue;
        }

        // A trailing comment covers its own line; a leading comment
        // covers every line down to (and including) the next code line,
        // so stacked directives can vouch for one another.
        let leading = !tokens[..idx]
            .iter()
            .rev()
            .take_while(|p| p.line == t.line)
            .any(|p| !p.is_comment());
        let mut covers = vec![t.line];
        if leading {
            if let Some(next) = tokens[idx + 1..]
                .iter()
                .find(|n| !n.is_comment() && n.line > t.line)
            {
                covers.extend(t.line + 1..=next.line);
            }
        }
        directives.push(Directive {
            rule,
            reason: reason.to_string(),
            covers,
            line: t.line,
            col: t.col,
            in_test: in_test[idx],
        });
    }
    (directives, malformed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_mod_is_exempt() {
        let src = "\
struct S { m: std::collections::HashMap<u8, u8> }
#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    fn f() { x.unwrap(); }
}
";
        let report = audit_source("crates/airstat-store/src/x.rs", src);
        assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
        assert_eq!(report.findings[0].line, 1);
    }

    #[test]
    fn cfg_test_fn_is_exempt() {
        let src = "\
#[cfg(test)]
#[allow(dead_code)]
fn helper() { x.unwrap(); }
fn real() { y.unwrap(); }
";
        let report = audit_source("crates/airstat-store/src/x.rs", src);
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].line, 4);
    }

    #[test]
    fn leading_allow_covers_next_line() {
        let src = "\
// airstat::allow(no-hashmap-iter): keyed access only, never iterated
let m: HashMap<u8, u8> = make();
";
        let report = audit_source("crates/airstat-store/src/x.rs", src);
        assert!(report.is_clean(), "{:?}", report.findings);
        assert_eq!(report.suppressed.len(), 1);
        assert_eq!(
            report.suppressed[0].reason,
            "keyed access only, never iterated"
        );
    }

    #[test]
    fn trailing_allow_covers_own_line() {
        let src =
            "let m: HashMap<u8, u8> = make(); // airstat::allow(no-hashmap-iter): lookup only\n";
        let report = audit_source("crates/airstat-store/src/x.rs", src);
        assert!(report.is_clean(), "{:?}", report.findings);
        assert_eq!(report.suppressed.len(), 1);
    }

    #[test]
    fn allow_without_reason_is_a_finding() {
        for bad in [
            "// airstat::allow(no-hashmap-iter)\nlet m: HashMap<u8,u8>;",
            "// airstat::allow(no-hashmap-iter):\nlet m: HashMap<u8,u8>;",
            "// airstat::allow(not-a-rule): whatever\nlet m: HashMap<u8,u8>;",
        ] {
            let report = audit_source("crates/airstat-store/src/x.rs", bad);
            assert!(
                report
                    .findings
                    .iter()
                    .any(|f| f.rule == RuleId::MalformedAllow),
                "{bad} -> {:?}",
                report.findings
            );
            // And the underlying violation still fires.
            assert!(report
                .findings
                .iter()
                .any(|f| f.rule == RuleId::NoHashmapIter));
        }
    }

    #[test]
    fn allow_only_covers_its_rule_and_goes_stale() {
        let src = "\
// airstat::allow(no-wall-clock): wrong rule for this line
let m: HashMap<u8, u8> = make();
";
        let report = audit_source("crates/airstat-store/src/x.rs", src);
        // The hashmap finding survives, and the useless directive is
        // itself flagged as stale.
        assert_eq!(report.findings.len(), 2, "{:?}", report.findings);
        assert_eq!(report.findings[0].rule, RuleId::NoHashmapIter);
        assert!(report
            .findings
            .iter()
            .any(|f| f.rule == RuleId::StaleSuppression && f.line == 1));
    }

    #[test]
    fn live_allow_is_not_stale() {
        let src = "\
// airstat::allow(no-hashmap-iter): keyed access only
let m: HashMap<u8, u8> = make();
";
        let report = audit_source("crates/airstat-store/src/x.rs", src);
        assert!(report.is_clean(), "{:?}", report.findings);
    }

    #[test]
    fn stale_allow_can_be_vouched_for() {
        let src = "\
// airstat::allow(stale-suppression): kept while the migration lands
// airstat::allow(no-hashmap-iter): converted to BTreeMap last PR
let m: BTreeMap<u8, u8> = make();
";
        let report = audit_source("crates/airstat-store/src/x.rs", src);
        assert!(report.is_clean(), "{:?}", report.findings);
        assert_eq!(report.suppressed.len(), 1);
        assert_eq!(report.suppressed[0].rule, RuleId::StaleSuppression);
    }

    #[test]
    fn unvouched_stale_voucher_is_itself_stale() {
        let src = "\
// airstat::allow(stale-suppression): nothing stale here any more
let m: BTreeMap<u8, u8> = make();
";
        let report = audit_source("crates/airstat-store/src/x.rs", src);
        assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
        assert_eq!(report.findings[0].rule, RuleId::StaleSuppression);
    }

    #[test]
    fn stacked_allows_cover_one_line_with_two_rules() {
        let src = "\
// airstat::allow(no-hashmap-iter): lookup table, keyed access only
// airstat::allow(no-unwrap-in-lib): capacity checked two lines up
let v = m.get(&k).unwrap(); let h: HashMap<u8, u8> = make();
";
        let report = audit_source("crates/airstat-store/src/x.rs", src);
        assert!(report.is_clean(), "{:?}", report.findings);
        assert_eq!(report.suppressed.len(), 2);
    }

    #[test]
    fn doc_comments_do_not_carry_directives() {
        // Documentation may show the syntax verbatim without parsing as
        // a (possibly malformed) directive.
        let src = "\
/// Suppress with `// airstat::allow(rule-name): reason`.
//! See airstat::allow(no-such-rule): in the docs.
fn f() {}
";
        let report = audit_source("crates/airstat-store/src/x.rs", src);
        assert!(report.is_clean(), "{:?}", report.findings);
        assert!(report.suppressed.is_empty());
    }

    #[test]
    fn directive_in_string_literal_is_ignored() {
        let src = "let s = \"airstat::allow(no-hashmap-iter)\";\n";
        let report = audit_source("crates/airstat-store/src/x.rs", src);
        assert!(report.is_clean());
        assert!(report.suppressed.is_empty());
    }

    #[test]
    fn use_imports_no_longer_fire_hashmap_rule() {
        let src = "\
use std::collections::HashMap;
struct S { m: HashMap<u8, u8> }
";
        let report = audit_source("crates/airstat-store/src/x.rs", src);
        assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
        assert_eq!(report.findings[0].line, 2); // the field, not the import
    }

    #[test]
    fn drift_rule_silent_without_docs() {
        let src = "pub const SEGMENT_SCHEMA_VERSION: u32 = 99;\n";
        let report = audit_source("crates/airstat-store/src/x.rs", src);
        assert!(report.is_clean(), "{:?}", report.findings);
    }
}
