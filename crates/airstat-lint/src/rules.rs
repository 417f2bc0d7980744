//! The determinism-audit rule set — two generations.
//!
//! Every rule guards one facet of the workspace's byte-identity
//! invariant: reports and query results must be byte-identical for any
//! thread count, shard count, or query backend. The differential tests
//! (the store model test in `tests/persistence.rs`, the fault campaigns)
//! enforce that dynamically for the seeds they run; these rules enforce
//! the *source-level* discipline that makes it hold for every seed.
//!
//! Generation 1 rules (`check_tokens`) are token patterns.
//! Generation 2 rules (`check_ast`) run on the parsed tree from
//! [`crate::parser`] with provenance from [`crate::dataflow`] and the
//! per-file symbol view from [`crate::symbols`]; they encode the bug
//! classes PRs 6–9 shipped and fixed (the `next_backoff_s` shift wrap,
//! seed-stream reuse, hash-order escape, spec drift).
//!
//! See `docs/LINTS.md` for the full catalogue with examples and the
//! suppression syntax.

use std::collections::BTreeMap;

use crate::dataflow::{FnFlow, HASH, HASH_ITER, RNG, TIME};
use crate::lexer::{Token, TokenKind};
use crate::parser::{self, Block, Expr, Item, Span, Stmt};
use crate::symbols::SymbolTable;

/// Identifies one lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// `HashMap`/`HashSet` in aggregate-feeding code.
    NoHashmapIter,
    /// `Instant`/`SystemTime` in virtual-time code.
    NoWallClock,
    /// `thread::spawn` outside the ordered executor.
    NoRawSpawn,
    /// `unwrap()`/non-invariant `expect()` in library code.
    NoUnwrapInLib,
    /// Unjustified f64 reductions on the merge path.
    FloatFoldOrder,
    /// Work-marker comments and `todo!()`/`unimplemented!()`.
    TodoMarkers,
    /// An `airstat::allow` directive missing its reason.
    MalformedAllow,
    /// Unchecked `<<`/`+`/`*` on virtual-time values (the PR 8 bug).
    ClockArithmeticOverflow,
    /// Duplicate seed-stream labels / RNG values as ordering keys.
    SeedStreamDiscipline,
    /// A hash collection (or its iterator) escaping its function.
    UnorderedCollectionEscape,
    /// An `airstat::allow` whose rule no longer fires where it points.
    StaleSuppression,
    /// Schema-version consts drifting from the pinned spec docs.
    SchemaSpecDrift,
}

impl RuleId {
    /// All rules, in reporting order (generation 1, then generation 2).
    pub const ALL: [RuleId; 12] = [
        RuleId::NoHashmapIter,
        RuleId::NoWallClock,
        RuleId::NoRawSpawn,
        RuleId::NoUnwrapInLib,
        RuleId::FloatFoldOrder,
        RuleId::TodoMarkers,
        RuleId::MalformedAllow,
        RuleId::ClockArithmeticOverflow,
        RuleId::SeedStreamDiscipline,
        RuleId::UnorderedCollectionEscape,
        RuleId::StaleSuppression,
        RuleId::SchemaSpecDrift,
    ];

    /// The rule's stable kebab-case name (used in `airstat::allow` and
    /// the JSON output).
    pub fn name(self) -> &'static str {
        match self {
            RuleId::NoHashmapIter => "no-hashmap-iter",
            RuleId::NoWallClock => "no-wall-clock",
            RuleId::NoRawSpawn => "no-raw-spawn",
            RuleId::NoUnwrapInLib => "no-unwrap-in-lib",
            RuleId::FloatFoldOrder => "float-fold-order",
            RuleId::TodoMarkers => "todo-markers",
            RuleId::MalformedAllow => "malformed-allow",
            RuleId::ClockArithmeticOverflow => "clock-arithmetic-overflow",
            RuleId::SeedStreamDiscipline => "seed-stream-discipline",
            RuleId::UnorderedCollectionEscape => "unordered-collection-escape",
            RuleId::StaleSuppression => "stale-suppression",
            RuleId::SchemaSpecDrift => "schema-spec-drift",
        }
    }

    /// Which analysis generation the rule belongs to: `1` for the PR 5
    /// token patterns, `2` for the parser/dataflow rules. Stamped into
    /// the JSON output and filterable via `--generation`.
    pub fn generation(self) -> u32 {
        match self {
            RuleId::NoHashmapIter
            | RuleId::NoWallClock
            | RuleId::NoRawSpawn
            | RuleId::NoUnwrapInLib
            | RuleId::FloatFoldOrder
            | RuleId::TodoMarkers
            | RuleId::MalformedAllow => 1,
            RuleId::ClockArithmeticOverflow
            | RuleId::SeedStreamDiscipline
            | RuleId::UnorderedCollectionEscape
            | RuleId::StaleSuppression
            | RuleId::SchemaSpecDrift => 2,
        }
    }

    /// Parses a rule name as written in an `airstat::allow` directive.
    pub fn from_name(name: &str) -> Option<RuleId> {
        RuleId::ALL.iter().copied().find(|r| r.name() == name)
    }

    /// One-line description for `--list-rules` and the docs.
    pub fn description(self) -> &'static str {
        match self {
            RuleId::NoHashmapIter => {
                "HashMap/HashSet in aggregate-feeding crates: iteration order is \
                 nondeterministic; use BTreeMap/BTreeSet or sort before folding"
            }
            RuleId::NoWallClock => {
                "Instant::now/SystemTime in any linted crate: wall-clock time must \
                 never reach report bytes or operator output; use virtual time"
            }
            RuleId::NoRawSpawn => {
                "thread::spawn outside exec::run_ordered: unmanaged threads bypass \
                 the ordered-merge discipline"
            }
            RuleId::NoUnwrapInLib => {
                "unwrap()/expect() in library code: return typed errors, or document \
                 the invariant with expect(\"invariant: ...\")"
            }
            RuleId::FloatFoldOrder => {
                "f64 sum/fold on the merge path: float addition is non-associative; \
                 document the ordered-merge justification"
            }
            RuleId::TodoMarkers => {
                "TODO/FIXME/XXX/HACK markers and todo!/unimplemented! must not ship"
            }
            RuleId::MalformedAllow => {
                "airstat::allow directive without a rule name or reason (a \
                 suppression must say why it is sound)"
            }
            RuleId::ClockArithmeticOverflow => {
                "unchecked <</+/* on virtual-time values (*_s, due, epoch, tick): \
                 one wrap reorders every downstream event; use saturating_* or a \
                 leading_zeros guard"
            }
            RuleId::SeedStreamDiscipline => {
                "duplicate child(\"label\") seed streams in one function, or \
                 rng-derived values used as ordering keys: both couple or reorder \
                 deterministic draws"
            }
            RuleId::UnorderedCollectionEscape => {
                "a HashMap/HashSet (or an iterator over one) escapes the function \
                 that made it: hash order becomes observable; drain it in sorted \
                 order locally or hand out a BTree"
            }
            RuleId::StaleSuppression => {
                "an airstat::allow whose rule no longer fires on the line it \
                 covers: remove it so the audit trail only holds live suppressions"
            }
            RuleId::SchemaSpecDrift => {
                "SEGMENT_SCHEMA_VERSION / SCHEMA_VERSION consts must match the \
                 numbers pinned in docs/SEGMENT_FORMAT.md and docs/LINTS.md"
            }
        }
    }

    /// A paragraph for `--explain <rule>`: what fires, why it matters,
    /// and how to fix or suppress the finding.
    pub fn explain(self) -> &'static str {
        match self {
            RuleId::NoHashmapIter => {
                "Fires on `HashMap`/`HashSet` mentions in aggregate-feeding crates \
                 (struct fields, locals, type positions). Hash iteration order \
                 varies per process, so anything folded out of it breaks the \
                 byte-identity invariant. Since v2, plain `use` imports are exempt, \
                 and a function-local map that is provably drained in sorted order \
                 is exempt too (the parser checks the drain). Fix: use \
                 `BTreeMap`/`BTreeSet`, or sort before folding. Keyed-access-only \
                 sites keep a written `airstat::allow(no-hashmap-iter): reason`."
            }
            RuleId::NoWallClock => {
                "Fires on `Instant`/`SystemTime` in every linted crate; no crate \
                 is exempt. Wall-clock readings differ per run and per host; the \
                 pipeline models time as explicit virtual seconds so campaigns \
                 replay byte-identically and the CLI's stderr is a function of \
                 its flags. Fix: thread virtual time through instead; timing \
                 belongs in `bench/`, which is outside the workspace."
            }
            RuleId::NoRawSpawn => {
                "Fires on `thread::spawn`/`thread::Builder` anywhere but \
                 `exec::run_ordered`, the one executor that merges worker results \
                 in deterministic order. An unmanaged thread races its merge. \
                 Fix: route the work through `exec::run_ordered`."
            }
            RuleId::NoUnwrapInLib => {
                "Fires on `unwrap()` and on `expect()` whose message does not start \
                 with \"invariant: \" in library code (binaries may panic at top \
                 level). Fix: return a typed error, or name the invariant that \
                 makes the panic unreachable: `expect(\"invariant: ...\")`."
            }
            RuleId::FloatFoldOrder => {
                "Fires on `sum::<f64>()` and float-seeded `fold` in the merge-path \
                 crates. Float addition is non-associative, so operand order is \
                 part of the output bytes. Fix: keep the reduction on one ordered \
                 path and justify it with an `airstat::allow` reason."
            }
            RuleId::TodoMarkers => {
                "Fires on TODO/FIXME/XXX/HACK comment markers and `todo!()` / \
                 `unimplemented!()`. Unfinished paths ship as panics or silent \
                 gaps. Fix: finish the work or file it in ROADMAP.md."
            }
            RuleId::MalformedAllow => {
                "Fires on an `airstat::allow` directive that names no known rule or \
                 carries no reason. An unexplained suppression is exactly the \
                 silent invariant leak this tool exists to prevent. Fix: \
                 `// airstat::allow(rule-name): why this site is sound`."
            }
            RuleId::ClockArithmeticOverflow => {
                "Fires on unchecked `<<`, `+`, `*` (and `<<=`, `+=`, `*=`) where \
                 either operand carries virtual-time provenance — identifiers \
                 ending in `_s` or with a `due`/`epoch`/`tick` component, tracked \
                 through `let` bindings — and on `checked_shl`/`wrapping_*` applied \
                 to such values. `checked_shl` guards only the shift *amount*, not \
                 the value wrap: that is the exact PR 8 backoff bug. A raw `<<` is \
                 accepted when the function guards with `leading_zeros` and caps \
                 the result. Fix: `saturating_add`/`saturating_mul`, or the \
                 `leading_zeros` guard pattern from `PollSession::next_backoff_s`."
            }
            RuleId::SeedStreamDiscipline => {
                "Fires when one function draws `child(\"label\")` twice with the \
                 same literal label (two sites silently share one deterministic \
                 stream — inserting a draw in one reorders the other), and when an \
                 rng-derived value flows into an ordering-sensitive sink: a \
                 `sort_by_key`-family closure or an insert key on a hash \
                 collection. Fix: give each call site its own label; never order \
                 by a draw."
            }
            RuleId::UnorderedCollectionEscape => {
                "Fires when a function-local HashMap/HashSet — or an iterator \
                 derived from one — is returned, passed as an argument, or stored \
                 into a struct: from that point its hash order is observable by \
                 code this analysis cannot see. A local map that stays local and \
                 is drained in sorted order is fine (and exempt from \
                 no-hashmap-iter). Fix: collect into a BTree (or sort) before the \
                 value leaves the function."
            }
            RuleId::StaleSuppression => {
                "Fires on an `airstat::allow(rule)` directive when `rule` no longer \
                 produces any finding on the line(s) the directive covers. A stale \
                 allow is a hole waiting for new code to hide in. Fix: delete the \
                 directive; re-add it (with a fresh reason) only if the rule fires \
                 again."
            }
            RuleId::SchemaSpecDrift => {
                "Fires when a `SEGMENT_SCHEMA_VERSION` const disagrees with the \
                 number pinned in docs/SEGMENT_FORMAT.md, or a `SCHEMA_VERSION` \
                 const disagrees with docs/LINTS.md — including when the pin or \
                 the literal initializer is missing, since then the cross-check is \
                 impossible. Wire formats and their specs must move in one commit. \
                 Fix: bump code and spec together."
            }
        }
    }

    /// Whether findings inside `#[cfg(test)]` regions are reported.
    /// Test code may unwrap, hash, and overflow freely; stray work
    /// markers, broken or stale directives, and schema drift are
    /// load-bearing everywhere.
    pub(crate) fn applies_in_tests(self) -> bool {
        matches!(
            self,
            RuleId::TodoMarkers
                | RuleId::MalformedAllow
                | RuleId::StaleSuppression
                | RuleId::SchemaSpecDrift
        )
    }
}

/// Where a file sits in the workspace, as far as rule scoping cares.
#[derive(Debug, Clone)]
pub struct FileContext {
    /// Package name (`airstat` for the root crate).
    pub crate_name: String,
    /// Workspace-relative path with `/` separators.
    pub rel_path: String,
    /// True for binary targets (`src/bin/**`, `src/main.rs`): a CLI may
    /// panic at top level, a library must not.
    pub is_bin: bool,
}

impl FileContext {
    /// Derives the context from a workspace-relative path.
    pub(crate) fn from_rel_path(rel_path: &str) -> FileContext {
        let crate_name = rel_path
            .strip_prefix("crates/")
            .and_then(|rest| rest.split('/').next())
            .unwrap_or("airstat")
            .to_string();
        let is_bin = rel_path.starts_with("src/bin/")
            || rel_path.contains("/src/bin/")
            || rel_path.ends_with("src/main.rs");
        FileContext {
            crate_name,
            rel_path: rel_path.to_string(),
            is_bin,
        }
    }

    /// Whether `rule` is checked at all in this file. The scoping is the
    /// workspace policy, spelled out in `docs/LINTS.md`.
    pub(crate) fn rule_applies(&self, rule: RuleId) -> bool {
        match rule {
            // The one blessed spawn site: the ordered executor.
            RuleId::NoRawSpawn => !self.rel_path.ends_with("airstat-store/src/exec.rs"),
            RuleId::NoUnwrapInLib => !self.is_bin,
            // Cross-container f64 reductions only happen on the
            // aggregation/merge path; slice math elsewhere is ordered by
            // construction.
            RuleId::FloatFoldOrder => matches!(
                self.crate_name.as_str(),
                "airstat-core" | "airstat-store" | "airstat-telemetry"
            ),
            RuleId::NoHashmapIter
            | RuleId::NoWallClock
            | RuleId::ClockArithmeticOverflow
            | RuleId::SeedStreamDiscipline
            | RuleId::UnorderedCollectionEscape
            | RuleId::TodoMarkers
            | RuleId::MalformedAllow
            | RuleId::StaleSuppression
            | RuleId::SchemaSpecDrift => true,
        }
    }
}

/// One rule hit before suppression is applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawFinding {
    /// Which rule fired.
    pub rule: RuleId,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human explanation, specific to the site.
    pub message: String,
}

/// Runs every applicable generation-1 pattern rule over a token stream.
///
/// `in_test` marks, per token index, whether the token sits inside a
/// `#[cfg(test)]` region (see `engine::test_regions`).
/// `hashmap_exempt` lists lines where the parser layer has taken over
/// `no-hashmap-iter` (plain `use` imports; locals with a proven sorted
/// drain; locals the escape rule already reports). The
/// `malformed-allow` rule is not checked here — it falls out of
/// directive parsing in the engine.
pub(crate) fn check_tokens(
    ctx: &FileContext,
    tokens: &[Token],
    in_test: &[bool],
    hashmap_exempt: &[u32],
) -> Vec<RawFinding> {
    let mut out = Vec::new();
    // Significant (non-comment) token indices, for pattern matching.
    let sig: Vec<usize> = (0..tokens.len())
        .filter(|&i| !tokens[i].is_comment() && tokens[i].kind != TokenKind::Error)
        .collect();
    let tok = |k: usize| -> &Token { &tokens[sig[k]] };
    let is_ident = |k: usize, text: &str| tok(k).kind == TokenKind::Ident && tok(k).text == text;
    let is_punct = |k: usize, text: &str| tok(k).kind == TokenKind::Punct && tok(k).text == text;

    let mut push = |rule: RuleId, t: &Token, message: String| {
        out.push(RawFinding {
            rule,
            line: t.line,
            col: t.col,
            message,
        });
    };

    // Per-(rule, line) dedup so one declaration line with two mentions
    // reports (and needs suppressing) once.
    let mut seen_lines: Vec<(RuleId, u32)> = Vec::new();

    for k in 0..sig.len() {
        let t = tok(k);
        let skip_tests = |rule: RuleId| !rule.applies_in_tests() && in_test[sig[k]];

        if ctx.rule_applies(RuleId::NoHashmapIter)
            && !skip_tests(RuleId::NoHashmapIter)
            && t.kind == TokenKind::Ident
            && (t.text == "HashMap" || t.text == "HashSet")
            && !hashmap_exempt.contains(&t.line)
            && !seen_lines.contains(&(RuleId::NoHashmapIter, t.line))
        {
            seen_lines.push((RuleId::NoHashmapIter, t.line));
            push(
                RuleId::NoHashmapIter,
                t,
                format!(
                    "`{}` in aggregate-feeding code: iteration order varies per process; \
                     use `BTreeMap`/`BTreeSet`, or keep it keyed-access-only and say so",
                    t.text
                ),
            );
        }

        if ctx.rule_applies(RuleId::NoWallClock)
            && !skip_tests(RuleId::NoWallClock)
            && t.kind == TokenKind::Ident
            && (t.text == "Instant" || t.text == "SystemTime")
        {
            push(
                RuleId::NoWallClock,
                t,
                format!(
                    "`{}` in virtual-time code: wall-clock readings differ per run and \
                     must never reach an aggregate",
                    t.text
                ),
            );
        }

        if ctx.rule_applies(RuleId::NoRawSpawn)
            && !skip_tests(RuleId::NoRawSpawn)
            && k + 2 < sig.len()
            && is_ident(k, "thread")
            && is_punct(k + 1, ":")
            && is_punct(k + 2, ":")
            && k + 3 < sig.len()
            && (is_ident(k + 3, "spawn") || is_ident(k + 3, "Builder"))
        {
            push(
                RuleId::NoRawSpawn,
                t,
                "raw thread creation: all parallelism goes through `exec::run_ordered` \
                 so results merge in deterministic order"
                    .to_string(),
            );
        }

        if ctx.rule_applies(RuleId::NoUnwrapInLib)
            && !skip_tests(RuleId::NoUnwrapInLib)
            && k > 0
            && is_punct(k - 1, ".")
            && k + 1 < sig.len()
            && is_punct(k + 1, "(")
        {
            if is_ident(k, "unwrap") {
                push(
                    RuleId::NoUnwrapInLib,
                    t,
                    "`unwrap()` in library code: return a typed error, or use \
                     `expect(\"invariant: ...\")` naming the invariant that holds"
                        .to_string(),
                );
            } else if is_ident(k, "expect") {
                let documented = k + 2 < sig.len()
                    && tok(k + 2).kind == TokenKind::Str
                    && tok(k + 2).str_contents().starts_with("invariant:");
                if !documented {
                    push(
                        RuleId::NoUnwrapInLib,
                        t,
                        "`expect()` in library code must carry a string literal starting \
                         with \"invariant: \" naming why it cannot fail"
                            .to_string(),
                    );
                }
            }
        }

        if ctx.rule_applies(RuleId::FloatFoldOrder) && !skip_tests(RuleId::FloatFoldOrder) {
            let sum_over_float = (is_ident(k, "sum") || is_ident(k, "product"))
                && k + 4 < sig.len()
                && is_punct(k + 1, ":")
                && is_punct(k + 2, ":")
                && is_punct(k + 3, "<")
                && (is_ident(k + 4, "f64") || is_ident(k + 4, "f32"));
            let fold_over_float = is_ident(k, "fold")
                && k > 0
                && is_punct(k - 1, ".")
                && k + 1 < sig.len()
                && is_punct(k + 1, "(")
                && (k + 2..sig.len().min(k + 14)).any(|j| {
                    (tok(j).kind == TokenKind::Ident
                        && (tok(j).text == "f64" || tok(j).text == "f32"))
                        || (tok(j).kind == TokenKind::Num
                            && (tok(j).text.ends_with("f64") || tok(j).text.ends_with("f32")))
                });
            if sum_over_float || fold_over_float {
                push(
                    RuleId::FloatFoldOrder,
                    t,
                    "float reduction on the merge path: addition order changes the bytes; \
                     justify the operand order with an airstat::allow reason"
                        .to_string(),
                );
            }
        }

        if ctx.rule_applies(RuleId::TodoMarkers)
            && (is_ident(k, "todo") || is_ident(k, "unimplemented"))
            && k + 1 < sig.len()
            && is_punct(k + 1, "!")
        {
            push(
                RuleId::TodoMarkers,
                t,
                format!("`{}!` must not ship: finish it or file it", t.text),
            );
        }
    }

    // Work markers in comments (directives are parsed separately).
    if ctx.rule_applies(RuleId::TodoMarkers) {
        for t in tokens.iter().filter(|t| t.is_comment()) {
            if let Some(marker) = find_marker(&t.text) {
                push(
                    RuleId::TodoMarkers,
                    t,
                    format!("`{marker}` marker in comment: finish it or file it"),
                );
            }
        }
    }

    out
}

/// Finds the first whole-word work marker in a comment.
fn find_marker(text: &str) -> Option<&'static str> {
    for marker in ["TODO", "FIXME", "XXX", "HACK"] {
        let mut from = 0;
        while let Some(at) = text[from..].find(marker) {
            let start = from + at;
            let end = start + marker.len();
            let before = text[..start].chars().next_back();
            let after = text[end..].chars().next();
            let bounded =
                |c: Option<char>| !matches!(c, Some(c) if c.is_alphanumeric() || c == '_');
            if bounded(before) && bounded(after) {
                return Some(marker);
            }
            from = end;
        }
    }
    None
}

/// Version numbers pinned in the spec documents, for
/// [`RuleId::SchemaSpecDrift`]. Parsed once per audit from
/// `docs/SEGMENT_FORMAT.md` and `docs/LINTS.md`.
#[derive(Debug, Clone, Default)]
pub struct DocPins {
    /// `SEGMENT_SCHEMA_VERSION: <n>` from docs/SEGMENT_FORMAT.md.
    pub segment_format: Option<u64>,
    /// `SCHEMA_VERSION: <n>` from docs/LINTS.md.
    pub lints_json: Option<u64>,
    /// Whether any spec document was found at all. With no docs (fixture
    /// audits of bare snippets) the drift rule stays silent.
    pub have_docs: bool,
}

impl DocPins {
    /// Parses the pins out of the two spec documents, each optional.
    pub fn parse(segment_format_md: Option<&str>, lints_md: Option<&str>) -> DocPins {
        DocPins {
            segment_format: segment_format_md
                .and_then(|text| pin_value(text, "SEGMENT_SCHEMA_VERSION")),
            lints_json: lints_md.and_then(|text| pin_value(text, "SCHEMA_VERSION")),
            have_docs: segment_format_md.is_some() || lints_md.is_some(),
        }
    }
}

/// Finds `<needle>[`: *=|]* <digits>` in prose, requiring a word
/// boundary before the needle so `SCHEMA_VERSION` does not match inside
/// `SEGMENT_SCHEMA_VERSION`. The first occurrence followed by a number
/// wins — spec docs lead with a canonical pin line.
fn pin_value(text: &str, needle: &str) -> Option<u64> {
    let bytes = text.as_bytes();
    let mut from = 0;
    while let Some(at) = text[from..].find(needle) {
        let start = from + at;
        let end = start + needle.len();
        from = end;
        if start > 0 {
            let prev = bytes[start - 1] as char;
            if prev.is_ascii_alphanumeric() || prev == '_' {
                continue;
            }
        }
        let tail = text[end..].trim_start_matches(['`', '*', ' ', ':', '=', '|']);
        let digits: String = tail.chars().take_while(char::is_ascii_digit).collect();
        if let Ok(v) = digits.parse() {
            return Some(v);
        }
    }
    None
}

/// What the generation-2 AST pass produced for one file.
#[derive(Debug, Default)]
pub struct AstAnalysis {
    /// Generation-2 rule hits.
    pub findings: Vec<RawFinding>,
    /// Lines where the token-level `no-hashmap-iter` must stand down:
    /// `use` imports, hash locals with a proven sorted drain, and hash
    /// locals the escape rule already reports.
    pub hashmap_exempt_lines: Vec<u32>,
}

/// Runs the generation-2 rules over one parsed file.
///
/// `test_lines[line]` says whether that 1-based line sits in a
/// `#[cfg(test)]` region; `symbols` is the per-file symbol view (the
/// engine aggregates the workspace table); `pins` carries the spec-doc
/// version numbers for the drift rule.
pub(crate) fn check_ast(
    ctx: &FileContext,
    file: &parser::File,
    symbols: &SymbolTable,
    test_lines: &[bool],
    pins: &DocPins,
) -> AstAnalysis {
    let mut out = AstAnalysis::default();

    // Plain imports stop feeding no-hashmap-iter: importing a hash type
    // is not the hazard — declaring or iterating one is.
    if ctx.rule_applies(RuleId::NoHashmapIter) {
        collect_use_lines(&file.items, &mut out.hashmap_exempt_lines);
    }

    let in_test =
        |span: Span| -> bool { test_lines.get(span.line as usize).copied().unwrap_or(false) };

    parser::for_each_fn(&file.items, &mut |f| {
        let fn_in_test = in_test(f.span);
        let Some(body) = &f.body else {
            return;
        };
        let flow = FnFlow::analyze(f);
        if ctx.rule_applies(RuleId::ClockArithmeticOverflow) && !fn_in_test {
            clock_check(body, &flow, &mut out.findings);
        }
        if ctx.rule_applies(RuleId::SeedStreamDiscipline) && !fn_in_test {
            seed_check(body, &flow, &mut out.findings);
        }
        if ctx.rule_applies(RuleId::UnorderedCollectionEscape) && !fn_in_test {
            escape_check(
                body,
                &flow,
                &mut out.findings,
                &mut out.hashmap_exempt_lines,
            );
        }
    });

    if ctx.rule_applies(RuleId::SchemaSpecDrift) && pins.have_docs {
        drift_check(symbols, pins, &mut out.findings);
    }

    out.hashmap_exempt_lines.sort_unstable();
    out.hashmap_exempt_lines.dedup();
    out
}

fn collect_use_lines(items: &[Item], out: &mut Vec<u32>) {
    for item in items {
        match item {
            Item::Use(span, end_line) => out.extend(span.line..=*end_line),
            Item::Mod(m) => collect_use_lines(&m.items, out),
            Item::Impl(i) => collect_use_lines(&i.items, out),
            _ => {}
        }
    }
}

/// Operands that live in float space do not wrap — they saturate to
/// infinity — so float math never triggers the clock rule.
fn is_floatish(e: &Expr) -> bool {
    match e {
        Expr::Lit(TokenKind::Num, text, _) => {
            text.contains('.') || text.ends_with("f64") || text.ends_with("f32")
        }
        Expr::Cast(_, ty, _) => ty.contains("f64") || ty.contains("f32"),
        Expr::Binary { lhs, rhs, .. } => is_floatish(lhs) || is_floatish(rhs),
        _ => false,
    }
}

/// clock-arithmetic-overflow: the PR 8 bug class.
fn clock_check(body: &Block, flow: &FnFlow, out: &mut Vec<RawFinding>) {
    // A `leading_zeros` call anywhere in the function is the sanctioned
    // shift guard (the PR 8 *fix* shape): it bounds the shift by the
    // value's magnitude, which `checked_shl` does not.
    let mut has_lz_guard = false;
    parser::walk_block(body, &mut |e| {
        if let Expr::MethodCall { name, .. } = e {
            if name == "leading_zeros" {
                has_lz_guard = true;
            }
        }
    });

    // Expressions touching a declared-float parameter live entirely in
    // float space (the token-bucket style `now_s: f64` clocks): they
    // saturate to infinity instead of wrapping.
    let touches_float = |e: &Expr| flow.float_params.iter().any(|p| mentions(e, p));

    parser::walk_block(body, &mut |e| match e {
        Expr::Binary { op, lhs, rhs, span }
            if matches!(op.as_str(), "<<" | "+" | "*")
                && (flow.flags_of(lhs) | flow.flags_of(rhs)) & TIME != 0
                && !is_floatish(lhs)
                && !is_floatish(rhs)
                && !touches_float(lhs)
                && !touches_float(rhs) =>
        {
            if op == "<<" && has_lz_guard {
                return;
            }
            out.push(RawFinding {
                rule: RuleId::ClockArithmeticOverflow,
                line: span.line,
                col: span.col,
                message: clock_message(op),
            });
        }
        Expr::Assign { op, lhs, span, .. }
            if matches!(op.as_str(), "+=" | "*=" | "<<=") && flow.flags_of(lhs) & TIME != 0 =>
        {
            if op == "<<=" && has_lz_guard {
                return;
            }
            out.push(RawFinding {
                rule: RuleId::ClockArithmeticOverflow,
                line: span.line,
                col: span.col,
                message: clock_message(op.trim_end_matches('=')),
            });
        }
        Expr::MethodCall {
            recv, name, span, ..
        } if matches!(
            name.as_str(),
            "checked_shl" | "wrapping_shl" | "wrapping_add" | "wrapping_mul"
        ) && flow.flags_of(recv) & TIME != 0 =>
        {
            let message = if name == "checked_shl" {
                "`checked_shl` on a virtual-time value guards only the shift amount, \
                 not the value wrap — the exact PR 8 backoff bug; guard with \
                 `leading_zeros` and cap the result instead"
                    .to_string()
            } else {
                format!(
                    "`{name}` silently wraps a virtual-time value and reorders every \
                     event after the wrap; use the `saturating_*` form"
                )
            };
            out.push(RawFinding {
                rule: RuleId::ClockArithmeticOverflow,
                line: span.line,
                col: span.col,
                message,
            });
        }
        _ => {}
    });
}

fn clock_message(op: &str) -> String {
    let fix = match op {
        "<<" => "guard with `leading_zeros` and cap, or use `saturating_mul`",
        "*" => "use `saturating_mul`",
        _ => "use `saturating_add`",
    };
    format!(
        "unchecked `{op}` on a virtual-time value: one overflow wraps the clock \
         and reorders every downstream event; {fix}"
    )
}

/// seed-stream-discipline: duplicate `child("label")` streams and
/// rng-derived ordering keys.
fn seed_check(body: &Block, flow: &FnFlow, out: &mut Vec<RawFinding>) {
    let mut labels: BTreeMap<String, Span> = BTreeMap::new();
    parser::walk_block(body, &mut |e| {
        let Expr::MethodCall {
            name, args, span, ..
        } = e
        else {
            return;
        };
        match name.as_str() {
            "child" => {
                if let [Expr::Lit(TokenKind::Str, label, _)] = args.as_slice() {
                    if let Some(first) = labels.get(label) {
                        out.push(RawFinding {
                            rule: RuleId::SeedStreamDiscipline,
                            line: span.line,
                            col: span.col,
                            message: format!(
                                "duplicate seed stream: `child({label})` already drawn at \
                                 line {}; two sites sharing one label couple their draws — \
                                 give each call site its own label",
                                first.line
                            ),
                        });
                    } else {
                        labels.insert(label.clone(), *span);
                    }
                }
            }
            "sort_by_key"
            | "sort_unstable_by_key"
            | "sort_by"
            | "min_by_key"
            | "max_by_key"
            | "binary_search_by_key" => {
                for arg in args {
                    let Expr::Closure {
                        body: closure_body, ..
                    } = arg
                    else {
                        continue;
                    };
                    let mut rng_used = false;
                    parser::walk_expr(closure_body, &mut |inner| {
                        if flow.flags_of(inner) & RNG != 0 {
                            rng_used = true;
                        }
                    });
                    if rng_used {
                        out.push(RawFinding {
                            rule: RuleId::SeedStreamDiscipline,
                            line: span.line,
                            col: span.col,
                            message: format!(
                                "rng-derived value inside a `{name}` key: ordering by a \
                                 draw makes element order depend on the seed stream's \
                                 state; order by a stable field instead"
                            ),
                        });
                    }
                }
            }
            "insert" if flow.flags_of(recv_of(e)) & HASH != 0 => {
                if let Some(key) = args.first() {
                    if flow.flags_of(key) & RNG != 0 {
                        out.push(RawFinding {
                            rule: RuleId::SeedStreamDiscipline,
                            line: span.line,
                            col: span.col,
                            message: "rng-derived key inserted into a hash collection: \
                                      the pairing of draws and hash order is untrackable; \
                                      key a BTree by a stable value instead"
                                .to_string(),
                        });
                    }
                }
            }
            _ => {}
        }
    });
}

/// The receiver of a method call (caller guarantees the variant).
fn recv_of(e: &Expr) -> &Expr {
    match e {
        Expr::MethodCall { recv, .. } => recv,
        _ => e,
    }
}

/// The single-segment path name an expression roots at, looking through
/// `&`/`*`/casts/`?`, if any.
fn path_root(e: &Expr) -> Option<&str> {
    match e {
        Expr::Path { segs, .. } => match segs.as_slice() {
            [single] => Some(single),
            _ => None,
        },
        Expr::Unary(_, inner, _) | Expr::Cast(inner, _, _) | Expr::Try(inner, _) => {
            path_root(inner)
        }
        _ => None,
    }
}

/// Whether `name` occurs as a bare path anywhere inside `e`.
fn mentions(e: &Expr, name: &str) -> bool {
    let mut hit = false;
    parser::walk_expr(e, &mut |inner| {
        if let Expr::Path { segs, .. } = inner {
            if let [single] = segs.as_slice() {
                if single == name {
                    hit = true;
                }
            }
        }
    });
    hit
}

/// unordered-collection-escape, plus the sorted-drain exemption that
/// kills the generation-1 rule's false positives.
fn escape_check(
    body: &Block,
    flow: &FnFlow,
    out: &mut Vec<RawFinding>,
    exempt_lines: &mut Vec<u32>,
) {
    if flow.hash_locals.is_empty() && !flow.locals.values().any(|&fl| fl & (HASH | HASH_ITER) != 0)
    {
        return;
    }

    // Fn-wide sorted evidence: a sort call or a BTree collection point
    // anywhere in the body. Coarse on purpose — the exemption only
    // stands down a *warning*; the escape check below stays exact.
    let mut sorted_evidence = false;
    let mut iterated: Vec<String> = Vec::new();
    let mut sorted_locals: Vec<String> = Vec::new();
    parser::walk_block(body, &mut |e| match e {
        Expr::MethodCall {
            recv,
            name,
            turbofish,
            ..
        } => {
            if name.starts_with("sort") || (name == "collect" && turbofish.contains("BTree")) {
                sorted_evidence = true;
                if let Some(root) = path_root(recv) {
                    sorted_locals.push(root.to_string());
                }
            }
            if matches!(
                name.as_str(),
                "iter" | "iter_mut" | "into_iter" | "keys" | "values" | "values_mut" | "drain"
            ) {
                if let Some(root) = path_root(recv) {
                    iterated.push(root.to_string());
                }
            }
        }
        Expr::For { iter, .. } => {
            if let Some(root) = path_root(iter) {
                iterated.push(root.to_string());
            }
        }
        _ => {}
    });
    let mut let_btree = false;
    for stmt in &body.stmts {
        if let Stmt::Let { ty, .. } = stmt {
            if ty.contains("BTree") {
                let_btree = true;
            }
        }
    }
    sorted_evidence |= let_btree;

    // Escape positions: returned, tail expression, call/method
    // arguments, struct-literal fields, stores into fields.
    let mut reported: Vec<Span> = Vec::new();
    parser::walk_block(body, &mut |e| match e {
        Expr::Return(Some(inner), _) => {
            record_escape(
                inner,
                flow,
                &sorted_locals,
                &mut reported,
                out,
                exempt_lines,
            );
        }
        Expr::Call { args, .. } | Expr::MethodCall { args, .. } | Expr::Macro { args, .. } => {
            for arg in args {
                record_escape(arg, flow, &sorted_locals, &mut reported, out, exempt_lines);
            }
        }
        Expr::StructLit { fields, .. } => {
            for (_, value) in fields {
                record_escape(
                    value,
                    flow,
                    &sorted_locals,
                    &mut reported,
                    out,
                    exempt_lines,
                );
            }
        }
        Expr::Assign { op, lhs, rhs, .. }
            if op == "=" && matches!(lhs.as_ref(), Expr::Field(..)) =>
        {
            record_escape(rhs, flow, &sorted_locals, &mut reported, out, exempt_lines);
        }
        _ => {}
    });
    if let Some(Stmt::Expr {
        expr,
        has_semi: false,
    }) = body.stmts.last()
    {
        record_escape(expr, flow, &sorted_locals, &mut reported, out, exempt_lines);
    }

    // Locally drained in sorted order, never escaping: the collection
    // is fine — stand the generation-1 warning down.
    if reported.is_empty() && sorted_evidence {
        for (name, decl) in &flow.hash_locals {
            if iterated.iter().any(|n| n == name) {
                exempt_lines.push(decl.line);
            }
        }
    }
}

/// Reports one escape site (if the expression carries hash order) and
/// stands the declaration-site warning down for the locals involved.
fn record_escape(
    expr: &Expr,
    flow: &FnFlow,
    sorted_locals: &[String],
    reported: &mut Vec<Span>,
    out: &mut Vec<RawFinding>,
    exempt_lines: &mut Vec<u32>,
) {
    if flow.flags_of(expr) & (HASH | HASH_ITER) == 0 {
        return;
    }
    // A local that is sorted somewhere in this function has had its
    // order canonicalized before it leaves (collect-then-sort-then-
    // return); the taint stops at the sort.
    if let Some(root) = path_root(expr) {
        if sorted_locals.iter().any(|s| s == root) {
            return;
        }
    }
    let span = expr.span();
    if reported.contains(&span) {
        return;
    }
    reported.push(span);
    out.push(RawFinding {
        rule: RuleId::UnorderedCollectionEscape,
        line: span.line,
        col: span.col,
        message: "hash-ordered collection (or an iterator over one) escapes this \
                  function: its iteration order becomes observable downstream; \
                  collect into a BTree (or sort) before it leaves"
            .to_string(),
    });
    // The escape finding supersedes the declaration-site warning.
    for (name, decl) in &flow.hash_locals {
        if mentions(expr, name) {
            exempt_lines.push(decl.line);
        }
    }
}

/// schema-spec-drift: code constants vs. the pinned spec numbers.
fn drift_check(symbols: &SymbolTable, pins: &DocPins, out: &mut Vec<RawFinding>) {
    for m in symbols.modules.values() {
        for c in &m.consts {
            let last = c.name.rsplit("::").next().unwrap_or(&c.name);
            let (pin, doc) = match last {
                "SEGMENT_SCHEMA_VERSION" => (pins.segment_format, "docs/SEGMENT_FORMAT.md"),
                "SCHEMA_VERSION" => (pins.lints_json, "docs/LINTS.md"),
                _ => continue,
            };
            let message = match (c.value, pin) {
                (Some(v), Some(p)) if v != p => format!(
                    "`{last}` = {v} drifts from the pin {p} in {doc}: wire format and \
                     spec must move in one commit — update both together"
                ),
                (Some(v), None) => format!(
                    "`{last}` = {v} has no parseable pin in {doc}: add a \
                     `{last}: {v}` line so the spec stays cross-checked"
                ),
                (None, _) => format!(
                    "`{last}` must be initialized with an integer literal so the \
                     {doc} pin can be cross-checked"
                ),
                _ => continue,
            };
            out.push(RawFinding {
                rule: RuleId::SchemaSpecDrift,
                line: c.span.line,
                col: c.span.col,
                message,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn check(path: &str, src: &str) -> Vec<RawFinding> {
        let tokens = lex(src);
        let in_test = vec![false; tokens.len()];
        check_tokens(&FileContext::from_rel_path(path), &tokens, &in_test, &[])
    }

    #[test]
    fn rule_names_roundtrip() {
        for rule in RuleId::ALL {
            assert_eq!(RuleId::from_name(rule.name()), Some(rule));
        }
        assert_eq!(RuleId::from_name("nope"), None);
    }

    #[test]
    fn generations_partition_the_catalogue() {
        let gen1 = RuleId::ALL.iter().filter(|r| r.generation() == 1).count();
        let gen2 = RuleId::ALL.iter().filter(|r| r.generation() == 2).count();
        assert_eq!((gen1, gen2), (7, 5));
    }

    #[test]
    fn hashmap_flagged_once_per_line() {
        let hits = check(
            "crates/airstat-store/src/x.rs",
            "use std::collections::{HashMap, HashSet};\nlet m: HashMap<u8, u8>;",
        );
        let hm: Vec<_> = hits
            .iter()
            .filter(|f| f.rule == RuleId::NoHashmapIter)
            .collect();
        assert_eq!(hm.len(), 2); // one per line, not one per mention
    }

    #[test]
    fn hashmap_exempt_lines_stand_down() {
        let tokens = lex("use std::collections::HashMap;\nlet m: HashMap<u8, u8>;");
        let in_test = vec![false; tokens.len()];
        let hits = check_tokens(
            &FileContext::from_rel_path("crates/airstat-store/src/x.rs"),
            &tokens,
            &in_test,
            &[1],
        );
        let hm: Vec<_> = hits
            .iter()
            .filter(|f| f.rule == RuleId::NoHashmapIter)
            .collect();
        assert_eq!(hm.len(), 1);
        assert_eq!(hm[0].line, 2);
    }

    #[test]
    fn expect_requires_invariant_prefix() {
        let bad = check("crates/airstat-rf/src/x.rs", "x.expect(\"oops\");");
        assert_eq!(bad.len(), 1);
        let good = check(
            "crates/airstat-rf/src/x.rs",
            "x.expect(\"invariant: checked above\");",
        );
        assert!(good.is_empty(), "{good:?}");
    }

    #[test]
    fn unwrap_or_variants_not_flagged() {
        let hits = check(
            "crates/airstat-rf/src/x.rs",
            "x.unwrap_or(0); x.unwrap_or_default(); x.unwrap_or_else(f);",
        );
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn bin_targets_may_unwrap() {
        assert!(check("src/bin/airstat.rs", "x.unwrap();").is_empty());
        assert!(!check("src/lib.rs", "x.unwrap();").is_empty());
    }

    #[test]
    fn float_fold_scoped_to_merge_crates() {
        let src = "v.iter().sum::<f64>();";
        assert_eq!(check("crates/airstat-core/src/x.rs", src).len(), 1);
        assert!(check("crates/airstat-rf/src/x.rs", src).is_empty());
        // fold seeded with a float counts; integer folds don't.
        let foldf = "v.iter().fold(0.0f64, |a, b| a + b);";
        assert_eq!(check("crates/airstat-store/src/x.rs", foldf).len(), 1);
        let foldu = "v.iter().fold(0u64, |a, b| a + b);";
        assert!(check("crates/airstat-store/src/x.rs", foldu).is_empty());
    }

    #[test]
    fn spawn_matched_through_path() {
        let hits = check("crates/airstat-sim/src/x.rs", "std::thread::spawn(|| {});");
        assert_eq!(hits.len(), 1);
        assert!(check("crates/airstat-store/src/exec.rs", "thread::spawn(f);").is_empty());
    }

    #[test]
    fn todo_markers_word_bounded() {
        let hits = check(
            "crates/airstat-sim/src/x.rs",
            "// TODO: later\nlet XXXL = 1;",
        );
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("TODO"));
    }

    #[test]
    fn doc_pin_parsing_requires_word_boundary() {
        let doc = "\
The header stores `SEGMENT_SCHEMA_VERSION` in code and this spec together.

Current schema — SEGMENT_SCHEMA_VERSION: 2
";
        assert_eq!(pin_value(doc, "SEGMENT_SCHEMA_VERSION"), Some(2));
        // `SCHEMA_VERSION` must not match inside the longer name.
        assert_eq!(pin_value(doc, "SCHEMA_VERSION"), None);
        assert_eq!(pin_value("SCHEMA_VERSION: 7", "SCHEMA_VERSION"), Some(7));
        assert_eq!(
            pin_value("| `SCHEMA_VERSION` | 3 |", "SCHEMA_VERSION"),
            Some(3)
        );
    }

    // Generation-2 rule units live in tests/corpus.rs against full
    // fixture files; these smoke-check the helpers.

    #[test]
    fn floatish_detection() {
        use crate::parser::parse;
        let file = parse(&lex("fn f() { let x = a_s * 0.5; }"));
        let Item::Fn(f) = &file.items[0] else {
            panic!("fn");
        };
        let Some(body) = &f.body else { panic!("body") };
        let mut found = false;
        parser::walk_block(body, &mut |e| {
            if let Expr::Binary { rhs, .. } = e {
                found = true;
                assert!(is_floatish(rhs));
            }
        });
        assert!(found);
    }
}
