//! Intraprocedural value-provenance dataflow.
//!
//! The generation-2 rules reason about *where a value came from*, not
//! just what a line looks like. This pass walks one function body and
//! assigns each `let`-bound local a small set of provenance flags:
//!
//! - [`TIME`] — virtual-time or backoff magnitudes (the PR 8 bug
//!   class): names ending in `_s`, or with a `due`/`epoch`/`tick`
//!   snake-case component (`ticks` is deliberately excluded — it names
//!   stats counters, not clock values).
//! - [`RNG`] — values drawn from the deterministic seed tree
//!   (`child(..)`, `next_u64()`, `gen_range(..)`, `rng`/`seed`-named
//!   sources).
//! - [`HASH`] — a `HashMap`/`HashSet` value itself.
//! - [`HASH_ITER`] — an iterator (or loop binding) derived from a hash
//!   collection, whose order is nondeterministic.
//!
//! Flags propagate forward through `let` bindings, arithmetic, method
//! chains, and `for` patterns. The analysis is deliberately flow- and
//! scope-insensitive within one function (a flat name → flags map,
//! iterated to a fixed point): for lint-sized functions the
//! over-approximation is tiny, and every rule that consumes these
//! flags fires only on a *specific operator applied to a flagged
//! value*, so the imprecision costs at most an `airstat::allow` with a
//! written reason — never a missed bug.

use crate::parser::{Block, Expr, FnItem, Span, Stmt};
use std::collections::BTreeMap;

/// Virtual-time / backoff provenance.
pub const TIME: u8 = 1;
/// Deterministic-RNG provenance.
pub const RNG: u8 = 1 << 1;
/// The value is a hash-ordered collection.
pub const HASH: u8 = 1 << 2;
/// The value iterates a hash-ordered collection.
pub const HASH_ITER: u8 = 1 << 3;

/// Whether an identifier names a virtual-time quantity.
///
/// Matches `*_s` suffixes (`now_s`, `backoff_cap_s`) and the
/// snake-case components `due`, `epoch`, `tick` — but not `ticks`,
/// which the workspace uses for iteration counters.
pub(crate) fn is_time_name(name: &str) -> bool {
    let lower = name.to_ascii_lowercase();
    // Rates and budgets are *per* unit time, not instants on the clock:
    // `rate_bytes_per_s` and `admit_per_tick` wrapping would be a
    // counting bug, not a clock-reordering bug, so they stay out of the
    // TIME class.
    if lower
        .split('_')
        .any(|c| matches!(c, "per" | "rate" | "budget" | "quota" | "count"))
    {
        return false;
    }
    if lower.ends_with("_s") {
        return true;
    }
    lower
        .split('_')
        .any(|c| matches!(c, "due" | "epoch" | "tick"))
}

/// Whether an identifier names an RNG / seed-stream source.
pub(crate) fn is_rng_name(name: &str) -> bool {
    let lower = name.to_ascii_lowercase();
    lower
        .split('_')
        .any(|c| matches!(c, "rng" | "seed" | "rand"))
}

/// Whether flattened type text denotes a hash-ordered collection.
pub(crate) fn is_hash_type(ty: &str) -> bool {
    ty.contains("HashMap") || ty.contains("HashSet")
}

/// Whether flattened type text could hold an integer clock value.
///
/// Unknown (empty) types trust the name heuristic; a declared
/// non-integer type (`f64`, a struct) overrules it — `now_s: f64`
/// saturates to infinity instead of wrapping, and `epoch:
/// NeighborEpoch` is a struct named after the concept, not a tick.
pub(crate) fn is_integer_type(ty: &str) -> bool {
    ty.is_empty()
        || ty.split(|c: char| !c.is_ascii_alphanumeric()).any(|t| {
            matches!(
                t,
                "u8" | "u16"
                    | "u32"
                    | "u64"
                    | "u128"
                    | "usize"
                    | "i8"
                    | "i16"
                    | "i32"
                    | "i64"
                    | "i128"
                    | "isize"
            )
        })
}

/// Methods that draw from the deterministic RNG stream.
fn is_rng_method(name: &str) -> bool {
    matches!(
        name,
        "child" | "next_u32" | "next_u64" | "next_f64" | "gen" | "gen_range" | "sample"
    )
}

/// Methods that iterate a collection (order-sensitive on hash types).
fn is_iter_method(name: &str) -> bool {
    matches!(
        name,
        "iter" | "iter_mut" | "into_iter" | "keys" | "values" | "values_mut" | "drain" | "entries"
    )
}

/// The provenance result for one function body.
#[derive(Debug, Default)]
pub struct FnFlow {
    /// Flags per `let`-bound (or `for`-bound) local name.
    pub locals: BTreeMap<String, u8>,
    /// Hash-collection locals: name → span of the declaring `let`.
    pub hash_locals: BTreeMap<String, Span>,
    /// Parameters declared `f32`/`f64`: float clock arithmetic
    /// saturates to infinity rather than wrapping, so the clock rule
    /// stands down on expressions touching these.
    pub float_params: Vec<String>,
}

impl FnFlow {
    /// Runs the pass over a function. Two forward sweeps reach the
    /// fixed point because flags only ever grow and bindings are
    /// processed in source order.
    pub(crate) fn analyze(f: &FnItem) -> FnFlow {
        let mut flow = FnFlow::default();
        for (name, ty) in &f.params {
            if name.is_empty() {
                continue;
            }
            let mut fl = seed_flags_for_name(name);
            if fl & TIME != 0 && !is_integer_type(ty) {
                fl &= !TIME;
            }
            if is_hash_type(ty) {
                fl |= HASH;
            }
            if ty.contains("Rng") || ty.contains("Seed") {
                fl |= RNG;
            }
            if ty
                .split(|c: char| !c.is_ascii_alphanumeric())
                .any(|t| matches!(t, "f32" | "f64"))
            {
                flow.float_params.push(name.clone());
            }
            // Parameters always get an explicit entry — a declared-type
            // verdict (even "no flags") beats the bare name heuristic.
            flow.locals.insert(name.clone(), fl);
        }
        if let Some(body) = &f.body {
            for _ in 0..2 {
                flow.scan_block(body);
            }
        }
        flow
    }

    /// Provenance flags of an expression under the current bindings.
    pub(crate) fn flags_of(&self, e: &Expr) -> u8 {
        match e {
            Expr::Path { segs, .. } => {
                // An explicit binding verdict beats the name heuristic:
                // a parameter seeded 0 (declared non-integer) must not
                // be resurrected by its own name.
                if let [single] = segs.as_slice() {
                    if let Some(&fl) = self.locals.get(single) {
                        return fl;
                    }
                }
                let mut fl = 0;
                if let Some(last) = segs.last() {
                    fl |= seed_flags_for_name(last);
                    if last == "HashMap" || last == "HashSet" {
                        fl |= HASH;
                    }
                }
                fl
            }
            Expr::Field(base, name, _) => {
                // A field of a hash local is not itself hash-ordered,
                // but rng provenance survives projection.
                seed_flags_for_name(name) | (self.flags_of(base) & RNG)
            }
            Expr::MethodCall { recv, name, .. } => {
                let rf = self.flags_of(recv);
                let mut fl = seed_flags_for_name(name);
                // `child` always splits the seed stream; other RNG
                // methods count only on an RNG-flagged receiver.
                if name == "child" || (is_rng_method(name) && rf & RNG != 0) {
                    fl |= RNG;
                }
                if is_iter_method(name) && rf & (HASH | HASH_ITER) != 0 {
                    fl |= HASH_ITER;
                }
                // Value-transforming chains keep time/rng provenance:
                // `self.base_s.min(cap)` is still a time value.
                fl | (rf & (TIME | RNG | HASH_ITER))
            }
            Expr::Call { callee, args, .. } => {
                let mut fl = self.flags_of(callee) & (TIME | RNG | HASH);
                // `HashMap::with_capacity(n)` / `u64::from(x)` style:
                // constructor args do not launder provenance away, but
                // they do not add any either — except `from`-style
                // wrappers, where the payload's flags survive.
                if let Expr::Path { segs, .. } = callee.as_ref() {
                    if segs.iter().any(|s| s == "HashMap" || s == "HashSet") {
                        fl |= HASH;
                    }
                    if segs.last().is_some_and(|s| s == "from" || s == "new") {
                        for a in args {
                            fl |= self.flags_of(a) & (TIME | RNG);
                        }
                    }
                }
                fl
            }
            Expr::Binary { op, lhs, rhs, .. } => match op.as_str() {
                "+" | "-" | "*" | "/" | "%" | "<<" | ">>" | "&" | "|" | "^" => {
                    (self.flags_of(lhs) | self.flags_of(rhs)) & (TIME | RNG)
                }
                _ => 0,
            },
            Expr::Unary(_, inner, _) | Expr::Try(inner, _) => self.flags_of(inner),
            Expr::Cast(inner, _, _) => self.flags_of(inner) & (TIME | RNG),
            Expr::Index(base, _, _) => self.flags_of(base) & (TIME | RNG),
            Expr::Tuple(items, _) => items.iter().fold(0, |acc, i| acc | self.flags_of(i)),
            Expr::Macro { args, .. } => args
                .iter()
                .fold(0, |acc, a| acc | (self.flags_of(a) & (TIME | RNG))),
            _ => 0,
        }
    }

    fn bind(&mut self, name: &str, flags: u8) {
        if name.is_empty() || flags == 0 {
            return;
        }
        *self.locals.entry(name.to_string()).or_insert(0) |= flags;
    }

    fn scan_block(&mut self, b: &Block) {
        for stmt in &b.stmts {
            match stmt {
                Stmt::Let {
                    name,
                    ty,
                    init,
                    span,
                } => {
                    let mut fl = 0;
                    if is_hash_type(ty) {
                        fl |= HASH;
                    }
                    if let Some(e) = init {
                        self.scan_expr(e);
                        fl |= self.flags_of(e);
                    }
                    if !name.is_empty() && fl & HASH != 0 {
                        self.hash_locals.entry(name.clone()).or_insert(*span);
                    }
                    self.bind(name, fl);
                }
                Stmt::Expr { expr, .. } => self.scan_expr(expr),
                Stmt::Item(_) => {}
            }
        }
    }

    fn scan_expr(&mut self, e: &Expr) {
        match e {
            Expr::For {
                pat, iter, body, ..
            } => {
                self.scan_expr(iter);
                let it = self.flags_of(iter);
                let mut fl = it & (TIME | RNG);
                if it & (HASH | HASH_ITER) != 0 {
                    fl |= HASH_ITER;
                }
                self.bind(pat, fl);
                self.scan_block(body);
            }
            Expr::If {
                cond, then, alt, ..
            } => {
                self.scan_expr(cond);
                self.scan_block(then);
                if let Some(a) = alt {
                    self.scan_expr(a);
                }
            }
            Expr::While { cond, body, .. } => {
                self.scan_expr(cond);
                self.scan_block(body);
            }
            Expr::Loop(body, _) => self.scan_block(body),
            Expr::Match {
                scrutinee, arms, ..
            } => {
                self.scan_expr(scrutinee);
                for a in arms {
                    self.scan_expr(a);
                }
            }
            Expr::BlockExpr(b) => self.scan_block(b),
            Expr::Closure { body, .. } => self.scan_expr(body),
            Expr::MethodCall { recv, args, .. } => {
                self.scan_expr(recv);
                for a in args {
                    self.scan_expr(a);
                }
            }
            Expr::Call { callee, args, .. } => {
                self.scan_expr(callee);
                for a in args {
                    self.scan_expr(a);
                }
            }
            Expr::Binary { lhs, rhs, .. } | Expr::Assign { lhs, rhs, .. } => {
                self.scan_expr(lhs);
                self.scan_expr(rhs);
            }
            Expr::Unary(_, inner, _)
            | Expr::Cast(inner, _, _)
            | Expr::Field(inner, _, _)
            | Expr::Try(inner, _) => self.scan_expr(inner),
            Expr::Index(base, idx, _) => {
                self.scan_expr(base);
                self.scan_expr(idx);
            }
            Expr::Tuple(items, _) | Expr::Array(items, _) | Expr::Macro { args: items, .. } => {
                for i in items {
                    self.scan_expr(i);
                }
            }
            Expr::StructLit { fields, .. } => {
                for (_, v) in fields {
                    self.scan_expr(v);
                }
            }
            Expr::Return(inner, _) | Expr::Jump(inner, _) => {
                if let Some(i) = inner {
                    self.scan_expr(i);
                }
            }
            Expr::Range(a, b, _) => {
                if let Some(a) = a {
                    self.scan_expr(a);
                }
                if let Some(b) = b {
                    self.scan_expr(b);
                }
            }
            Expr::Lit(..) | Expr::Path { .. } | Expr::Opaque(_) => {}
        }
    }
}

/// Name-heuristic flags for one identifier.
fn seed_flags_for_name(name: &str) -> u8 {
    let mut fl = 0;
    if is_time_name(name) {
        fl |= TIME;
    }
    if is_rng_name(name) {
        fl |= RNG;
    }
    fl
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::{parse, File, Item};

    fn flow_of(src: &str) -> FnFlow {
        let file: File = parse(&lex(src));
        for item in &file.items {
            if let Item::Fn(f) = item {
                return FnFlow::analyze(f);
            }
        }
        panic!("fixture has a fn");
    }

    #[test]
    fn time_name_heuristic() {
        assert!(is_time_name("now_s"));
        assert!(is_time_name("backoff_cap_s"));
        assert!(is_time_name("due"));
        assert!(is_time_name("epoch"));
        assert!(is_time_name("tick_index"));
        assert!(!is_time_name("ticks"));
        assert!(!is_time_name("rows"));
        assert!(!is_time_name("stats"));
    }

    #[test]
    fn let_propagates_time() {
        let flow = flow_of(
            "fn f(&self) -> u64 {\n\
             let base = self.policy.backoff_base_s;\n\
             let doubled = base * 2;\n\
             doubled\n}\n",
        );
        assert_eq!(flow.locals["base"] & TIME, TIME);
        assert_eq!(flow.locals["doubled"] & TIME, TIME);
    }

    #[test]
    fn rng_flows_through_child_chain() {
        let flow = flow_of(
            "fn f(seed: &SeedTree) {\n\
             let sub = seed.child(\"poll\");\n\
             let draw = sub.next_u64();\n\
             let shifted = draw >> 3;\n\
             }\n",
        );
        assert_eq!(flow.locals["sub"] & RNG, RNG);
        assert_eq!(flow.locals["draw"] & RNG, RNG);
        assert_eq!(flow.locals["shifted"] & RNG, RNG);
    }

    #[test]
    fn hash_local_and_iterator_flags() {
        let flow = flow_of(
            "fn f() {\n\
             let mut m: HashMap<u64, u64> = HashMap::new();\n\
             let it = m.keys();\n\
             for k in m.iter() { let _ = k; }\n\
             }\n",
        );
        assert!(flow.hash_locals.contains_key("m"));
        assert_eq!(flow.locals["it"] & HASH_ITER, HASH_ITER);
        assert_eq!(flow.locals["k"] & HASH_ITER, HASH_ITER);
    }

    #[test]
    fn method_chain_keeps_time() {
        let flow = flow_of(
            "fn f(&self) {\n\
             let capped = self.backoff_base_s.min(self.cap);\n\
             let x = capped;\n\
             }\n",
        );
        assert_eq!(flow.locals["capped"] & TIME, TIME);
        assert_eq!(flow.locals["x"] & TIME, TIME);
    }

    #[test]
    fn plain_counters_stay_clean() {
        let flow = flow_of(
            "fn f() {\n\
             let rows = 10;\n\
             let ticks = rows + 1;\n\
             let _ = ticks;\n\
             }\n",
        );
        assert_eq!(flow.locals.get("rows"), None);
        assert_eq!(flow.locals.get("ticks"), None);
    }
}
