//! Workspace symbol table.
//!
//! The generation-2 rules need a *cross-file* view the token matcher
//! never had: which `const`s exist anywhere in the workspace (for
//! [schema-spec-drift]), and which functions/structs a module defines
//! (for diagnostics and future interprocedural rules). This module
//! collects `fn` / `struct` / `const` items per module — one module per
//! scanned `.rs` file, keyed by its repo-relative path — from the
//! [`crate::parser`] trees of all eight crates' `src/` trees.
//!
//! Nested items (inside `mod`, `impl`, or function bodies) are indexed
//! under their file's module with a qualified name (`Outer::item` for
//! `impl` methods, `inner::item` for inline modules), so lookups like
//! `SEGMENT_SCHEMA_VERSION` work no matter how deeply the constant is
//! declared.
//!
//! [schema-spec-drift]: crate::rules::RuleId::SchemaSpecDrift

use crate::parser::{File, Item, Span};
use std::collections::BTreeMap;

/// A `const`/`static` symbol: where it is, and its literal value when
/// the initializer was a plain integer.
#[derive(Debug, Clone)]
pub struct ConstSymbol {
    /// Qualified name within the module (`SEGMENT_SCHEMA_VERSION`,
    /// `Outer::LIMIT`).
    pub name: String,
    /// Position of the `const`/`static` keyword.
    pub span: Span,
    /// Flattened type text.
    pub ty: String,
    /// Integer value for literal initializers, `None` otherwise.
    pub value: Option<u64>,
}

/// A function symbol.
#[derive(Debug, Clone)]
pub struct FnSymbol {
    /// Qualified name (`run`, `PollSession::next_backoff_s`).
    pub name: String,
    /// Position of the `fn` keyword.
    pub span: Span,
}

/// A struct symbol.
#[derive(Debug, Clone)]
pub struct StructSymbol {
    /// Qualified name.
    pub name: String,
    /// Position of the `struct` keyword.
    pub span: Span,
    /// Field names in declaration order.
    pub fields: Vec<String>,
}

/// Symbols defined by one module (one scanned `.rs` file).
#[derive(Debug, Default)]
pub struct ModuleSymbols {
    /// Crate the module belongs to (`airstat-store`).
    pub crate_name: String,
    /// Functions, in source order.
    pub fns: Vec<FnSymbol>,
    /// Structs, in source order.
    pub structs: Vec<StructSymbol>,
    /// Constants, in source order.
    pub consts: Vec<ConstSymbol>,
}

/// The workspace symbol table: module path → its symbols.
///
/// Keys are repo-relative file paths (`crates/airstat-store/src/segment.rs`),
/// kept in a `BTreeMap` so iteration order is deterministic — the lint
/// must obey its own byte-identity discipline.
#[derive(Debug, Default)]
pub struct SymbolTable {
    /// One entry per scanned file.
    pub modules: BTreeMap<String, ModuleSymbols>,
}

impl SymbolTable {
    /// Indexes one parsed file under `rel_path`.
    pub(crate) fn add_file(&mut self, rel_path: &str, crate_name: &str, file: &File) {
        let mut m = ModuleSymbols {
            crate_name: crate_name.to_string(),
            ..ModuleSymbols::default()
        };
        collect(&file.items, "", &mut m);
        self.modules.insert(rel_path.to_string(), m);
    }

    /// Total number of indexed symbols, for reporting.
    pub(crate) fn len(&self) -> usize {
        self.modules
            .values()
            .map(|m| m.fns.len() + m.structs.len() + m.consts.len())
            .sum()
    }
}

fn qualify(prefix: &str, name: &str) -> String {
    if prefix.is_empty() {
        name.to_string()
    } else {
        format!("{prefix}::{name}")
    }
}

fn collect(items: &[Item], prefix: &str, out: &mut ModuleSymbols) {
    for item in items {
        match item {
            Item::Fn(f) => out.fns.push(FnSymbol {
                name: qualify(prefix, &f.name),
                span: f.span,
            }),
            Item::Struct(s) => out.structs.push(StructSymbol {
                name: qualify(prefix, &s.name),
                span: s.span,
                fields: s.fields.iter().map(|(n, _, _)| n.clone()).collect(),
            }),
            Item::Const(c) => out.consts.push(ConstSymbol {
                name: qualify(prefix, &c.name),
                span: c.span,
                ty: c.ty.clone(),
                value: c.value,
            }),
            Item::Mod(m) => collect(&m.items, &qualify(prefix, &m.name), out),
            Item::Impl(i) => {
                // Qualify by the first identifier of the impl'd type so
                // `impl PollSession` methods read `PollSession::name`.
                let head =
                    i.ty.split(|c: char| !c.is_alphanumeric() && c != '_')
                        .find(|s| !s.is_empty())
                        .unwrap_or("impl");
                collect(&i.items, &qualify(prefix, head), out);
            }
            Item::Use(..) | Item::Other(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;

    fn table_of(src: &str) -> SymbolTable {
        let file = parse(&lex(src));
        let mut t = SymbolTable::default();
        t.add_file("crates/x/src/lib.rs", "x", &file);
        t
    }

    #[test]
    fn indexes_top_level_items() {
        let t = table_of(
            "pub const SEGMENT_SCHEMA_VERSION: u32 = 2;\n\
             pub struct Seg { pub rows: u64 }\n\
             pub fn seal() {}\n",
        );
        let m = &t.modules["crates/x/src/lib.rs"];
        assert_eq!(m.consts[0].name, "SEGMENT_SCHEMA_VERSION");
        assert_eq!(m.consts[0].value, Some(2));
        assert_eq!(m.structs[0].name, "Seg");
        assert_eq!(m.structs[0].fields, vec!["rows".to_string()]);
        assert_eq!(m.fns[0].name, "seal");
    }

    #[test]
    fn qualifies_nested_items() {
        let t = table_of(
            "mod inner { pub const LIMIT: u64 = 8; }\n\
             struct Poll;\n\
             impl Poll { fn tick(&mut self) {} const CAP: u32 = 3; }\n",
        );
        let m = &t.modules["crates/x/src/lib.rs"];
        assert_eq!(m.consts[0].name, "inner::LIMIT");
        assert_eq!(m.fns[0].name, "Poll::tick");
        assert_eq!(m.consts[1].name, "Poll::CAP");
    }

    #[test]
    fn len_counts_all_symbols() {
        let t = table_of("fn a() {}\nstruct B;\nconst C: u32 = 1;\n");
        assert_eq!(t.len(), 3);
    }
}
