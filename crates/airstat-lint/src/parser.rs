//! A hand-rolled, error-tolerant recursive-descent parser.
//!
//! The generation-2 rules need more than token patterns: they track
//! value provenance through `let` bindings, distinguish a method call's
//! receiver from its arguments, and read `const` initializers. This
//! module turns the lossless token stream from [`crate::lexer`] into a
//! lightweight item/expression tree with exactly that much structure —
//! no type checking, no name resolution beyond identifier paths, no
//! macro expansion.
//!
//! The parser is **total**: any token stream produces a tree. Syntax it
//! does not model (complex patterns, macro interiors that are not
//! expressions, exotic generics) degrades to [`Expr::Opaque`] spans
//! instead of failing, and the parser always makes forward progress.
//! Rules treat `Opaque` as "no information", which keeps the analysis
//! sound-for-the-patterns-it-claims rather than pretending to full
//! language coverage.
//!
//! Types are captured as flattened text (e.g. `"HashMap < u64 , u64 >"`)
//! because the rules only ever substring-match them (`HashMap`,
//! `BTree`); positions come straight from the underlying tokens.

use crate::lexer::{Token, TokenKind};

/// A 1-based source position (line, column) of a node's anchor token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct Span {
    /// 1-based line.
    pub line: u32,
    /// 1-based column in characters.
    pub col: u32,
}

impl Span {
    fn of(t: &Token) -> Span {
        Span {
            line: t.line,
            col: t.col,
        }
    }
}

/// A parsed source file: its top-level items.
#[derive(Debug, Default)]
pub struct File {
    /// Items in source order. Nested items (inside `mod`/`impl`/fn
    /// bodies) hang off their parents.
    pub items: Vec<Item>,
}

/// One top-level or nested item.
#[derive(Debug)]
pub enum Item {
    /// A free function or method.
    Fn(FnItem),
    /// A struct with named fields (tuple/unit structs keep empty fields).
    Struct(StructItem),
    /// A `const` or `static` with a numeric value when the initializer
    /// is a literal.
    Const(ConstItem),
    /// An inline module with its nested items.
    Mod(ModItem),
    /// An `impl` block; its methods are [`FnItem`]s.
    Impl(ImplItem),
    /// A `use` declaration (span covers the `use` keyword; `end_line` is
    /// the line of the closing `;`, so multi-line imports are known).
    Use(Span, u32),
    /// Any item the parser does not model (enum, trait, type alias,
    /// macro definition/invocation, extern block).
    Other(Span),
}

/// A function item: header plus (when present) its parsed body.
#[derive(Debug)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// Position of the `fn` keyword.
    pub span: Span,
    /// Parameters: `(name, flattened type text)`. Pattern parameters
    /// keep their first identifier as the name, or `""`.
    pub params: Vec<(String, String)>,
    /// Flattened return type text, empty for `()`-returning functions.
    pub ret: String,
    /// The body, absent for trait method signatures.
    pub body: Option<Block>,
}

/// A struct item and its named fields.
#[derive(Debug)]
pub struct StructItem {
    /// The struct's name.
    pub name: String,
    /// Position of the `struct` keyword.
    pub span: Span,
    /// Named fields as `(name, flattened type text, span)`.
    pub fields: Vec<(String, String, Span)>,
}

/// A `const`/`static` item.
#[derive(Debug)]
pub struct ConstItem {
    /// The constant's name.
    pub name: String,
    /// Position of the `const`/`static` keyword.
    pub span: Span,
    /// Flattened type text.
    pub ty: String,
    /// The value when the initializer is a plain integer literal
    /// (suffix and `_` separators tolerated), e.g. `SEGMENT_SCHEMA_VERSION`.
    pub value: Option<u64>,
}

/// An inline `mod name { ... }` (or `mod name;` with empty items).
#[derive(Debug)]
pub struct ModItem {
    /// The module's name.
    pub name: String,
    /// Position of the `mod` keyword.
    pub span: Span,
    /// Nested items.
    pub items: Vec<Item>,
}

/// An `impl` block.
#[derive(Debug)]
pub struct ImplItem {
    /// Flattened text of the implemented type (and trait, if any).
    pub ty: String,
    /// Position of the `impl` keyword.
    pub span: Span,
    /// Nested items (methods, associated consts).
    pub items: Vec<Item>,
}

/// A `{ ... }` block: statements plus whether the final statement is a
/// tail expression (no trailing semicolon).
#[derive(Debug, Default)]
pub struct Block {
    /// Statements in source order.
    pub stmts: Vec<Stmt>,
    /// Position of the opening brace.
    pub span: Span,
}

/// One statement inside a block.
#[derive(Debug)]
pub enum Stmt {
    /// `let [mut] name [: ty] [= init];` — complex patterns keep
    /// `name == ""`.
    Let {
        /// Bound identifier for simple patterns, `""` otherwise.
        name: String,
        /// Flattened type annotation text, `""` when inferred.
        ty: String,
        /// Initializer expression.
        init: Option<Expr>,
        /// Position of the `let` keyword.
        span: Span,
    },
    /// An expression statement; `has_semi == false` marks a tail
    /// expression (the block's value, i.e. a function return path).
    Expr {
        /// The expression.
        expr: Expr,
        /// Whether a `;` terminated it.
        has_semi: bool,
    },
    /// A nested item (fn, struct, const, mod, impl, use, other).
    Item(Item),
}

/// An expression node. Spans anchor findings: binary/assign nodes carry
/// the span of their **operator** token so a rule can point at the `<<`.
#[derive(Debug)]
pub enum Expr {
    /// A literal token (number, string, char, lifetime-as-label).
    Lit(TokenKind, String, Span),
    /// An identifier path: `a`, `a::b::C` (turbofish segments dropped,
    /// their text folded into `generics`).
    Path {
        /// Path segments.
        segs: Vec<String>,
        /// Flattened generic-argument text seen in the path (`::<..>`).
        generics: String,
        /// Position of the first segment.
        span: Span,
    },
    /// Field access `base.name` (also tuple fields, name = "0").
    Field(Box<Expr>, String, Span),
    /// Method call `recv.name::<T>(args)`.
    MethodCall {
        /// Receiver expression.
        recv: Box<Expr>,
        /// Method name.
        name: String,
        /// Flattened turbofish text, `""` when absent.
        turbofish: String,
        /// Argument expressions.
        args: Vec<Expr>,
        /// Position of the method name.
        span: Span,
    },
    /// Call `callee(args)`.
    Call {
        /// The called expression (usually a path).
        callee: Box<Expr>,
        /// Argument expressions.
        args: Vec<Expr>,
        /// Position of the callee.
        span: Span,
    },
    /// Binary operation; `op` is the operator text (`"<<"`, `"+"`, …).
    Binary {
        /// Operator text.
        op: String,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
        /// Position of the operator token.
        span: Span,
    },
    /// Assignment or compound assignment; `op` is `"="`, `"+="`, `"<<="`, ….
    Assign {
        /// Operator text.
        op: String,
        /// Assignment target.
        lhs: Box<Expr>,
        /// Assigned value.
        rhs: Box<Expr>,
        /// Position of the operator token.
        span: Span,
    },
    /// Unary `!x`, `-x`, `*x`, `&x`, `&mut x`.
    Unary(String, Box<Expr>, Span),
    /// `expr as Ty` (type kept as flattened text).
    Cast(Box<Expr>, String, Span),
    /// Closure `|params| body` (`move` tolerated).
    Closure {
        /// Parameter names (first identifier of each pattern).
        params: Vec<String>,
        /// The body expression (a [`Expr::BlockExpr`] for block bodies).
        body: Box<Expr>,
        /// Position of the opening `|`.
        span: Span,
    },
    /// A block used as an expression (incl. `unsafe { .. }`).
    BlockExpr(Block),
    /// `if cond { .. } [else ..]`; `if let` keeps only the scrutinee.
    If {
        /// The condition (or `if let` scrutinee).
        cond: Box<Expr>,
        /// The then-block.
        then: Block,
        /// The else branch (`BlockExpr` or nested `If`).
        alt: Option<Box<Expr>>,
        /// Position of the `if` keyword.
        span: Span,
    },
    /// `while cond { .. }` / `while let .. = cond { .. }`.
    While {
        /// Condition/scrutinee.
        cond: Box<Expr>,
        /// Loop body.
        body: Block,
        /// Position of the `while` keyword.
        span: Span,
    },
    /// `for pat in iter { .. }`.
    For {
        /// First identifier of the loop pattern, `""` for complex pats.
        pat: String,
        /// The iterated expression.
        iter: Box<Expr>,
        /// Loop body.
        body: Block,
        /// Position of the `for` keyword.
        span: Span,
    },
    /// `loop { .. }`.
    Loop(Block, Span),
    /// `match scrutinee { pat => expr, .. }` — patterns are skipped, arm
    /// bodies kept.
    Match {
        /// The matched expression.
        scrutinee: Box<Expr>,
        /// Arm body expressions in source order.
        arms: Vec<Expr>,
        /// Position of the `match` keyword.
        span: Span,
    },
    /// `return [expr]`.
    Return(Option<Box<Expr>>, Span),
    /// `break`/`continue` (labels and break values dropped... break
    /// values kept as the optional expression).
    Jump(Option<Box<Expr>>, Span),
    /// Macro invocation `name!(args)` with best-effort expression args.
    Macro {
        /// Last path segment of the macro name.
        name: String,
        /// Best-effort parsed arguments (non-expression syntax degrades
        /// to [`Expr::Opaque`]).
        args: Vec<Expr>,
        /// Position of the macro name.
        span: Span,
    },
    /// Tuple `(a, b)` (including parenthesized `(a)`).
    Tuple(Vec<Expr>, Span),
    /// Array `[a, b]` / `[x; n]`.
    Array(Vec<Expr>, Span),
    /// Struct literal `Path { field: expr, .. }`.
    StructLit {
        /// The struct path segments.
        path: Vec<String>,
        /// `(field name, value)` pairs; shorthand fields get a path expr.
        fields: Vec<(String, Expr)>,
        /// Position of the path.
        span: Span,
    },
    /// Indexing `base[index]`.
    Index(Box<Expr>, Box<Expr>, Span),
    /// Range `a..b`, `a..=b`, `..b`, `a..`.
    Range(Option<Box<Expr>>, Option<Box<Expr>>, Span),
    /// `expr?`.
    Try(Box<Expr>, Span),
    /// Syntax the parser does not model; the span covers its first token.
    Opaque(Span),
}

impl Expr {
    /// The node's anchor span.
    pub(crate) fn span(&self) -> Span {
        match self {
            Expr::Lit(_, _, s)
            | Expr::Path { span: s, .. }
            | Expr::Field(_, _, s)
            | Expr::MethodCall { span: s, .. }
            | Expr::Call { span: s, .. }
            | Expr::Binary { span: s, .. }
            | Expr::Assign { span: s, .. }
            | Expr::Unary(_, _, s)
            | Expr::Cast(_, _, s)
            | Expr::Closure { span: s, .. }
            | Expr::If { span: s, .. }
            | Expr::While { span: s, .. }
            | Expr::For { span: s, .. }
            | Expr::Loop(_, s)
            | Expr::Match { span: s, .. }
            | Expr::Return(_, s)
            | Expr::Jump(_, s)
            | Expr::Macro { span: s, .. }
            | Expr::Tuple(_, s)
            | Expr::Array(_, s)
            | Expr::StructLit { span: s, .. }
            | Expr::Index(_, _, s)
            | Expr::Range(_, _, s)
            | Expr::Try(_, s)
            | Expr::Opaque(s) => *s,
            Expr::BlockExpr(b) => b.span,
        }
    }
}

/// Parses a token stream (comments included — they are skipped here)
/// into a [`File`] tree. Total: never fails, degrades to
/// [`Item::Other`] / [`Expr::Opaque`].
pub(crate) fn parse(tokens: &[Token]) -> File {
    let sig: Vec<&Token> = tokens
        .iter()
        .filter(|t| !t.is_comment() && t.kind != TokenKind::Error)
        .collect();
    let mut p = Parser { toks: sig, pos: 0 };
    File {
        items: p.parse_items(false),
    }
}

struct Parser<'a> {
    toks: Vec<&'a Token>,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self, ahead: usize) -> Option<&'a Token> {
        self.toks.get(self.pos + ahead).copied()
    }

    fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }

    fn bump(&mut self) -> Option<&'a Token> {
        let t = self.peek(0)?;
        self.pos += 1;
        Some(t)
    }

    fn here(&self) -> Span {
        self.peek(0).map(Span::of).unwrap_or_default()
    }

    fn is_punct(&self, ahead: usize, text: &str) -> bool {
        self.peek(ahead)
            .is_some_and(|t| t.kind == TokenKind::Punct && t.text == text)
    }

    fn is_ident(&self, ahead: usize, text: &str) -> bool {
        self.peek(ahead)
            .is_some_and(|t| t.kind == TokenKind::Ident && t.text == text)
    }

    fn ident_text(&self, ahead: usize) -> Option<&'a str> {
        self.peek(ahead)
            .and_then(|t| (t.kind == TokenKind::Ident).then_some(t.text.as_str()))
    }

    /// True when tokens at `ahead` and `ahead + 1` are the given punct
    /// pair with no whitespace between them (`<<`, `=>`, `..`, …).
    fn is_punct2(&self, ahead: usize, a: &str, b: &str) -> bool {
        if !self.is_punct(ahead, a) || !self.is_punct(ahead + 1, b) {
            return false;
        }
        let (Some(t0), Some(t1)) = (self.peek(ahead), self.peek(ahead + 1)) else {
            return false;
        };
        t0.line == t1.line && t1.col == t0.col + 1
    }

    fn eat_punct(&mut self, text: &str) -> bool {
        if self.is_punct(0, text) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn eat_ident(&mut self, text: &str) -> bool {
        if self.is_ident(0, text) {
            self.bump();
            true
        } else {
            false
        }
    }

    /// Skips one `#[...]` / `#![...]` attribute if present.
    fn skip_attribute(&mut self) -> bool {
        if !self.is_punct(0, "#") {
            return false;
        }
        let mut ahead = 1;
        if self.is_punct(ahead, "!") {
            ahead += 1;
        }
        if !self.is_punct(ahead, "[") {
            return false;
        }
        for _ in 0..=ahead {
            self.bump();
        }
        let mut depth = 1usize;
        while depth > 0 && !self.at_end() {
            if self.is_punct(0, "[") {
                depth += 1;
            } else if self.is_punct(0, "]") {
                depth -= 1;
            }
            self.bump();
        }
        true
    }

    fn skip_attributes(&mut self) {
        while self.skip_attribute() {}
    }

    /// Skips `pub`, `pub(crate)`, `pub(in path)`.
    fn skip_visibility(&mut self) {
        if self.eat_ident("pub") && self.is_punct(0, "(") {
            self.skip_balanced("(", ")");
        }
    }

    /// Skips a balanced delimiter pair starting at the cursor (which
    /// must be on `open`). `->` is tolerated inside `<...>` generics.
    fn skip_balanced(&mut self, open: &str, close: &str) {
        if !self.is_punct(0, open) {
            return;
        }
        self.bump();
        let mut depth = 1usize;
        while depth > 0 && !self.at_end() {
            if open == "<" && self.is_punct2(0, "-", ">") {
                self.bump();
                self.bump();
                continue;
            }
            if self.is_punct(0, open) {
                depth += 1;
            } else if self.is_punct(0, close) {
                depth -= 1;
            }
            self.bump();
        }
    }

    /// Consumes type text until a stopping punct at depth 0. Balances
    /// `()`, `[]`, `{}`, `<>`; `->` does not count against `<>`.
    fn type_text(&mut self, stops: &[&str]) -> String {
        let mut out = String::new();
        let mut angle = 0i32;
        let mut round = 0i32;
        let mut square = 0i32;
        let mut brace = 0i32;
        while let Some(t) = self.peek(0) {
            let at_top = angle == 0 && round == 0 && square == 0 && brace == 0;
            if t.kind == TokenKind::Punct {
                let s = t.text.as_str();
                if at_top && stops.contains(&s) {
                    break;
                }
                if self.is_punct2(0, "-", ">") {
                    // `-> T` inside an fn-pointer/Fn-trait type.
                    out.push_str("-> ");
                    self.bump();
                    self.bump();
                    continue;
                }
                match s {
                    "<" => angle += 1,
                    ">" => {
                        if angle == 0 && at_top {
                            break;
                        }
                        angle -= 1;
                    }
                    "(" => round += 1,
                    ")" => {
                        if round == 0 && at_top {
                            break;
                        }
                        round -= 1;
                    }
                    "[" => square += 1,
                    "]" => {
                        if square == 0 && at_top {
                            break;
                        }
                        square -= 1;
                    }
                    "{" => brace += 1,
                    "}" => {
                        if brace == 0 && at_top {
                            break;
                        }
                        brace -= 1;
                    }
                    _ => {}
                }
            }
            if !out.is_empty() {
                out.push(' ');
            }
            out.push_str(&t.text);
            self.bump();
        }
        out
    }

    // ----- items -------------------------------------------------------

    /// Parses items until end of input (`inside_braces == false`) or the
    /// matching `}` (`inside_braces == true`, cursor past the `{`).
    fn parse_items(&mut self, inside_braces: bool) -> Vec<Item> {
        let mut items = Vec::new();
        loop {
            if self.at_end() {
                break;
            }
            if inside_braces && self.is_punct(0, "}") {
                self.bump();
                break;
            }
            let before = self.pos;
            if let Some(item) = self.parse_item() {
                items.push(item);
            }
            if self.pos == before {
                // Guarantee progress on unmodelled syntax.
                self.bump();
            }
        }
        items
    }

    fn parse_item(&mut self) -> Option<Item> {
        self.skip_attributes();
        self.skip_visibility();
        let span = self.here();
        // `unsafe`/`async`/`extern "C"` fn qualifiers.
        let mut probe = 0usize;
        while self
            .ident_text(probe)
            .is_some_and(|t| matches!(t, "unsafe" | "async" | "extern"))
        {
            probe += 1;
            if self.peek(probe).is_some_and(|t| t.kind == TokenKind::Str) {
                probe += 1;
            }
        }
        // `const fn` is a function, `const NAME: T` a constant.
        if self.ident_text(probe) == Some("const") && self.ident_text(probe + 1) == Some("fn") {
            probe += 1;
        }
        match self.ident_text(probe) {
            Some("fn") => {
                for _ in 0..probe {
                    self.bump();
                }
                Some(Item::Fn(self.parse_fn(span)))
            }
            Some("use") => {
                self.bump_to(probe);
                self.skip_to_semi_balanced();
                let end_line = self
                    .peek(0)
                    .map(|t| t.line)
                    .unwrap_or(span.line)
                    .max(span.line);
                // `skip_to_semi_balanced` leaves the cursor on the `;`.
                let end_line = if self.is_punct(0, ";") {
                    let line = self.peek(0).map(|t| t.line).unwrap_or(end_line);
                    self.bump();
                    line
                } else {
                    end_line
                };
                Some(Item::Use(span, end_line))
            }
            Some("mod") => {
                self.bump_to(probe);
                self.bump(); // mod
                let name = self.bump_ident_name();
                if self.eat_punct(";") {
                    return Some(Item::Mod(ModItem {
                        name,
                        span,
                        items: Vec::new(),
                    }));
                }
                if self.eat_punct("{") {
                    let items = self.parse_items(true);
                    return Some(Item::Mod(ModItem { name, span, items }));
                }
                Some(Item::Other(span))
            }
            Some("struct") => {
                self.bump_to(probe);
                self.bump(); // struct
                Some(Item::Struct(self.parse_struct(span)))
            }
            Some("const") | Some("static") => {
                self.bump_to(probe);
                self.bump(); // const/static
                self.eat_ident("mut");
                let name = self.bump_ident_name();
                let mut ty = String::new();
                if self.eat_punct(":") {
                    ty = self.type_text(&["=", ";"]);
                }
                let mut value = None;
                if self.eat_punct("=") {
                    let expr = self.parse_expr(true);
                    value = lit_u64(&expr);
                }
                self.eat_punct(";");
                Some(Item::Const(ConstItem {
                    name,
                    span,
                    ty,
                    value,
                }))
            }
            Some("impl") => {
                self.bump_to(probe);
                self.bump(); // impl
                if self.is_punct(0, "<") {
                    self.skip_balanced("<", ">");
                }
                let ty = self.type_text(&["{", ";"]);
                if self.eat_punct("{") {
                    let items = self.parse_items(true);
                    return Some(Item::Impl(ImplItem { ty, span, items }));
                }
                self.eat_punct(";");
                Some(Item::Other(span))
            }
            Some("enum") | Some("trait") | Some("union") => {
                self.bump_to(probe);
                self.bump();
                // Skip to the body and over it. Traits contain method
                // signatures the symbol table does not need.
                while !self.at_end() && !self.is_punct(0, "{") && !self.is_punct(0, ";") {
                    if self.is_punct(0, "<") {
                        self.skip_balanced("<", ">");
                    } else {
                        self.bump();
                    }
                }
                if self.is_punct(0, "{") {
                    self.skip_balanced("{", "}");
                } else {
                    self.eat_punct(";");
                }
                Some(Item::Other(span))
            }
            Some("type") | Some("macro_rules") => {
                self.bump_to(probe);
                self.bump();
                self.skip_to_semi_or_block();
                Some(Item::Other(span))
            }
            Some("extern") => {
                // `extern crate` / `extern { ... }` block.
                self.bump_to(probe + 1);
                self.skip_to_semi_or_block();
                Some(Item::Other(span))
            }
            _ => None,
        }
    }

    fn bump_to(&mut self, probe: usize) {
        for _ in 0..probe {
            self.bump();
        }
    }

    fn bump_ident_name(&mut self) -> String {
        match self.peek(0) {
            Some(t) if t.kind == TokenKind::Ident => {
                self.bump();
                t.text.clone()
            }
            _ => String::new(),
        }
    }

    fn skip_to_semi_balanced(&mut self) {
        let mut brace = 0usize;
        while let Some(t) = self.peek(0) {
            if t.kind == TokenKind::Punct {
                match t.text.as_str() {
                    "{" => brace += 1,
                    "}" => brace = brace.saturating_sub(1),
                    ";" if brace == 0 => return,
                    _ => {}
                }
            }
            self.bump();
        }
    }

    fn skip_to_semi_or_block(&mut self) {
        while !self.at_end() && !self.is_punct(0, ";") && !self.is_punct(0, "{") {
            self.bump();
        }
        if self.is_punct(0, "{") {
            self.skip_balanced("{", "}");
        } else {
            self.eat_punct(";");
        }
    }

    /// Parses from after the `fn` keyword... the cursor is **on** `fn`.
    fn parse_fn(&mut self, span: Span) -> FnItem {
        self.bump(); // fn
        let name = self.bump_ident_name();
        if self.is_punct(0, "<") {
            self.skip_balanced("<", ">");
        }
        let mut params = Vec::new();
        if self.eat_punct("(") {
            loop {
                if self.at_end() || self.is_punct(0, ")") {
                    self.bump();
                    break;
                }
                self.skip_attributes();
                // Pattern: take the first identifier as the name; skip
                // `mut`, `&`, `&mut self`, tuple patterns.
                let mut pname = String::new();
                let mut guard = 0usize;
                while !self.at_end()
                    && !self.is_punct(0, ":")
                    && !self.is_punct(0, ",")
                    && !self.is_punct(0, ")")
                {
                    if pname.is_empty() {
                        if let Some(t) = self.ident_text(0) {
                            if !matches!(t, "mut" | "ref" | "self") {
                                pname = t.to_string();
                            }
                        }
                    }
                    if self.is_punct(0, "(") {
                        self.skip_balanced("(", ")");
                    } else {
                        self.bump();
                    }
                    guard += 1;
                    if guard > 64 {
                        break;
                    }
                }
                let mut ty = String::new();
                if self.eat_punct(":") {
                    ty = self.type_text(&[",", ")"]);
                }
                params.push((pname, ty));
                if !self.eat_punct(",") && self.is_punct(0, ")") {
                    self.bump();
                    break;
                }
            }
        }
        let mut ret = String::new();
        if self.is_punct2(0, "-", ">") {
            self.bump();
            self.bump();
            ret = self.type_text(&["{", ";"]);
            // A `where` clause lands inside the captured text; the rules
            // only substring-match so that is harmless, but trim the
            // common case for cleanliness.
            if let Some(idx) = ret.find(" where ") {
                ret.truncate(idx);
            }
        } else if self.is_ident(0, "where") || !self.is_punct(0, "{") && !self.is_punct(0, ";") {
            // Consume a where clause (or stray tokens) up to the body.
            while !self.at_end() && !self.is_punct(0, "{") && !self.is_punct(0, ";") {
                if self.is_punct(0, "<") {
                    self.skip_balanced("<", ">");
                } else {
                    self.bump();
                }
            }
        }
        let body = if self.is_punct(0, "{") {
            Some(self.parse_block())
        } else {
            self.eat_punct(";");
            None
        };
        FnItem {
            name,
            span,
            params,
            ret,
            body,
        }
    }

    fn parse_struct(&mut self, span: Span) -> StructItem {
        let name = self.bump_ident_name();
        if self.is_punct(0, "<") {
            self.skip_balanced("<", ">");
        }
        while self.is_ident(0, "where")
            || (!self.at_end()
                && !self.is_punct(0, "{")
                && !self.is_punct(0, "(")
                && !self.is_punct(0, ";"))
        {
            if self.is_punct(0, "<") {
                self.skip_balanced("<", ">");
            } else {
                self.bump();
            }
        }
        let mut fields = Vec::new();
        if self.eat_punct("{") {
            loop {
                if self.at_end() || self.is_punct(0, "}") {
                    self.bump();
                    break;
                }
                self.skip_attributes();
                self.skip_visibility();
                let fspan = self.here();
                let fname = self.bump_ident_name();
                let mut ty = String::new();
                if self.eat_punct(":") {
                    ty = self.type_text(&[",", "}"]);
                }
                if !fname.is_empty() {
                    fields.push((fname, ty, fspan));
                }
                if !self.eat_punct(",") && self.is_punct(0, "}") {
                    self.bump();
                    break;
                }
            }
        } else if self.is_punct(0, "(") {
            // Tuple struct: capture positional fields as `.0`, `.1`, …
            self.bump();
            let mut idx = 0usize;
            while !self.at_end() && !self.is_punct(0, ")") {
                self.skip_attributes();
                self.skip_visibility();
                let fspan = self.here();
                let ty = self.type_text(&[",", ")"]);
                if !ty.is_empty() {
                    fields.push((idx.to_string(), ty, fspan));
                    idx += 1;
                }
                if !self.eat_punct(",") {
                    break;
                }
            }
            self.eat_punct(")");
            self.eat_punct(";");
        } else {
            self.eat_punct(";");
        }
        StructItem { name, span, fields }
    }

    // ----- statements --------------------------------------------------

    /// Parses a block; the cursor is on `{`.
    fn parse_block(&mut self) -> Block {
        let span = self.here();
        self.bump(); // {
        let mut stmts = Vec::new();
        loop {
            if self.at_end() {
                break;
            }
            if self.is_punct(0, "}") {
                self.bump();
                break;
            }
            let before = self.pos;
            self.skip_attributes();
            if self.eat_punct(";") {
                continue;
            }
            if self.is_ident(0, "let") {
                stmts.push(self.parse_let());
            } else if self.starts_item() {
                if let Some(item) = self.parse_item() {
                    stmts.push(Stmt::Item(item));
                }
            } else {
                let expr = self.parse_expr(true);
                let has_semi = self.eat_punct(";");
                stmts.push(Stmt::Expr { expr, has_semi });
            }
            if self.pos == before {
                self.bump();
            }
        }
        Block { stmts, span }
    }

    /// True when the cursor starts a nested item rather than an
    /// expression statement.
    fn starts_item(&self) -> bool {
        let mut probe = 0usize;
        if self.is_ident(0, "pub") {
            probe += 1;
            if self.is_punct(1, "(") {
                return true; // pub(crate) item
            }
        }
        match self.ident_text(probe) {
            Some("fn") | Some("struct") | Some("use") | Some("mod") | Some("impl")
            | Some("enum") | Some("trait") | Some("type") | Some("static") => true,
            Some("const") => {
                // `const NAME: ...` / `const fn` are items; `const {}` blocks are not.
                !self.is_punct(probe + 1, "{")
            }
            Some("unsafe") | Some("async") => {
                matches!(
                    self.ident_text(probe + 1),
                    Some("fn") | Some("impl") | Some("trait")
                )
            }
            _ => false,
        }
    }

    fn parse_let(&mut self) -> Stmt {
        let span = self.here();
        self.bump(); // let
        self.eat_ident("mut");
        let mut name = String::new();
        if let Some(t) = self.ident_text(0) {
            // Simple pattern: a single identifier followed by `:`/`=`/`;`/`else`.
            let simple = matches!(
                self.peek(1),
                Some(n) if (n.kind == TokenKind::Punct
                    && matches!(n.text.as_str(), ":" | "=" | ";"))
                    || (n.kind == TokenKind::Ident && n.text == "else")
            );
            if simple {
                name = t.to_string();
                self.bump();
            }
        }
        if name.is_empty() {
            // Complex pattern: skip balanced until `:`/`=`/`;` at depth 0.
            let mut depth = 0i32;
            while let Some(t) = self.peek(0) {
                if t.kind == TokenKind::Punct {
                    match t.text.as_str() {
                        "(" | "[" | "{" | "<" => depth += 1,
                        ")" | "]" | "}" | ">" => depth -= 1,
                        ":" | "=" | ";" if depth <= 0 => break,
                        _ => {}
                    }
                }
                self.bump();
            }
        }
        let mut ty = String::new();
        if self.eat_punct(":") {
            ty = self.type_text(&["=", ";"]);
        }
        let mut init = None;
        if self.is_punct(0, "=") && !self.is_punct2(0, "=", "=") {
            self.bump();
            init = Some(self.parse_expr(true));
        }
        // let-else: `let Some(x) = e else { .. };`
        if self.is_ident(0, "else") {
            self.bump();
            if self.is_punct(0, "{") {
                self.parse_block();
            }
        }
        self.eat_punct(";");
        Stmt::Let {
            name,
            ty,
            init,
            span,
        }
    }

    // ----- expressions -------------------------------------------------

    /// Parses one expression. `structs` allows struct-literal syntax
    /// (`Path { .. }`); it is off in `if`/`while`/`for`/`match` heads.
    fn parse_expr(&mut self, structs: bool) -> Expr {
        self.parse_assign(structs)
    }

    fn parse_assign(&mut self, structs: bool) -> Expr {
        let lhs = self.parse_range(structs);
        // `=`, `+=`, `-=`, `*=`, `/=`, `%=`, `^=`, `&=`, `|=`, `<<=`, `>>=`
        let op = self.peek_assign_op();
        if let Some((op, len)) = op {
            let span = self.here();
            for _ in 0..len {
                self.bump();
            }
            let rhs = self.parse_assign(structs);
            return Expr::Assign {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                span,
            };
        }
        lhs
    }

    fn peek_assign_op(&self) -> Option<(String, usize)> {
        // Two-punct compounds first (`<<=` is three tokens).
        if self.is_punct2(0, "<", "<") && self.is_punct(2, "=") {
            return Some(("<<=".into(), 3));
        }
        if self.is_punct2(0, ">", ">") && self.is_punct(2, "=") {
            return Some((">>=".into(), 3));
        }
        for op in ["+", "-", "*", "/", "%", "^", "&", "|"] {
            if self.is_punct2(0, op, "=") && !self.is_punct(2, "=") {
                return Some((format!("{op}="), 2));
            }
        }
        if self.is_punct(0, "=") && !self.is_punct2(0, "=", "=") && !self.is_punct2(0, "=", ">") {
            return Some(("=".into(), 1));
        }
        None
    }

    fn parse_range(&mut self, structs: bool) -> Expr {
        if self.is_punct2(0, ".", ".") {
            let span = self.here();
            self.bump();
            self.bump();
            self.eat_punct("=");
            if self.range_operand_follows() {
                let hi = self.parse_or(structs);
                return Expr::Range(None, Some(Box::new(hi)), span);
            }
            return Expr::Range(None, None, span);
        }
        let lo = self.parse_or(structs);
        if self.is_punct2(0, ".", ".") {
            let span = self.here();
            self.bump();
            self.bump();
            self.eat_punct("=");
            if self.range_operand_follows() {
                let hi = self.parse_or(structs);
                return Expr::Range(Some(Box::new(lo)), Some(Box::new(hi)), span);
            }
            return Expr::Range(Some(Box::new(lo)), None, span);
        }
        lo
    }

    fn range_operand_follows(&self) -> bool {
        match self.peek(0) {
            None => false,
            Some(t) => match t.kind {
                TokenKind::Punct => matches!(t.text.as_str(), "(" | "[" | "-" | "!" | "*" | "&"),
                TokenKind::Ident => !matches!(t.text.as_str(), "else"),
                _ => true,
            },
        }
    }

    fn parse_or(&mut self, structs: bool) -> Expr {
        let mut lhs = self.parse_and(structs);
        while self.is_punct2(0, "|", "|") {
            let span = self.here();
            self.bump();
            self.bump();
            let rhs = self.parse_and(structs);
            lhs = bin("||", lhs, rhs, span);
        }
        lhs
    }

    fn parse_and(&mut self, structs: bool) -> Expr {
        let mut lhs = self.parse_cmp(structs);
        while self.is_punct2(0, "&", "&") {
            let span = self.here();
            self.bump();
            self.bump();
            let rhs = self.parse_cmp(structs);
            lhs = bin("&&", lhs, rhs, span);
        }
        lhs
    }

    fn parse_cmp(&mut self, structs: bool) -> Expr {
        let mut lhs = self.parse_bitor(structs);
        loop {
            let span = self.here();
            if self.is_punct2(0, "=", "=") {
                self.bump();
                self.bump();
                lhs = bin("==", lhs, self.parse_bitor(structs), span);
            } else if self.is_punct2(0, "!", "=") {
                self.bump();
                self.bump();
                lhs = bin("!=", lhs, self.parse_bitor(structs), span);
            } else if self.is_punct2(0, "<", "=") {
                self.bump();
                self.bump();
                lhs = bin("<=", lhs, self.parse_bitor(structs), span);
            } else if self.is_punct2(0, ">", "=") {
                self.bump();
                self.bump();
                lhs = bin(">=", lhs, self.parse_bitor(structs), span);
            } else if self.is_punct(0, "<")
                && !self.is_punct2(0, "<", "<")
                && !self.is_punct2(0, "<", "=")
            {
                self.bump();
                lhs = bin("<", lhs, self.parse_bitor(structs), span);
            } else if self.is_punct(0, ">")
                && !self.is_punct2(0, ">", ">")
                && !self.is_punct2(0, ">", "=")
            {
                self.bump();
                lhs = bin(">", lhs, self.parse_bitor(structs), span);
            } else {
                break;
            }
        }
        lhs
    }

    fn parse_bitor(&mut self, structs: bool) -> Expr {
        let mut lhs = self.parse_bitxor(structs);
        while self.is_punct(0, "|") && !self.is_punct2(0, "|", "|") && !self.is_punct2(0, "|", "=")
        {
            let span = self.here();
            self.bump();
            let rhs = self.parse_bitxor(structs);
            lhs = bin("|", lhs, rhs, span);
        }
        lhs
    }

    fn parse_bitxor(&mut self, structs: bool) -> Expr {
        let mut lhs = self.parse_bitand(structs);
        while self.is_punct(0, "^") && !self.is_punct2(0, "^", "=") {
            let span = self.here();
            self.bump();
            let rhs = self.parse_bitand(structs);
            lhs = bin("^", lhs, rhs, span);
        }
        lhs
    }

    fn parse_bitand(&mut self, structs: bool) -> Expr {
        let mut lhs = self.parse_shift(structs);
        while self.is_punct(0, "&") && !self.is_punct2(0, "&", "&") && !self.is_punct2(0, "&", "=")
        {
            let span = self.here();
            self.bump();
            let rhs = self.parse_shift(structs);
            lhs = bin("&", lhs, rhs, span);
        }
        lhs
    }

    fn parse_shift(&mut self, structs: bool) -> Expr {
        let mut lhs = self.parse_add(structs);
        loop {
            let span = self.here();
            if self.is_punct2(0, "<", "<") && !self.is_punct(2, "=") {
                self.bump();
                self.bump();
                lhs = bin("<<", lhs, self.parse_add(structs), span);
            } else if self.is_punct2(0, ">", ">") && !self.is_punct(2, "=") {
                self.bump();
                self.bump();
                lhs = bin(">>", lhs, self.parse_add(structs), span);
            } else {
                break;
            }
        }
        lhs
    }

    fn parse_add(&mut self, structs: bool) -> Expr {
        let mut lhs = self.parse_mul(structs);
        loop {
            let span = self.here();
            if self.is_punct(0, "+") && !self.is_punct2(0, "+", "=") {
                self.bump();
                lhs = bin("+", lhs, self.parse_mul(structs), span);
            } else if self.is_punct(0, "-")
                && !self.is_punct2(0, "-", "=")
                && !self.is_punct2(0, "-", ">")
            {
                self.bump();
                lhs = bin("-", lhs, self.parse_mul(structs), span);
            } else {
                break;
            }
        }
        lhs
    }

    fn parse_mul(&mut self, structs: bool) -> Expr {
        let mut lhs = self.parse_unary(structs);
        loop {
            let span = self.here();
            if self.is_punct(0, "*") && !self.is_punct2(0, "*", "=") {
                self.bump();
                lhs = bin("*", lhs, self.parse_unary(structs), span);
            } else if self.is_punct(0, "/") && !self.is_punct2(0, "/", "=") {
                self.bump();
                lhs = bin("/", lhs, self.parse_unary(structs), span);
            } else if self.is_punct(0, "%") && !self.is_punct2(0, "%", "=") {
                self.bump();
                lhs = bin("%", lhs, self.parse_unary(structs), span);
            } else {
                break;
            }
        }
        lhs
    }

    fn parse_unary(&mut self, structs: bool) -> Expr {
        let span = self.here();
        if self.is_punct(0, "&") && !self.is_punct2(0, "&", "&") {
            self.bump();
            self.eat_ident("mut");
            return Expr::Unary("&".into(), Box::new(self.parse_unary(structs)), span);
        }
        if self.is_punct2(0, "&", "&") {
            // `&&x` — two reference levels.
            self.bump();
            self.bump();
            self.eat_ident("mut");
            return Expr::Unary("&".into(), Box::new(self.parse_unary(structs)), span);
        }
        for op in ["!", "-", "*"] {
            if self.is_punct(0, op) && !self.is_punct2(0, op, "=") {
                self.bump();
                return Expr::Unary(op.into(), Box::new(self.parse_unary(structs)), span);
            }
        }
        self.parse_postfix(structs)
    }

    fn parse_postfix(&mut self, structs: bool) -> Expr {
        let mut expr = self.parse_atom(structs);
        loop {
            if self.is_punct(0, ".") && !self.is_punct2(0, ".", ".") {
                let t1 = self.peek(1);
                match t1 {
                    Some(t) if t.kind == TokenKind::Ident => {
                        let name = t.text.clone();
                        let span = Span::of(t);
                        self.bump(); // .
                        self.bump(); // ident
                        let mut turbofish = String::new();
                        if self.is_punct(0, ":") && self.is_punct(1, ":") && self.is_punct(2, "<") {
                            self.bump();
                            self.bump();
                            turbofish = self.capture_angle_text();
                        }
                        if self.is_punct(0, "(") {
                            let args = self.parse_call_args();
                            expr = Expr::MethodCall {
                                recv: Box::new(expr),
                                name,
                                turbofish,
                                args,
                                span,
                            };
                        } else if name == "await" {
                            // `.await` — keep the receiver.
                        } else {
                            expr = Expr::Field(Box::new(expr), name, span);
                        }
                    }
                    Some(t) if t.kind == TokenKind::Num => {
                        let name = t.text.clone();
                        let span = Span::of(t);
                        self.bump();
                        self.bump();
                        expr = Expr::Field(Box::new(expr), name, span);
                    }
                    _ => break,
                }
            } else if self.is_punct(0, "(") {
                let span = expr.span();
                let args = self.parse_call_args();
                expr = Expr::Call {
                    callee: Box::new(expr),
                    args,
                    span,
                };
            } else if self.is_punct(0, "[") {
                let span = self.here();
                self.bump();
                let index = self.parse_expr(true);
                self.eat_punct("]");
                expr = Expr::Index(Box::new(expr), Box::new(index), span);
            } else if self.is_punct(0, "?") {
                let span = self.here();
                self.bump();
                expr = Expr::Try(Box::new(expr), span);
            } else if self.is_ident(0, "as") {
                let span = self.here();
                self.bump();
                let ty = self.type_text(&[
                    ";", ",", ")", "]", "}", "{", "+", "-", "*", "/", "%", "=", "<", ">", "&", "|",
                    "^", "?",
                ]);
                expr = Expr::Cast(Box::new(expr), ty, span);
            } else {
                break;
            }
        }
        expr
    }

    /// Captures `<...>` text; the cursor is on `<`.
    fn capture_angle_text(&mut self) -> String {
        let mut out = String::new();
        if !self.is_punct(0, "<") {
            return out;
        }
        self.bump();
        let mut depth = 1usize;
        while depth > 0 && !self.at_end() {
            if self.is_punct2(0, "-", ">") {
                out.push_str("-> ");
                self.bump();
                self.bump();
                continue;
            }
            if self.is_punct(0, "<") {
                depth += 1;
            } else if self.is_punct(0, ">") {
                depth -= 1;
                if depth == 0 {
                    self.bump();
                    break;
                }
            }
            if let Some(t) = self.bump() {
                if !out.is_empty() {
                    out.push(' ');
                }
                out.push_str(&t.text);
            }
        }
        out
    }

    /// Parses `( expr, expr, ... )`; the cursor is on `(`.
    fn parse_call_args(&mut self) -> Vec<Expr> {
        self.bump(); // (
        let mut args = Vec::new();
        loop {
            if self.at_end() {
                break;
            }
            if self.is_punct(0, ")") {
                self.bump();
                break;
            }
            let before = self.pos;
            args.push(self.parse_expr(true));
            if self.pos == before {
                self.bump();
            }
            if !self.eat_punct(",") && self.is_punct(0, ")") {
                self.bump();
                break;
            }
        }
        args
    }

    fn parse_atom(&mut self, structs: bool) -> Expr {
        let Some(t) = self.peek(0) else {
            return Expr::Opaque(Span::default());
        };
        let span = Span::of(t);
        match t.kind {
            TokenKind::Num | TokenKind::Str | TokenKind::Char | TokenKind::Lifetime => {
                self.bump();
                // A lifetime here is a loop label: `'outer: loop { .. }`.
                if t.kind == TokenKind::Lifetime && self.eat_punct(":") {
                    return self.parse_atom(structs);
                }
                Expr::Lit(t.kind, t.text.clone(), span)
            }
            TokenKind::Punct => match t.text.as_str() {
                "(" => {
                    self.bump();
                    let mut elems = Vec::new();
                    loop {
                        if self.at_end() || self.is_punct(0, ")") {
                            self.bump();
                            break;
                        }
                        let before = self.pos;
                        elems.push(self.parse_expr(true));
                        if self.pos == before {
                            self.bump();
                        }
                        if !self.eat_punct(",") && self.is_punct(0, ")") {
                            self.bump();
                            break;
                        }
                    }
                    Expr::Tuple(elems, span)
                }
                "[" => {
                    self.bump();
                    let mut elems = Vec::new();
                    loop {
                        if self.at_end() || self.is_punct(0, "]") {
                            self.bump();
                            break;
                        }
                        let before = self.pos;
                        elems.push(self.parse_expr(true));
                        if self.pos == before {
                            self.bump();
                        }
                        // `[x; n]` repeat syntax.
                        if self.eat_punct(";") {
                            continue;
                        }
                        if !self.eat_punct(",") && self.is_punct(0, "]") {
                            self.bump();
                            break;
                        }
                    }
                    Expr::Array(elems, span)
                }
                "{" => Expr::BlockExpr(self.parse_block()),
                "|" => self.parse_closure(span),
                "_" => {
                    self.bump();
                    Expr::Path {
                        segs: vec!["_".into()],
                        generics: String::new(),
                        span,
                    }
                }
                _ => {
                    self.bump();
                    Expr::Opaque(span)
                }
            },
            TokenKind::Ident => match t.text.as_str() {
                "if" => self.parse_if(span),
                "while" => {
                    self.bump();
                    let cond = self.parse_cond();
                    let body = self.braced_block();
                    Expr::While {
                        cond: Box::new(cond),
                        body,
                        span,
                    }
                }
                "for" => {
                    self.bump();
                    // Pattern until `in` at depth 0.
                    let mut pat = String::new();
                    let mut depth = 0i32;
                    while let Some(p) = self.peek(0) {
                        if p.kind == TokenKind::Ident && p.text == "in" && depth <= 0 {
                            self.bump();
                            break;
                        }
                        if p.kind == TokenKind::Punct {
                            match p.text.as_str() {
                                "(" | "[" => depth += 1,
                                ")" | "]" => depth -= 1,
                                _ => {}
                            }
                        }
                        if pat.is_empty()
                            && p.kind == TokenKind::Ident
                            && !matches!(p.text.as_str(), "mut" | "ref")
                        {
                            pat = p.text.clone();
                        }
                        self.bump();
                    }
                    let iter = self.parse_expr(false);
                    let body = self.braced_block();
                    Expr::For {
                        pat,
                        iter: Box::new(iter),
                        body,
                        span,
                    }
                }
                "loop" => {
                    self.bump();
                    Expr::Loop(self.braced_block(), span)
                }
                "match" => {
                    self.bump();
                    let scrutinee = self.parse_expr(false);
                    let mut arms = Vec::new();
                    if self.eat_punct("{") {
                        loop {
                            if self.at_end() {
                                break;
                            }
                            if self.is_punct(0, "}") {
                                self.bump();
                                break;
                            }
                            self.skip_attributes();
                            // Skip the pattern (and guard) to `=>`.
                            let mut depth = 0i32;
                            while let Some(p) = self.peek(0) {
                                if depth <= 0 && self.is_punct2(0, "=", ">") {
                                    self.bump();
                                    self.bump();
                                    break;
                                }
                                if p.kind == TokenKind::Punct {
                                    match p.text.as_str() {
                                        "(" | "[" | "{" => depth += 1,
                                        ")" | "]" => depth -= 1,
                                        "}" if depth > 0 => depth -= 1,
                                        "}" => break,
                                        _ => {}
                                    }
                                }
                                self.bump();
                            }
                            if self.is_punct(0, "}") {
                                self.bump();
                                break;
                            }
                            let before = self.pos;
                            arms.push(self.parse_expr(true));
                            if self.pos == before {
                                self.bump();
                            }
                            self.eat_punct(",");
                        }
                    }
                    Expr::Match {
                        scrutinee: Box::new(scrutinee),
                        arms,
                        span,
                    }
                }
                "return" => {
                    self.bump();
                    if self.expr_follows() {
                        Expr::Return(Some(Box::new(self.parse_expr(true))), span)
                    } else {
                        Expr::Return(None, span)
                    }
                }
                "break" | "continue" => {
                    self.bump();
                    if self.peek(0).is_some_and(|p| p.kind == TokenKind::Lifetime) {
                        self.bump(); // label
                    }
                    if t.text == "break" && self.expr_follows() {
                        Expr::Jump(Some(Box::new(self.parse_expr(true))), span)
                    } else {
                        Expr::Jump(None, span)
                    }
                }
                "move" => {
                    self.bump();
                    let cspan = self.here();
                    if self.is_punct(0, "|") || self.is_punct2(0, "|", "|") {
                        self.parse_closure(cspan)
                    } else {
                        Expr::Opaque(span)
                    }
                }
                "unsafe" | "async" => {
                    self.bump();
                    if self.is_punct(0, "{") {
                        Expr::BlockExpr(self.parse_block())
                    } else {
                        Expr::Opaque(span)
                    }
                }
                _ => self.parse_path_expr(structs, span),
            },
            _ => {
                self.bump();
                Expr::Opaque(span)
            }
        }
    }

    fn expr_follows(&self) -> bool {
        match self.peek(0) {
            None => false,
            Some(t) => {
                !(t.kind == TokenKind::Punct
                    && matches!(t.text.as_str(), ";" | "," | ")" | "]" | "}"))
            }
        }
    }

    fn parse_if(&mut self, span: Span) -> Expr {
        self.bump(); // if
        let cond = self.parse_cond();
        let then = self.braced_block();
        let mut alt = None;
        if self.is_ident(0, "else") {
            self.bump();
            let espan = self.here();
            if self.is_ident(0, "if") {
                alt = Some(Box::new(self.parse_if(espan)));
            } else if self.is_punct(0, "{") {
                alt = Some(Box::new(Expr::BlockExpr(self.parse_block())));
            }
        }
        Expr::If {
            cond: Box::new(cond),
            then,
            alt,
            span,
        }
    }

    /// Parses an `if`/`while` condition; handles `let pat = scrutinee`.
    fn parse_cond(&mut self) -> Expr {
        if self.is_ident(0, "let") {
            self.bump();
            // Skip the pattern to the `=` at depth 0.
            let mut depth = 0i32;
            while let Some(p) = self.peek(0) {
                if p.kind == TokenKind::Punct {
                    match p.text.as_str() {
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" | "}" => depth -= 1,
                        "=" if depth <= 0
                            && !self.is_punct2(0, "=", "=")
                            && !self.is_punct2(0, "=", ">") =>
                        {
                            self.bump();
                            break;
                        }
                        _ => {}
                    }
                }
                self.bump();
            }
            return self.parse_expr(false);
        }
        self.parse_expr(false)
    }

    fn braced_block(&mut self) -> Block {
        if self.is_punct(0, "{") {
            self.parse_block()
        } else {
            Block::default()
        }
    }

    fn parse_closure(&mut self, span: Span) -> Expr {
        let mut params = Vec::new();
        if self.is_punct2(0, "|", "|") {
            self.bump();
            self.bump();
        } else if self.eat_punct("|") {
            // Parameters until the closing `|` at depth 0.
            let mut depth = 0i32;
            let mut expecting_name = true;
            while let Some(p) = self.peek(0) {
                if p.kind == TokenKind::Punct {
                    match p.text.as_str() {
                        "(" | "[" | "<" => depth += 1,
                        ")" | "]" | ">" => depth -= 1,
                        "|" if depth <= 0 => {
                            self.bump();
                            break;
                        }
                        "," if depth <= 0 => expecting_name = true,
                        _ => {}
                    }
                } else if p.kind == TokenKind::Ident
                    && expecting_name
                    && !matches!(p.text.as_str(), "mut" | "ref")
                {
                    params.push(p.text.clone());
                    expecting_name = false;
                }
                self.bump();
            }
        }
        if self.is_punct2(0, "-", ">") {
            self.bump();
            self.bump();
            self.type_text(&["{"]);
        }
        let body = self.parse_expr(true);
        Expr::Closure {
            params,
            body: Box::new(body),
            span,
        }
    }

    /// Path expression with optional struct literal, call, or macro.
    fn parse_path_expr(&mut self, structs: bool, span: Span) -> Expr {
        let mut segs = vec![self.bump_ident_name()];
        let mut generics = String::new();
        loop {
            if self.is_punct(0, ":") && self.is_punct(1, ":") {
                if self.is_punct(2, "<") {
                    self.bump();
                    self.bump();
                    let text = self.capture_angle_text();
                    if !generics.is_empty() {
                        generics.push(' ');
                    }
                    generics.push_str(&text);
                    continue;
                }
                if self.peek(2).is_some_and(|t| t.kind == TokenKind::Ident) {
                    self.bump();
                    self.bump();
                    segs.push(self.bump_ident_name());
                    continue;
                }
            }
            break;
        }
        // Macro invocation: `name!` / `path::name!`.
        if self.is_punct(0, "!") && !self.is_punct2(0, "!", "=") {
            self.bump();
            let name = segs.last().cloned().unwrap_or_default();
            let args = if self.is_punct(0, "(") {
                self.parse_call_args()
            } else if self.is_punct(0, "[") {
                self.bump();
                let mut args = Vec::new();
                loop {
                    if self.at_end() || self.is_punct(0, "]") {
                        self.bump();
                        break;
                    }
                    let before = self.pos;
                    args.push(self.parse_expr(true));
                    if self.pos == before {
                        self.bump();
                    }
                    if self.eat_punct(",") || self.eat_punct(";") {
                        continue;
                    }
                }
                args
            } else if self.is_punct(0, "{") {
                let block = self.parse_block();
                vec![Expr::BlockExpr(block)]
            } else {
                Vec::new()
            };
            return Expr::Macro { name, args, span };
        }
        // Struct literal: `Path { field: v, .. }` when allowed and the
        // brace contents look like fields rather than a trailing block.
        if structs && self.is_punct(0, "{") && self.brace_starts_struct_lit() {
            self.bump(); // {
            let mut fields = Vec::new();
            loop {
                if self.at_end() || self.is_punct(0, "}") {
                    self.bump();
                    break;
                }
                if self.is_punct2(0, ".", ".") {
                    // Functional update `..base`.
                    self.bump();
                    self.bump();
                    let before = self.pos;
                    let base = self.parse_expr(true);
                    if self.pos == before {
                        self.bump();
                    }
                    fields.push(("..".to_string(), base));
                    self.eat_punct(",");
                    continue;
                }
                let fname = self.bump_ident_name();
                if fname.is_empty() {
                    self.bump();
                    continue;
                }
                if self.eat_punct(":") {
                    let before = self.pos;
                    let value = self.parse_expr(true);
                    if self.pos == before {
                        self.bump();
                    }
                    fields.push((fname, value));
                } else {
                    // Shorthand `Struct { field }`.
                    let fspan = self.here();
                    fields.push((
                        fname.clone(),
                        Expr::Path {
                            segs: vec![fname],
                            generics: String::new(),
                            span: fspan,
                        },
                    ));
                }
                if !self.eat_punct(",") && self.is_punct(0, "}") {
                    self.bump();
                    break;
                }
            }
            return Expr::StructLit {
                path: segs,
                fields,
                span,
            };
        }
        Expr::Path {
            segs,
            generics,
            span,
        }
    }

    /// Heuristic: after `Path {`, does the brace open a struct literal?
    /// True for `{ ident: … }` (not `::`), `{ ident, … }`, `{ ident }`,
    /// `{ ..base }`, and `{}`.
    fn brace_starts_struct_lit(&self) -> bool {
        if self.is_punct(1, "}") {
            return true;
        }
        if self.is_punct2(1, ".", ".") {
            return true;
        }
        if self.peek(1).is_some_and(|t| t.kind == TokenKind::Ident) {
            if self.is_punct(2, ":") && !self.is_punct(3, ":") {
                return true;
            }
            if self.is_punct(2, ",") || self.is_punct(2, "}") {
                return true;
            }
        }
        false
    }
}

fn bin(op: &str, lhs: Expr, rhs: Expr, span: Span) -> Expr {
    Expr::Binary {
        op: op.to_string(),
        lhs: Box::new(lhs),
        rhs: Box::new(rhs),
        span,
    }
}

/// Extracts the `u64` value of a plain integer-literal expression
/// (separators and suffixes tolerated): `2`, `1_000u64`, `0xFF`.
fn lit_u64(expr: &Expr) -> Option<u64> {
    let Expr::Lit(TokenKind::Num, text, _) = expr else {
        return None;
    };
    let clean: String = text.chars().filter(|c| *c != '_').collect();
    // Strip a type suffix (`u32`, `u64`, …): take the longest numeric
    // prefix (after the radix prefix for hex).
    if let Some(hex) = clean
        .strip_prefix("0x")
        .or_else(|| clean.strip_prefix("0X"))
    {
        let hex: String = hex.chars().take_while(|c| c.is_ascii_hexdigit()).collect();
        return u64::from_str_radix(&hex, 16).ok();
    }
    let dec: String = clean.chars().take_while(|c| c.is_ascii_digit()).collect();
    if dec.is_empty() {
        return None;
    }
    dec.parse().ok()
}

/// Depth-first walk over every expression in a block, including nested
/// blocks, closures, and macro arguments. `f` sees parents before
/// children.
pub(crate) fn walk_block(block: &Block, f: &mut impl FnMut(&Expr)) {
    for stmt in &block.stmts {
        match stmt {
            Stmt::Let { init, .. } => {
                if let Some(e) = init {
                    walk_expr(e, f);
                }
            }
            Stmt::Expr { expr, .. } => walk_expr(expr, f),
            Stmt::Item(Item::Fn(func)) => {
                if let Some(b) = &func.body {
                    walk_block(b, f);
                }
            }
            Stmt::Item(_) => {}
        }
    }
}

/// Depth-first walk over one expression tree; `f` sees parents first.
pub(crate) fn walk_expr(expr: &Expr, f: &mut impl FnMut(&Expr)) {
    f(expr);
    match expr {
        Expr::Lit(..) | Expr::Path { .. } | Expr::Opaque(_) => {}
        Expr::Field(b, _, _) | Expr::Unary(_, b, _) | Expr::Cast(b, _, _) | Expr::Try(b, _) => {
            walk_expr(b, f)
        }
        Expr::MethodCall { recv, args, .. } => {
            walk_expr(recv, f);
            for a in args {
                walk_expr(a, f);
            }
        }
        Expr::Call { callee, args, .. } => {
            walk_expr(callee, f);
            for a in args {
                walk_expr(a, f);
            }
        }
        Expr::Binary { lhs, rhs, .. } | Expr::Assign { lhs, rhs, .. } => {
            walk_expr(lhs, f);
            walk_expr(rhs, f);
        }
        Expr::Closure { body, .. } => walk_expr(body, f),
        Expr::BlockExpr(b) => walk_block(b, f),
        Expr::If {
            cond, then, alt, ..
        } => {
            walk_expr(cond, f);
            walk_block(then, f);
            if let Some(a) = alt {
                walk_expr(a, f);
            }
        }
        Expr::While { cond, body, .. } => {
            walk_expr(cond, f);
            walk_block(body, f);
        }
        Expr::For { iter, body, .. } => {
            walk_expr(iter, f);
            walk_block(body, f);
        }
        Expr::Loop(b, _) => walk_block(b, f),
        Expr::Match {
            scrutinee, arms, ..
        } => {
            walk_expr(scrutinee, f);
            for a in arms {
                walk_expr(a, f);
            }
        }
        Expr::Return(e, _) | Expr::Jump(e, _) => {
            if let Some(e) = e {
                walk_expr(e, f);
            }
        }
        Expr::Macro { args, .. } | Expr::Tuple(args, _) | Expr::Array(args, _) => {
            for a in args {
                walk_expr(a, f);
            }
        }
        Expr::StructLit { fields, .. } => {
            for (_, v) in fields {
                walk_expr(v, f);
            }
        }
        Expr::Index(b, i, _) => {
            walk_expr(b, f);
            walk_expr(i, f);
        }
        Expr::Range(lo, hi, _) => {
            if let Some(lo) = lo {
                walk_expr(lo, f);
            }
            if let Some(hi) = hi {
                walk_expr(hi, f);
            }
        }
    }
}

/// Visits every function item in a file (free fns, methods in `impl`
/// blocks, fns nested in `mod`s), depth-first.
pub(crate) fn for_each_fn<'t>(items: &'t [Item], f: &mut impl FnMut(&'t FnItem)) {
    for item in items {
        match item {
            Item::Fn(func) => {
                f(func);
                if let Some(body) = &func.body {
                    for stmt in &body.stmts {
                        if let Stmt::Item(Item::Fn(nested)) = stmt {
                            f(nested);
                        }
                    }
                }
            }
            Item::Mod(m) => for_each_fn(&m.items, f),
            Item::Impl(i) => for_each_fn(&i.items, f),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> File {
        parse(&lex(src))
    }

    fn find_fn(items: &[Item]) -> Option<&FnItem> {
        for item in items {
            match item {
                Item::Fn(f) => return Some(f),
                Item::Mod(m) => {
                    if let Some(f) = find_fn(&m.items) {
                        return Some(f);
                    }
                }
                Item::Impl(i) => {
                    if let Some(f) = find_fn(&i.items) {
                        return Some(f);
                    }
                }
                _ => {}
            }
        }
        None
    }

    fn first_fn(file: &File) -> &FnItem {
        find_fn(&file.items).expect("fixture contains a fn")
    }

    #[test]
    fn parses_fn_header_and_let() {
        let file = parse_src("fn f(a: u64, b: &HashMap<u64, u64>) -> Vec<u8> { let x = a; }");
        let f = first_fn(&file);
        assert_eq!(f.name, "f");
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.params[0].0, "a");
        assert!(f.params[1].1.contains("HashMap"));
        assert!(f.ret.contains("Vec"));
        let body = f.body.as_ref().expect("has body");
        assert!(matches!(&body.stmts[0], Stmt::Let { name, .. } if name == "x"));
    }

    #[test]
    fn binary_ops_carry_operator_spans() {
        let file = parse_src("fn f() { let y = base << n; }");
        let f = first_fn(&file);
        let Some(Stmt::Let { init: Some(e), .. }) = f.body.as_ref().map(|b| &b.stmts[0]) else {
            panic!("let");
        };
        let Expr::Binary { op, span, .. } = e else {
            panic!("binary, got {e:?}");
        };
        assert_eq!(op, "<<");
        assert_eq!((span.line, span.col), (1, 23));
    }

    #[test]
    fn shift_vs_nested_generics() {
        // `a << b` is a shift; `Vec<Vec<u8>>` in type position must not
        // confuse the expression parser.
        let file = parse_src("fn f(v: Vec<Vec<u8>>) -> u64 { 1u64 << 2 }");
        let f = first_fn(&file);
        assert!(f.params[0].1.contains("Vec < Vec < u8 > >"));
        let Some(Stmt::Expr { expr, has_semi }) = f.body.as_ref().map(|b| &b.stmts[0]) else {
            panic!("tail");
        };
        assert!(!has_semi, "tail expression");
        assert!(matches!(expr, Expr::Binary { op, .. } if op == "<<"));
    }

    #[test]
    fn method_chains_and_turbofish() {
        let file = parse_src("fn f() { m.iter().collect::<BTreeMap<u64, u64>>(); }");
        let f = first_fn(&file);
        let mut collected = None;
        walk_block(f.body.as_ref().expect("body"), &mut |e| {
            if let Expr::MethodCall {
                name, turbofish, ..
            } = e
            {
                if name == "collect" {
                    collected = Some(turbofish.clone());
                }
            }
        });
        assert!(collected.expect("collect call").contains("BTreeMap"));
    }

    #[test]
    fn const_numeric_values() {
        let file = parse_src(
            "pub const SEGMENT_SCHEMA_VERSION: u32 = 2;\nconst MASK: u64 = 0xFF;\nconst N: usize = 1_000;",
        );
        let mut vals = Vec::new();
        for item in &file.items {
            if let Item::Const(c) = item {
                vals.push((c.name.clone(), c.value));
            }
        }
        assert_eq!(
            vals,
            vec![
                ("SEGMENT_SCHEMA_VERSION".to_string(), Some(2)),
                ("MASK".to_string(), Some(255)),
                ("N".to_string(), Some(1000)),
            ]
        );
    }

    #[test]
    fn struct_fields_with_types() {
        let file = parse_src("pub struct S { pub seen: HashMap<(u64, u64), SeqSet>, count: u64 }");
        let mut fields = Vec::new();
        for item in &file.items {
            if let Item::Struct(s) = item {
                for (n, t, _) in &s.fields {
                    fields.push((n.clone(), t.clone()));
                }
            }
        }
        assert_eq!(fields.len(), 2);
        assert!(fields[0].1.contains("HashMap"));
        assert_eq!(fields[1].0, "count");
    }

    #[test]
    fn impl_methods_are_found() {
        let file = parse_src("impl Foo { fn a(&self) {} fn b(&mut self, x: u64) -> u64 { x } }");
        let mut names = Vec::new();
        for_each_fn(&file.items, &mut |f| names.push(f.name.clone()));
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn if_else_while_for_match_parse() {
        let src = "fn f(v: Vec<u64>) { if v.len() > 1 { g(); } else { h(); } \
                   while x < 3 { x += 1; } for i in 0..10 { use_(i); } \
                   match y { Some(a) => a + 1, None => 0, }; }";
        let file = parse_src(src);
        let f = first_fn(&file);
        let mut kinds = Vec::new();
        walk_block(f.body.as_ref().expect("body"), &mut |e| match e {
            Expr::If { .. } => kinds.push("if"),
            Expr::While { .. } => kinds.push("while"),
            Expr::For { .. } => kinds.push("for"),
            Expr::Match { .. } => kinds.push("match"),
            _ => {}
        });
        for k in ["if", "while", "for", "match"] {
            assert!(kinds.contains(&k), "{kinds:?} missing {k}");
        }
    }

    #[test]
    fn struct_literal_vs_block_heuristic() {
        // `if cond { ... }`: the brace is a block, not a struct literal.
        let file = parse_src("fn f() { if ready { go(); } let s = Point { x: 1, y: 2 }; }");
        let f = first_fn(&file);
        let mut struct_lits = 0;
        let mut ifs = 0;
        walk_block(f.body.as_ref().expect("body"), &mut |e| match e {
            Expr::StructLit { .. } => struct_lits += 1,
            Expr::If { .. } => ifs += 1,
            _ => {}
        });
        assert_eq!((ifs, struct_lits), (1, 1));
    }

    #[test]
    fn closures_keep_params_and_body() {
        let file = parse_src("fn f() { v.sort_by_key(|e| e.priority); g(move |a, b| a + b); }");
        let f = first_fn(&file);
        let mut closures = Vec::new();
        walk_block(f.body.as_ref().expect("body"), &mut |e| {
            if let Expr::Closure { params, .. } = e {
                closures.push(params.clone());
            }
        });
        assert_eq!(
            closures,
            vec![
                vec!["e".to_string()],
                vec!["a".to_string(), "b".to_string()]
            ]
        );
    }

    #[test]
    fn macros_parse_args_best_effort() {
        let file = parse_src("fn f() { println!(\"{}\", m.len()); assert_eq!(a, b + 1); }");
        let f = first_fn(&file);
        let mut macros = Vec::new();
        walk_block(f.body.as_ref().expect("body"), &mut |e| {
            if let Expr::Macro { name, args, .. } = e {
                macros.push((name.clone(), args.len()));
            }
        });
        assert_eq!(
            macros,
            vec![("println".to_string(), 2), ("assert_eq".to_string(), 2)]
        );
    }

    #[test]
    fn use_items_record_line_ranges() {
        let file = parse_src("use std::collections::{\n    HashMap,\n    HashSet,\n};\nfn f() {}");
        let Some(Item::Use(span, end)) = file.items.first() else {
            panic!("use item, got {:?}", file.items.first());
        };
        assert_eq!(span.line, 1);
        assert_eq!(*end, 4);
    }

    #[test]
    fn malformed_input_degrades_not_loops() {
        // Total parser: garbage in, tree out — and it terminates.
        for src in [
            "fn f( { ) }",
            "let = = ;",
            "fn f() { match { } }",
            "impl { fn }",
            "fn f() { a.b.(c }",
            "struct S { x: }",
        ] {
            let _ = parse_src(src);
        }
    }

    #[test]
    fn nested_mods_and_cfg_test() {
        let src = "mod outer { mod inner { fn deep() { let m = HashMap::new(); } } }";
        let file = parse_src(src);
        let mut names = Vec::new();
        for_each_fn(&file.items, &mut |f| names.push(f.name.clone()));
        assert_eq!(names, vec!["deep"]);
    }

    #[test]
    fn compound_assignment_ops() {
        let file = parse_src("fn f() { x += 1; y <<= 2; z *= 3; w = 4; }");
        let f = first_fn(&file);
        let mut ops = Vec::new();
        walk_block(f.body.as_ref().expect("body"), &mut |e| {
            if let Expr::Assign { op, .. } = e {
                ops.push(op.clone());
            }
        });
        assert_eq!(ops, vec!["+=", "<<=", "*=", "="]);
    }

    #[test]
    fn fat_arrow_not_parsed_as_assignment() {
        // `=>` inside matches!-style macros must not be split into `=`.
        let file = parse_src("fn f() -> bool { matches!(x, Some(_)) }");
        let f = first_fn(&file);
        let mut assigns = 0;
        walk_block(f.body.as_ref().expect("body"), &mut |e| {
            if matches!(e, Expr::Assign { .. }) {
                assigns += 1;
            }
        });
        assert_eq!(assigns, 0);
    }

    #[test]
    fn generics_with_fn_trait_bounds() {
        let file = parse_src("fn run<F: Fn(u64) -> u64>(f: F, n_s: u64) -> u64 { f(n_s) }");
        let f = first_fn(&file);
        assert_eq!(f.name, "run");
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.params[1].0, "n_s");
        assert!(f.body.is_some());
    }
}
