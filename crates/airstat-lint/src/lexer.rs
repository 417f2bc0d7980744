//! A small, lossless Rust lexer.
//!
//! The rule engine needs just enough syntax to be trustworthy: it must
//! never mistake the inside of a string literal, a comment, or a raw
//! string for code (or vice versa), and it must keep comments around so
//! suppression directives and work markers can be read back out.
//! Everything else — expression structure, types, name resolution — is
//! deliberately out of scope; the rules work on token patterns.
//!
//! The lexer is line/column accurate (1-based, in characters) so
//! findings can point at exact spans, and it is total: any byte
//! sequence produces a token stream, with a trailing [`TokenKind::Error`]
//! token when a literal is left unterminated.

/// What a token is, at the granularity the rules care about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`HashMap`, `fn`, `r#try`, …).
    Ident,
    /// Single punctuation character (`.`, `:`, `<`, `#`, …).
    Punct,
    /// Any string-like literal: `"…"`, `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`.
    Str,
    /// A character literal, e.g. `'a'` or `'\n'`.
    Char,
    /// A lifetime, e.g. `'a` (disambiguated from char literals).
    Lifetime,
    /// A numeric literal, suffix included (`0.5f64`, `0xFF`, `1_000u64`).
    Num,
    /// A `// …` comment (doc comments included), text kept verbatim.
    LineComment,
    /// A `/* … */` comment (nesting handled), text kept verbatim.
    BlockComment,
    /// An unterminated literal or comment at end of input.
    Error,
}

/// One lexed token with its source text and 1-based position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Classification.
    pub kind: TokenKind,
    /// Verbatim source text of the token.
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: u32,
    /// 1-based column (in characters) of the token's first character.
    pub col: u32,
}

impl Token {
    /// True for comment tokens (which rules other than the comment
    /// scanners skip over).
    pub fn is_comment(&self) -> bool {
        matches!(self.kind, TokenKind::LineComment | TokenKind::BlockComment)
    }

    /// The literal's payload with quotes and `r`/`b`/`#` framing
    /// stripped — empty for non-string tokens. Escape sequences are
    /// left as written; the rules only inspect literal prefixes.
    pub(crate) fn str_contents(&self) -> &str {
        if self.kind != TokenKind::Str {
            return "";
        }
        let body = self
            .text
            .trim_start_matches(['b', 'r'])
            .trim_start_matches('#')
            .trim_end_matches('#');
        body.strip_prefix('"')
            .and_then(|b| b.strip_suffix('"'))
            .unwrap_or(body)
    }
}

/// Lexes `src` into a complete token stream.
///
/// Whitespace is dropped; everything else (including comments) is kept.
/// The function never fails: malformed input degrades to
/// [`TokenKind::Error`] / single-character [`TokenKind::Punct`] tokens.
pub fn lex(src: &str) -> Vec<Token> {
    Lexer::new(src).run()
}

struct Lexer<'a> {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    col: u32,
    src: std::marker::PhantomData<&'a str>,
    out: Vec<Token>,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            chars: src.chars().collect(),
            pos: 0,
            line: 1,
            col: 1,
            src: std::marker::PhantomData,
            out: Vec::new(),
        }
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek(0)?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn run(mut self) -> Vec<Token> {
        while let Some(c) = self.peek(0) {
            if c.is_whitespace() {
                self.bump();
                continue;
            }
            let (line, col) = (self.line, self.col);
            let token = self.next_token(c);
            self.out.push(Token {
                kind: token.0,
                text: token.1,
                line,
                col,
            });
        }
        self.out
    }

    fn next_token(&mut self, c: char) -> (TokenKind, String) {
        match c {
            '/' if self.peek(1) == Some('/') => self.line_comment(),
            '/' if self.peek(1) == Some('*') => self.block_comment(),
            '"' => self.string(String::new()),
            '\'' => self.char_or_lifetime(),
            'r' | 'b' if self.starts_literal_prefix() => self.prefixed_literal(),
            c if c.is_alphabetic() || c == '_' => self.ident(),
            c if c.is_ascii_digit() => self.number(),
            _ => {
                self.bump();
                (TokenKind::Punct, c.to_string())
            }
        }
    }

    /// True when the `r`/`b`/`br` at the cursor opens a string literal
    /// (as opposed to a plain identifier like `radio` or a raw
    /// identifier like `r#try`).
    fn starts_literal_prefix(&self) -> bool {
        let mut ahead = 1;
        if self.peek(0) == Some('b') && self.peek(1) == Some('r') {
            ahead = 2;
        }
        // Skip `#`s of a raw string; `r#ident` (raw identifier) has an
        // identifier character right after a single `#`, never a quote.
        let mut hashes = 0;
        while self.peek(ahead) == Some('#') {
            ahead += 1;
            hashes += 1;
        }
        match self.peek(ahead) {
            Some('"') => true,
            Some('\'') if self.peek(0) == Some('b') && hashes == 0 => true, // byte char b'x'
            _ => false,
        }
    }

    fn prefixed_literal(&mut self) -> (TokenKind, String) {
        let mut text = String::new();
        while matches!(self.peek(0), Some('r' | 'b')) {
            text.push(self.bump().unwrap_or_default());
        }
        if self.peek(0) == Some('\'') {
            // b'x' byte literal: reuse the char scanner.
            let (kind, rest) = self.char_or_lifetime();
            text.push_str(&rest);
            return (kind, text);
        }
        let mut hashes = 0usize;
        while self.peek(0) == Some('#') {
            hashes += 1;
            text.push(self.bump().unwrap_or_default());
        }
        if self.peek(0) == Some('"') {
            text.push(self.bump().unwrap_or_default());
            if hashes == 0 && !text.contains('r') {
                // b"…" cooked byte string: escapes apply.
                return self.string(text);
            }
            // Raw string: ends at `"` followed by `hashes` hashes.
            loop {
                match self.bump() {
                    None => return (TokenKind::Error, text),
                    Some('"') => {
                        text.push('"');
                        let mut seen = 0;
                        while seen < hashes && self.peek(0) == Some('#') {
                            text.push(self.bump().unwrap_or_default());
                            seen += 1;
                        }
                        if seen == hashes {
                            return (TokenKind::Str, text);
                        }
                    }
                    Some(c) => text.push(c),
                }
            }
        }
        (TokenKind::Error, text)
    }

    fn string(&mut self, mut text: String) -> (TokenKind, String) {
        if !text.ends_with('"') {
            text.push(self.bump().unwrap_or_default()); // opening quote
        }
        loop {
            match self.bump() {
                None => return (TokenKind::Error, text),
                Some('\\') => {
                    text.push('\\');
                    if let Some(e) = self.bump() {
                        text.push(e);
                    }
                }
                Some('"') => {
                    text.push('"');
                    return (TokenKind::Str, text);
                }
                Some(c) => text.push(c),
            }
        }
    }

    fn char_or_lifetime(&mut self) -> (TokenKind, String) {
        let mut text = String::new();
        text.push(self.bump().unwrap_or_default()); // the quote
        let first = self.peek(0);
        let second = self.peek(1);
        let is_lifetime =
            matches!(first, Some(c) if c.is_alphabetic() || c == '_') && second != Some('\'');
        if is_lifetime {
            while matches!(self.peek(0), Some(c) if c.is_alphanumeric() || c == '_') {
                text.push(self.bump().unwrap_or_default());
            }
            return (TokenKind::Lifetime, text);
        }
        // Char literal: one (possibly escaped) char then a closing quote.
        match self.bump() {
            None => return (TokenKind::Error, text),
            Some('\\') => {
                text.push('\\');
                // Escapes: \n, \', \\, \x41, \u{1F4A9} — consume until
                // the closing quote to stay simple and safe.
                loop {
                    match self.bump() {
                        None => return (TokenKind::Error, text),
                        Some('\'') => {
                            text.push('\'');
                            return (TokenKind::Char, text);
                        }
                        Some(c) => text.push(c),
                    }
                }
            }
            Some(c) => text.push(c),
        }
        match self.bump() {
            Some('\'') => {
                text.push('\'');
                (TokenKind::Char, text)
            }
            _ => (TokenKind::Error, text),
        }
    }

    fn line_comment(&mut self) -> (TokenKind, String) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(self.bump().unwrap_or_default());
        }
        (TokenKind::LineComment, text)
    }

    fn block_comment(&mut self) -> (TokenKind, String) {
        let mut text = String::new();
        let mut depth = 0usize;
        loop {
            match self.peek(0) {
                None => return (TokenKind::Error, text),
                Some('/') if self.peek(1) == Some('*') => {
                    depth += 1;
                    text.push(self.bump().unwrap_or_default());
                    text.push(self.bump().unwrap_or_default());
                }
                Some('*') if self.peek(1) == Some('/') => {
                    text.push(self.bump().unwrap_or_default());
                    text.push(self.bump().unwrap_or_default());
                    depth -= 1;
                    if depth == 0 {
                        return (TokenKind::BlockComment, text);
                    }
                }
                Some(_) => text.push(self.bump().unwrap_or_default()),
            }
        }
    }

    fn ident(&mut self) -> (TokenKind, String) {
        let mut text = String::new();
        while matches!(self.peek(0), Some(c) if c.is_alphanumeric() || c == '_') {
            text.push(self.bump().unwrap_or_default());
        }
        // Raw identifier `r#try`: fold the `#ident` tail in.
        if text == "r" && self.peek(0) == Some('#') {
            text.push(self.bump().unwrap_or_default());
            while matches!(self.peek(0), Some(c) if c.is_alphanumeric() || c == '_') {
                text.push(self.bump().unwrap_or_default());
            }
        }
        (TokenKind::Ident, text)
    }

    fn number(&mut self) -> (TokenKind, String) {
        let mut text = String::new();
        // Digits, underscores, hex/bin letters, type suffixes — and a
        // decimal point only when a digit follows (so `1..4` stays a
        // range, not a malformed float).
        while let Some(c) = self.peek(0) {
            let part_of_number = c.is_alphanumeric()
                || c == '_'
                || (c == '.' && matches!(self.peek(1), Some(d) if d.is_ascii_digit()));
            if !part_of_number {
                break;
            }
            text.push(self.bump().unwrap_or_default());
        }
        (TokenKind::Num, text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn comments_line_block_nested() {
        let toks = kinds("a // trailing\n/* b /* nested */ still */ c");
        assert_eq!(
            toks,
            vec![
                (TokenKind::Ident, "a".into()),
                (TokenKind::LineComment, "// trailing".into()),
                (TokenKind::BlockComment, "/* b /* nested */ still */".into()),
                (TokenKind::Ident, "c".into()),
            ]
        );
    }

    #[test]
    fn strings_with_escapes_hide_code() {
        // The unwrap inside the string must not become tokens.
        let toks = kinds(r#"let s = "x.unwrap() \" // no";"#);
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokenKind::Str).count(), 1);
        assert!(toks
            .iter()
            .all(|(k, t)| *k != TokenKind::Ident || t != "unwrap"));
        assert!(!toks.iter().any(|(k, _)| *k == TokenKind::LineComment));
    }

    #[test]
    fn raw_strings_with_hashes() {
        let toks = kinds(r###"r#"quote " inside"# r"plain" b"bytes" br#"raw bytes"#"###);
        let strs: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Str)
            .map(|(_, t)| t.clone())
            .collect();
        assert_eq!(strs.len(), 4, "{toks:?}");
        assert_eq!(strs[0], "r#\"quote \" inside\"#");
    }

    #[test]
    fn str_contents_strips_framing() {
        let t = &lex(r##"r#"invariant: x"#"##)[0];
        assert_eq!(t.str_contents(), "invariant: x");
        let t = &lex(r#""invariant: y""#)[0];
        assert_eq!(t.str_contents(), "invariant: y");
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks = kinds("&'a str, 'x', '\\n', b'z'");
        let lifetimes: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Lifetime)
            .collect();
        let chars: Vec<_> = toks.iter().filter(|(k, _)| *k == TokenKind::Char).collect();
        assert_eq!(lifetimes.len(), 1);
        assert_eq!(chars.len(), 3);
    }

    #[test]
    fn nested_generics_stay_puncts() {
        // `>>` must lex as two puncts so `sum::<f64>` patterns inside
        // deeper generics still match token-by-token.
        let toks = kinds("x.sum::<Vec<Vec<f64>>>()");
        let puncts: Vec<_> = toks
            .iter()
            .filter(|(k, t)| *k == TokenKind::Punct && t == ">")
            .collect();
        assert_eq!(puncts.len(), 3);
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && t == "f64"));
    }

    #[test]
    fn raw_identifiers_are_idents_not_strings() {
        let toks = kinds("r#type r#match radio");
        assert!(toks.iter().all(|(k, _)| *k == TokenKind::Ident));
        assert_eq!(toks.len(), 3);
    }

    #[test]
    fn numbers_keep_suffixes_and_ranges_split() {
        let toks = kinds("0.5f64 1_000u64 0xFF 1..4");
        assert_eq!(toks[0], (TokenKind::Num, "0.5f64".into()));
        assert_eq!(toks[1], (TokenKind::Num, "1_000u64".into()));
        assert_eq!(toks[2], (TokenKind::Num, "0xFF".into()));
        // 1..4 => Num, Punct, Punct, Num
        assert_eq!(toks[3], (TokenKind::Num, "1".into()));
        assert_eq!(toks[4], (TokenKind::Punct, ".".into()));
        assert_eq!(toks[5], (TokenKind::Punct, ".".into()));
        assert_eq!(toks[6], (TokenKind::Num, "4".into()));
    }

    #[test]
    fn positions_are_one_based_lines_and_cols() {
        let toks = lex("ab\n  cd");
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
    }

    #[test]
    fn unterminated_literals_degrade_to_error() {
        assert_eq!(lex("\"open").last().map(|t| t.kind), Some(TokenKind::Error));
        assert_eq!(
            lex("/* open").last().map(|t| t.kind),
            Some(TokenKind::Error)
        );
    }
}
