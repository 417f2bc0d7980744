//! Minimal JSON rendering for `--json` output.
//!
//! The schema is a stable contract for downstream tooling (CI
//! annotators, dashboards) and is pinned byte-for-byte by
//! `tests/json_schema.rs`:
//!
//! ```json
//! {
//!   "schema_version": 2,
//!   "files_scanned": 93,
//!   "findings": [
//!     {"rule": "...", "generation": 2, "file": "...", "line": 1, "col": 1, "message": "..."}
//!   ],
//!   "suppressed": [
//!     {"rule": "...", "generation": 1, "file": "...", "line": 1, "reason": "..."}
//!   ]
//! }
//! ```
//!
//! Schema 2 (this PR) added the per-entry `"generation"` field — `1`
//! for the token-pattern rules, `2` for the parser/dataflow rules — so
//! downstream tooling can segment the catalogue without a name table.
//! Arrays are sorted (file, line, col, rule), objects use exactly the
//! key order shown, and output ends with a newline. Bump
//! `SCHEMA_VERSION` on any shape change; the number is cross-checked
//! against `docs/LINTS.md` by the `schema-spec-drift` rule.

use crate::engine::AuditReport;

/// Version stamped into the output; see the module docs for the contract.
pub const SCHEMA_VERSION: u32 = 2;

/// Escapes a string for a JSON double-quoted context.
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders a full report in the pinned schema.
pub fn render(report: &AuditReport) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema_version\": {SCHEMA_VERSION},\n"));
    out.push_str(&format!("  \"files_scanned\": {},\n", report.files_scanned));
    out.push_str("  \"findings\": [");
    for (i, f) in report.findings.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&format!(
            "    {{\"rule\": \"{}\", \"generation\": {}, \"file\": \"{}\", \"line\": {}, \"col\": {}, \"message\": \"{}\"}}",
            f.rule.name(),
            f.rule.generation(),
            escape(&f.file),
            f.line,
            f.col,
            escape(&f.message)
        ));
    }
    out.push_str(if report.findings.is_empty() {
        "],\n"
    } else {
        "\n  ],\n"
    });
    out.push_str("  \"suppressed\": [");
    for (i, s) in report.suppressed.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&format!(
            "    {{\"rule\": \"{}\", \"generation\": {}, \"file\": \"{}\", \"line\": {}, \"reason\": \"{}\"}}",
            s.rule.name(),
            s.rule.generation(),
            escape(&s.file),
            s.line,
            escape(&s.reason)
        ));
    }
    out.push_str(if report.suppressed.is_empty() {
        "]\n"
    } else {
        "\n  ]\n"
    });
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_covers_controls_and_quotes() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn empty_report_renders_fixed_shape() {
        let rendered = render(&AuditReport::default());
        assert_eq!(
            rendered,
            "{\n  \"schema_version\": 2,\n  \"files_scanned\": 0,\n  \"findings\": [],\n  \"suppressed\": []\n}\n"
        );
    }
}
