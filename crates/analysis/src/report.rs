//! Machine- and human-readable rendering of diagnostic reports.
//!
//! The `schema_lint` example (and any future lint front end) renders a
//! corpus of `(entry, findings)` pairs either as rustc-style text or as
//! one dependency-free JSON document:
//!
//! ```json
//! {
//!   "entries": [
//!     {"entry": "...", "diagnostics": [
//!       {"code":"DX005","severity":"warning","location":"...",
//!        "message":"...","suggestion":null}
//!     ]}
//!   ],
//!   "errors": 0
//! }
//! ```
//!
//! Field order inside each diagnostic object is fixed
//! (`code`, `severity`, `location`, `message`, `suggestion`) so the output
//! is diffable across runs; every string goes through [`json_string`], so
//! metacharacter-heavy schema names (quotes, backslashes, control
//! characters, non-ASCII) stay valid JSON.

use crate::{Diagnostic, Severity};

/// Minimal JSON string rendering: quotes, backslashes and control
/// characters escaped, everything else (including non-ASCII) passed
/// through verbatim. The bench harness writes its `BENCH_*` files with it
/// too.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One diagnostic as a JSON object with fixed field order.
fn diagnostic_json(d: &Diagnostic) -> String {
    let suggestion = d.suggestion.as_deref().map_or_else(|| "null".to_string(), json_string);
    format!(
        r#"{{"code":{},"severity":{},"location":{},"message":{},"suggestion":{}}}"#,
        json_string(d.code),
        json_string(&d.severity.to_string()),
        json_string(&d.location),
        json_string(&d.message),
        suggestion
    )
}

/// One corpus entry's findings as a JSON object.
fn entry_json(entry: &str, report: &[Diagnostic]) -> String {
    let diags: Vec<String> =
        report.iter().map(|d| format!("      {}", diagnostic_json(d))).collect();
    let body = if diags.is_empty() {
        "[]".to_string()
    } else {
        format!("[\n{}\n    ]", diags.join(",\n"))
    };
    format!("    {{\"entry\":{},\"diagnostics\":{}}}", json_string(entry), body)
}

/// Renders a whole corpus report as one JSON document
/// (`{"entries": [...], "errors": N}`).
pub fn render_json(entries: &[(String, Vec<Diagnostic>)]) -> String {
    let rendered: Vec<String> =
        entries.iter().map(|(entry, report)| entry_json(entry, report)).collect();
    format!(
        "{{\n  \"entries\": [\n{}\n  ],\n  \"errors\": {}\n}}",
        rendered.join(",\n"),
        error_count(entries)
    )
}

/// Renders a whole corpus report as rustc-style text, one header per
/// entry (`<entry>: clean` when it has no findings).
pub fn render_text(entries: &[(String, Vec<Diagnostic>)]) -> String {
    let mut out = String::new();
    for (entry, report) in entries {
        if report.is_empty() {
            out.push_str(entry);
            out.push_str(": clean\n");
            continue;
        }
        out.push_str(entry);
        out.push_str(":\n");
        for d in report {
            out.push_str(&d.to_string());
            out.push('\n');
        }
    }
    out
}

/// Error-severity count across all findings — the exit-code contract:
/// lint front ends exit non-zero iff this is positive.
pub fn error_count(entries: &[(String, Vec<Diagnostic>)]) -> usize {
    entries
        .iter()
        .flat_map(|(_, report)| report)
        .filter(|d| d.severity == Severity::Error)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(code: &'static str, severity: Severity, location: &str) -> Diagnostic {
        Diagnostic::new(code, severity, location, "msg")
    }

    #[test]
    fn json_string_escapes_metacharacters() {
        assert_eq!(json_string(r#"quote " here"#), r#""quote \" here""#);
        assert_eq!(json_string(r"back \ slash"), r#""back \\ slash""#);
        assert_eq!(json_string("ctrl\nnewline\ttab"), "\"ctrl\\u000anewline\\u0009tab\"");
        assert_eq!(json_string("élément «über»"), "\"élément «über»\"");
        assert_eq!(json_string(""), "\"\"");
    }

    #[test]
    fn diagnostic_fields_come_in_stable_order() {
        let entries = vec![(
            "entry".to_string(),
            vec![diag("DX001", Severity::Error, "element `a`").with_suggestion("fix it")],
        )];
        let json = render_json(&entries);
        let code = json.find(r#""code":"#).unwrap();
        let severity = json.find(r#""severity":"#).unwrap();
        let location = json.find(r#""location":"#).unwrap();
        let message = json.find(r#""message":"#).unwrap();
        let suggestion = json.find(r#""suggestion":"#).unwrap();
        assert!(code < severity && severity < location && location < message);
        assert!(message < suggestion, "{json}");
        assert!(json.contains(r#""suggestion":"fix it""#));
    }

    #[test]
    fn null_suggestion_is_json_null() {
        let entries =
            vec![("e".to_string(), vec![diag("DX002", Severity::Warning, "element `a`")])];
        assert!(render_json(&entries).contains(r#""suggestion":null"#));
    }

    #[test]
    fn metacharacter_heavy_entry_names_stay_valid_json() {
        // A schema named with quotes, backslashes and non-ASCII must not
        // break the document structure: every quote inside a string is
        // escaped, so the raw quote count of the document stays even and
        // the brace structure survives a naive scan.
        let entries = vec![(
            "schema \"x\\y\" (日本語)".to_string(),
            vec![diag("DX005", Severity::Warning, "element `\"q\"`")
                .with_suggestion("rename \\ it")],
        )];
        let json = render_json(&entries);
        let unescaped_quotes = json
            .as_bytes()
            .iter()
            .enumerate()
            .filter(|&(i, &b)| b == b'"' && (i == 0 || json.as_bytes()[i - 1] != b'\\'))
            .count();
        assert_eq!(unescaped_quotes % 2, 0, "{json}");
        assert!(json.contains(r#"schema \"x\\y\" (日本語)"#), "{json}");
    }

    #[test]
    fn error_count_matches_the_exit_contract() {
        let entries = vec![
            ("a".to_string(), vec![diag("DX001", Severity::Error, "schema")]),
            (
                "b".to_string(),
                vec![
                    diag("DX002", Severity::Warning, "element `x`"),
                    diag("DX008", Severity::Error, "schema"),
                ],
            ),
            ("c".to_string(), Vec::new()),
        ];
        assert_eq!(error_count(&entries), 2);
        let json = render_json(&entries);
        assert!(json.ends_with("\"errors\": 2\n}"), "{json}");
        let text = render_text(&entries);
        assert!(text.contains("c: clean"));
        assert!(text.contains("error[DX001]"));
    }
}
