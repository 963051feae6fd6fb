//! Parsers for the two DTD syntaxes used by the paper.
//!
//! * The **compact rule syntax** of Figures 4–6 (`name -> content model`,
//!   one rule per line, first rule names the start symbol);
//! * the `<!ELEMENT …>` subset of the **W3C DTD syntax** of Figure 3
//!   (`EMPTY` and `(#PCDATA)` declare leaf-only elements, every other
//!   content model is a regular expression over element names).
//!
//! Both parsers produce an [`RDtd`] in the requested content-model
//! formalism `R`; for `dRE` every content model must be a deterministic
//! (one-unambiguous) expression, as required by the W3C standards.

use dxml_automata::{RFormalism, RSpec, Symbol};

use crate::dtd::RDtd;
use crate::error::SchemaError;

/// Parses the compact rule syntax (`eurostat -> averages, nationalIndex*`).
///
/// Empty lines and comments — a bare `#`, or `#` followed by whitespace —
/// are skipped; element names may contain `#`, so `#x -> a?` is a rule. The
/// left-hand side of the first rule is the start symbol; element names that
/// appear only on right-hand sides become leaf-only elements.
pub fn parse_dtd(formalism: RFormalism, input: &str) -> Result<RDtd, SchemaError> {
    let mut dtd: Option<RDtd> = None;
    for (lineno, raw) in input.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || is_comment(line) {
            continue;
        }
        let (lhs, rhs) = split_rule(line, lineno + 1)?;
        let content = parse_content(formalism, rhs, lineno + 1)?;
        // Intern fallibly: element names come from untrusted input, and a
        // full symbol table must reject the schema, not abort the process.
        let name = Symbol::try_new(lhs)?;
        let dtd = dtd.get_or_insert_with(|| RDtd::new(formalism, name));
        if dtd.has_rule(&name) {
            return Err(SchemaError::Parse {
                line: lineno + 1,
                message: format!("duplicate rule for element `{lhs}`"),
            });
        }
        dtd.set_rule(name, content);
    }
    dtd.ok_or_else(|| SchemaError::Parse { line: 1, message: "no rules found".into() })
}

/// Whether a trimmed line of the compact syntax is a comment (see
/// [`parse_dtd`]).
pub(crate) fn is_comment(line: &str) -> bool {
    line.strip_prefix('#')
        .is_some_and(|rest| rest.is_empty() || rest.starts_with(char::is_whitespace))
}

/// Splits a compact rule into `(lhs, rhs)` at `->` (or the arrow `→`).
fn split_rule(line: &str, lineno: usize) -> Result<(&str, &str), SchemaError> {
    let (lhs, rhs) = line
        .split_once("->")
        .or_else(|| line.split_once('→'))
        .ok_or_else(|| SchemaError::Parse {
            line: lineno,
            message: format!("expected `name -> content`, got `{line}`"),
        })?;
    let lhs = lhs.trim();
    if lhs.is_empty() || !lhs.chars().all(|c| c.is_alphanumeric() || c == '_' || c == '#') {
        return Err(SchemaError::Parse {
            line: lineno,
            message: format!("invalid element name `{lhs}`"),
        });
    }
    Ok((lhs, rhs.trim()))
}

fn parse_content(formalism: RFormalism, rhs: &str, lineno: usize) -> Result<RSpec, SchemaError> {
    RSpec::parse(formalism, rhs).map_err(|e| SchemaError::Parse {
        line: lineno,
        message: format!("bad content model `{rhs}`: {e}"),
    })
}

/// Parses the `<!ELEMENT name content>` subset of the W3C DTD syntax.
///
/// Supported content specifications:
///
/// * `EMPTY` and `(#PCDATA)` — the element is leaf-only (the paper ignores
///   character data);
/// * a parenthesised content model using `,` (sequence), `|` (choice) and
///   the `?`/`*`/`+` occurrence indicators.
///
/// Comments (`<!-- … -->`) are skipped; the first declared element is the
/// start symbol. Mixed content other than pure `(#PCDATA)` and the `ANY`
/// keyword are outside the paper's abstraction and are rejected.
pub fn parse_w3c_dtd(formalism: RFormalism, input: &str) -> Result<RDtd, SchemaError> {
    let mut dtd: Option<RDtd> = None;
    let mut rest = input;
    let mut consumed = 0usize;
    while let Some(open) = rest.find('<') {
        let at = consumed + open;
        let line_of = |pos: usize| input[..pos].matches('\n').count() + 1;
        // Only whitespace may separate declarations; silently skipping
        // arbitrary text would hide typos such as a mangled `<!ELEMENT`.
        if let Some((junk_off, _)) = rest[..open].char_indices().find(|(_, c)| !c.is_whitespace()) {
            return Err(SchemaError::Parse {
                line: line_of(consumed + junk_off),
                message: format!(
                    "unexpected text `{}` between declarations",
                    rest[junk_off..open].trim()
                ),
            });
        }
        let tail = &rest[open..];
        if let Some(stripped) = tail.strip_prefix("<!--") {
            let end = stripped.find("-->").ok_or_else(|| SchemaError::Parse {
                line: line_of(at),
                message: "unterminated comment".into(),
            })?;
            consumed = at + 4 + end + 3;
            rest = &input[consumed..];
            continue;
        }
        let decl = tail.strip_prefix("<!ELEMENT").ok_or_else(|| SchemaError::Parse {
            line: line_of(at),
            message: "expected `<!ELEMENT` or a comment".into(),
        })?;
        let close = decl.find('>').ok_or_else(|| SchemaError::Parse {
            line: line_of(at),
            message: "unterminated `<!ELEMENT` declaration".into(),
        })?;
        let body = decl[..close].trim();
        let lineno = line_of(at);
        let (name, spec) = body.split_once(char::is_whitespace).ok_or_else(|| SchemaError::Parse {
            line: lineno,
            message: format!("expected `<!ELEMENT name content>`, got `{body}`"),
        })?;
        let spec = spec.trim();
        let name_sym = Symbol::try_new(name)?;
        let dtd = dtd.get_or_insert_with(|| RDtd::new(formalism, name_sym));
        if spec == "EMPTY" || is_pcdata_only(spec) {
            dtd.add_element(name_sym);
        } else if spec == "ANY" {
            return Err(SchemaError::Parse {
                line: lineno,
                message: format!("`ANY` content of `{name}` is outside the paper's abstraction"),
            });
        } else if spec.contains("#PCDATA") {
            return Err(SchemaError::Parse {
                line: lineno,
                message: format!("mixed content of `{name}` is outside the paper's abstraction"),
            });
        } else {
            if dtd.has_rule(&name_sym) {
                return Err(SchemaError::Parse {
                    line: lineno,
                    message: format!("duplicate declaration of `{name}`"),
                });
            }
            dtd.set_rule(name_sym, parse_content(formalism, spec, lineno)?);
        }
        consumed = at + "<!ELEMENT".len() + close + 1;
        rest = &input[consumed..];
    }
    if let Some((junk_off, _)) = rest.char_indices().find(|(_, c)| !c.is_whitespace()) {
        return Err(SchemaError::Parse {
            line: input[..consumed + junk_off].matches('\n').count() + 1,
            message: format!("unexpected text `{}` after the last declaration", rest[junk_off..].trim()),
        });
    }
    dtd.ok_or_else(|| SchemaError::Parse { line: 1, message: "no `<!ELEMENT` declarations found".into() })
}

/// Whether the content spec is `(#PCDATA)` modulo whitespace.
fn is_pcdata_only(spec: &str) -> bool {
    let inner = spec.trim();
    inner
        .strip_prefix('(')
        .and_then(|s| s.strip_suffix(')'))
        .is_some_and(|s| s.trim() == "#PCDATA")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dxml_automata::Symbol;
    use dxml_tree::term::parse_term;

    #[test]
    fn compact_syntax_start_and_leaves() {
        let dtd = parse_dtd(RFormalism::Nre, "s -> a, b*\na -> c?").unwrap();
        assert_eq!(dtd.start(), &Symbol::new("s"));
        assert!(dtd.alphabet().contains(&Symbol::new("c")));
        assert!(!dtd.has_rule(&Symbol::new("b")));
        assert!(dtd.accepts(&parse_term("s(a(c) b b)").unwrap()));
        assert!(!dtd.accepts(&parse_term("s(b a)").unwrap()));
    }

    #[test]
    fn compact_syntax_skips_blank_lines_and_comments() {
        let dtd = parse_dtd(RFormalism::Nre, "\n# the start rule\ns -> a*\n\n").unwrap();
        assert!(dtd.accepts(&parse_term("s(a a)").unwrap()));
    }

    #[test]
    fn compact_syntax_reads_hash_names_as_rules() {
        let dtd = parse_dtd(RFormalism::Nre, "# c\n#\ns -> #x*\n#x -> a?").unwrap();
        assert!(dtd.has_rule(&Symbol::new("s")));
        assert!(dtd.has_rule(&Symbol::new("#x")));
        assert!(dtd.accepts(&parse_term("s(#x(a))").unwrap()));
    }

    #[test]
    fn compact_syntax_errors() {
        assert!(matches!(
            parse_dtd(RFormalism::Nre, "just a line"),
            Err(SchemaError::Parse { line: 1, .. })
        ));
        assert!(matches!(
            parse_dtd(RFormalism::Nre, "s -> a\ns -> b"),
            Err(SchemaError::Parse { line: 2, .. })
        ));
        assert!(parse_dtd(RFormalism::Nre, "").is_err());
        // dRE formalism rejects nondeterministic content models.
        assert!(parse_dtd(RFormalism::Dre, "s -> (a | b)*, a").is_err());
    }

    #[test]
    fn w3c_syntax_pcdata_and_empty() {
        let dtd = parse_w3c_dtd(
            RFormalism::Dre,
            r#"<!-- Figure 3 style -->
               <!ELEMENT s (a, b?)>
               <!ELEMENT a (#PCDATA)>
               <!ELEMENT b EMPTY>"#,
        )
        .unwrap();
        assert_eq!(dtd.start(), &Symbol::new("s"));
        assert!(dtd.accepts(&parse_term("s(a)").unwrap()));
        assert!(dtd.accepts(&parse_term("s(a b)").unwrap()));
        assert!(!dtd.accepts(&parse_term("s(b)").unwrap()));
    }

    #[test]
    fn compact_syntax_rejects_empty_content_operands() {
        // Regression: `a,,b` used to parse as `a b`, silently dropping the
        // empty operand. Same for trailing commas and empty alternation arms.
        for rhs in ["a,,b", "a,", ",a", ",,", "a | | b", "(a,)"] {
            let input = format!("s -> {rhs}");
            match parse_dtd(RFormalism::Nre, &input) {
                Err(SchemaError::Parse { line: 1, message }) => {
                    assert!(!message.is_empty(), "error for `{rhs}` must explain itself");
                }
                other => panic!("`{input}` must not parse, got {other:?}"),
            }
        }
        // `| |` as a whole content model is a leading-empty-arm error too.
        assert!(parse_dtd(RFormalism::Nre, "s -> | |").is_err());
    }

    #[test]
    fn w3c_syntax_rejects_empty_content_operands() {
        for spec in ["(a,,b)", "(a,)", "(a | | b)"] {
            let input = format!("<!ELEMENT s {spec}>");
            assert!(
                parse_w3c_dtd(RFormalism::Nre, &input).is_err(),
                "`{input}` must not parse"
            );
        }
    }

    #[test]
    fn w3c_syntax_rejects_junk_between_declarations() {
        assert!(parse_w3c_dtd(
            RFormalism::Nre,
            "<!ELEMENT s (a)> stray text <!ELEMENT a EMPTY>"
        )
        .is_err());
        assert!(parse_w3c_dtd(RFormalism::Nre, "<!ELEMENT s (a)> trailing junk").is_err());
        assert!(parse_w3c_dtd(RFormalism::Nre, "no declarations here").is_err());
        // The diagnostic names the line the junk is on, also at line starts.
        match parse_w3c_dtd(RFormalism::Nre, "<!ELEMENT s (a)>\njunk") {
            Err(SchemaError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected a parse error, got {other:?}"),
        }
        match parse_w3c_dtd(RFormalism::Nre, "<!ELEMENT s (a)>\nx\n<!ELEMENT a EMPTY>") {
            Err(SchemaError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected a parse error, got {other:?}"),
        }
        // Whitespace and comments between declarations stay fine.
        assert!(parse_w3c_dtd(
            RFormalism::Nre,
            "<!ELEMENT s (a)>\n  <!-- comment -->\n<!ELEMENT a EMPTY>"
        )
        .is_ok());
    }

    #[test]
    fn w3c_syntax_rejects_any_and_mixed() {
        assert!(parse_w3c_dtd(RFormalism::Nre, "<!ELEMENT s ANY>").is_err());
        assert!(parse_w3c_dtd(RFormalism::Nre, "<!ELEMENT s (#PCDATA | a)*>").is_err());
        assert!(parse_w3c_dtd(RFormalism::Nre, "<!ELEMENT s (a)").is_err());
        assert!(parse_w3c_dtd(RFormalism::Nre, "  ").is_err());
    }
}
