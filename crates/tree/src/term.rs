//! The paper's term notation for trees: `s(a f1 b(f2))`.
//!
//! A term is an identifier optionally followed by a parenthesised,
//! whitespace- or comma-separated list of child terms. This is the notation
//! used throughout the paper for kernels and example documents
//! (e.g. `T0 = s(a f1 b(f2))`, `s0(a(b) f1 a(c))`).

use dxml_automata::{AutomataError, Symbol};

use crate::tree::{XForest, XTree};

/// Parses a tree from term notation.
///
/// Identifiers consist of alphanumeric characters, `_`, `~` and `#`;
/// children are separated by whitespace or commas.
pub fn parse_term(input: &str) -> Result<XTree, AutomataError> {
    let mut parser = TermParser { input, pos: 0 };
    parser.skip_ws();
    let tree = parser.parse_tree()?;
    parser.skip_ws();
    if parser.pos != parser.input.len() {
        return Err(AutomataError::Parse {
            message: "term: unexpected trailing input".into(),
            position: parser.pos,
        });
    }
    Ok(tree)
}

/// Parses a forest: a whitespace/comma separated sequence of terms
/// (used for the results of resource calls, which are forests attached under
/// a root).
pub fn parse_forest(input: &str) -> Result<XForest, AutomataError> {
    let mut parser = TermParser { input, pos: 0 };
    let mut forest = Vec::new();
    loop {
        parser.skip_ws();
        if parser.pos == parser.input.len() {
            break;
        }
        forest.push(parser.parse_tree()?);
    }
    Ok(forest)
}

/// Prints a tree in term notation. The walk is iterative, so arbitrarily
/// deep trees print without native stack growth.
pub fn to_term(tree: &XTree) -> String {
    enum Step {
        Visit(usize),
        Punct(&'static str),
    }
    let mut out = String::new();
    let mut stack = vec![Step::Visit(tree.root())];
    while let Some(step) = stack.pop() {
        match step {
            Step::Visit(node) => {
                out.push_str(tree.label(node).as_str());
                let children = tree.children(node);
                if !children.is_empty() {
                    out.push('(');
                    stack.push(Step::Punct(")"));
                    for (i, &c) in children.iter().enumerate().rev() {
                        stack.push(Step::Visit(c));
                        if i > 0 {
                            stack.push(Step::Punct(" "));
                        }
                    }
                }
            }
            Step::Punct(p) => out.push_str(p),
        }
    }
    out
}

struct TermParser<'a> {
    input: &'a str,
    pos: usize,
}

impl TermParser<'_> {
    fn byte(&self, pos: usize) -> Option<u8> {
        self.input.as_bytes().get(pos).copied()
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.byte(self.pos) {
            if b.is_ascii_whitespace() || b == b',' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    /// Parses an identifier, decoding UTF-8 characters properly (the seed
    /// classified raw bytes, so a multibyte letter's continuation bytes
    /// counted as alphanumeric and the final slice panicked mid-character).
    fn parse_ident(&mut self) -> Result<Symbol, AutomataError> {
        let rest = &self.input[self.pos..];
        let mut len = 0;
        for (i, c) in rest.char_indices() {
            if c.is_alphanumeric() || matches!(c, '_' | '~' | '#') {
                len = i + c.len_utf8();
            } else {
                break;
            }
        }
        if len == 0 {
            return Err(AutomataError::Parse {
                message: "term: expected an identifier".into(),
                position: self.pos,
            });
        }
        let ident = &rest[..len];
        self.pos += len;
        Symbol::try_new(ident)
    }

    /// Parses one term iteratively, growing the arena in place: each
    /// identifier is attached to the innermost open node as soon as it is
    /// read, so deep terms cost neither native stack nor repeated subtree
    /// copies.
    fn parse_tree(&mut self) -> Result<XTree, AutomataError> {
        let label = self.parse_ident()?;
        let mut tree = XTree::leaf(label);
        self.skip_ws();
        if self.byte(self.pos) != Some(b'(') {
            return Ok(tree);
        }
        self.pos += 1;
        let mut open = vec![tree.root()];
        while let Some(&parent) = open.last() {
            self.skip_ws();
            if self.pos >= self.input.len() {
                return Err(AutomataError::Parse {
                    message: "term: unterminated '('".into(),
                    position: self.pos,
                });
            }
            if self.byte(self.pos) == Some(b')') {
                self.pos += 1;
                open.pop();
                continue;
            }
            let child_label = self.parse_ident()?;
            let child = tree.add_child(parent, child_label);
            self.skip_ws();
            if self.byte(self.pos) == Some(b'(') {
                self.pos += 1;
                open.push(child);
            }
        }
        Ok(tree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_print_roundtrip() {
        for src in ["s", "s(a b c)", "s(a f1 b(f2))", "s0(a(b) f1 a(c))", "eurostat(averages(Good index) nationalIndex(country Good index))"] {
            let t = parse_term(src).unwrap();
            let printed = to_term(&t);
            let t2 = parse_term(&printed).unwrap();
            assert_eq!(t, t2, "roundtrip for {src}");
        }
    }

    #[test]
    fn parse_matches_manual_construction() {
        let t = parse_term("s(a f1 b(f2))").unwrap();
        let manual = XTree::node(
            "s",
            vec![XTree::leaf("a"), XTree::leaf("f1"), XTree::node("b", vec![XTree::leaf("f2")])],
        );
        assert_eq!(t, manual);
    }

    #[test]
    fn commas_are_accepted_as_separators() {
        let t = parse_term("s(a, b, c)").unwrap();
        assert_eq!(t.child_str(t.root()).len(), 3);
    }

    #[test]
    fn forest_parsing() {
        let f = parse_forest("a(b) c d(e f)").unwrap();
        assert_eq!(f.len(), 3);
        assert_eq!(f[0], parse_term("a(b)").unwrap());
        assert_eq!(f[2].size(), 3);
        assert!(parse_forest("").unwrap().is_empty());
    }

    #[test]
    fn parse_errors() {
        assert!(parse_term("").is_err());
        assert!(parse_term("s(a").is_err());
        assert!(parse_term("s)a(").is_err());
        assert!(parse_term("s(a) b").is_err());
    }

    #[test]
    fn multibyte_identifiers_parse_instead_of_panicking() {
        let t = parse_term("élan(crème²)").unwrap();
        assert_eq!(t.root_label().as_str(), "élan");
        assert_eq!(parse_term(&to_term(&t)).unwrap(), t);
    }

    #[test]
    fn hundred_thousand_deep_term_roundtrips() {
        // Both the parser and the printer were recursive in the seed and
        // aborted with a stack overflow at this depth.
        let depth = 100_000;
        let src = format!("{}a{}", "a(".repeat(depth - 1), ")".repeat(depth - 1));
        let t = parse_term(&src).unwrap();
        assert_eq!(t.size(), depth);
        assert_eq!(to_term(&t), src);
    }
}
