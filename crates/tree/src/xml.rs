//! A minimal element-only XML parser and serialiser.
//!
//! The paper abstracts XML documents to their element structure, ignoring
//! attributes and character data. This module offers just enough XML syntax
//! for the examples to read and write real documents: start tags, end tags,
//! self-closing tags, comments and text nodes (text is skipped). Attributes
//! are parsed and discarded.
//!
//! Parsing is a thin materialising wrapper over the streaming event layer in
//! [`crate::sax`]: the tree is assembled from [`SaxEvent`]s with an explicit
//! node stack, and serialisation walks an explicit work stack, so neither
//! direction recurses — documents nested 100 000 elements deep parse and
//! print without native stack growth (bounded only by the parser's
//! [depth limit](crate::sax::DEFAULT_DEPTH_LIMIT)).

use dxml_automata::{AutomataError, Symbol};

use crate::sax::{SaxEvent, SaxParser, DEFAULT_DEPTH_LIMIT};
use crate::tree::{NodeId, XTree};

/// Parses an XML document into its element-structure tree. Text content,
/// attributes, comments, processing instructions and the XML declaration are
/// skipped. Nesting is bounded by [`DEFAULT_DEPTH_LIMIT`]; use
/// [`parse_xml_with_limit`] to choose a different bound.
pub fn parse_xml(input: &str) -> Result<XTree, AutomataError> {
    parse_xml_with_limit(input, DEFAULT_DEPTH_LIMIT)
}

/// [`parse_xml`] with an explicit bound on element nesting depth; deeper
/// documents return a located error instead of exhausting memory.
pub fn parse_xml_with_limit(input: &str, depth_limit: usize) -> Result<XTree, AutomataError> {
    let mut parser = SaxParser::with_depth_limit(input, depth_limit);
    let mut tree: Option<XTree> = None;
    let mut stack: Vec<NodeId> = Vec::new();
    while let Some(event) = parser.next_event()? {
        match event {
            // The parser borrows names; the tree interns them, one
            // fallible lookup per start tag.
            SaxEvent::Open(name) => match (&mut tree, stack.last()) {
                (Some(t), Some(&parent)) => stack.push(t.add_child(parent, Symbol::try_new(name)?)),
                (slot @ None, _) => {
                    let root = XTree::leaf(Symbol::try_new(name)?);
                    stack.push(root.root());
                    *slot = Some(root);
                }
                (Some(_), None) => unreachable!("SaxParser rejects content after the root"),
            },
            SaxEvent::Close => {
                stack.pop();
            }
        }
    }
    tree.ok_or_else(|| AutomataError::Parse {
        message: "XML: expected a root element".into(),
        position: input.len(),
    })
}

/// Serialises the element structure of a tree as XML, indented two spaces per
/// level. The walk is iterative, so arbitrarily deep trees print without
/// native stack growth.
pub fn to_xml(tree: &XTree) -> String {
    enum Step {
        Visit(NodeId, usize),
        CloseTag(NodeId, usize),
    }
    let mut out = String::new();
    let mut stack = vec![Step::Visit(tree.root(), 0)];
    while let Some(step) = stack.pop() {
        match step {
            Step::Visit(node, depth) => {
                let indent = "  ".repeat(depth);
                let label = tree.label(node);
                if tree.is_leaf(node) {
                    out.push_str(&format!("{indent}<{label}/>\n"));
                } else {
                    out.push_str(&format!("{indent}<{label}>\n"));
                    stack.push(Step::CloseTag(node, depth));
                    for &c in tree.children(node).iter().rev() {
                        stack.push(Step::Visit(c, depth + 1));
                    }
                }
            }
            Step::CloseTag(node, depth) => {
                let indent = "  ".repeat(depth);
                let label = tree.label(node);
                out.push_str(&format!("{indent}</{label}>\n"));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::parse_term;

    #[test]
    fn parse_simple_document() {
        let xml = "<eurostat><averages><Good/><index><value/><year/></index></averages></eurostat>";
        let t = parse_xml(xml).unwrap();
        assert_eq!(
            t,
            parse_term("eurostat(averages(Good index(value year)))").unwrap()
        );
    }

    #[test]
    fn parse_with_declaration_comments_and_text() {
        let xml = r#"<?xml version="1.0"?>
            <!-- national consumer price index -->
            <nationalIndex>
              <country>France</country>
              <Good>food</Good>
              <index><value>104.2</value><year>2008</year></index>
            </nationalIndex>"#;
        let t = parse_xml(xml).unwrap();
        assert_eq!(
            t,
            parse_term("nationalIndex(country Good index(value year))").unwrap()
        );
    }

    #[test]
    fn attributes_are_ignored() {
        let t = parse_xml(r#"<a x="1" y="2"><b z="3"/></a>"#).unwrap();
        assert_eq!(t, parse_term("a(b)").unwrap());
    }

    #[test]
    fn quoted_attribute_values_may_contain_gt() {
        // The seed parser stopped at the first `>` even inside a quoted
        // value, mis-tokenising the rest of the document.
        let t = parse_xml(r#"<a x="1>2"><b y='3>4'/></a>"#).unwrap();
        assert_eq!(t, parse_term("a(b)").unwrap());
    }

    #[test]
    fn multibyte_names_parse_instead_of_panicking() {
        let t = parse_xml("<café><crème²/></café>").unwrap();
        assert_eq!(t.size(), 2);
        assert_eq!(t.root_label().as_str(), "café");
        let back = parse_xml(&to_xml(&t)).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn parse_errors_name_their_syntax() {
        // XML, term and regex errors share one variant; the message says
        // which syntax failed.
        let xml = parse_xml("<s><nat>").unwrap_err();
        assert_eq!(xml.to_string(), "parse error at byte 8: XML: unterminated element <nat>");
        let term = parse_term("s(a").unwrap_err();
        assert_eq!(term.to_string(), "parse error at byte 3: term: unterminated '('");
        let regex = dxml_automata::Regex::parse("a,").unwrap_err();
        assert_eq!(
            regex.to_string(),
            "parse error at byte 1: regex: empty operand after explicit concatenation separator"
        );
    }

    #[test]
    fn roundtrip_through_serialisation() {
        let t = parse_term("s(a(b c) d(e) f)").unwrap();
        let xml = to_xml(&t);
        let back = parse_xml(&xml).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn error_cases() {
        assert!(parse_xml("<a><b></a>").is_err());
        assert!(parse_xml("<a>").is_err());
        assert!(parse_xml("plain text").is_err());
        assert!(parse_xml("<a/><b/>").is_err());
    }

    #[test]
    fn depth_limit_errors_cleanly() {
        let doc = format!("{}<x/>{}", "<a>".repeat(64), "</a>".repeat(64));
        assert!(parse_xml_with_limit(&doc, 65).is_ok());
        let err = parse_xml_with_limit(&doc, 10).unwrap_err();
        assert!(err.to_string().contains("depth limit"), "{err}");
    }

    #[test]
    fn hundred_thousand_deep_document_parses() {
        // The seed parser recursed per level and aborted with a stack
        // overflow long before this depth.
        let depth = 100_000;
        let doc = format!("{}{}", "<a>".repeat(depth), "</a>".repeat(depth));
        let t = parse_xml(&doc).unwrap();
        assert_eq!(t.size(), depth);
        assert_eq!(t.depth(), depth);
    }

    #[test]
    fn deep_document_roundtrips_through_serialisation() {
        // The serialiser indents two spaces per level, so output size is
        // quadratic in depth; roundtrip at a depth that keeps the document
        // small while still far beyond any recursive serialiser's stack.
        let depth = 10_000;
        let doc = format!("{}{}", "<a>".repeat(depth), "</a>".repeat(depth));
        let t = parse_xml(&doc).unwrap();
        let back = parse_xml(&to_xml(&t)).unwrap();
        assert_eq!(t, back);
    }
}
