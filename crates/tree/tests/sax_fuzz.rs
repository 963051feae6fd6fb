//! Fuzz-shaped tests for the streaming parser: adversarial byte strings must
//! never panic or abort — every input yields either a clean event stream or a
//! located `Err`. The same property is checked through `parse_xml`, and the
//! two routes must agree on well-formedness.

use dxml_tree::generate::SplitRng;
use dxml_tree::sax::{SaxEvent, SaxParser};
use dxml_tree::xml::parse_xml;

/// Random strings biased heavily toward markup metacharacters and multibyte
/// sequences, so tag/attribute/comment state machines get exercised at their
/// edges far more often than with uniform noise.
fn adversarial_string(rng: &mut SplitRng, len: usize) -> String {
    let pool: Vec<char> = "<>/=\"'!?-abAB \n\t²é🙂~.:_".chars().collect();
    let mut s = String::new();
    while s.chars().count() < len {
        s.push(*rng.pick(&pool));
    }
    s
}

/// Drains the parser, checking stream invariants event by event.
fn drain(input: &str) -> Result<Vec<SaxEvent<'_>>, dxml_automata::AutomataError> {
    let mut parser = SaxParser::new(input);
    let mut events = Vec::new();
    let mut depth = 0usize;
    while let Some(ev) = parser.next_event()? {
        match ev {
            SaxEvent::Open(_) => depth += 1,
            SaxEvent::Close => {
                assert!(depth > 0, "Close without matching Open on {input:?}");
                depth -= 1;
            }
        }
        events.push(ev);
    }
    assert_eq!(depth, 0, "parser finished with unclosed elements on {input:?}");
    Ok(events)
}

#[test]
fn adversarial_inputs_error_cleanly_and_routes_agree() {
    let mut rng = SplitRng::new(0xFEED_FACE);
    for _ in 0..4_000 {
        let len = 1 + rng.below(60);
        let input = adversarial_string(&mut rng, len);
        let stream = drain(&input);
        let tree = parse_xml(&input);
        assert_eq!(
            stream.is_ok(),
            tree.is_ok(),
            "stream and tree routes disagree on {input:?}: {stream:?} vs {tree:?}"
        );
        if let (Ok(events), Ok(t)) = (&stream, &tree) {
            let opens = events.iter().filter(|e| matches!(e, SaxEvent::Open(_))).count();
            assert_eq!(opens, t.size(), "event count vs tree size on {input:?}");
        }
    }
}

#[test]
fn truncations_of_valid_documents_never_panic() {
    let doc = r#"<?xml version="1.0"?><!-- c --><s a="1>2" b='<'><x><y/>text</x><z/></s>"#;
    for cut in 0..doc.len() {
        if !doc.is_char_boundary(cut) {
            continue;
        }
        let _ = drain(&doc[..cut]);
        let _ = parse_xml(&doc[..cut]);
    }
}

#[test]
fn exhausted_parser_stays_exhausted_after_errors() {
    for input in ["<a><b>", "<a x=\"1>", "</a>", "<", "<a></b>"] {
        let mut parser = SaxParser::new(input);
        let mut err_seen = false;
        for _ in 0..64 {
            match parser.next_event() {
                Err(_) => err_seen = true,
                Ok(None) => break,
                Ok(Some(_)) => assert!(!err_seen, "event after error on {input:?}"),
            }
        }
        assert!(err_seen, "{input:?} should fail");
        assert!(matches!(parser.next_event(), Ok(None)), "fuse must hold on {input:?}");
    }
}
