//! Differential property tests: [`StreamValidator`] must agree with the
//! materialising route (`parse_xml` + [`RSdtd::validate`]) on *every* input
//! string — same verdict and byte-identical error value — across random
//! schemas, random documents, mutated documents and adversarial tag soup.

use std::collections::BTreeMap;

use dxml_automata::{Dfa, RFormalism, Symbol};
use dxml_schema::{RSdtd, SchemaError, StreamValidator};
use dxml_tree::generate::{random_tree, SplitRng, TreeGenConfig};
use dxml_tree::xml::{parse_xml, to_xml};

const LABELS: [&str; 5] = ["s", "a", "b", "c", "d"];

/// Element names that stress the validator's name table and the parser's
/// byte-level name scanner: multibyte names, ASCII names that another name
/// continues with a non-ASCII character (`ab`, `ab²`), a name of exactly
/// eight bytes, and two longer names that share their first eight bytes and
/// their length.
const NAMES: [&str; 10] =
    ["r", "ab", "ab²", "abc", "café", "möbius²", "é", "abcdefgh", "nationalIndex", "nationalIndey"];

/// A random single-type SDTD over `labels`, rooted at the first: each rule's
/// content model uses at most one specialisation per label (the single-type
/// restriction holds by construction), with random postfix operators and
/// comma/pipe combinators.
fn random_sdtd(rng: &mut SplitRng, labels: &[&str]) -> RSdtd {
    // How many specialisations each label has (label~1, label~2, ...).
    let spec_counts: Vec<usize> = labels.iter().map(|_| 1 + rng.below(2)).collect();
    let all_specs: Vec<String> = labels
        .iter()
        .zip(&spec_counts)
        .flat_map(|(l, &k)| (1..=k).map(move |i| format!("{l}~{i}")))
        .collect();
    let mut rules = vec![];
    for (si, spec) in std::iter::once(&labels[0].to_string()).chain(&all_specs).enumerate() {
        if si > 0 && rng.chance(1, 3) {
            continue; // leaf-only: defaults to the {ε} content model
        }
        let mut atoms = vec![];
        for (li, label) in labels.iter().enumerate() {
            if rng.chance(1, 2) {
                continue;
            }
            // One specialisation of this label, so the rule is single-type.
            let idx = 1 + rng.below(spec_counts[li]);
            let postfix = *rng.pick(&["", "*", "?", "+"]);
            atoms.push(format!("{label}~{idx}{postfix}"));
        }
        if atoms.is_empty() {
            continue;
        }
        let sep = if rng.chance(1, 4) { "|" } else { ", " };
        rules.push(format!("{spec} -> {}", atoms.join(sep)));
    }
    if rules.is_empty() || !rules[0].starts_with(&format!("{} ", labels[0])) {
        rules.insert(0, format!("{} -> {}~1?", labels[0], labels[1]));
    }
    RSdtd::parse(RFormalism::Nre, &rules.join("\n")).expect("constructed rules are single-type")
}

/// The reference: parse, then validate the materialised tree.
fn tree_route(s: &RSdtd, input: &str) -> Result<(), SchemaError> {
    parse_xml(input).map_err(SchemaError::from).and_then(|t| s.validate(&t))
}

fn assert_agree(v: &StreamValidator, s: &RSdtd, doc: &str) {
    assert_eq!(v.validate(doc), tree_route(s, doc), "schema {s}, doc {doc:?}");
}

/// Splices random markup-flavoured fragments into a document.
fn mutate(rng: &mut SplitRng, doc: &str) -> String {
    let fragments = [
        "<", ">", "/", "</", "/>", "<a>", "</a>", "<e/>", "\"", "'", " x=\"1>2\"", "é", "²", "<!--", "-->", "<?p?>", "text",
    ];
    let mut out = String::new();
    let mut emitted = false;
    for (i, c) in doc.char_indices() {
        if rng.chance(1, 20) {
            let fragment: &&str = rng.pick(&fragments);
            out.push_str(fragment);
            emitted = true;
        }
        if !(rng.chance(1, 40) && i > 0) {
            out.push(c);
        }
    }
    if !emitted {
        let fragment: &&str = rng.pick(&fragments);
        out.push_str(fragment);
    }
    out
}

/// Random tag soup assembled from markup tokens — mostly ill-formed.
fn tag_soup(rng: &mut SplitRng) -> String {
    let tokens = [
        "<a>", "<b>", "<s>", "</a>", "</b>", "</s>", "<c/>", "<a", ">", "<", "</", "x=\"v\"", "x='1>2'", "<!-- c -->", "<?pi?>", "words", " ", "<é>", "²",
    ];
    let n = 1 + rng.below(12);
    (0..n).map(|_| *rng.pick(&tokens)).collect()
}

#[test]
fn streaming_agrees_with_tree_route_on_random_schemas_and_documents() {
    let mut rng = SplitRng::new(0xD15_7C0DE);
    let alphabet = dxml_automata::Alphabet::from_iter(LABELS);
    for round in 0..40 {
        let s = random_sdtd(&mut rng, &LABELS);
        let v = StreamValidator::new(&s);
        // Documents in the language, when the language is non-empty.
        if let Some(t) = s.sample_tree() {
            let xml = to_xml(&t);
            assert_eq!(v.validate(&xml), Ok(()), "sample of {s} must stream-validate");
            assert_agree(&v, &s, &xml);
            for _ in 0..4 {
                assert_agree(&v, &s, &mutate(&mut rng, &xml));
            }
        }
        // Random trees over the schema's labels: a mix of valid and invalid.
        let config = TreeGenConfig::new(&alphabet, 1 + rng.below(5), 1 + rng.below(4));
        for _ in 0..10 {
            let xml = to_xml(&random_tree(&mut rng, &config));
            assert_agree(&v, &s, &xml);
            assert_agree(&v, &s, &mutate(&mut rng, &xml));
        }
        // Adversarial, mostly ill-formed inputs: both routes must return the
        // same parse error (never panic).
        for _ in 0..10 {
            assert_agree(&v, &s, &tag_soup(&mut rng));
        }
        assert_agree(&v, &s, "");
        let _ = round;
    }
}

/// A document typed by `s` from the root down: each element's children
/// spell a random walk through its content model's DFA, ending in a final
/// state when the walk can. Elements at `max_depth`, or once `budget`
/// elements are spent, get no children, so a deep element may still fail at
/// its close.
fn schema_walk(rng: &mut SplitRng, s: &RSdtd, max_depth: usize, max_fanout: usize) -> String {
    struct Walk<'a> {
        s: &'a RSdtd,
        dfas: BTreeMap<Symbol, Dfa>,
        max_depth: usize,
        max_fanout: usize,
        budget: usize,
        out: String,
    }
    fn element(w: &mut Walk, rng: &mut SplitRng, spec: Symbol, depth: usize) {
        let edtd = w.s.as_edtd();
        let label = *edtd.label_of(&spec).unwrap_or(&spec);
        w.budget = w.budget.saturating_sub(1);
        let dfa =
            w.dfas.entry(spec).or_insert_with(|| Dfa::from_nfa(&edtd.content(&spec).to_nfa()));
        let mut state = dfa.start();
        let mut word = Vec::new();
        while depth < w.max_depth && word.len() < 2 * w.max_fanout {
            let stop = dfa.is_final(state) && (word.len() >= w.max_fanout || rng.chance(1, 3));
            let moves: Vec<(Symbol, usize)> =
                dfa.transitions_from(state).map(|(a, q)| (*a, q)).collect();
            if stop || moves.is_empty() || w.budget == 0 {
                break;
            }
            let (child, next) = *rng.pick(&moves);
            word.push(child);
            state = next;
        }
        if word.is_empty() {
            w.out.push_str(&format!("<{label}/>"));
            return;
        }
        w.out.push_str(&format!("<{label}>"));
        for child in word {
            element(w, rng, child, depth + 1);
        }
        w.out.push_str(&format!("</{label}>"));
    }
    let mut w =
        Walk { s, dfas: BTreeMap::new(), max_depth, max_fanout, budget: 2000, out: String::new() };
    element(&mut w, rng, *s.start(), 0);
    w.out
}

/// A well-formed mutant of a document: a leaf element named from `names`
/// inserted before a random tag inside the root, or a leaf element deleted.
/// Either can break a content model at any depth, so violations surface
/// under many open frames.
fn structural_mutant(rng: &mut SplitRng, doc: &str, names: &[&str]) -> String {
    let tags: Vec<usize> = doc.match_indices('<').map(|(i, _)| i).filter(|&i| i > 0).collect();
    let leaves: Vec<(usize, usize)> = doc
        .match_indices("/>")
        .map(|(end, _)| (doc[..end].rfind('<').expect("a leaf tag opens"), end + 2))
        .collect();
    if !leaves.is_empty() && rng.chance(1, 3) {
        let (from, to) = *rng.pick(&leaves);
        return format!("{}{}", &doc[..from], &doc[to..]);
    }
    if tags.is_empty() {
        return doc.to_string();
    }
    let at = *rng.pick(&tags);
    let label = rng.pick(names);
    format!("{}<{label}/>{}", &doc[..at], &doc[at..])
}

/// The leaf names [`structural_mutant`] inserts into documents over
/// [`LABELS`]: four of them, and one the schemas never declare.
const LEAVES: [&str; 5] = ["a", "b", "c", "d", "e"];

#[test]
fn streaming_agrees_on_deep_and_wide_documents() {
    let mut rng = SplitRng::new(0x5EED_DEE9);
    let alphabet = dxml_automata::Alphabet::from_iter(LABELS);
    for _ in 0..60 {
        let s = random_sdtd(&mut rng, &LABELS);
        let v = StreamValidator::new(&s);
        // Schema-guided documents: mostly valid, so typed frames nest deep
        // and close cleanly, and their mutants fail under many open frames.
        for _ in 0..4 {
            let (depth, fanout) = (4 + rng.below(9), 1 + rng.below(8));
            let doc = schema_walk(&mut rng, &s, depth, fanout);
            assert_agree(&v, &s, &doc);
            for _ in 0..4 {
                assert_agree(&v, &s, &structural_mutant(&mut rng, &doc, &LEAVES));
            }
        }
        // Random trees up to 12 deep and 8 wide, kept small by a low
        // branching chance.
        let mut config = TreeGenConfig::new(&alphabet, 4 + rng.below(9), 2 + rng.below(7));
        config.branch_chance = 30;
        for _ in 0..6 {
            let xml = to_xml(&random_tree(&mut rng, &config));
            assert_agree(&v, &s, &xml);
            assert_agree(&v, &s, &structural_mutant(&mut rng, &xml, &LEAVES));
            assert_agree(&v, &s, &mutate(&mut rng, &xml));
        }
    }
}

#[test]
fn convenience_entry_point_agrees_too() {
    let s = RSdtd::parse(RFormalism::Nre, "s -> a*, b\na -> c?").unwrap();
    for doc in ["<s><a><c/></a><b/></s>", "<s><b/><a/></s>", "<s>", "junk"] {
        assert_eq!(StreamValidator::new(&s).validate(doc), tree_route(&s, doc), "doc {doc:?}");
    }
}

#[test]
fn streaming_agrees_on_multibyte_undeclared_and_prefix_names() {
    let mut rng = SplitRng::new(0x0A3E_5CA9);
    let pool = dxml_automata::Alphabet::from_iter(NAMES);
    for _ in 0..60 {
        // The root and a random half of the other names are declared; the
        // documents draw from all of them.
        let mut declared: Vec<&str> = vec![NAMES[0]];
        declared.extend(NAMES[1..].iter().filter(|_| rng.chance(1, 2)));
        if declared.len() < 2 {
            declared.push(NAMES[1 + rng.below(NAMES.len() - 1)]);
        }
        let s = random_sdtd(&mut rng, &declared);
        let v = StreamValidator::new(&s);
        for _ in 0..4 {
            let (depth, fanout) = (2 + rng.below(6), 1 + rng.below(5));
            let doc = schema_walk(&mut rng, &s, depth, fanout);
            assert_agree(&v, &s, &doc);
            // One inserted name can violate a content model and land in the
            // violating node's child list; a second one then often sits in
            // a skipped subtree.
            let once = structural_mutant(&mut rng, &doc, &NAMES);
            assert_agree(&v, &s, &once);
            assert_agree(&v, &s, &structural_mutant(&mut rng, &once, &NAMES));
        }
        // Random trees over every name: undeclared roots, undeclared
        // children and undeclared names under violated nodes.
        let config = TreeGenConfig::new(&pool, 1 + rng.below(5), 1 + rng.below(4));
        for _ in 0..6 {
            let xml = to_xml(&random_tree(&mut rng, &config));
            assert_agree(&v, &s, &xml);
            assert_agree(&v, &s, &structural_mutant(&mut rng, &xml, &NAMES));
        }
    }
}

#[test]
fn names_are_told_apart_by_every_byte() {
    let s = RSdtd::parse(RFormalism::Nre, "ab -> abc*, café?\ncafé -> nationalIndex*").unwrap();
    let v = StreamValidator::new(&s);
    let names = |names: &[&str]| names.iter().map(Symbol::new).collect::<Vec<_>>();
    for (doc, verdict) in [
        ("<ab><abc/><café><nationalIndex/></café></ab>", Ok(())),
        // An ASCII prefix continued by a non-ASCII name character is
        // another name, at the root ...
        (
            "<ab²/>",
            Err(SchemaError::RootMismatch {
                expected: Symbol::new("ab"),
                found: Symbol::new("ab²"),
            }),
        ),
        // ... and in a violating node's child list, reported in full.
        (
            "<ab><abc/><abc²/><cafe/></ab>",
            Err(SchemaError::InvalidContent {
                path: names(&["ab"]),
                children: names(&["abc", "abc²", "cafe"]),
                expected: "abc* café?".to_string(),
            }),
        ),
        // Same first eight bytes and length, different tail.
        (
            "<ab><café><nationalIndey/></café></ab>",
            Err(SchemaError::InvalidContent {
                path: names(&["ab", "café"]),
                children: names(&["nationalIndey"]),
                expected: "nationalIndex*".to_string(),
            }),
        ),
        // `ab` is violated at `abc` (after `café`), so everything under
        // `abc` is skipped and never named.
        (
            "<ab><café/><abc><zz²/><möbius²><x/></möbius²></abc></ab>",
            Err(SchemaError::InvalidContent {
                path: names(&["ab"]),
                children: names(&["café", "abc"]),
                expected: "abc* café?".to_string(),
            }),
        ),
    ] {
        assert_eq!(v.validate(doc), verdict, "doc {doc:?}");
        assert_agree(&v, &s, doc);
    }
}
