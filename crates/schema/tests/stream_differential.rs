//! Differential property tests: [`StreamValidator`] must agree with the
//! materialising route (`parse_xml` + [`RSdtd::validate`]) on *every* input
//! string — same verdict and byte-identical error value — across random
//! schemas, random documents, mutated documents and adversarial tag soup.

use dxml_automata::RFormalism;
use dxml_schema::{RSdtd, SchemaError, StreamValidator};
use dxml_tree::generate::{random_tree, SplitRng, TreeGenConfig};
use dxml_tree::xml::{parse_xml, to_xml};

const LABELS: [&str; 5] = ["s", "a", "b", "c", "d"];

/// A random single-type SDTD over [`LABELS`]: each rule's content model uses
/// at most one specialisation per label (the single-type restriction holds by
/// construction), with random postfix operators and comma/pipe combinators.
fn random_sdtd(rng: &mut SplitRng) -> RSdtd {
    // How many specialisations each label has (label~1, label~2, ...).
    let spec_counts: Vec<usize> = LABELS.iter().map(|_| 1 + rng.below(2)).collect();
    let all_specs: Vec<String> = LABELS
        .iter()
        .zip(&spec_counts)
        .flat_map(|(l, &k)| (1..=k).map(move |i| format!("{l}~{i}")))
        .collect();
    let mut rules = vec![];
    for (si, spec) in std::iter::once(&"s".to_string()).chain(&all_specs).enumerate() {
        if si > 0 && rng.chance(1, 3) {
            continue; // leaf-only: defaults to the {ε} content model
        }
        let mut atoms = vec![];
        for (li, label) in LABELS.iter().enumerate() {
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
    if rules.is_empty() || !rules[0].starts_with("s ") {
        rules.insert(0, "s -> a~1?".to_string());
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
        let s = random_sdtd(&mut rng);
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

#[test]
fn convenience_entry_point_agrees_too() {
    let s = RSdtd::parse(RFormalism::Nre, "s -> a*, b\na -> c?").unwrap();
    for doc in ["<s><a><c/></a><b/></s>", "<s><b/><a/></s>", "<s>", "junk"] {
        assert_eq!(StreamValidator::new(&s).validate(doc), tree_route(&s, doc), "doc {doc:?}");
    }
}
