//! `RDtd::accepts` (direct per-node validation) must agree with
//! `RDtd::to_nuta().accepts` (the bottom-up tree-automaton run) — and with the
//! determinised automaton — on pseudo-random generated trees.
//!
//! This is the cross-layer oracle the design algorithms rely on: the typing
//! check trusts that the automaton view of a DTD is its validation view.
//! The same corpus pins the reduction (Definition 5) to its definition and
//! the equivalence test of Proposition 4.1 to the tree-automaton route.

use dxml_automata::{RFormalism, Symbol};
use dxml_schema::RDtd;
use dxml_tree::generate::{random_trees, TreeGenConfig};
use dxml_tree::term::parse_term;

fn dtds() -> Vec<RDtd> {
    vec![
        // The Eurostat NCPI type of Figure 3.
        RDtd::parse(
            RFormalism::Nre,
            "eurostat -> averages, nationalIndex*\n\
             averages -> (Good, index+)+\n\
             nationalIndex -> country, Good, (index | value, year)\n\
             index -> value, year",
        )
        .unwrap(),
        // Recursive: binary-ish trees of a/b.
        RDtd::parse(RFormalism::Nre, "a -> (a | b)*\nb -> a?").unwrap(),
        // Flat with options.
        RDtd::parse(RFormalism::Dre, "s -> x?, y*, z").unwrap(),
        // An unreduced DTD (junk rule never satisfiable).
        RDtd::parse(RFormalism::Nre, "s -> a* | junk, junk\njunk -> junk").unwrap(),
        // Unreduced: `x` is bound, but reachable only through the unbound `y`.
        RDtd::parse(RFormalism::Nre, "s -> a | y\ny -> y, x").unwrap(),
    ]
}

#[test]
fn validation_agrees_with_uta_on_generated_trees() {
    for (i, dtd) in dtds().iter().enumerate() {
        let uta = dtd.to_nuta();
        let config = TreeGenConfig::new(dtd.alphabet(), 4, 4);
        for (j, tree) in random_trees(0xD7D + i as u64, &config, 300).iter().enumerate() {
            assert_eq!(
                dtd.accepts(tree),
                uta.accepts(tree),
                "dtd {i}, tree {j}: {tree}"
            );
        }
    }
}

#[test]
fn validation_agrees_with_determinised_uta() {
    for (i, dtd) in dtds().iter().enumerate() {
        let uta = dtd.to_nuta();
        let duta = uta.determinize(dtd.alphabet());
        let config = TreeGenConfig::new(dtd.alphabet(), 3, 3);
        for tree in random_trees(0xBEEF + i as u64, &config, 150) {
            assert_eq!(dtd.accepts(&tree), duta.accepts(&tree), "dtd {i}, tree {tree}");
        }
    }
}

#[test]
fn agreement_on_trees_with_foreign_labels() {
    // Trees drawn from a larger alphabet than the DTD's: both views must
    // reject labels the schema does not know.
    let dtd = RDtd::parse(RFormalism::Nre, "s -> a*").unwrap();
    let uta = dtd.to_nuta();
    let mut alphabet = dtd.alphabet().clone();
    alphabet.insert(Symbol::new("alien"));
    let config = TreeGenConfig::new(&alphabet, 3, 3);
    for tree in random_trees(31337, &config, 200) {
        assert_eq!(dtd.accepts(&tree), uta.accepts(&tree), "tree {tree}");
    }
    assert!(!uta.accepts(&parse_term("s(alien)").unwrap()));
}

#[test]
fn positive_samples_are_accepted_by_both() {
    // sample_tree is drawn from the automaton side; the validation side must
    // agree, giving at least one guaranteed-positive case per DTD.
    for (i, dtd) in dtds().iter().enumerate() {
        let sample = dtd.sample_tree().unwrap_or_else(|| panic!("dtd {i} is non-empty"));
        assert!(dtd.accepts(&sample), "dtd {i}: sample {sample} rejected by validation");
        assert!(dtd.to_nuta().accepts(&sample), "dtd {i}: sample {sample} rejected by uta");
    }
}

#[test]
fn reductions_are_reduced() {
    for (i, dtd) in dtds().iter().enumerate() {
        if !dtd.language_is_empty() {
            let reduced = dtd.reduce();
            assert!(reduced.is_reduced(), "dtd {i}: its reduction {reduced} is not reduced");
        }
    }
}

#[test]
fn equivalence_of_reductions_agrees_with_the_automaton_route() {
    // Proposition 4.1 (compare the reductions) against tree-automaton
    // equivalence, over every pair of corpus DTDs and their reductions.
    let schemas: Vec<RDtd> = dtds().into_iter().flat_map(|d| [d.reduce(), d]).collect();
    for (i, a) in schemas.iter().enumerate() {
        for (j, b) in schemas.iter().enumerate() {
            assert_eq!(a.equivalent(b), a.equivalent_witness(b).is_ok(), "schemas {i} and {j}: {a} vs {b}");
        }
    }
}
