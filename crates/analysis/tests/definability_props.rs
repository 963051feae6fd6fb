//! Differential property suite: the closure-based decision procedures
//! [`dtd_definable`] / [`sdtd_definable`] against brute-force
//! closure-violation search on enumerated small-tree universes.
//!
//! Lemma 3.12 characterises DTD-definable languages as those closed under
//! *label-guided* subtree exchange (swap subtrees rooted at equally
//! labelled nodes of two valid trees); Lemma 3.5's single-type analogue is
//! closure under *ancestor-guided* exchange (equal root-to-node label
//! paths). The brute force enumerates every tree up to a node budget,
//! collects the valid ones and searches for an exchange that falls out of
//! the language.
//!
//! On the curated corpus the minimal violations fit inside the enumeration
//! budget, so the brute force is *complete* there and the suite asserts
//! exact agreement. On the seeded random corpus it asserts the two
//! soundness directions: a definable verdict implies an equivalent witness
//! schema and no violation; a non-definable verdict implies the candidate
//! schema strictly grew.

use dxml_analysis::{dtd_candidate, dtd_definable, sdtd_candidate, sdtd_definable};
use dxml_automata::{RFormalism, RSpec, Regex, Symbol};
use dxml_schema::REdtd;
use dxml_tree::generate::SplitRng;
use dxml_tree::{Nuta, XTree};

// ----------------------------------------------------------------------
// Brute force
// ----------------------------------------------------------------------

/// Every tree over `labels` with at most `max_nodes` nodes.
fn all_trees(labels: &[Symbol], max_nodes: usize) -> Vec<XTree> {
    // by_size[k]: all trees with exactly k nodes.
    let mut by_size: Vec<Vec<XTree>> = vec![Vec::new(); max_nodes + 1];
    for k in 1..=max_nodes {
        let forests = all_forests(&by_size, k - 1);
        for &label in labels {
            for forest in &forests {
                by_size[k].push(XTree::node(label, forest.clone()));
            }
        }
    }
    by_size.concat()
}

/// Every forest (ordered sequence of trees) with exactly `total` nodes.
fn all_forests(by_size: &[Vec<XTree>], total: usize) -> Vec<Vec<XTree>> {
    if total == 0 {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    for first in 1..=total {
        for tree in &by_size[first] {
            for rest in all_forests(by_size, total - first) {
                let mut forest = Vec::with_capacity(rest.len() + 1);
                forest.push(tree.clone());
                forest.extend(rest);
                out.push(forest);
            }
        }
    }
    out
}

/// The sorted label universe of an EDTD.
fn label_universe(e: &REdtd) -> Vec<Symbol> {
    e.labels().iter().copied().collect()
}

/// Searches valid-tree pairs for a guided subtree exchange leaving the
/// language. `guard` receives the two trees and one node of each and says
/// whether the exchange is allowed by the closure property under test.
fn find_violation(
    nuta: &Nuta,
    trees: &[XTree],
    guard: impl Fn(&XTree, usize, &XTree, usize) -> bool,
) -> Option<XTree> {
    let valid: Vec<&XTree> = trees.iter().filter(|t| nuta.accepts(t)).collect();
    for t1 in &valid {
        for t2 in &valid {
            for x1 in t1.document_order() {
                for x2 in t2.document_order() {
                    if !guard(t1, x1, t2, x2) {
                        continue;
                    }
                    let exchanged = [t2.subtree(x2)];
                    let swapped = t1.replace_nodes(|n| (n == x1).then_some(&exchanged[..]));
                    if !nuta.accepts(&swapped) {
                        return Some(swapped);
                    }
                }
            }
        }
    }
    None
}

/// A violation of closure under label-guided exchange (Lemma 3.12) within
/// the `max_nodes` tree universe — a certificate of non-DTD-definability.
fn dtd_violation(e: &REdtd, max_nodes: usize) -> Option<XTree> {
    let nuta = e.to_nuta();
    let trees = all_trees(&label_universe(e), max_nodes);
    find_violation(&nuta, &trees, |t1, x1, t2, x2| t1.label(x1) == t2.label(x2))
}

/// A violation of closure under ancestor-guided exchange within the
/// `max_nodes` tree universe — a certificate of non-SDTD-definability.
fn sdtd_violation(e: &REdtd, max_nodes: usize) -> Option<XTree> {
    let nuta = e.to_nuta();
    let trees = all_trees(&label_universe(e), max_nodes);
    find_violation(&nuta, &trees, |t1, x1, t2, x2| t1.anc_str(x1) == t2.anc_str(x2))
}

// ----------------------------------------------------------------------
// Curated corpus (brute force is complete within the budget)
// ----------------------------------------------------------------------

/// The classic witness `s(a(b)* a(c) a(b)*)` from `edtd.rs`/`core/boxes.rs`.
fn one_c_edtd() -> REdtd {
    let mut e = REdtd::new(RFormalism::Nre, "s", "s");
    e.add_specialization("ab", "a");
    e.add_specialization("ac", "a");
    e.set_rule("s", RSpec::Nre(Regex::parse("ab* ac ab*").unwrap()));
    e.set_rule("ab", RSpec::Nre(Regex::parse("b").unwrap()));
    e.set_rule("ac", RSpec::Nre(Regex::parse("c").unwrap()));
    e
}

/// Depth-guided specialisation: SDTD-definable, not DTD-definable.
fn depth_edtd() -> REdtd {
    let mut e = REdtd::new(RFormalism::Nre, "s", "s");
    e.add_specialization("a1", "a");
    e.add_specialization("a2", "a");
    e.set_rule("s", RSpec::Nre(Regex::parse("a1").unwrap()));
    e.set_rule("a1", RSpec::Nre(Regex::parse("a2?").unwrap()));
    e.set_rule("a2", RSpec::Nre(Regex::parse("b").unwrap()));
    e
}

/// Position-guided with unbounded mixing: definable in both classes.
fn mixed_edtd() -> REdtd {
    let mut e = REdtd::new(RFormalism::Nre, "s", "s");
    e.add_specialization("ab", "a");
    e.add_specialization("ac", "a");
    e.set_rule("s", RSpec::Nre(Regex::parse("(ab | ac)*").unwrap()));
    e.set_rule("ab", RSpec::Nre(Regex::parse("b").unwrap()));
    e.set_rule("ac", RSpec::Nre(Regex::parse("c").unwrap()));
    e
}

/// Asserts exact agreement of both procedures with the brute force, and
/// that every definable verdict round-trips through an equivalent witness.
fn assert_agreement(e: &REdtd, max_nodes: usize, context: &str) {
    let dtd = dtd_definable(e);
    match dtd_violation(e, max_nodes) {
        Some(witness) => assert!(
            dtd.is_none(),
            "{context}: brute force found the label-guided violation {witness:?} \
             but dtd_definable returned a schema"
        ),
        None => {
            let dtd = dtd.unwrap_or_else(|| {
                panic!(
                    "{context}: no label-guided violation within {max_nodes} nodes \
                     but dtd_definable returned None"
                )
            });
            assert!(dtd.to_edtd().equivalent(e), "{context}: DTD witness not equivalent");
        }
    }
    let sdtd = sdtd_definable(e);
    match sdtd_violation(e, max_nodes) {
        Some(witness) => assert!(
            sdtd.is_none(),
            "{context}: brute force found the ancestor-guided violation {witness:?} \
             but sdtd_definable returned a schema"
        ),
        None => {
            let sdtd = sdtd.unwrap_or_else(|| {
                panic!(
                    "{context}: no ancestor-guided violation within {max_nodes} nodes \
                     but sdtd_definable returned None"
                )
            });
            assert!(sdtd.as_edtd().equivalent(e), "{context}: SDTD witness not equivalent");
        }
    }
}

#[test]
fn one_c_witness_agrees_with_brute_force() {
    // The minimal violations (s(a(b) a(c)) vs s(a(c))) fit in 5 nodes.
    let e = one_c_edtd();
    assert!(dtd_violation(&e, 5).is_some());
    assert!(sdtd_violation(&e, 5).is_some());
    assert_agreement(&e, 5, "one_c");
}

#[test]
fn depth_specialisation_agrees_with_brute_force() {
    let e = depth_edtd();
    assert!(dtd_violation(&e, 4).is_some());
    assert!(sdtd_violation(&e, 4).is_none());
    assert_agreement(&e, 4, "depth");
}

#[test]
fn mixed_specialisations_agree_with_brute_force() {
    assert_agreement(&mixed_edtd(), 4, "mixed");
}

#[test]
fn plain_dtd_languages_agree_with_brute_force() {
    for (i, rules) in
        ["s -> a*", "s -> a, b?", "s -> a | b\na -> b*", "s -> a+\na -> a?"].iter().enumerate()
    {
        let dtd = dxml_schema::RDtd::parse(RFormalism::Nre, rules).unwrap();
        assert_agreement(&dtd.to_edtd(), 4, &format!("dtd[{i}]"));
    }
}

#[test]
fn renamed_dtd_specialisations_agree_with_brute_force() {
    // A DTD written with gratuitously renamed specialisations.
    let mut e = REdtd::new(RFormalism::Nre, "root", "s");
    e.add_specialization("root", "s");
    e.add_specialization("child", "a");
    e.set_rule("root", RSpec::Nre(Regex::parse("child*").unwrap()));
    e.set_rule("child", RSpec::Nre(Regex::parse("b?").unwrap()));
    assert_agreement(&e, 4, "renamed");
}

#[test]
fn empty_language_agrees_with_brute_force() {
    let mut e = REdtd::new(RFormalism::Nre, "s", "s");
    e.set_rule("s", RSpec::Nre(Regex::sym("s")));
    assert_agreement(&e, 4, "empty");
}

// ----------------------------------------------------------------------
// Seeded random corpus (soundness directions)
// ----------------------------------------------------------------------

/// A small random regex over `letters` (deterministic given the rng).
fn random_regex(rng: &mut SplitRng, letters: &[Symbol]) -> Regex {
    let x = Regex::sym(*rng.pick(letters));
    let y = Regex::sym(*rng.pick(letters));
    match rng.below(6) {
        0 => x.star(),
        1 => x.opt(),
        2 => Regex::concat(vec![x, y.star()]),
        3 => Regex::alt(vec![x, y]),
        4 => Regex::concat(vec![x, y.opt()]),
        _ => x,
    }
}

/// A random EDTD over labels `{s, a, b}` with up to three specialisations
/// of `a` (contents over `b`-leaves, possibly overlapping or identical).
fn random_edtd(rng: &mut SplitRng) -> REdtd {
    let mut e = REdtd::new(RFormalism::Nre, "s", "s");
    let b = Symbol::new("b");
    let count = 1 + rng.below(3);
    let specs: Vec<Symbol> = (0..count).map(|i| Symbol::new("a").specialize(i)).collect();
    for spec in &specs {
        e.add_specialization(*spec, "a");
        e.set_rule(*spec, RSpec::Nre(random_regex(rng, &[b])));
    }
    e.set_rule("s", RSpec::Nre(random_regex(rng, &specs)));
    e
}

#[test]
fn random_corpus_soundness() {
    let mut rng = SplitRng::new(0x5EED_DEF1);
    for case in 0..40 {
        let e = random_edtd(&mut rng);
        let context = format!("random[{case}] {e}");
        match dtd_definable(&e) {
            Some(dtd) => {
                assert!(dtd.to_edtd().equivalent(&e), "{context}: DTD witness not equivalent");
                assert!(
                    dtd_violation(&e, 4).is_none(),
                    "{context}: definable but a label-guided violation exists"
                );
            }
            None => {
                // The candidate is the closure: it must have strictly grown.
                let cand = dtd_candidate(&e).to_edtd();
                assert!(e.included_in(&cand).is_ok(), "{context}: candidate lost trees");
                assert!(!cand.equivalent(&e), "{context}: candidate equal yet verdict None");
            }
        }
        match sdtd_definable(&e) {
            Some(sdtd) => {
                assert!(sdtd.as_edtd().equivalent(&e), "{context}: SDTD witness not equivalent");
                assert!(
                    sdtd_violation(&e, 4).is_none(),
                    "{context}: definable but an ancestor-guided violation exists"
                );
            }
            None => {
                let cand = sdtd_candidate(&e).to_edtd();
                assert!(e.included_in(&cand).is_ok(), "{context}: candidate lost trees");
                assert!(!cand.equivalent(&e), "{context}: candidate equal yet verdict None");
            }
        }
    }
}

#[test]
fn definability_is_monotone_across_the_hierarchy() {
    // DTD-definable ⊒ SDTD-definable on every corpus schema: whenever the
    // DTD procedure succeeds the SDTD one must too.
    let mut rng = SplitRng::new(0xA11_CE5);
    let mut corpus: Vec<REdtd> = vec![one_c_edtd(), depth_edtd(), mixed_edtd()];
    corpus.extend((0..20).map(|_| random_edtd(&mut rng)));
    for (i, e) in corpus.iter().enumerate() {
        if dtd_definable(e).is_some() {
            assert!(
                sdtd_definable(e).is_some(),
                "corpus[{i}]: DTD-definable but not SDTD-definable: {e}"
            );
        }
    }
}
