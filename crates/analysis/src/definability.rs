//! Decision procedures for the definability hierarchy of Section 3.
//!
//! Both procedures follow the same closure-based recipe: *reduce* the EDTD
//! with [`REdtd::reduce`] (keep only the inhabited specialised names
//! reachable through realizable content words, with their content models
//! restricted to them; an empty language keeps only the start, whose
//! content model is empty), build the **candidate** schema of the lemma —
//! the least DTD (Lemma 3.12) or single-type SDTD (Lemma 3.5) whose language
//! contains the target — and decide language equivalence of the candidate
//! against the original with the tree-automata machinery. Because the
//! candidate is the closure of the target language under the respective
//! guided subtree-exchange property, the language is definable in the lower
//! class **iff** the candidate is equivalent to it:
//!
//! * [`dtd_candidate`] merges, per element name `a`, the content models of
//!   every reduced specialisation `ã` with `µ(ã) = a` and erases `µ` — the
//!   closure under *label-guided* subtree exchange;
//! * [`sdtd_candidate`] discovers, top-down from the start, the
//!   specialisation *sets* reachable along each ancestor path and takes
//!   them as single-type specialised names — the closure under
//!   *ancestor-guided* subtree exchange (the characterisation of
//!   single-type grammars by Martens, Neven, Schwentick and Bex that
//!   Lemma 3.5 builds on).
//!
//! The differential test suite (`tests/definability_props.rs`) pins both
//! procedures against brute-force closure-violation search on enumerated
//! small-tree universes.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use dxml_automata::{Nfa, RFormalism, RSpec, Symbol};
use dxml_schema::{RDtd, REdtd, RSdtd};
use dxml_tree::uta;

/// The candidate DTD of Lemma 3.12: per element name `a`, the union over
/// every kept specialisation `ã` with `µ(ã) = a` of its reduced content
/// model, with `µ` erased. Its language always *contains* the language of
/// `e`; it equals it exactly when the language is DTD-definable.
pub fn dtd_candidate(e: &REdtd) -> RDtd {
    let reduced = e.reduce();
    let mu = |name: &Symbol| *reduced.label_of(name).unwrap_or(name);
    // Group the kept specialisations by label.
    let mut by_label: BTreeMap<Symbol, Vec<Nfa>> = BTreeMap::new();
    for name in reduced.specialized_names().iter() {
        by_label.entry(mu(name)).or_default().push(reduced.content(name).to_nfa());
    }
    let mut dtd = RDtd::new(RFormalism::Nfa, mu(reduced.start()));
    for (label, contents) in by_label {
        let mapped = Nfa::union_all(&contents).map_symbols(mu).trim();
        dtd.set_rule(label, RSpec::nfa(mapped));
    }
    dtd
}

/// Decides DTD-definability (Lemma 3.12): returns an [`RDtd`] with the same
/// language as `e` iff one exists. The witness is [`dtd_candidate`] — the
/// closure of the language under label-guided subtree exchange — so the
/// language is definable exactly when the candidate did not grow.
pub fn dtd_definable(e: &REdtd) -> Option<RDtd> {
    let candidate = dtd_candidate(e);
    uta::is_equivalent(&candidate.to_nuta(), &e.to_nuta()).then_some(candidate)
}

/// The candidate SDTD of Lemma 3.5: specialised names are the pairs
/// `(a, S)` of an element name and the *set* `S` of reduced specialisations
/// the original EDTD allows for an `a`-node with a given ancestor path —
/// discovered top-down from `(root, {start})`. Within one content model
/// every occurrence of a label is renamed to the same `(label, set)` pair,
/// so the result is single-type by construction; its language always
/// contains the language of `e` and equals it exactly when the language is
/// SDTD-definable.
///
/// # Panics
///
/// Only on a broken internal invariant (the construction producing a
/// candidate that is not single-type).
pub fn sdtd_candidate(e: &REdtd) -> RSdtd {
    let reduced = e.reduce();
    let mu = |name: &Symbol| *reduced.label_of(name).unwrap_or(name);
    let root_label = mu(reduced.start());
    // Interned (label, specialisation set) pairs: the single-type names.
    let mut names: BTreeMap<(Symbol, BTreeSet<Symbol>), Symbol> = BTreeMap::new();
    let mut counters: BTreeMap<Symbol, usize> = BTreeMap::new();
    let mut queue: VecDeque<(Symbol, BTreeSet<Symbol>)> = VecDeque::new();
    let start_type = (root_label, BTreeSet::from([*reduced.start()]));
    let start_name = root_label.specialize(0);
    names.insert(start_type.clone(), start_name);
    counters.insert(root_label, 1);
    queue.push_back(start_type);
    let mut out = REdtd::new(RFormalism::Nfa, start_name, root_label);
    out.add_specialization(start_name, root_label);
    while let Some(ty) = queue.pop_front() {
        let contents: Vec<Nfa> = ty.1.iter().map(|q| reduced.content(q).to_nfa()).collect();
        let union = Nfa::union_all(&contents);
        // Group the letters of the merged content by label: all
        // specialisations of `b` occurring here collapse into the one pair
        // `(b, S_b)` — which is what makes the candidate single-type.
        let mut child_sets: BTreeMap<Symbol, BTreeSet<Symbol>> = BTreeMap::new();
        for s in union.alphabet().iter() {
            child_sets.entry(mu(s)).or_default().insert(*s);
        }
        let mut rename: BTreeMap<Symbol, Symbol> = BTreeMap::new();
        for (label, child_set) in child_sets {
            let child_type = (label, child_set.clone());
            let name = *names.entry(child_type.clone()).or_insert_with(|| {
                let i = counters.entry(label).or_insert(0);
                let name = label.specialize(*i);
                *i += 1;
                queue.push_back(child_type);
                name
            });
            out.add_specialization(name, label);
            for s in child_set {
                rename.insert(s, name);
            }
        }
        let content = union.map_symbols(|s| rename[s]).trim();
        out.set_rule(names[&ty], RSpec::nfa(content));
    }
    RSdtd::from_edtd(out).expect("one name per label in each content model")
}

/// Decides SDTD-definability (Lemma 3.5): returns an [`RSdtd`] with the
/// same language as `e` iff one exists. The witness is [`sdtd_candidate`]
/// — the closure of the language under ancestor-guided subtree exchange —
/// so the language is definable exactly when the candidate did not grow.
pub fn sdtd_definable(e: &REdtd) -> Option<RSdtd> {
    let candidate = sdtd_candidate(e);
    uta::is_equivalent(&candidate.to_nuta(), &e.to_nuta()).then_some(candidate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dxml_automata::Regex;
    use dxml_tree::term::parse_term;

    /// The classic non-DTD-definable witness `s(a(b)* a(c) a(b)*)`.
    fn one_c_edtd() -> REdtd {
        let mut e = REdtd::new(RFormalism::Nre, "s", "s");
        e.add_specialization("ab", "a");
        e.add_specialization("ac", "a");
        e.set_rule("s", RSpec::Nre(Regex::parse("ab* ac ab*").unwrap()));
        e.set_rule("ab", RSpec::Nre(Regex::parse("b").unwrap()));
        e.set_rule("ac", RSpec::Nre(Regex::parse("c").unwrap()));
        e
    }

    /// Depth-specialised but single-type: `s(a(a(b)?))` with the inner `a`
    /// forced to contain `b`.
    fn depth_edtd() -> REdtd {
        let mut e = REdtd::new(RFormalism::Nre, "s", "s");
        e.add_specialization("a1", "a");
        e.add_specialization("a2", "a");
        e.set_rule("s", RSpec::Nre(Regex::parse("a1").unwrap()));
        e.set_rule("a1", RSpec::Nre(Regex::parse("a2?").unwrap()));
        e.set_rule("a2", RSpec::Nre(Regex::parse("b").unwrap()));
        e
    }

    #[test]
    fn one_c_is_neither_dtd_nor_sdtd_definable() {
        let e = one_c_edtd();
        assert!(dtd_definable(&e).is_none());
        assert!(sdtd_definable(&e).is_none());
        // The candidate is the proper superset (a(b)|a(c))* with root `s`.
        let cand = dtd_candidate(&e);
        assert!(e.included_in(&cand.to_edtd()).is_ok());
        assert!(cand.accepts(&parse_term("s(a(c) a(c))").unwrap()));
        assert!(!e.accepts(&parse_term("s(a(c) a(c))").unwrap()));
    }

    #[test]
    fn depth_specialisation_is_sdtd_but_not_dtd_definable() {
        let e = depth_edtd();
        assert!(dtd_definable(&e).is_none());
        let sdtd = sdtd_definable(&e).expect("single-type by depth");
        assert!(sdtd.as_edtd().equivalent(&e));
        assert!(sdtd.accepts(&parse_term("s(a(a(b)))").unwrap()));
        assert!(!sdtd.accepts(&parse_term("s(a(b))").unwrap()));
    }

    #[test]
    fn dtd_languages_are_definable_with_equivalent_witnesses() {
        let dtd = RDtd::parse(
            RFormalism::Nre,
            "eurostat -> averages, nationalIndex*\n\
             averages -> (Good, index+)+\n\
             nationalIndex -> country, Good, (index | value, year)\n\
             index -> value, year",
        )
        .unwrap();
        let e = dtd.to_edtd();
        let d = dtd_definable(&e).expect("a DTD language is DTD-definable");
        assert!(d.equivalent(&dtd));
        let s = sdtd_definable(&e).expect("a DTD language is SDTD-definable");
        assert!(s.as_edtd().equivalent(&e));
    }

    #[test]
    fn redundant_specialisations_collapse() {
        // Two specialisations of `a` with identical content: DTD-definable.
        let mut e = REdtd::new(RFormalism::Nre, "s", "s");
        e.add_specialization("x", "a");
        e.add_specialization("y", "a");
        e.set_rule("s", RSpec::Nre(Regex::parse("x y*").unwrap()));
        e.set_rule("x", RSpec::Nre(Regex::parse("b").unwrap()));
        e.set_rule("y", RSpec::Nre(Regex::parse("b").unwrap()));
        let d = dtd_definable(&e).expect("redundant specialisation");
        assert!(d.accepts(&parse_term("s(a(b) a(b))").unwrap()));
        assert!(!d.accepts(&parse_term("s").unwrap()));
    }

    #[test]
    fn empty_language_is_trivially_definable() {
        let mut e = REdtd::new(RFormalism::Nre, "s", "s");
        e.set_rule("s", RSpec::Nre(Regex::sym("s")));
        assert!(e.language_is_empty());
        let d = dtd_definable(&e).expect("empty language");
        assert!(d.language_is_empty());
        let s = sdtd_definable(&e).expect("empty language");
        assert!(s.as_edtd().language_is_empty());
    }

    #[test]
    fn unproductive_and_unreachable_specialisations_are_ignored() {
        // `dead` is unsatisfiable, `lost` is unreachable; the live part is
        // the plain DTD s -> a*.
        let mut e = REdtd::new(RFormalism::Nre, "s", "s");
        e.add_specialization("dead", "a");
        e.add_specialization("lost", "a");
        e.add_specialization("live", "a");
        e.set_rule("s", RSpec::Nre(Regex::parse("live* | dead").unwrap()));
        e.set_rule("dead", RSpec::Nre(Regex::sym("dead")));
        e.set_rule("lost", RSpec::Nre(Regex::parse("b").unwrap()));
        let d = dtd_definable(&e).expect("live part is a DTD");
        assert!(d.accepts(&parse_term("s(a a)").unwrap()));
        assert!(!d.alphabet().contains(&Symbol::new("b")));
    }
}
