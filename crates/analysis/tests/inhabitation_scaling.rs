//! Emptiness, reduction, the structural lint and the definability decision
//! read the inhabitation fixpoint (`uta::run_pairs` against no target) and
//! never build a witness tree per name or a subset of content states, so
//! they stay polynomial on schemas whose trees or content automata are
//! exponential:
//!
//! * the doubling chain `r -> a0`, `a_i -> a_{i+1}, a_{i+1}`, whose one
//!   tree has `2^(n+1)` nodes, at `n = 40`;
//! * the suffix-counting content model `(a | b)* a (a | b)^(k-1)`, whose
//!   subset construction needs `2^k` states, at `k = 32`.

use std::time::{Duration, Instant};

use dxml_analysis::{analyze_edtd, dtd_definable};
use dxml_automata::{RFormalism, RSpec, Regex, Symbol};
use dxml_schema::{RDtd, REdtd};

const N: usize = 40;

/// Far above what each call takes, even unoptimised, and far below the
/// time a tree of 2^41 nodes or 2^32 subsets takes to build.
const BOUND: Duration = Duration::from_secs(5);

fn name(i: usize) -> Symbol {
    Symbol::new(format!("a{i}"))
}

/// The chain as a DTD: `a{N}` is a leaf.
fn chain_dtd() -> RDtd {
    let mut dtd = RDtd::new(RFormalism::Nre, "r");
    dtd.set_rule("r", RSpec::Nre(Regex::sym(name(0))));
    for i in 0..N {
        let next = Regex::sym(name(i + 1));
        dtd.set_rule(name(i), RSpec::Nre(Regex::concat(vec![next.clone(), next])));
    }
    dtd
}

/// The chain with every `a_i` a specialisation of one element `a`: not
/// DTD-definable, so the definability advisory runs its full decision.
fn specialised_chain() -> REdtd {
    let mut e = REdtd::new(RFormalism::Nre, "r", "r");
    for i in 0..=N {
        e.add_specialization(name(i), "a");
    }
    e.set_rule("r", RSpec::Nre(Regex::sym(name(0))));
    for i in 0..N {
        let next = Regex::sym(name(i + 1));
        e.set_rule(name(i), RSpec::Nre(Regex::concat(vec![next.clone(), next])));
    }
    e
}

fn timed<R>(what: &str, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let out = f();
    let took = start.elapsed();
    assert!(took < BOUND, "{what} took {took:?}");
    out
}

#[test]
fn the_doubling_chain_is_decided_without_building_its_tree() {
    let dtd = chain_dtd();
    let e = dtd.to_edtd();
    assert!(!timed("REdtd::language_is_empty", || e.language_is_empty()));
    let reduced = timed("RDtd::reduce", || dtd.reduce());
    assert!(reduced.is_reduced());
    assert_eq!(reduced.alphabet(), dtd.alphabet());
    let report = timed("analyze_edtd", || analyze_edtd(&e));
    assert!(report.iter().all(|d| d.code != "DX001" && d.code != "DX003"), "{report:?}");
    let definable = timed("dtd_definable", || dtd_definable(&e)).expect("a DTD language is DTD-definable");
    assert_eq!(definable.alphabet(), dtd.alphabet());

    let special = specialised_chain();
    assert!(!timed("REdtd::language_is_empty", || special.language_is_empty()));
    assert!(timed("dtd_definable", || dtd_definable(&special)).is_none());
    let report = timed("analyze_edtd", || analyze_edtd(&special));
    assert!(report.iter().all(|d| d.code != "DX001" && d.code != "DX007"), "{report:?}");
}

#[test]
fn a_suffix_counting_content_model_is_inhabited_without_its_subsets() {
    const K: usize = 32;
    let ab = || Regex::alt(vec![Regex::sym("a"), Regex::sym("b")]);
    let mut parts = vec![ab().star(), Regex::sym("a")];
    parts.extend((1..K).map(|_| ab()));
    let mut dtd = RDtd::new(RFormalism::Nre, "s");
    dtd.set_rule("s", RSpec::Nre(Regex::concat(parts)));
    let sample = timed("RDtd::sample_tree", || dtd.sample_tree()).expect("the language is not empty");
    assert_eq!(sample.size(), K + 1, "{sample}");
    assert!(dtd.accepts(&sample));
    assert!(timed("RDtd::reduce", || dtd.reduce()).is_reduced());
    assert!(!timed("REdtd::language_is_empty", || dtd.to_edtd().language_is_empty()));
}
