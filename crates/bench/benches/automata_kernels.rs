//! The dense automata kernels behind every design procedure: subset
//! construction and word membership over interned `u32` symbols, NFA
//! membership with dense bitset frontiers, and the bitset product BFS of
//! `Duta::outputs_over` (the Moore-machine image behind `verify_local`).
//!
//! Every case is gated (`_interned/`, `_bitset/`) against the committed
//! baseline through `bench_compare`. The string-keyed and `BTreeSet`
//! references these kernels replaced are pinned for agreement by the
//! property tests (`automata/tests/stateset_props.rs`,
//! `tree/tests/frontier_props.rs`), not timed here.

use dxml_automata::{Dfa, Nfa, RFormalism, Symbol};
use dxml_bench::{box_workload, dtd_family, elem, section, Session};

/// The starred, ε-eliminated union of every content model of the `(n, 11)`
/// DTD family, with each symbol renamed by `rename` — the automaton shape
/// the design procedures determinise and step over and over.
fn family_language(n: usize, rename: impl Fn(&Symbol) -> Symbol) -> Nfa {
    let target = dtd_family(RFormalism::Nre, n, 11);
    let contents: Vec<Nfa> = target
        .alphabet()
        .iter()
        .map(|a| target.content(a).to_nfa())
        .collect();
    Nfa::union_all(contents.iter()).star().map_symbols(rename).eps_free()
}

/// The family's compressed `e<i>` names expanded to the paper's
/// element-name lengths (`nationalIndex_e<i>`, the Figure-3 naming style).
fn long_name(s: &Symbol) -> Symbol {
    Symbol::new(format!("nationalIndex_{s}"))
}

/// The family's names collapsed onto a 3-letter base alphabet
/// (`e<i>` ↦ `x<i%3>`). The collapse models the specialised-name
/// collisions of the box reduction and makes the union genuinely
/// nondeterministic: one step moves **every** branch expecting that base
/// letter, so the frontier grows with `n` like the state sets inside the
/// subset constructions and `outputs_over` products.
fn collapsed_name(s: &Symbol) -> Symbol {
    let i: usize = s.as_str().trim_start_matches('e').parse().unwrap_or(0);
    Symbol::new(format!("x{}", i % 3))
}

fn letter_of(sym: &Symbol) -> Option<usize> {
    sym.as_str().strip_prefix("#s").and_then(|t| t.parse().ok())
}

fn main() {
    let mut session = Session::new("automata_kernels");

    section("automata_kernels: subset construction over interned ids");
    for n in [8usize, 16, 24, 32] {
        let lang = family_language(n, long_name);
        session.bench(&format!("subset_construction_interned/n={n}"), 15, || {
            Dfa::from_nfa(&lang).num_states()
        });
    }

    section("automata_kernels: word membership over interned ids");
    for n in [16usize, 24] {
        let lang = family_language(n, long_name);
        let word: Vec<Symbol> = (0..512)
            .map(|i| long_name(&elem(1 + (i % n.saturating_sub(1).max(1)))))
            .collect();
        session.bench(&format!("membership_interned/n={n}"), 15, || lang.accepts(&word));
    }

    section("automata_kernels: NFA membership, bitset frontiers");
    for n in [8usize, 16, 24, 32] {
        let lang = family_language(n, collapsed_name);
        let word: Vec<Symbol> = (0..512).map(|i| Symbol::new(format!("x{}", i % 3))).collect();
        session.bench(&format!("membership_bitset/n={n}"), 25, || lang.accepts(&word));
    }

    section("automata_kernels: Duta::outputs_over image, bitset product BFS");
    for n in [4usize, 8, 16] {
        let (problem, doc) = box_workload(n);
        // Build the cache (and the gap language) outside the timed region.
        assert!(problem.verify_local(&doc).unwrap().is_valid());
        let cache = problem.target_cache();
        let duta = cache.duta();
        let word_lang = cache.forest_states(&Symbol::new("f")).expect("workload declares f");
        let label = Symbol::new("s");
        session.bench(&format!("outputs_over_bitset/n={n}"), 15, || {
            duta.outputs_over(&label, word_lang, letter_of).len()
        });
    }

    session.finish();
}
