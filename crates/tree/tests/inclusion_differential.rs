//! Differential tests for the reachable-pair fixpoint behind tree-language
//! inclusion ([`uta::run_pairs`], [`uta::included_in_duta`],
//! [`uta::equivalent`]).
//!
//! The left-hand sides are seeded random *nondeterministic* nUTAs — at
//! least two states per label, content models over every state — some of
//! them using a label outside the right-hand side's universe. Each is
//! checked against a random right-hand side `b` determinised over its own
//! labels (`b.determinize(b.labels())`):
//!
//! * every pair the fixpoint reports is realised by its witness tree, as
//!   [`uta::materialise`] builds it from the pair DAG (one budget step per
//!   node), and every `(state, run state)` pair of a random tree over the
//!   left-hand labels is reported (the fixpoint is sound and complete);
//! * the inclusion counterexample has the least witness size among the
//!   separating pairs;
//! * against no target, the fixpoint reports one pair per state that some
//!   pair against `b` names (the inhabited states), each realised by its
//!   witness;
//! * every inclusion counterexample is accepted by `a` and rejected by `b`;
//!   on an `Ok` verdict, no random tree and no inhabitation witness of `a`
//!   separates the two;
//! * `equivalent`'s side flag names the side that accepts its witness.

use std::collections::BTreeSet;

use dxml_automata::{Budget, Nfa, Symbol};
use dxml_tree::generate::{random_trees, SplitRng, TreeGenConfig};
use dxml_tree::uta::{self, Duta, Nuta};
use dxml_tree::XTree;

/// The right-hand side's label universe.
const LABELS: [&str; 3] = ["a", "b", "c"];

/// A label only some left-hand sides use.
const FOREIGN: &str = "x";

/// The `per_label` state names of each label.
fn states_of(labels: &[&str], per_label: usize) -> Vec<(Symbol, Symbol)> {
    labels
        .iter()
        .flat_map(|l| (0..per_label).map(move |i| (Symbol::new(format!("q{l}{i}")), Symbol::new(*l))))
        .collect()
}

/// A random content NFA (1–3 states) over `states`.
fn random_content(rng: &mut SplitRng, states: &[Symbol]) -> Nfa {
    let n = 1 + rng.below(3);
    let mut nfa = Nfa::new(n, 0);
    for _ in 0..rng.below(2 * n + 2) {
        nfa.add_transition(rng.below(n), *rng.pick(states), rng.below(n));
    }
    for q in 0..n {
        if rng.chance(1, 2) {
            nfa.set_final(q);
        }
    }
    nfa
}

/// A random nondeterministic nUTA with two or three states per label.
fn random_nuta(rng: &mut SplitRng, labels: &[&str]) -> Nuta {
    let states = states_of(labels, 2 + rng.below(2));
    let names: Vec<Symbol> = states.iter().map(|(q, _)| *q).collect();
    let mut a = Nuta::new();
    for (q, label) in &states {
        a.set_rule(*q, *label, random_content(rng, &names));
        if rng.chance(1, 3) {
            a.set_final(*q);
        }
    }
    a.set_final(names[rng.below(names.len())]);
    a
}

/// A sub-automaton of `b` (a subset of its rules, a subset of its finals),
/// so `[a] ⊆ [b]` — plus, sometimes, rules for the foreign label, which may
/// break the inclusion.
fn sub_automaton(rng: &mut SplitRng, b: &Nuta) -> Nuta {
    let mut a = Nuta::new();
    for (q, label, content) in b.rules() {
        if rng.chance(4, 5) {
            a.set_rule(*q, *label, content.clone());
        }
    }
    for q in b.finals() {
        if rng.chance(2, 3) {
            a.set_final(*q);
        }
    }
    if rng.chance(1, 2) {
        let names: Vec<Symbol> = a.states().iter().copied().collect();
        for (q, label) in states_of(&[FOREIGN], 2) {
            let content = if names.is_empty() { Nfa::epsilon() } else { random_content(rng, &names) };
            a.set_rule(q, label, content);
            if rng.chance(1, 4) {
                a.set_final(q);
            }
        }
    }
    a
}

/// The left-hand side of case `case`: a sub-automaton of `b`, a random
/// automaton over `b`'s labels, or one that also uses the foreign label.
fn left_side(rng: &mut SplitRng, b: &Nuta, case: usize) -> Nuta {
    match case % 3 {
        0 => sub_automaton(rng, b),
        1 => random_nuta(rng, &LABELS),
        _ => random_nuta(rng, &[LABELS[0], LABELS[1], LABELS[2], FOREIGN]),
    }
}

/// The inhabitation witness of every inhabited state of `a`: the pairs of
/// the fixpoint against no target, materialised.
fn inhabitation_witnesses(a: &Nuta) -> Vec<(Symbol, XTree)> {
    let unlimited = Budget::unlimited();
    let pairs = uta::run_pairs(a, None, &unlimited).unwrap();
    (0..pairs.len()).map(|p| (pairs[p].name, uta::materialise(&pairs, p, &unlimited).unwrap())).collect()
}

/// Random trees over `a`'s labels plus the inhabitation witness of every
/// inhabited state of `a`.
fn probe_trees(a: &Nuta, seed: u64) -> Vec<XTree> {
    let mut trees: Vec<XTree> = inhabitation_witnesses(a).into_iter().map(|(_, t)| t).collect();
    if !a.labels().is_empty() {
        trees.extend(random_trees(seed, &TreeGenConfig::new(a.labels(), 3, 3), 150));
    }
    trees
}

/// The run state of `db` at the root of `tree` (`None` off its universe).
fn root_state(db: &Duta, tree: &XTree) -> Option<usize> {
    db.run(tree).map(|states| states[tree.root()])
}

#[test]
fn pairs_are_realised_by_their_witnesses_and_complete() {
    let mut rng = SplitRng::new(0x5EED_0001);
    for case in 0..120 {
        let b = random_nuta(&mut rng, &LABELS);
        let db = b.determinize(b.labels());
        let a = left_side(&mut rng, &b, case);
        let pairs = uta::run_pairs(&a, Some(&db), &Budget::unlimited()).unwrap();
        let reported: BTreeSet<(Symbol, Option<usize>)> = pairs.iter().map(|p| (p.name, p.state)).collect();
        assert_eq!(reported.len(), pairs.len(), "case {case}: a pair is reported twice");
        let budget = Budget::unlimited().with_step_quota(u64::MAX);
        let witnesses: Vec<XTree> =
            (0..pairs.len()).map(|p| uta::materialise(&pairs, p, &budget).unwrap()).collect();
        let mut sizes: Vec<usize> = Vec::new();
        for (pair, witness) in pairs.iter().zip(&witnesses) {
            let q = pair.name;
            assert!(pair.children.iter().all(|&c| c < sizes.len()), "case {case}: a child follows `{q}`");
            sizes.push(1 + pair.children.iter().map(|&c| sizes[c]).sum::<usize>());
            assert_eq!(witness.size(), sizes[sizes.len() - 1], "case {case}: witness `{witness}` of `{q}`");
            assert_eq!(witness.document_order(), (0..witness.size()).collect::<Vec<_>>());
            assert!(
                a.run(witness)[witness.root()].contains(&q),
                "case {case}: witness `{witness}` cannot be typed `{q}`"
            );
            assert_eq!(root_state(&db, witness), pair.state, "case {case}: witness `{witness}` of `{q}`");
        }
        assert_eq!(budget.steps_spent(), sizes.iter().sum::<usize>() as u64, "case {case}: one step per node");
        // Against no target: one pair per inhabited state, realised.
        let inhabited = inhabitation_witnesses(&a);
        let names: BTreeSet<Symbol> = inhabited.iter().map(|(q, _)| *q).collect();
        assert_eq!(names.len(), inhabited.len(), "case {case}: a state is inhabited twice");
        assert_eq!(names, pairs.iter().map(|p| p.name).collect(), "case {case}: inhabited states");
        for (q, witness) in &inhabited {
            assert!(a.run(witness)[witness.root()].contains(q), "case {case}: `{witness}` is not `{q}`");
        }
        // The inclusion witness has the least size among the separating pairs.
        let separating = pairs
            .iter()
            .zip(&sizes)
            .filter(|(p, _)| a.finals().contains(&p.name) && !p.state.is_some_and(|i| db.is_final(i)));
        let least = separating.map(|(_, &size)| size).min();
        assert_eq!(uta::included_in_duta(&a, &db).err().map(|w| w.size()), least, "case {case}");
        for tree in probe_trees(&a, case as u64) {
            let s = root_state(&db, &tree);
            for q in &a.run(&tree)[tree.root()] {
                assert!(
                    reported.contains(&(*q, s)),
                    "case {case}: tree `{tree}` realises ({q}, {s:?}), which is not reported"
                );
            }
        }
    }
}

#[test]
fn inclusion_verdicts_are_certified() {
    let mut rng = SplitRng::new(0x5EED_0002);
    let (mut included, mut refuted, mut foreign_refuted) = (0usize, 0usize, 0usize);
    for case in 0..150 {
        let b = random_nuta(&mut rng, &LABELS);
        let db = b.determinize(b.labels());
        let a = left_side(&mut rng, &b, case);
        match uta::included_in_duta(&a, &db) {
            Err(witness) => {
                assert!(a.accepts(&witness), "case {case}: `{witness}` is not accepted by a");
                assert!(!b.accepts(&witness), "case {case}: `{witness}` is accepted by b");
                assert!(!db.accepts(&witness), "case {case}: `{witness}` is accepted by db");
                refuted += 1;
                if witness.labels().contains(&Symbol::new(FOREIGN)) {
                    foreign_refuted += 1;
                }
            }
            Ok(()) => {
                for tree in probe_trees(&a, case as u64) {
                    assert!(
                        !a.accepts(&tree) || b.accepts(&tree),
                        "case {case}: inclusion claimed, but `{tree}` separates a from b"
                    );
                }
                included += 1;
            }
        }
        assert_eq!(
            uta::included(&a, &b).is_ok(),
            uta::included_in_duta(&a, &db).is_ok(),
            "case {case}: included and included_in_duta disagree"
        );
    }
    // Both verdicts, and foreign-label witnesses, must be exercised.
    assert!(included >= 20, "only {included} inclusions");
    assert!(refuted >= 20, "only {refuted} refutations");
    assert!(foreign_refuted >= 5, "only {foreign_refuted} witnesses use the foreign label");
}

#[test]
fn equivalence_side_flag_names_the_accepting_side() {
    let mut rng = SplitRng::new(0x5EED_0003);
    let (mut equal, mut left_only, mut right_only) = (0usize, 0usize, 0usize);
    for case in 0..150 {
        let b = random_nuta(&mut rng, &LABELS);
        let a = left_side(&mut rng, &b, case);
        match uta::equivalent(&a, &b) {
            Err((witness, true)) => {
                assert!(
                    a.accepts(&witness) && !b.accepts(&witness),
                    "case {case}: `{witness}` is flagged as accepted by a only"
                );
                left_only += 1;
            }
            Err((witness, false)) => {
                assert!(
                    b.accepts(&witness) && !a.accepts(&witness),
                    "case {case}: `{witness}` is flagged as accepted by b only"
                );
                right_only += 1;
            }
            Ok(()) => {
                assert!(uta::included(&a, &b).is_ok() && uta::included(&b, &a).is_ok());
                equal += 1;
            }
        }
    }
    assert!(equal >= 3, "only {equal} equivalent pairs");
    assert!(left_only >= 10, "only {left_only} left-only witnesses");
    assert!(right_only >= 10, "only {right_only} right-only witnesses");
}
