//! Differential property tests for the bitset membership frontiers of the
//! tree layer: on random nUTAs, the determinised automaton's observables —
//! bottom-up runs and the `Duta::outputs_over` Moore-machine image (subset
//! states **and** shortest witness words) — must be byte-identical to a
//! `BTreeSet<usize>` reference reimplementation of the seed algorithms.
//! The per-label content DFA ([`Duta::content_dfa`]) is checked against the
//! bottom-up run it encodes.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use dxml_automata::{Nfa, Symbol};
use dxml_tree::generate::{random_trees, TreeGenConfig};
use dxml_tree::uta::{Duta, Nuta};

/// A small deterministic xorshift generator (no rand crate offline).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }
}

/// A random content NFA over the given state symbols.
fn random_content(rng: &mut Rng, states: &[Symbol]) -> Nfa {
    let n = 1 + rng.below(4);
    let mut nfa = Nfa::new(n, 0);
    for _ in 0..rng.below(2 * n + 2) {
        let from = rng.below(n);
        let to = rng.below(n);
        if rng.chance(10) {
            nfa.add_epsilon(from, to);
        } else {
            nfa.add_transition(from, states[rng.below(states.len())], to);
        }
    }
    for q in 0..n {
        if rng.chance(40) {
            nfa.set_final(q);
        }
    }
    nfa
}

/// A random nUTA over 3 labels and up to 4 states with random content
/// models and finals.
fn random_nuta(rng: &mut Rng) -> Nuta {
    let labels: Vec<Symbol> = ["la", "lb", "lc"].map(Symbol::new).to_vec();
    let states: Vec<Symbol> = (0..1 + rng.below(4)).map(|i| Symbol::new(format!("q{i}"))).collect();
    let mut a = Nuta::new();
    for q in &states {
        for l in &labels {
            if rng.chance(55) {
                a.set_rule(*q, *l, random_content(rng, &states));
            }
        }
        if rng.chance(40) {
            a.set_final(*q);
        }
    }
    // Always register every label so the universe is stable.
    for l in &labels {
        if a.labels().iter().all(|x| x != l) {
            a.set_rule(states[0], *l, Nfa::empty());
        }
    }
    a
}

/// The seed's `BTreeSet` view of a word automaton (for the reference
/// product BFS).
struct RefNfa {
    start: usize,
    finals: BTreeSet<usize>,
    trans: Vec<BTreeMap<Option<Symbol>, BTreeSet<usize>>>,
}

impl RefNfa {
    fn of(nfa: &Nfa) -> RefNfa {
        let mut out = RefNfa {
            start: nfa.start(),
            finals: nfa.finals().clone(),
            trans: vec![BTreeMap::new(); nfa.num_states()],
        };
        for (q, lbl, t) in nfa.transitions() {
            out.trans[q].entry(lbl.copied()).or_default().insert(t);
        }
        out
    }

    fn epsilon_closure(&self, set: &BTreeSet<usize>) -> BTreeSet<usize> {
        let mut closure = set.clone();
        let mut stack: Vec<usize> = set.iter().copied().collect();
        while let Some(q) = stack.pop() {
            if let Some(next) = self.trans[q].get(&None) {
                for &t in next {
                    if closure.insert(t) {
                        stack.push(t);
                    }
                }
            }
        }
        closure
    }

    fn step(&self, set: &BTreeSet<usize>, sym: &Symbol) -> BTreeSet<usize> {
        let mut next = BTreeSet::new();
        for &q in set {
            if let Some(ts) = self.trans[q].get(&Some(*sym)) {
                next.extend(ts.iter().copied());
            }
        }
        self.epsilon_closure(&next)
    }
}

/// The seed reimplementation of [`Duta::outputs_over`]: the same product
/// BFS (FIFO queue, text-order moves, first witness wins) over
/// `(machine config, BTreeSet frontier)` pairs, with the machine consumed
/// through its public transition view and the letters through
/// [`Duta::letter`].
fn reference_outputs_over(
    duta: &Duta,
    label: &Symbol,
    word_lang: &Nfa,
) -> BTreeMap<usize, Vec<usize>> {
    let machine = match duta.machine(label) {
        Some(m) => m,
        None => return BTreeMap::new(),
    };
    let delta: BTreeMap<(usize, usize), usize> =
        machine.transitions().map(|(c, l, n)| ((c, l), n)).collect();
    let word = RefNfa::of(word_lang);
    let letters: BTreeMap<Symbol, usize> =
        (0..duta.num_states()).map(|i| (duta.letter(i), i)).collect();
    let moves: Vec<(Symbol, usize)> = word_lang
        .alphabet()
        .iter()
        .filter_map(|&sym| letters.get(&sym).map(|&letter| (sym, letter)))
        .collect();
    // One BFS state of the seed product: (machine config, BTreeSet frontier).
    type Pair = (usize, BTreeSet<usize>);
    let start = (machine.start(), word.epsilon_closure(&BTreeSet::from([word.start])));
    let mut outputs: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    let mut seen: BTreeSet<Pair> = BTreeSet::from([start.clone()]);
    let mut queue: VecDeque<(Pair, Vec<usize>)> = VecDeque::from([(start, Vec::new())]);
    while let Some(((config, set), witness)) = queue.pop_front() {
        if set.iter().any(|q| word.finals.contains(q)) {
            outputs.entry(machine.output(config)).or_insert_with(|| witness.clone());
        }
        for &(sym, letter) in &moves {
            let next_config = match delta.get(&(config, letter)) {
                Some(&c) => c,
                None => continue,
            };
            let next_set = word.step(&set, &sym);
            if next_set.is_empty() {
                continue;
            }
            let state = (next_config, next_set);
            if seen.insert(state.clone()) {
                let mut w = witness.clone();
                w.push(letter);
                queue.push_back((state, w));
            }
        }
    }
    outputs
}

#[test]
fn outputs_over_images_match_the_btreeset_reference() {
    let mut rng = Rng(0x007_0075 ^ 0xdead_beef);
    let mut nonempty_images = 0usize;
    for case in 0..120 {
        let nuta = random_nuta(&mut rng);
        let labels = nuta.labels().clone();
        let duta = nuta.determinize(&labels);
        let n = duta.num_states();
        let letters: Vec<Symbol> = (0..n).map(|i| duta.letter(i)).collect();
        for label in &labels {
            let word_lang = random_content(&mut rng, &letters);
            let real = duta.outputs_over(label, &word_lang);
            let want = reference_outputs_over(&duta, label, &word_lang);
            assert_eq!(real, want, "case {case}: outputs_over diverged under `{label}`");
            nonempty_images += usize::from(!real.is_empty());
        }
    }
    assert!(nonempty_images > 60, "the family must exercise non-trivial images ({nonempty_images})");
}

#[test]
fn random_determinisations_agree_with_the_nondeterministic_run() {
    let mut rng = Rng(0x7bee_5eed ^ 0x1234_5678);
    for case in 0..40 {
        let nuta = random_nuta(&mut rng);
        let labels = nuta.labels().clone();
        let duta = nuta.determinize(&labels);
        let config = TreeGenConfig::new(&labels, 3, 3);
        for tree in random_trees(case as u64 + 17, &config, 60) {
            assert_eq!(
                nuta.accepts(&tree),
                duta.accepts(&tree),
                "case {case}: membership diverged on {tree}"
            );
        }
    }
}

#[test]
fn content_dfas_accept_exactly_the_run_state_of_the_root() {
    let mut rng = Rng(0x00c0_47e7 ^ 0x5eed_0018);
    let mut checked = 0usize;
    for case in 0..40 {
        let nuta = random_nuta(&mut rng);
        let labels = nuta.labels().clone();
        let duta = nuta.determinize(&labels);
        let config = TreeGenConfig::new(&labels, 3, 3);
        for tree in random_trees(case as u64 + 91, &config, 30) {
            let Some(states) = duta.run(&tree) else { continue };
            let root = tree.root();
            let word: Vec<Symbol> =
                tree.children(root).iter().map(|&c| duta.letter(states[c])).collect();
            for j in 0..duta.num_states() {
                let dfa = duta.content_dfa(tree.label(root), |out| out == j);
                assert_eq!(
                    dfa.accepts(&word),
                    j == states[root],
                    "case {case}: content DFA for state {j} diverged on {tree}"
                );
            }
            checked += 1;
        }
    }
    assert!(checked > 600, "the family must exercise many trees ({checked})");
}
