//! Differential property tests for the dense-bitset state-set engine: on
//! random NFAs, every observable of the hot paths — subset-state numbering,
//! DFA transitions, shortest witness words, membership — must be
//! **byte-identical** to a `BTreeSet<usize>`-based reference
//! reimplementation of the seed algorithms (the representation this PR
//! replaced). The reference mirrors the real code shape exactly: text-order
//! alphabet scans, FIFO subset discovery, first-witness-wins.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use dxml_automata::{Dfa, Nfa, Symbol};

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

/// A random NFA: up to `max_states` states over `alphabet`, with random
/// symbol and ε transitions and random finals. The shapes deliberately
/// include unreachable states, dead states and empty-final automata.
fn random_nfa(rng: &mut Rng, max_states: usize, alphabet: &[Symbol]) -> Nfa {
    let n = 1 + rng.below(max_states);
    let mut nfa = Nfa::new(n, 0);
    let transitions = rng.below(3 * n + 2);
    for _ in 0..transitions {
        let from = rng.below(n);
        let to = rng.below(n);
        if rng.chance(15) {
            nfa.add_epsilon(from, to);
        } else {
            nfa.add_transition(from, alphabet[rng.below(alphabet.len())], to);
        }
    }
    for q in 0..n {
        if rng.chance(25) {
            nfa.set_final(q);
        }
    }
    nfa
}

/// The seed's state-set representation of the same automaton:
/// `BTreeMap<Option<Symbol>, BTreeSet<usize>>` per state, rebuilt from the
/// public transition view, with the seed's clone-heavy set stepping.
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

    fn alphabet(&self) -> BTreeSet<Symbol> {
        self.trans.iter().flat_map(|m| m.keys()).filter_map(|k| *k).collect()
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

    fn start_set(&self) -> BTreeSet<usize> {
        self.epsilon_closure(&BTreeSet::from([self.start]))
    }

    fn is_accepting_set(&self, set: &BTreeSet<usize>) -> bool {
        set.iter().any(|q| self.finals.contains(q))
    }

    /// Seed `Dfa::from_nfa`, producing the canonical rendering the test
    /// compares: state count, final ids and `(from, symbol, to)` triples —
    /// numbering by BFS discovery, symbols scanned in text order.
    fn determinize(&self) -> (usize, BTreeSet<usize>, BTreeSet<(usize, Symbol, usize)>) {
        let alphabet = self.alphabet();
        let start = self.start_set();
        let mut index: BTreeMap<BTreeSet<usize>, usize> = BTreeMap::from([(start.clone(), 0)]);
        let mut num_states = 1usize;
        let mut finals = BTreeSet::new();
        let mut triples = BTreeSet::new();
        let mut queue = VecDeque::from([start]);
        while let Some(set) = queue.pop_front() {
            let id = index[&set];
            if self.is_accepting_set(&set) {
                finals.insert(id);
            }
            for sym in &alphabet {
                let next = self.step(&set, sym);
                if next.is_empty() {
                    continue;
                }
                let next_id = match index.get(&next) {
                    Some(&i) => i,
                    None => {
                        let i = num_states;
                        num_states += 1;
                        index.insert(next.clone(), i);
                        queue.push_back(next);
                        i
                    }
                };
                triples.insert((id, *sym, next_id));
            }
        }
        (num_states, finals, triples)
    }

    /// Seed `Nfa::shortest_accepted`: BFS over `BTreeSet` frontiers with a
    /// text-order symbol scan, so the witness is the lexicographically
    /// least among the shortest.
    fn shortest_accepted(&self) -> Option<Vec<Symbol>> {
        let alphabet = self.alphabet();
        let start = self.start_set();
        let mut seen: BTreeSet<BTreeSet<usize>> = BTreeSet::from([start.clone()]);
        let mut queue: VecDeque<(BTreeSet<usize>, Vec<Symbol>)> =
            VecDeque::from([(start, Vec::new())]);
        while let Some((set, word)) = queue.pop_front() {
            if self.is_accepting_set(&set) {
                return Some(word);
            }
            for sym in &alphabet {
                let next = self.step(&set, sym);
                if next.is_empty() {
                    continue;
                }
                if seen.insert(next.clone()) {
                    let mut w = word.clone();
                    w.push(*sym);
                    queue.push_back((next, w));
                }
            }
        }
        None
    }

    fn accepts(&self, word: &[Symbol]) -> bool {
        let mut current = self.start_set();
        for sym in word {
            if current.is_empty() {
                break;
            }
            current = self.step(&current, sym);
        }
        self.is_accepting_set(&current)
    }
}

/// Renders the real subset construction the same way as
/// [`RefNfa::determinize`].
fn render_dfa(dfa: &Dfa) -> (usize, BTreeSet<usize>, BTreeSet<(usize, Symbol, usize)>) {
    let triples = dfa.transitions().map(|(q, s, t)| (q, *s, t)).collect();
    (dfa.num_states(), dfa.finals().clone(), triples)
}

#[test]
fn subset_state_numbering_is_byte_identical_to_the_btreeset_reference() {
    let alphabet: Vec<Symbol> = ["a", "b", "c", "d"].map(Symbol::new).to_vec();
    let mut rng = Rng(0xb17_5e75);
    for case in 0..300 {
        let nfa = random_nfa(&mut rng, 9, &alphabet);
        let reference = RefNfa::of(&nfa);
        let real = render_dfa(&Dfa::from_nfa(&nfa));
        let want = reference.determinize();
        assert_eq!(real, want, "case {case}: subset construction diverged on {nfa:?}");
    }
}

#[test]
fn witness_words_are_byte_identical_to_the_btreeset_reference() {
    let alphabet: Vec<Symbol> = ["a", "b", "c"].map(Symbol::new).to_vec();
    let mut rng = Rng(0x517_ee55);
    let mut accepted = 0;
    for case in 0..300 {
        let nfa = random_nfa(&mut rng, 8, &alphabet);
        let reference = RefNfa::of(&nfa);
        let real = nfa.shortest_accepted();
        let want = reference.shortest_accepted();
        assert_eq!(real, want, "case {case}: witness diverged on {nfa:?}");
        accepted += usize::from(real.is_some());
    }
    assert!(accepted > 50, "the family must exercise non-empty languages ({accepted})");
}

#[test]
fn membership_frontier_agrees_with_the_btreeset_reference() {
    let alphabet: Vec<Symbol> = ["a", "b", "c"].map(Symbol::new).to_vec();
    let mut rng = Rng(0xf07_73a1);
    for case in 0..150 {
        let nfa = random_nfa(&mut rng, 10, &alphabet);
        let reference = RefNfa::of(&nfa);
        for len in 0..8 {
            let word: Vec<Symbol> =
                (0..len).map(|_| alphabet[rng.below(alphabet.len())]).collect();
            assert_eq!(
                nfa.accepts(&word),
                reference.accepts(&word),
                "case {case}: membership diverged on {word:?} in {nfa:?}"
            );
        }
    }
}

#[test]
fn derived_procedures_agree_with_the_reference_language() {
    // eps_free, trim and Dfa::from_nfa all reshape the automaton through the
    // bitset paths; the language must be untouched.
    let alphabet: Vec<Symbol> = ["a", "b"].map(Symbol::new).to_vec();
    let mut rng = Rng(0xde1_ab17);
    for case in 0..100 {
        let nfa = random_nfa(&mut rng, 7, &alphabet);
        let reference = RefNfa::of(&nfa);
        let ef = nfa.eps_free();
        let trimmed = nfa.trim();
        let dfa = Dfa::from_nfa(&nfa);
        for len in 0..6 {
            let word: Vec<Symbol> =
                (0..len).map(|_| alphabet[rng.below(alphabet.len())]).collect();
            let want = reference.accepts(&word);
            assert_eq!(ef.accepts(&word), want, "case {case}: eps_free diverged on {word:?}");
            assert_eq!(trimmed.accepts(&word), want, "case {case}: trim diverged on {word:?}");
            assert_eq!(dfa.accepts(&word), want, "case {case}: Dfa::from_nfa diverged on {word:?}");
        }
        assert_eq!(nfa.is_empty(), reference.shortest_accepted().is_none(), "case {case}");
    }
}
