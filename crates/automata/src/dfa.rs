//! Deterministic finite automata (dFAs).
//!
//! A dFA is an nFA whose transition relation is a function `K × Σ → K`
//! (Section 2.1.2). The transition function here is allowed to be *partial*
//! (missing transitions go to an implicit rejecting sink); [`Dfa::complete`]
//! materialises the sink when a total function is needed (for complement).
//!
//! The module provides the subset construction ([`Dfa::from_nfa`]),
//! completion, complementation and partition-refinement minimisation
//! ([`Dfa::minimize`]); products are taken on NFAs ([`Nfa::intersect`]).
//! Minimal DFAs are the input of the Brüggemann-Klein/Wood one-unambiguity
//! test in [`crate::dre`].
//!
//! Like [`Nfa`], the transition function is stored densely: a per-automaton
//! symbol index maps each [`Symbol`] to a local `u32`, and every state keeps
//! a sorted `(local symbol, successor)` vector with at most one entry per
//! symbol. `δ(q, a)` is a hash of an interned id plus a binary search —
//! no string is ever compared. The determinism-sensitive search procedures
//! (subset construction, shortest-word BFS) still *scan* alphabets
//! in text order so state numbering and witness words stay canonical.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

use dxml_telemetry as telemetry;

use crate::error::AutomataError;
use crate::hash::FxHashMap;
use crate::limits::Budget;
use crate::nfa::{Nfa, StateId};
use crate::stateset::StateSet;
use crate::symbol::{Alphabet, Symbol, Word};

/// A deterministic finite automaton with a (possibly partial) transition
/// function.
#[derive(Clone)]
pub struct Dfa {
    num_states: usize,
    start: StateId,
    finals: BTreeSet<StateId>,
    /// Local symbol index → symbol, in first-seen order.
    syms: Vec<Symbol>,
    /// Symbol → local index into `syms`.
    sym_index: FxHashMap<Symbol, u32>,
    /// `trans[q]`: sorted by local symbol, at most one entry per symbol.
    trans: Vec<Vec<(u32, StateId)>>,
}

impl Dfa {
    /// Creates a DFA with `num_states` states, the given start state, no
    /// transitions and no final states.
    ///
    /// # Panics
    ///
    /// Panics if `num_states == 0` — a DFA always has at least its start
    /// state (see [`Nfa::new`] for the rationale).
    pub fn new(num_states: usize, start: StateId) -> Self {
        assert!(num_states > 0, "a Dfa needs at least one state (the start state)");
        assert!(start < num_states, "start state out of range");
        Dfa {
            num_states,
            start,
            finals: BTreeSet::new(),
            syms: Vec::new(),
            sym_index: FxHashMap::default(),
            trans: vec![Vec::new(); num_states],
        }
    }

    /// Adds a fresh state.
    pub fn add_state(&mut self) -> StateId {
        self.trans.push(Vec::new());
        self.num_states += 1;
        self.num_states - 1
    }

    /// The local index of `sym`, allocating one if it is new.
    fn local_id(&mut self, sym: Symbol) -> u32 {
        match self.sym_index.get(&sym) {
            Some(&i) => i,
            None => {
                let i = u32::try_from(self.syms.len()).expect("alphabet exceeds u32 indices");
                self.syms.push(sym);
                self.sym_index.insert(sym, i);
                i
            }
        }
    }

    /// Sets the (unique) transition `from --sym--> to`, replacing any
    /// existing transition on the same symbol.
    ///
    /// # Panics
    ///
    /// Panics if `from` or `to` is not a state of the automaton.
    pub fn set_transition(&mut self, from: StateId, sym: impl Into<Symbol>, to: StateId) {
        assert!(from < self.num_states && to < self.num_states);
        let sid = self.local_id(sym.into());
        let v = &mut self.trans[from];
        match v.binary_search_by_key(&sid, |&(s, _)| s) {
            Ok(pos) => v[pos].1 = to,
            Err(pos) => v.insert(pos, (sid, to)),
        }
    }

    /// Marks a state as final.
    ///
    /// # Panics
    ///
    /// Panics if `state` is not a state of the automaton.
    pub fn set_final(&mut self, state: StateId) {
        assert!(state < self.num_states);
        self.finals.insert(state);
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// The start state.
    pub fn start(&self) -> StateId {
        self.start
    }

    /// The final states.
    pub fn finals(&self) -> &BTreeSet<StateId> {
        &self.finals
    }

    /// Whether `state` is final.
    pub fn is_final(&self, state: StateId) -> bool {
        self.finals.contains(&state)
    }

    /// The (partial) transition `δ(q, a)`.
    pub fn delta(&self, q: StateId, sym: &Symbol) -> Option<StateId> {
        let sid = self.sym_id(sym)?;
        self.delta_local(q, sid)
    }

    // ------------------------------------------------------------------
    // Local-index plumbing (crate-internal hot-path API)
    // ------------------------------------------------------------------

    /// The local index of `sym`, if it appears on any transition.
    pub(crate) fn sym_id(&self, sym: &Symbol) -> Option<u32> {
        self.sym_index.get(sym).copied()
    }

    /// `δ(q, a)` through the local symbol index.
    pub(crate) fn delta_local(&self, q: StateId, sid: u32) -> Option<StateId> {
        let v = &self.trans[q];
        v.binary_search_by_key(&sid, |&(s, _)| s).ok().map(|pos| v[pos].1)
    }

    /// The `(symbol, local id)` pairs of `alphabet` resolved against this
    /// automaton's index, in the iteration (text) order of `alphabet`.
    /// Symbols the automaton never mentions resolve to `None`.
    pub(crate) fn resolve_alphabet(&self, alphabet: &Alphabet) -> Vec<(Symbol, Option<u32>)> {
        alphabet.iter().map(|&s| (s, self.sym_id(&s))).collect()
    }

    /// Iterates over the outgoing transitions of a state (in local-index
    /// order, which is first-seen order — not text order).
    pub fn transitions_from(&self, q: StateId) -> impl Iterator<Item = (&Symbol, StateId)> + '_ {
        self.trans[q].iter().map(|&(s, t)| (&self.syms[s as usize], t))
    }

    /// Iterates over all transitions `(from, symbol, to)`.
    pub fn transitions(&self) -> impl Iterator<Item = (StateId, &Symbol, StateId)> + '_ {
        (0..self.num_states)
            .flat_map(move |q| self.trans[q].iter().map(move |&(s, t)| (q, &self.syms[s as usize], t)))
    }

    /// The alphabet of symbols appearing on transitions.
    pub fn alphabet(&self) -> Alphabet {
        self.syms.iter().copied().collect()
    }

    /// Runs the automaton on `word`, returning the reached state (or `None`
    /// if a transition is missing).
    pub fn run(&self, word: &[Symbol]) -> Option<StateId> {
        let mut q = self.start;
        for sym in word {
            q = self.delta(q, sym)?;
        }
        Some(q)
    }

    /// Whether the automaton accepts `word`.
    pub fn accepts(&self, word: &[Symbol]) -> bool {
        self.run(word).is_some_and(|q| self.is_final(q))
    }

    /// Whether the language is empty.
    pub fn is_empty(&self) -> bool {
        self.to_nfa().is_empty()
    }

    /// A shortest accepted word, if any.
    pub fn shortest_accepted(&self) -> Option<Word> {
        self.to_nfa().shortest_accepted()
    }

    // ------------------------------------------------------------------
    // Constructions
    // ------------------------------------------------------------------

    /// Subset construction: builds the DFA of reachable state sets of `nfa`.
    ///
    /// # Panics
    ///
    /// Never in practice: the unlimited budget cannot trip.
    pub fn from_nfa(nfa: &Nfa) -> Dfa {
        Dfa::from_nfa_with_budget(nfa, &Budget::unlimited())
            .expect("the unlimited budget never trips")
    }

    /// [`Dfa::from_nfa`] under a [`Budget`]: the worst case is exponential
    /// (2^n subset states), so every `(state set, symbol)` expansion counts
    /// one step and every discovered subset state counts against the state
    /// quota. With the unlimited budget the construction is byte-identical
    /// to [`Dfa::from_nfa`].
    ///
    /// # Panics
    ///
    /// Only on a broken internal invariant (an alphabet symbol of `nfa`
    /// without a local id).
    pub fn from_nfa_with_budget(nfa: &Nfa, budget: &Budget) -> Result<Dfa, AutomataError> {
        budget.check_interrupts()?;
        // Scan symbols in text order (canonical state numbering), step
        // through the NFA's local ids.
        let syms = {
            let mut v: Vec<Symbol> = nfa.alphabet().to_vec();
            v.sort_unstable();
            v
        };
        let sids: Vec<u32> = syms.iter().map(|s| nfa.sym_id(s).expect("alphabet symbol")).collect();
        let finals = nfa.finals_set();
        let start_set = nfa.start_set();
        let mut index: FxHashMap<StateSet, StateId> = FxHashMap::default();
        let mut dfa = Dfa::new(1, 0);
        index.insert(start_set.clone(), 0);
        budget.grow_states(1)?;
        let mut queue = VecDeque::from([start_set]);
        // Telemetry is flushed once at the end from local tallies, so the
        // loop itself carries no per-step atomic traffic.
        let mut steps: u64 = 0;
        while let Some(set) = queue.pop_front() {
            let id = index[&set];
            if set.intersects(&finals) {
                dfa.set_final(id);
            }
            for (sym, &sid) in syms.iter().zip(&sids) {
                steps += 1;
                budget.step()?;
                let next = nfa.step_local(&set, sid);
                if next.is_empty() {
                    continue;
                }
                let next_id = match index.get(&next) {
                    Some(&i) => i,
                    None => {
                        budget.grow_states(1)?;
                        let i = dfa.add_state();
                        index.insert(next.clone(), i);
                        queue.push_back(next);
                        i
                    }
                };
                dfa.set_transition(id, *sym, next_id);
            }
        }
        telemetry::count(telemetry::Metric::SubsetConstructions, 1);
        telemetry::count(telemetry::Metric::SubsetStates, dfa.num_states as u64);
        telemetry::count(telemetry::Metric::SubsetTransitions, steps);
        telemetry::observe(telemetry::Hist::SubsetDfaStates, dfa.num_states as u64);
        Ok(dfa)
    }

    /// Completes the transition function over `alphabet` by adding a
    /// rejecting sink state where needed. The result is total over
    /// `alphabet ∪ alphabet(self)`.
    pub fn complete(&self, alphabet: &Alphabet) -> Dfa {
        let full = alphabet.union(&self.alphabet());
        let mut out = self.clone();
        let needs_sink = (0..out.num_states).any(|q| out.trans[q].len() < full.len());
        if !needs_sink {
            return out;
        }
        let sink = out.add_state();
        for sym in &full {
            let sid = out.local_id(*sym);
            for q in 0..out.num_states {
                if out.delta_local(q, sid).is_none() {
                    let v = &mut out.trans[q];
                    let pos = v.partition_point(|&(s, _)| s < sid);
                    v.insert(pos, (sid, sink));
                }
            }
        }
        out
    }

    /// Complement of a *complete* DFA (flips final states). Use
    /// [`Dfa::complete`] first if the automaton may be partial.
    pub fn complement(&self) -> Dfa {
        let mut out = self.clone();
        out.finals = (0..out.num_states).filter(|q| !self.finals.contains(q)).collect();
        out
    }

    /// Converts to an NFA.
    pub fn to_nfa(&self) -> Nfa {
        let mut nfa = Nfa::new(self.num_states, self.start);
        for (q, sym, t) in self.transitions() {
            nfa.add_transition(q, *sym, t);
        }
        for &f in &self.finals {
            nfa.set_final(f);
        }
        nfa
    }

    /// Restricts to states reachable from the start state.
    pub fn trim_reachable(&self) -> Dfa {
        let mut seen = StateSet::singleton(self.num_states, self.start);
        let mut stack = vec![self.start];
        while let Some(q) = stack.pop() {
            for &(_, t) in &self.trans[q] {
                if seen.insert(t) {
                    stack.push(t);
                }
            }
        }
        let keep: Vec<StateId> = seen.iter().collect();
        let index: BTreeMap<StateId, StateId> = keep.iter().enumerate().map(|(i, &q)| (q, i)).collect();
        let mut out = Dfa::new(keep.len(), index[&self.start]);
        for &q in &keep {
            for (sym, t) in self.transitions_from(q) {
                if let Some(&ti) = index.get(&t) {
                    out.set_transition(index[&q], *sym, ti);
                }
            }
            if self.is_final(q) {
                out.set_final(index[&q]);
            }
        }
        out
    }

    /// Minimises the DFA by partition refinement (Moore's algorithm) after
    /// completing it over its own alphabet and removing unreachable states.
    ///
    /// The result is the canonical minimal *complete* DFA of the language,
    /// except that a useless sink is removed again at the end, so the minimal
    /// automaton of a finite language has no sink state. This matches the
    /// usual "minimal deterministic automaton" the Brüggemann-Klein/Wood
    /// construction works with.
    pub fn minimize(&self) -> Dfa {
        let alphabet = self.alphabet();
        let complete = self.complete(&alphabet).trim_reachable();
        let n = complete.num_states;
        // Initial partition: finals vs non-finals.
        let mut class: Vec<usize> = (0..n).map(|q| usize::from(complete.is_final(q))).collect();
        let mut num_classes = 2;
        loop {
            // Signature of each state: (class, sorted successor classes per symbol)
            let mut signatures: BTreeMap<(usize, Vec<(Symbol, usize)>), usize> = BTreeMap::new();
            let mut new_class = vec![0usize; n];
            for q in 0..n {
                let mut succ: Vec<(Symbol, usize)> = complete
                    .transitions_from(q)
                    .map(|(s, t)| (*s, class[t]))
                    .collect();
                succ.sort();
                let key = (class[q], succ);
                let next_id = signatures.len();
                let id = *signatures.entry(key).or_insert(next_id);
                new_class[q] = id;
            }
            let new_num = signatures.len();
            if new_num == num_classes {
                class = new_class;
                break;
            }
            class = new_class;
            num_classes = new_num;
        }
        let mut out = Dfa::new(num_classes, class[complete.start]);
        for q in 0..n {
            for (sym, t) in complete.transitions_from(q) {
                out.set_transition(class[q], *sym, class[t]);
            }
            if complete.is_final(q) {
                out.set_final(class[q]);
            }
        }
        out.remove_useless_sink()
    }

    /// Removes a non-final state with no path to a final state (the sink
    /// introduced by completion), if present, together with its transitions.
    fn remove_useless_sink(&self) -> Dfa {
        let nfa = self.to_nfa();
        let coreach = nfa.coreachable_to(&nfa.finals_set());
        let keep: Vec<StateId> = (0..self.num_states)
            .filter(|q| coreach.contains(*q) || *q == self.start)
            .collect();
        if keep.len() == self.num_states {
            return self.clone();
        }
        let index: BTreeMap<StateId, StateId> = keep.iter().enumerate().map(|(i, &q)| (q, i)).collect();
        let mut out = Dfa::new(keep.len(), index[&self.start]);
        for &q in &keep {
            for (sym, t) in self.transitions_from(q) {
                if let Some(&ti) = index.get(&t) {
                    out.set_transition(index[&q], *sym, ti);
                }
            }
            if self.is_final(q) {
                out.set_final(index[&q]);
            }
        }
        out
    }
}

impl PartialEq for Dfa {
    /// Structural equality up to the (internal) local symbol numbering.
    fn eq(&self, other: &Self) -> bool {
        if self.num_states != other.num_states
            || self.start != other.start
            || self.finals != other.finals
        {
            return false;
        }
        (0..self.num_states).all(|q| {
            if self.trans[q].len() != other.trans[q].len() {
                return false;
            }
            let canon = |dfa: &Dfa, v: &[(u32, StateId)]| -> Vec<(Symbol, StateId)> {
                let mut out: Vec<(Symbol, StateId)> =
                    v.iter().map(|&(s, t)| (dfa.syms[s as usize], t)).collect();
                out.sort_unstable();
                out
            };
            canon(self, &self.trans[q]) == canon(other, &other.trans[q])
        })
    }
}

impl Eq for Dfa {}

impl fmt::Debug for Dfa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Dfa(states={}, start={}, finals={:?})", self.num_states, self.start, self.finals)?;
        for (q, s, t) in self.transitions() {
            writeln!(f, "  {q} --{s}--> {t}")?;
        }
        Ok(())
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::regex::Regex;
    use crate::symbol::word_chars;

    fn ab() -> Alphabet {
        Alphabet::from_chars("ab")
    }

    fn re(src: &str) -> Nfa {
        Regex::parse_chars(src).unwrap().to_nfa()
    }

    #[test]
    fn subset_construction_preserves_language() {
        // (a|b)*abb — the classic example
        let sigma = re("(a|b)*");
        let tail = Nfa::literal(&word_chars("abb"));
        let nfa = sigma.concat(&tail);
        let dfa = Dfa::from_nfa(&nfa);
        for w in ["abb", "aabb", "babb", "abab", "", "ab", "abba"] {
            assert_eq!(nfa.accepts(&word_chars(w)), dfa.accepts(&word_chars(w)), "word {w}");
        }
    }

    #[test]
    fn minimize_produces_canonical_size() {
        // (a|b)*abb has a 4-state minimal DFA (without sink).
        let nfa = re("(a|b)*").concat(&Nfa::literal(&word_chars("abb")));
        let min = Dfa::from_nfa(&nfa).minimize();
        assert_eq!(min.num_states(), 4);
        for w in ["abb", "aabb", "ababb", "", "ab", "ba"] {
            assert_eq!(min.accepts(&word_chars(w)), nfa.accepts(&word_chars(w)), "word {w}");
        }
    }

    #[test]
    fn minimize_merges_equivalent_states() {
        // a|b as two separate branches minimises to 2 states.
        let nfa = Nfa::symbol("a").union(&Nfa::symbol("b"));
        let min = Dfa::from_nfa(&nfa).minimize();
        assert_eq!(min.num_states(), 2);
    }

    #[test]
    fn complement_via_completion() {
        let astar = re("a*");
        let dfa = Dfa::from_nfa(&astar).complete(&ab());
        let comp = dfa.complement();
        assert!(!comp.accepts(&[]));
        assert!(comp.accepts(&word_chars("b")));
        assert!(comp.accepts(&word_chars("ab")));
        assert!(!comp.accepts(&word_chars("aaa")));
    }

    #[test]
    fn run_and_partiality() {
        let dfa = Dfa::from_nfa(&Nfa::literal(&word_chars("ab")));
        assert!(dfa.accepts(&word_chars("ab")));
        assert!(!dfa.accepts(&word_chars("ba")));
        assert_eq!(dfa.run(&word_chars("ba")), None);
        assert!(dfa.shortest_accepted().is_some());
        assert!(!dfa.is_empty());
    }
}
