//! Nondeterministic finite automata (nFAs) with ε-transitions.
//!
//! This follows Section 2.1.2 of the paper: an nFA is a quintuple
//! `⟨K, Σ, Δ, qs, F⟩` with `Δ ⊆ K × (Σ ∪ {ε}) × K`. States are dense
//! integers `0..num_states`. The module provides the combinators the paper
//! relies on (`A1 · A2`, `A1 ∪ A2`, `A1 ∩ A2`, `A1 − A2`, complement) and the
//! basic decision procedures (membership, emptiness, universality). The
//! state-set reachability helpers (`delta_star_from`, `reachable_from`,
//! `coreachable_to`, `transitions`) are exposed publicly because the perfect
//! automaton construction of Section 6 manipulates the transition structure
//! of the global type directly.
//!
//! # Dense transition storage
//!
//! Transitions are stored against a **per-automaton symbol index**: every
//! [`Symbol`] on a transition gets a dense local `u32` the first time it is
//! added, and each state keeps a sorted adjacency vector of
//! `(local symbol, successor)` pairs (ε-transitions live in a separate
//! per-state list). The invariants the hot paths rely on:
//!
//! * `trans.len() == eps.len() == num_states` at all times — states are
//!   never implicit (see [`Nfa::new`] on the zero-state case);
//! * every adjacency vector is sorted by `(local symbol, successor)` and
//!   deduplicated, so one symbol's successors form a contiguous slice found
//!   by binary search;
//! * a symbol has a local index iff it appears on at least one transition
//!   (transitions are never removed), so [`Nfa::alphabet`] is exactly the
//!   registered index.
//!
//! The subset construction, products, quotients and equivalence checks all
//! iterate these local ids; interned symbol ids only matter at the indexing
//! boundary, and strings are never touched.
//!
//! # State sets
//!
//! Every state-set-shaped value (ε-closures, frontiers, reachability sets)
//! is a [`StateSet`] — a fixed-width dense bitset over the automaton's
//! state universe (see [`crate::stateset`]), iterated in ascending state
//! order exactly like the `BTreeSet<usize>` representation it replaced, so
//! subset-state numbering and witness words are unchanged.

use std::collections::{BTreeSet, VecDeque};
use std::fmt;

use crate::dfa::Dfa;
use crate::hash::{FxHashMap, FxHashSet};
use crate::stateset::StateSet;
use crate::symbol::{Alphabet, Symbol, Word};

/// A state identifier; states of an [`Nfa`] are `0..nfa.num_states()`.
pub type StateId = usize;

/// Structural metrics of an [`Nfa`], extracted by [`Nfa::metrics`] in
/// polynomial time (no determinisation).
///
/// These are the raw inputs of the static cost model in
/// `dxml-analysis::cost`: every field maps directly onto a term of the
/// subset-construction cost brackets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NfaMetrics {
    /// Number of states `m`. The subset construction builds at most
    /// `2^m − 1` subset states (only non-empty subsets are materialised).
    pub states: usize,
    /// Number of transitions, ε-transitions included.
    pub transitions: usize,
    /// The symbols actually appearing on transitions — exactly the
    /// alphabet the subset construction scans once per popped subset, so
    /// `subset transitions = subset states × alphabet.len()`.
    pub alphabet: Alphabet,
    /// Whether any ε-transition exists (Thompson-built NFAs have them;
    /// Glushkov-built ones never do).
    pub has_epsilon: bool,
    /// Length of a shortest accepted word, or `None` for the empty
    /// language. The subsets visited along a shortest word's run are
    /// pairwise distinct, so the subset DFA has at least
    /// `min_word_len + 1` states when the language is non-empty.
    pub min_word_len: Option<usize>,
}

/// A nondeterministic finite automaton with ε-transitions.
#[derive(Clone)]
pub struct Nfa {
    num_states: usize,
    start: StateId,
    finals: BTreeSet<StateId>,
    /// Local symbol index → symbol, in first-seen order.
    syms: Vec<Symbol>,
    /// Symbol → local index into `syms`.
    sym_index: FxHashMap<Symbol, u32>,
    /// `trans[q]`: sorted, deduplicated `(local symbol, successor)` pairs.
    trans: Vec<Vec<(u32, StateId)>>,
    /// `eps[q]`: sorted, deduplicated ε-successors.
    eps: Vec<Vec<StateId>>,
    /// Whether any ε-transition exists (lets the ε-closure on the frontier
    /// hot path return immediately for ε-free automata).
    has_eps: bool,
}

impl Nfa {
    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// Creates an NFA with `num_states` states (no transitions, no final
    /// states) and the given start state.
    ///
    /// # Panics
    ///
    /// Panics if `num_states == 0`: an NFA always has at least its start
    /// state, and the dense-index code relies on `states == trans.len()`
    /// with every state id in range. Use [`Nfa::empty`] for the automaton of
    /// the empty language (one state, no finals).
    pub fn new(num_states: usize, start: StateId) -> Self {
        assert!(num_states > 0, "an Nfa needs at least one state (the start state)");
        assert!(start < num_states, "start state out of range");
        Nfa {
            num_states,
            start,
            finals: BTreeSet::new(),
            syms: Vec::new(),
            sym_index: FxHashMap::default(),
            trans: vec![Vec::new(); num_states],
            eps: vec![Vec::new(); num_states],
            has_eps: false,
        }
    }

    /// The automaton recognising the empty language `∅`.
    pub fn empty() -> Self {
        Nfa::new(1, 0)
    }

    /// The automaton recognising only the empty word `{ε}`.
    pub fn epsilon() -> Self {
        let mut a = Nfa::new(1, 0);
        a.set_final(0);
        a
    }

    /// The automaton recognising the single-symbol word `{a}`.
    pub fn symbol(sym: impl Into<Symbol>) -> Self {
        let mut a = Nfa::new(2, 0);
        a.add_transition(0, sym, 1);
        a.set_final(1);
        a
    }

    /// The automaton recognising exactly the given word.
    pub fn literal(word: &[Symbol]) -> Self {
        let mut a = Nfa::new(word.len() + 1, 0);
        for (i, sym) in word.iter().enumerate() {
            a.add_transition(i, *sym, i + 1);
        }
        a.set_final(word.len());
        a
    }

    /// The automaton recognising any *single* symbol from the given set
    /// (the building block of boxes).
    pub fn any_of<I, S>(symbols: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<Symbol>,
    {
        let mut a = Nfa::new(2, 0);
        for s in symbols {
            a.add_transition(0, s, 1);
        }
        a.set_final(1);
        a
    }

    /// The automaton recognising `Σ*` for the given alphabet.
    pub fn sigma_star(alphabet: &Alphabet) -> Self {
        let mut a = Nfa::new(1, 0);
        for s in alphabet {
            a.add_transition(0, *s, 0);
        }
        a.set_final(0);
        a
    }

    /// Adds a fresh state and returns its id.
    pub fn add_state(&mut self) -> StateId {
        self.trans.push(Vec::new());
        self.eps.push(Vec::new());
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

    /// Adds a transition `from --sym--> to`.
    ///
    /// # Panics
    ///
    /// Panics if `from` or `to` is not a state of the automaton.
    pub fn add_transition(&mut self, from: StateId, sym: impl Into<Symbol>, to: StateId) {
        assert!(from < self.num_states && to < self.num_states);
        let sid = self.local_id(sym.into());
        let entry = (sid, to);
        let v = &mut self.trans[from];
        if let Err(pos) = v.binary_search(&entry) {
            v.insert(pos, entry);
        }
    }

    /// Adds an ε-transition `from --ε--> to`.
    ///
    /// # Panics
    ///
    /// Panics if `from` or `to` is not a state of the automaton.
    pub fn add_epsilon(&mut self, from: StateId, to: StateId) {
        assert!(from < self.num_states && to < self.num_states);
        let v = &mut self.eps[from];
        if let Err(pos) = v.binary_search(&to) {
            v.insert(pos, to);
            self.has_eps = true;
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

    /// Changes the start state.
    ///
    /// # Panics
    ///
    /// Panics if `state` is not a state of the automaton.
    pub fn set_start(&mut self, state: StateId) {
        assert!(state < self.num_states);
        self.start = state;
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// Total number of transitions (counting each `(q, a, q')` triple once,
    /// ε-transitions included).
    pub fn num_transitions(&self) -> usize {
        self.trans.iter().map(Vec::len).sum::<usize>() + self.eps.iter().map(Vec::len).sum::<usize>()
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

    /// The final states as a dense [`StateSet`] over the current universe
    /// (built on demand — the hot loops build it once per traversal and
    /// test acceptance with an O(words) intersection).
    pub fn finals_set(&self) -> StateSet {
        StateSet::from_iter(self.num_states, self.finals.iter().copied())
    }

    /// Iterates over all transitions as `(from, label, to)` where a label of
    /// `None` denotes ε.
    pub fn transitions(&self) -> impl Iterator<Item = (StateId, Option<&Symbol>, StateId)> + '_ {
        (0..self.num_states).flat_map(move |q| {
            self.eps[q]
                .iter()
                .map(move |&t| (q, None, t))
                .chain(self.trans[q].iter().map(move |&(s, t)| (q, Some(&self.syms[s as usize]), t)))
        })
    }

    /// The successor set `Δ(q, a)`.
    pub fn delta(&self, q: StateId, sym: &Symbol) -> StateSet {
        let mut out = StateSet::empty(self.num_states);
        if let Some(sid) = self.sym_id(sym) {
            for &(_, t) in self.succ_slice(q, sid) {
                out.insert(t);
            }
        }
        out
    }

    /// The alphabet of symbols actually appearing on transitions.
    pub fn alphabet(&self) -> Alphabet {
        self.syms.iter().copied().collect()
    }

    /// Whether the automaton has any ε-transition.
    pub fn has_epsilon(&self) -> bool {
        self.has_eps
    }

    /// Extracts the structural [`NfaMetrics`] of the automaton — everything
    /// the static cost model (`dxml-analysis::cost`) needs to bracket a
    /// future [`Dfa::from_nfa`](crate::dfa::Dfa::from_nfa) run, computed in
    /// polynomial time without determinising anything (the only search is
    /// the shortest-word BFS, linear in the transition table).
    pub fn metrics(&self) -> NfaMetrics {
        NfaMetrics {
            states: self.num_states,
            transitions: self.num_transitions(),
            alphabet: self.alphabet(),
            has_epsilon: self.has_eps,
            min_word_len: self.shortest_accepted().map(|w| w.len()),
        }
    }

    // ------------------------------------------------------------------
    // Local-index plumbing (hot-path API)
    // ------------------------------------------------------------------

    /// The local index of `sym`, if it appears on any transition.
    ///
    /// Local indices are **per-automaton**: they are only meaningful as
    /// arguments to [`Nfa::step_local`] on the same automaton. Exposed so
    /// callers stepping the same automaton many times (the `Duta`
    /// membership frontiers in the tree crate) can resolve each symbol once
    /// instead of hashing it per step.
    pub fn sym_id(&self, sym: &Symbol) -> Option<u32> {
        self.sym_index.get(sym).copied()
    }

    /// The sorted `(sym, local id)` pairs of the automaton's alphabet, in
    /// symbol text order — the deterministic iteration order the search
    /// procedures use so witnesses stay lexicographically least.
    pub(crate) fn sorted_syms(&self) -> Vec<(Symbol, u32)> {
        let mut out: Vec<(Symbol, u32)> =
            self.syms.iter().enumerate().map(|(i, &s)| (s, i as u32)).collect();
        out.sort_unstable();
        out
    }

    /// The contiguous adjacency slice of `q` on local symbol `sid`.
    fn succ_slice(&self, q: StateId, sid: u32) -> &[(u32, StateId)] {
        let v = &self.trans[q];
        let lo = v.partition_point(|&(s, _)| s < sid);
        let hi = lo + v[lo..].partition_point(|&(s, _)| s == sid);
        &v[lo..hi]
    }

    /// One symbol step on a (ε-closed) state set via the local index,
    /// returning the ε-closure of the successor set. The bitset-frontier
    /// primitive behind [`Nfa::step`]; public for callers that resolve
    /// symbol ids once via [`Nfa::sym_id`] and step many times.
    ///
    /// The set must have been created over this automaton's state universe.
    pub fn step_local(&self, set: &StateSet, sid: u32) -> StateSet {
        let mut next = StateSet::empty(self.num_states);
        self.step_local_into(set, sid, &mut next);
        next
    }

    /// [`Nfa::step_local`] into a caller-owned buffer: clears `out`, writes
    /// the ε-closed successor set into it. `StateSet::clear` keeps the heap
    /// words of >-inline-width universes, so frontier loops that step the
    /// same automaton many times can reuse one buffer instead of allocating
    /// a set per step. `out` must have been created over this automaton's
    /// state universe.
    pub fn step_local_into(&self, set: &StateSet, sid: u32, out: &mut StateSet) {
        out.clear();
        for q in set {
            for &(_, t) in self.succ_slice(q, sid) {
                out.insert(t);
            }
        }
        self.epsilon_close_mut(out);
    }

    /// ε-closes `set` in place (the by-value twin of
    /// [`Nfa::epsilon_closure`], saving the clone on the hot paths).
    fn epsilon_closure_inplace(&self, mut closure: StateSet) -> StateSet {
        self.epsilon_close_mut(&mut closure);
        closure
    }

    /// ε-closes the set behind the reference, in place.
    fn epsilon_close_mut(&self, closure: &mut StateSet) {
        if !self.has_eps {
            return;
        }
        let mut stack: Vec<StateId> = closure.iter().collect();
        while let Some(q) = stack.pop() {
            for &t in &self.eps[q] {
                if closure.insert(t) {
                    stack.push(t);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Runs
    // ------------------------------------------------------------------

    /// The ε-closure of a set of states.
    pub fn epsilon_closure(&self, set: &StateSet) -> StateSet {
        self.epsilon_closure_inplace(set.clone())
    }

    /// The ε-closure of the start state: the initial frontier of every run
    /// (`StateSet::singleton` + [`Nfa::epsilon_closure`] in one call).
    pub fn start_closure(&self) -> StateSet {
        self.epsilon_closure_inplace(StateSet::singleton(self.num_states, self.start))
    }

    /// One symbol step on a (ε-closed) state set, returning the ε-closure of
    /// the successor set.
    pub fn step(&self, set: &StateSet, sym: &Symbol) -> StateSet {
        match self.sym_id(sym) {
            Some(sid) => self.step_local(set, sid),
            None => StateSet::empty(self.num_states),
        }
    }

    /// One *multi-symbol* step into a caller-owned buffer: clears `out` and
    /// writes the ε-closure of the union of the successor sets over every
    /// symbol of `syms` into it. Equivalent to unioning [`Nfa::step`] per
    /// symbol, but ε-closes once — the inner loop of the bottom-up
    /// tree-automaton runs, where a child can contribute any symbol of a
    /// set. Same buffer contract as [`Nfa::step_local_into`].
    pub fn step_all_into<'a>(
        &self,
        set: &StateSet,
        syms: impl IntoIterator<Item = &'a Symbol>,
        out: &mut StateSet,
    ) {
        out.clear();
        for sym in syms {
            if let Some(sid) = self.sym_id(sym) {
                for q in set {
                    for &(_, t) in self.succ_slice(q, sid) {
                        out.insert(t);
                    }
                }
            }
        }
        self.epsilon_close_mut(out);
    }

    /// The set of states reachable from `set` by reading `word`
    /// (the extended transition relation `Δ*`).
    pub fn delta_star(&self, set: &StateSet, word: &[Symbol]) -> StateSet {
        let mut current = self.epsilon_closure(set);
        let mut next = StateSet::empty(self.num_states);
        for sym in word {
            if current.is_empty() {
                break;
            }
            match self.sym_id(sym) {
                Some(sid) => {
                    self.step_local_into(&current, sid, &mut next);
                    std::mem::swap(&mut current, &mut next);
                }
                None => {
                    current.clear();
                    break;
                }
            }
        }
        current
    }

    /// The set of states reachable from a single state `q` by reading `word`.
    pub fn delta_star_from(&self, q: StateId, word: &[Symbol]) -> StateSet {
        self.delta_star(&StateSet::singleton(self.num_states, q), word)
    }

    /// Whether the automaton accepts `word`.
    pub fn accepts(&self, word: &[Symbol]) -> bool {
        self.delta_star_from(self.start, word).iter().any(|q| self.finals.contains(&q))
    }

    // ------------------------------------------------------------------
    // Reachability & structure
    // ------------------------------------------------------------------

    /// The set of states reachable (by any transitions, including ε) from the
    /// states in `from`.
    pub fn reachable_from(&self, from: &StateSet) -> StateSet {
        let mut seen = from.clone();
        let mut stack: Vec<StateId> = from.iter().collect();
        while let Some(q) = stack.pop() {
            for &(_, t) in &self.trans[q] {
                if seen.insert(t) {
                    stack.push(t);
                }
            }
            for &t in &self.eps[q] {
                if seen.insert(t) {
                    stack.push(t);
                }
            }
        }
        seen
    }

    /// The set of states from which some state in `to` is reachable.
    pub fn coreachable_to(&self, to: &StateSet) -> StateSet {
        // Build reverse adjacency.
        let mut rev: Vec<Vec<StateId>> = vec![Vec::new(); self.num_states];
        for (q, v) in self.trans.iter().enumerate() {
            for &(_, t) in v {
                rev[t].push(q);
            }
        }
        for (q, v) in self.eps.iter().enumerate() {
            for &t in v {
                rev[t].push(q);
            }
        }
        let mut seen = to.clone();
        let mut stack: Vec<StateId> = to.iter().collect();
        while let Some(q) = stack.pop() {
            for &p in &rev[q] {
                if seen.insert(p) {
                    stack.push(p);
                }
            }
        }
        seen
    }

    /// Whether the language of the automaton is empty.
    pub fn is_empty(&self) -> bool {
        let reach = self.reachable_from(&StateSet::singleton(self.num_states, self.start));
        self.finals.is_empty() || reach.is_disjoint(&self.finals_set())
    }

    /// Whether the language equals `Σ*` over the given alphabet.
    pub fn is_universal(&self, alphabet: &Alphabet) -> bool {
        self.complement(alphabet).is_empty()
    }

    /// A shortest accepted word, if any (breadth-first search over state
    /// sets of the determinised automaton, so the result is genuinely
    /// shortest — and lexicographically least among the shortest, since the
    /// alphabet is scanned in text order).
    pub fn shortest_accepted(&self) -> Option<Word> {
        let syms = self.sorted_syms();
        let finals = self.finals_set();
        let start = self.start_closure();
        let mut queue: VecDeque<(StateSet, Word)> = VecDeque::new();
        let mut seen: FxHashSet<StateSet> = FxHashSet::default();
        queue.push_back((start.clone(), Vec::new()));
        seen.insert(start);
        // One scratch frontier reused across every (set, symbol) expansion;
        // only fresh subsets are cloned out of it into the queue.
        let mut next = StateSet::empty(self.num_states);
        while let Some((set, word)) = queue.pop_front() {
            if set.intersects(&finals) {
                return Some(word);
            }
            for &(sym, sid) in &syms {
                self.step_local_into(&set, sid, &mut next);
                if next.is_empty() || seen.contains(&next) {
                    continue;
                }
                seen.insert(next.clone());
                let mut w = word.clone();
                w.push(sym);
                queue.push_back((next.clone(), w));
            }
        }
        None
    }

    /// Enumerates accepted words of length at most `max_len`, up to `limit`
    /// words, in length-lexicographic order. Intended for tests and examples.
    pub fn enumerate_accepted(&self, max_len: usize, limit: usize) -> Vec<Word> {
        let syms = self.sorted_syms();
        let finals = self.finals_set();
        let mut out = Vec::new();
        let start = self.start_closure();
        let mut frontier: Vec<(StateSet, Word)> = vec![(start, Vec::new())];
        for _len in 0..=max_len {
            let mut next_frontier = Vec::new();
            for (set, word) in &frontier {
                if set.intersects(&finals) {
                    out.push(word.clone());
                    if out.len() >= limit {
                        return out;
                    }
                }
            }
            let mut next = StateSet::empty(self.num_states);
            for (set, word) in frontier {
                for &(sym, sid) in &syms {
                    self.step_local_into(&set, sid, &mut next);
                    if !next.is_empty() {
                        let mut w = word.clone();
                        w.push(sym);
                        next_frontier.push((next.clone(), w));
                    }
                }
            }
            frontier = next_frontier;
            if frontier.is_empty() {
                break;
            }
        }
        out
    }

    /// Restricts the automaton to states reachable from the start *and*
    /// co-reachable from a final state (keeping the start state even if its
    /// language is empty). The result accepts the same language.
    ///
    /// # Panics
    ///
    /// Only on a broken internal invariant (a kept state missing from the
    /// dense remap).
    pub fn trim(&self) -> Nfa {
        let reach = self.reachable_from(&StateSet::singleton(self.num_states, self.start));
        let coreach = self.coreachable_to(&self.finals_set());
        let mut keep: Vec<StateId> =
            reach.iter().filter(|&q| coreach.contains(q)).collect();
        if !keep.contains(&self.start) {
            keep.push(self.start);
            keep.sort_unstable();
        }
        // Dense old-id → new-id remap (`keep` is ascending).
        let mut index: Vec<Option<StateId>> = vec![None; self.num_states];
        for (i, &q) in keep.iter().enumerate() {
            index[q] = Some(i);
        }
        let mut out = Nfa::new(keep.len(), index[self.start].expect("start is kept"));
        for &q in &keep {
            let qi = index[q].expect("kept state is indexed");
            for &t in &self.eps[q] {
                if let Some(ti) = index[t] {
                    out.add_epsilon(qi, ti);
                }
            }
            for &(sid, t) in &self.trans[q] {
                if let Some(ti) = index[t] {
                    out.add_transition(qi, self.syms[sid as usize], ti);
                }
            }
            if self.finals.contains(&q) {
                out.set_final(qi);
            }
        }
        out
    }

    /// Returns an equivalent NFA without ε-transitions.
    pub fn eps_free(&self) -> Nfa {
        if !self.has_epsilon() {
            return self.clone();
        }
        let mut out = Nfa::new(self.num_states, self.start);
        for q in 0..self.num_states {
            let closure =
                self.epsilon_closure_inplace(StateSet::singleton(self.num_states, q));
            if closure.iter().any(|c| self.finals.contains(&c)) {
                out.set_final(q);
            }
            for c in &closure {
                for &(sid, t) in &self.trans[c] {
                    out.add_transition(q, self.syms[sid as usize], t);
                }
            }
        }
        out.trim()
    }

    /// Renames the symbols of the automaton through `f` (used to apply the
    /// specialisation-erasing morphism `µ` of SDTDs/EDTDs to content
    /// models).
    ///
    /// `f` is invoked **once per distinct symbol** (in first-registration
    /// order), not once per transition — all transitions carrying the same
    /// symbol receive the same image. A stateful closure that wants to
    /// distinguish individual transitions should rebuild through
    /// [`Nfa::transitions`] instead.
    pub fn map_symbols(&self, f: impl FnMut(&Symbol) -> Symbol) -> Nfa {
        let mut out = Nfa::new(self.num_states, self.start);
        // One rename per registered symbol, not one per transition.
        let renamed: Vec<Symbol> = self.syms.iter().map(f).collect();
        for q in 0..self.num_states {
            for &t in &self.eps[q] {
                out.add_epsilon(q, t);
            }
            for &(sid, t) in &self.trans[q] {
                out.add_transition(q, renamed[sid as usize], t);
            }
            if self.finals.contains(&q) {
                out.set_final(q);
            }
        }
        out
    }

    /// Keeps only transitions whose symbol satisfies the predicate
    /// (ε-transitions are always kept).
    ///
    /// Like [`Nfa::map_symbols`], the predicate is evaluated **once per
    /// distinct symbol**, and the verdict applies to every transition
    /// carrying it.
    pub fn filter_symbols(&self, keep: impl FnMut(&Symbol) -> bool) -> Nfa {
        let mut out = Nfa::new(self.num_states, self.start);
        let kept: Vec<bool> = self.syms.iter().map(keep).collect();
        for q in 0..self.num_states {
            for &t in &self.eps[q] {
                out.add_epsilon(q, t);
            }
            for &(sid, t) in &self.trans[q] {
                if kept[sid as usize] {
                    out.add_transition(q, self.syms[sid as usize], t);
                }
            }
            if self.finals.contains(&q) {
                out.set_final(q);
            }
        }
        out
    }

    // ------------------------------------------------------------------
    // Rational operations
    // ------------------------------------------------------------------

    /// Copies `other`'s states into `self` with an offset, returning the
    /// offset. (Internal helper for the rational operations.)
    fn absorb(&mut self, other: &Nfa) -> usize {
        let offset = self.num_states;
        self.num_states += other.num_states;
        // Remap other's local symbol ids into self's index once.
        let remap: Vec<u32> = other.syms.iter().map(|&s| self.local_id(s)).collect();
        self.trans.extend(other.trans.iter().map(|v| {
            let mut adj: Vec<(u32, StateId)> =
                v.iter().map(|&(s, t)| (remap[s as usize], t + offset)).collect();
            adj.sort_unstable();
            adj
        }));
        self.eps
            .extend(other.eps.iter().map(|v| v.iter().map(|&t| t + offset).collect::<Vec<_>>()));
        self.has_eps |= other.has_eps;
        offset
    }

    /// Union `[self] ∪ [other]`.
    pub fn union(&self, other: &Nfa) -> Nfa {
        let mut out = Nfa::new(1, 0);
        let o1 = out.absorb(self);
        let o2 = out.absorb(other);
        out.add_epsilon(0, self.start + o1);
        out.add_epsilon(0, other.start + o2);
        for &f in &self.finals {
            out.set_final(f + o1);
        }
        for &f in &other.finals {
            out.set_final(f + o2);
        }
        out
    }

    /// Union of many automata. Returns the empty language for an empty slice.
    pub fn union_all<'a>(automata: impl IntoIterator<Item = &'a Nfa>) -> Nfa {
        let mut iter = automata.into_iter();
        match iter.next() {
            None => Nfa::empty(),
            Some(first) => iter.fold(first.clone(), |acc, a| acc.union(a)),
        }
    }

    /// Concatenation `[self] ◦ [other]`.
    pub fn concat(&self, other: &Nfa) -> Nfa {
        let mut out = self.clone();
        let o2 = out.absorb(other);
        for &f in &self.finals {
            out.add_epsilon(f, other.start + o2);
        }
        out.finals = other.finals.iter().map(|f| f + o2).collect();
        out
    }

    /// Kleene star `[self]*`.
    pub fn star(&self) -> Nfa {
        let mut out = Nfa::new(1, 0);
        let o = out.absorb(self);
        out.add_epsilon(0, self.start + o);
        out.set_final(0);
        for &f in &self.finals {
            out.add_epsilon(f + o, 0);
            out.set_final(f + o);
        }
        out
    }

    /// Kleene plus `[self]+`.
    pub fn plus(&self) -> Nfa {
        self.concat(&self.star())
    }

    /// Option `[self]?` = `[self] ∪ {ε}`.
    pub fn optional(&self) -> Nfa {
        let mut out = self.clone();
        if !out.finals.contains(&out.start) {
            let new_start = out.add_state();
            out.add_epsilon(new_start, out.start);
            out.set_start(new_start);
            out.set_final(new_start);
        }
        out
    }

    /// Intersection `[self] ∩ [other]` (product construction on the ε-free
    /// versions).
    pub fn intersect(&self, other: &Nfa) -> Nfa {
        let a = self.eps_free();
        let b = other.eps_free();
        // b's local index for each of a's local symbols, resolved once.
        let b_ids: Vec<Option<u32>> = a.syms.iter().map(|s| b.sym_id(s)).collect();
        // Product over pairs, built lazily from the reachable part.
        let mut index: FxHashMap<(StateId, StateId), StateId> = FxHashMap::default();
        let mut out = Nfa::new(1, 0);
        index.insert((a.start, b.start), 0);
        let mut stack = vec![(a.start, b.start)];
        while let Some((p, q)) = stack.pop() {
            let pid = index[&(p, q)];
            if a.is_final(p) && b.is_final(q) {
                out.set_final(pid);
            }
            let adj = &a.trans[p];
            let mut i = 0;
            while i < adj.len() {
                let sid = adj[i].0;
                let run_end = i + adj[i..].partition_point(|&(s, _)| s == sid);
                if let Some(bsid) = b_ids[sid as usize] {
                    let b_tos = b.succ_slice(q, bsid);
                    if !b_tos.is_empty() {
                        let sym = a.syms[sid as usize];
                        for &(_, ta) in &adj[i..run_end] {
                            for &(_, tb) in b_tos {
                                let tid = *index.entry((ta, tb)).or_insert_with(|| {
                                    stack.push((ta, tb));
                                    out.add_state()
                                });
                                out.add_transition(pid, sym, tid);
                            }
                        }
                    }
                }
                i = run_end;
            }
        }
        out.trim()
    }

    /// Complement `Σ* − [self]` with respect to the given alphabet.
    pub fn complement(&self, alphabet: &Alphabet) -> Nfa {
        Dfa::from_nfa(self).complete(alphabet).complement().to_nfa()
    }

    /// Difference `[self] − [other]` with respect to the given alphabet
    /// (needed to complete `other` before complementing it).
    pub fn difference(&self, other: &Nfa, alphabet: &Alphabet) -> Nfa {
        self.intersect(&other.complement(alphabet))
    }
}

impl PartialEq for Nfa {
    /// Structural equality up to the (internal) local symbol numbering: two
    /// automata are equal iff they have the same states, start, finals and
    /// the same labelled transition sets.
    fn eq(&self, other: &Self) -> bool {
        if self.num_states != other.num_states
            || self.start != other.start
            || self.finals != other.finals
        {
            return false;
        }
        (0..self.num_states).all(|q| {
            if self.eps[q] != other.eps[q] || self.trans[q].len() != other.trans[q].len() {
                return false;
            }
            let canon = |nfa: &Nfa, v: &[(u32, StateId)]| -> Vec<(Symbol, StateId)> {
                let mut out: Vec<(Symbol, StateId)> =
                    v.iter().map(|&(s, t)| (nfa.syms[s as usize], t)).collect();
                out.sort_unstable();
                out
            };
            canon(self, &self.trans[q]) == canon(other, &other.trans[q])
        })
    }
}

impl Eq for Nfa {}

impl fmt::Debug for Nfa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Nfa(states={}, start={}, finals={:?})", self.num_states, self.start, self.finals)?;
        for (q, lbl, t) in self.transitions() {
            match lbl {
                Some(s) => writeln!(f, "  {q} --{s}--> {t}")?,
                None => writeln!(f, "  {q} --ε--> {t}")?,
            }
        }
        Ok(())
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::{word_chars, Alphabet};

    fn ab() -> Alphabet {
        Alphabet::from_chars("ab")
    }

    #[test]
    fn literal_accepts_only_itself() {
        let w = word_chars("aba");
        let a = Nfa::literal(&w);
        assert!(a.accepts(&w));
        assert!(!a.accepts(&word_chars("ab")));
        assert!(!a.accepts(&word_chars("abaa")));
        assert!(!a.accepts(&[]));
    }

    #[test]
    fn metrics_reflect_structure() {
        let w = word_chars("aba");
        let m = Nfa::literal(&w).metrics();
        assert_eq!(m.states, 4);
        assert_eq!(m.transitions, 3);
        assert_eq!(m.alphabet, ab());
        assert!(!m.has_epsilon);
        assert_eq!(m.min_word_len, Some(3));

        let empty = Nfa::empty().metrics();
        assert_eq!(empty.min_word_len, None);
        assert!(empty.alphabet.is_empty());

        let star = Nfa::symbol("a").star().metrics();
        assert!(star.has_epsilon);
        assert_eq!(star.min_word_len, Some(0));
    }

    #[test]
    fn empty_and_epsilon() {
        assert!(Nfa::empty().is_empty());
        assert!(!Nfa::epsilon().is_empty());
        assert!(Nfa::epsilon().accepts(&[]));
        assert!(!Nfa::epsilon().accepts(&word_chars("a")));
    }

    #[test]
    fn union_concat_star() {
        let a = Nfa::symbol("a");
        let b = Nfa::symbol("b");
        let ab = a.concat(&b);
        assert!(ab.accepts(&word_chars("ab")));
        assert!(!ab.accepts(&word_chars("a")));
        let a_or_b = a.union(&b);
        assert!(a_or_b.accepts(&word_chars("a")));
        assert!(a_or_b.accepts(&word_chars("b")));
        assert!(!a_or_b.accepts(&word_chars("ab")));
        let astar = a.star();
        assert!(astar.accepts(&[]));
        assert!(astar.accepts(&word_chars("aaaa")));
        assert!(!astar.accepts(&word_chars("ab")));
        let aplus = a.plus();
        assert!(!aplus.accepts(&[]));
        assert!(aplus.accepts(&word_chars("aa")));
        let aopt = a.optional();
        assert!(aopt.accepts(&[]));
        assert!(aopt.accepts(&word_chars("a")));
        assert!(!aopt.accepts(&word_chars("aa")));
    }

    #[test]
    fn intersection_and_difference() {
        // (ab)* ∩ a(ba)*b = (ab)+ restricted... both describe strings of
        // alternating ab starting with a and ending with b, so the
        // intersection equals the non-empty even-length ones.
        let abstar = Nfa::literal(&word_chars("ab")).star();
        let a_ba_b = Nfa::symbol("a")
            .concat(&Nfa::literal(&word_chars("ba")).star())
            .concat(&Nfa::symbol("b"));
        let inter = abstar.intersect(&a_ba_b);
        assert!(inter.accepts(&word_chars("ab")));
        assert!(inter.accepts(&word_chars("abab")));
        assert!(!inter.accepts(&[]));
        assert!(!inter.accepts(&word_chars("aba")));

        let diff = abstar.difference(&a_ba_b, &ab());
        assert!(diff.accepts(&[]));
        assert!(!diff.accepts(&word_chars("ab")));
    }

    #[test]
    fn complement_and_universality() {
        let astar = Nfa::symbol("a").star();
        let comp = astar.complement(&ab());
        assert!(!comp.accepts(&[]));
        assert!(!comp.accepts(&word_chars("aa")));
        assert!(comp.accepts(&word_chars("ab")));
        assert!(comp.accepts(&word_chars("b")));
        let union = astar.union(&comp);
        assert!(union.is_universal(&ab()));
        assert!(!astar.is_universal(&ab()));
    }

    #[test]
    fn eps_free_preserves_language() {
        let a = Nfa::symbol("a").star().concat(&Nfa::symbol("b").optional());
        let ef = a.eps_free();
        assert!(!ef.has_epsilon());
        for w in ["", "a", "aa", "b", "ab", "aab", "ba", "bb"] {
            assert_eq!(a.accepts(&word_chars(w)), ef.accepts(&word_chars(w)), "word {w}");
        }
    }

    #[test]
    fn shortest_and_enumeration() {
        let a = Nfa::symbol("a").plus().concat(&Nfa::symbol("b"));
        assert_eq!(a.shortest_accepted(), Some(word_chars("ab")));
        assert_eq!(Nfa::empty().shortest_accepted(), None);
        let words = a.enumerate_accepted(4, 10);
        assert!(words.contains(&word_chars("ab")));
        assert!(words.contains(&word_chars("aaab")));
        assert!(!words.contains(&word_chars("b")));
    }

    #[test]
    fn trim_keeps_language() {
        let mut a = Nfa::new(4, 0);
        a.add_transition(0, "a", 1);
        a.add_transition(2, "b", 3); // unreachable garbage
        a.set_final(1);
        a.set_final(3);
        let t = a.trim();
        assert_eq!(t.num_states(), 2);
        assert!(t.accepts(&word_chars("a")));
        assert!(!t.accepts(&word_chars("b")));
    }

    #[test]
    fn map_and_filter_symbols() {
        let a = Nfa::literal(&word_chars("ab"));
        let mapped = a.map_symbols(|s| if s.as_str() == "a" { Symbol::new("x") } else { *s });
        assert!(mapped.accepts(&word_chars("xb")));
        assert!(!mapped.accepts(&word_chars("ab")));
        let filtered = a.filter_symbols(|s| s.as_str() != "b");
        assert!(filtered.is_empty());
    }

    #[test]
    fn delta_star_reachability() {
        let a = Nfa::literal(&word_chars("ab")).star();
        let from_start = a.delta_star_from(a.start(), &word_chars("ab"));
        assert!(from_start.iter().any(|q| a.is_final(q)));
        let dead = a.delta_star_from(a.start(), &word_chars("ba"));
        assert!(dead.iter().all(|q| !a.is_final(q)));
    }

    #[test]
    fn any_of_and_sigma_star() {
        let any = Nfa::any_of(["a", "b"]);
        assert!(any.accepts(&word_chars("a")));
        assert!(any.accepts(&word_chars("b")));
        assert!(!any.accepts(&word_chars("ab")));
        let sig = Nfa::sigma_star(&ab());
        assert!(sig.accepts(&[]));
        assert!(sig.accepts(&word_chars("abba")));
        assert!(sig.is_universal(&ab()));
    }
}
