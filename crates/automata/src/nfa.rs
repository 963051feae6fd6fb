//! Nondeterministic finite automata (nFAs), ε-free by construction.
//!
//! This follows Section 2.1.2 of the paper: an nFA is a quintuple
//! `⟨K, Σ, Δ, qs, F⟩` with `Δ ⊆ K × Σ × K`. States are dense integers
//! `0..num_states`. Every automaton is ε-free: regular expressions compile
//! to their Glushkov (position) automaton ([`crate::Regex::to_nfa`]), and
//! concatenation and union join automata by copying the start state's
//! out-edges, so a run's frontier is always a plain state set and the start
//! frontier is `{qs}`. The module provides the combinators the paper
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
//! `(local symbol, successor)` pairs. The invariants the hot paths rely on:
//!
//! * `trans.len() == num_states` at all times — states are never implicit
//!   (see [`Nfa::new`] on the zero-state case);
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
//! Every state-set-shaped value (frontiers, reachability sets)
//! is a [`StateSet`] — a fixed-width dense bitset over the automaton's
//! state universe (see [`crate::stateset`]), iterated in ascending state
//! order exactly like the `BTreeSet<usize>` representation it replaced, so
//! subset-state numbering and witness words are unchanged.
//!
//! # Pair search
//!
//! Shortest words, the tree crate's Moore images and the context walks of
//! [`crate::quotient`] all read an automaton against a deterministic
//! machine through one routine, [`Nfa::product_search`], over (state,
//! machine state) pairs: never a state set per search node.

use std::collections::BTreeSet;
use std::fmt;
use std::hash::Hash;

use crate::dfa::Dfa;
use crate::error::AutomataError;
use crate::hash::{FxHashMap, FxHashSet};
use crate::limits::Budget;
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
    /// Number of transitions.
    pub transitions: usize,
    /// The symbols actually appearing on transitions — exactly the
    /// alphabet the subset construction scans once per popped subset, so
    /// `subset transitions = subset states × alphabet.len()`.
    pub alphabet: Alphabet,
    /// Length of a shortest accepted word, or `None` for the empty
    /// language. The subsets visited along a shortest word's run are
    /// pairwise distinct, so the subset DFA has at least
    /// `min_word_len + 1` states when the language is non-empty.
    pub min_word_len: Option<usize>,
}

/// One move of [`Nfa::product_search`]: the automaton reads a local symbol
/// id while the machine reads a letter, and the move is tagged.
pub type ProductMove<L> = (u32, L, usize);

/// A pair of [`Nfa::product_search`]: an automaton state and a machine
/// state, with the pair it was first reached from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProductPair<C> {
    /// The automaton state.
    pub state: StateId,
    /// The machine state.
    pub config: C,
    /// The pair this one was first reached from; `None` for the start pair.
    pub parent: Option<usize>,
    /// The tag of the move choice that first reached this pair.
    pub tag: usize,
}

impl<C> ProductPair<C> {
    /// The least word reaching `pairs[i]`, in reading order, each move
    /// `spell`ed from the pair it enters (the move's `tag`, and the `state`
    /// it enters).
    pub fn word<T>(pairs: &[ProductPair<C>], mut i: usize, spell: impl Fn(&ProductPair<C>) -> T) -> Vec<T> {
        let mut word = Vec::new();
        while let Some(parent) = pairs[i].parent {
            word.push(spell(&pairs[i]));
            i = parent;
        }
        word.reverse();
        word
    }
}

/// A nondeterministic finite automaton (without ε-transitions).
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

    /// Marks a state as final.
    ///
    /// # Panics
    ///
    /// Panics if `state` is not a state of the automaton.
    pub fn set_final(&mut self, state: StateId) {
        assert!(state < self.num_states);
        self.finals.insert(state);
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// Total number of transitions (counting each `(q, a, q')` triple once).
    pub fn num_transitions(&self) -> usize {
        self.trans.iter().map(Vec::len).sum()
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

    /// Iterates over all transitions as `(from, label, to)`.
    pub fn transitions(&self) -> impl Iterator<Item = (StateId, &Symbol, StateId)> + '_ {
        (0..self.num_states).flat_map(move |q| {
            self.trans[q].iter().map(move |&(s, t)| (q, &self.syms[s as usize], t))
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

    /// Extracts the structural [`NfaMetrics`] of the automaton — everything
    /// the static cost model (`dxml-analysis::cost`) needs to bracket a
    /// future [`Dfa::from_nfa`](crate::dfa::Dfa::from_nfa) run, computed in
    /// polynomial time without determinising anything (the only search is
    /// the shortest-word pair search, linear in the transition table).
    pub fn metrics(&self) -> NfaMetrics {
        NfaMetrics {
            states: self.num_states,
            transitions: self.num_transitions(),
            alphabet: self.alphabet(),
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

    /// One symbol step on a state set via the local index, returning the
    /// successor set. The bitset-frontier primitive behind [`Nfa::step`];
    /// public for callers that resolve symbol ids once via [`Nfa::sym_id`]
    /// and step many times.
    ///
    /// The set must have been created over this automaton's state universe.
    pub fn step_local(&self, set: &StateSet, sid: u32) -> StateSet {
        let mut next = StateSet::empty(self.num_states);
        self.step_local_into(set, sid, &mut next);
        next
    }

    /// [`Nfa::step_local`] into a caller-owned buffer: clears `out`, writes
    /// the successor set into it. `StateSet::clear` keeps the heap
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
    }

    // ------------------------------------------------------------------
    // Runs
    // ------------------------------------------------------------------

    /// The singleton `{start}`: the initial frontier of every run.
    pub fn start_set(&self) -> StateSet {
        StateSet::singleton(self.num_states, self.start)
    }

    /// One symbol step on a state set, returning the successor set.
    pub fn step(&self, set: &StateSet, sym: &Symbol) -> StateSet {
        match self.sym_id(sym) {
            Some(sid) => self.step_local(set, sid),
            None => StateSet::empty(self.num_states),
        }
    }

    /// One *multi-symbol* step into a caller-owned buffer: clears `out` and
    /// writes the union of the successor sets over every symbol of `syms`
    /// into it — the inner loop of the bottom-up tree-automaton runs, where
    /// a child can contribute any symbol of a set. Same buffer contract as
    /// [`Nfa::step_local_into`].
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
    }

    /// The set of states reachable from `set` by reading `word`
    /// (the extended transition relation `Δ*`).
    pub fn delta_star(&self, set: &StateSet, word: &[Symbol]) -> StateSet {
        let mut current = set.clone();
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

    /// The set of states reachable (by any transitions) from the states in
    /// `from`.
    pub fn reachable_from(&self, from: &StateSet) -> StateSet {
        let mut seen = from.clone();
        let mut stack: Vec<StateId> = from.iter().collect();
        while let Some(q) = stack.pop() {
            for &(_, t) in &self.trans[q] {
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
        let reach = self.reachable_from(&self.start_set());
        self.finals.is_empty() || reach.is_disjoint(&self.finals_set())
    }

    /// Whether the language equals `Σ*` over the given alphabet.
    pub fn is_universal(&self, alphabet: &Alphabet) -> bool {
        self.complement(alphabet).is_empty()
    }

    /// A shortest accepted word, if any — the least accepted word in
    /// length-then-text order (the alphabet is compared in symbol text
    /// order, as everywhere else witnesses are chosen).
    ///
    /// # Panics
    ///
    /// Never in practice: the unlimited budget cannot trip.
    pub fn shortest_accepted(&self) -> Option<Word> {
        self.shortest_accepted_with_budget(&Budget::unlimited())
            .expect("the unlimited budget never trips")
    }

    /// Governed variant of [`Nfa::shortest_accepted`]: the word of the
    /// first final pair of [`Nfa::product_search`] with the trivial machine
    /// `()`, whose pairs are single states and whose moves are the symbols
    /// in text order. Linear in the size of the automaton; it charges one
    /// budget step per group, so at most one per reachable state.
    pub fn shortest_accepted_with_budget(&self, budget: &Budget) -> Result<Option<Word>, AutomataError> {
        let moves: Vec<ProductMove<()>> =
            self.sorted_syms().into_iter().map(|(_, sid)| (sid, (), sid as usize)).collect();
        let pairs = self.product_search((), &moves, |(), ()| Some(()), budget)?;
        let first = pairs.iter().position(|p| self.is_final(p.state));
        Ok(first.map(|i| ProductPair::word(&pairs, i, |p| self.syms[p.tag])))
    }

    /// The pair search of this automaton against a deterministic machine:
    /// a breadth-first search over (automaton state, machine state) pairs,
    /// starting from `(start state, start)`. A move lets the automaton read
    /// its local symbol id (see [`Nfa::sym_id`]) while the machine reads
    /// the move's letter through `step`; `step` returning `None` stops the
    /// word there. Every pair found keeps the pair it was first reached
    /// from and the tag of the move that reached it.
    ///
    /// Pairs are grouped by the word that first reaches them, and each
    /// group is expanded once, on the moves in the given order. So
    /// the pairs come out in the length-then-move order of their least
    /// words, and [`ProductPair::word`] spells the least word of each. All
    /// pairs of a group share its word, hence its machine state. Unlike a
    /// search over (state *set*, machine state) nodes, the number of pairs
    /// is at most states × machine states, whatever the automaton's
    /// nondeterminism.
    ///
    /// Charges one `budget` step per group and aborts with
    /// [`AutomataError::BudgetExceeded`] when the budget trips.
    pub fn product_search<C, L>(
        &self,
        start: C,
        moves: &[ProductMove<L>],
        step: impl Fn(C, L) -> Option<C>,
        budget: &Budget,
    ) -> Result<Vec<ProductPair<C>>, AutomataError>
    where
        C: Copy + Eq + Hash,
        L: Copy,
    {
        let mut pairs = Vec::with_capacity(self.num_states);
        pairs.push(ProductPair { state: self.start, config: start, parent: None, tag: 0 });
        let mut seen: FxHashSet<(StateId, C)> =
            FxHashSet::with_capacity_and_hasher(self.num_states, Default::default());
        seen.insert((self.start, start));
        // Group `g` is `pairs[ends[g]..ends[g + 1]]`. Groups are found in
        // the order they are expanded, so this list is also the queue.
        let mut ends = vec![0, 1];
        let mut g = 0;
        while g + 1 < ends.len() {
            budget.step()?;
            let group = ends[g]..ends[g + 1];
            let config = pairs[group.start].config;
            // Consecutive moves on one symbol are skipped together when the
            // group cannot read it.
            let mut rest = moves;
            while let Some(&(sid, _, _)) = rest.first() {
                let run = rest.iter().take_while(|m| m.0 == sid).count();
                let (same_symbol, tail) = rest.split_at(run);
                rest = tail;
                if group.clone().all(|p| self.succ_slice(pairs[p].state, sid).is_empty()) {
                    continue;
                }
                for &(_, letter, tag) in same_symbol {
                    let Some(next) = step(config, letter) else { continue };
                    for p in group.clone() {
                        for &(_, t) in self.succ_slice(pairs[p].state, sid) {
                            if seen.insert((t, next)) {
                                pairs.push(ProductPair { state: t, config: next, parent: Some(p), tag });
                            }
                        }
                    }
                    if pairs.len() > ends[ends.len() - 1] {
                        ends.push(pairs.len());
                    }
                }
            }
            g += 1;
        }
        Ok(pairs)
    }

    /// Enumerates accepted words of length at most `max_len`, up to `limit`
    /// words, in length-lexicographic order. Intended for tests and examples.
    pub fn enumerate_accepted(&self, max_len: usize, limit: usize) -> Vec<Word> {
        let syms = self.sorted_syms();
        let finals = self.finals_set();
        let mut out = Vec::new();
        let mut frontier: Vec<(StateSet, Word)> = vec![(self.start_set(), Vec::new())];
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
        let reach = self.reachable_from(&self.start_set());
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
            for &(sid, t) in &self.trans[q] {
                out.add_transition(q, renamed[sid as usize], t);
            }
            if self.finals.contains(&q) {
                out.set_final(q);
            }
        }
        out
    }

    /// Keeps only transitions whose symbol satisfies the predicate.
    ///
    /// Like [`Nfa::map_symbols`], the predicate is evaluated **once per
    /// distinct symbol**, and the verdict applies to every transition
    /// carrying it.
    pub fn filter_symbols(&self, keep: impl FnMut(&Symbol) -> bool) -> Nfa {
        let mut out = Nfa::new(self.num_states, self.start);
        let kept: Vec<bool> = self.syms.iter().map(keep).collect();
        for q in 0..self.num_states {
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
        offset
    }

    /// Gives `to` a copy of every out-edge of `from`: `to` then continues
    /// every run `from` starts, the ε-free stand-in for an ε-link `to → from`.
    fn copy_out_edges(&mut self, from: StateId, to: StateId) {
        let edges = self.trans[from].clone();
        let v = &mut self.trans[to];
        v.extend(edges);
        v.sort_unstable();
        v.dedup();
    }

    /// Union `[self] ∪ [other]`: a fresh start state continues both
    /// operands' starts, and accepts ε if either operand does.
    pub fn union(&self, other: &Nfa) -> Nfa {
        let mut out = Nfa::new(1, 0);
        for operand in [self, other] {
            let o = out.absorb(operand);
            out.copy_out_edges(operand.start + o, 0);
            for &f in &operand.finals {
                out.set_final(f + o);
            }
            if operand.is_final(operand.start) {
                out.set_final(0);
            }
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

    /// Concatenation `[self] ◦ [other]`: every final state of `self`
    /// continues `other`'s start, and stays final iff `other` accepts ε.
    pub fn concat(&self, other: &Nfa) -> Nfa {
        let mut out = self.clone();
        out.append(other);
        out
    }

    /// In-place concatenation: `self` becomes `[self] ◦ [other]`, at a cost
    /// linear in `other` plus the out-edges copied onto `self`'s finals, so
    /// a word built piece by piece costs the sum of its pieces rather than
    /// a copy of the growing prefix per piece.
    ///
    /// Layout: `other`'s state `q` becomes `self.num_states() + q` (taken
    /// before the call), and every added edge, copied ones included, enters
    /// one of those states. So the states a run of a word built piece by
    /// piece enters fall in non-decreasing piece ranges.
    pub fn append(&mut self, other: &Nfa) {
        let finals = std::mem::take(&mut self.finals);
        let o = self.absorb(other);
        for &f in &finals {
            self.copy_out_edges(other.start + o, f);
        }
        if other.is_final(other.start) {
            self.finals = finals;
        }
        self.finals.extend(other.finals.iter().map(|f| f + o));
    }

    /// Intersection `[self] ∩ [other]` (product construction over the
    /// reachable pairs, trimmed).
    pub fn intersect(&self, other: &Nfa) -> Nfa {
        // other's local index for each of self's local symbols, resolved once.
        let b_ids: Vec<Option<u32>> = self.syms.iter().map(|s| other.sym_id(s)).collect();
        // Product over pairs, built lazily from the reachable part.
        let mut index: FxHashMap<(StateId, StateId), StateId> = FxHashMap::default();
        let mut out = Nfa::new(1, 0);
        index.insert((self.start, other.start), 0);
        let mut stack = vec![(self.start, other.start)];
        while let Some((p, q)) = stack.pop() {
            let pid = index[&(p, q)];
            if self.is_final(p) && other.is_final(q) {
                out.set_final(pid);
            }
            let adj = &self.trans[p];
            let mut i = 0;
            while i < adj.len() {
                let sid = adj[i].0;
                let run_end = i + adj[i..].partition_point(|&(s, _)| s == sid);
                if let Some(bsid) = b_ids[sid as usize] {
                    let b_tos = other.succ_slice(q, bsid);
                    if !b_tos.is_empty() {
                        let sym = self.syms[sid as usize];
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
            if self.trans[q].len() != other.trans[q].len() {
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
    use crate::symbol::{word_chars, Alphabet};

    fn ab() -> Alphabet {
        Alphabet::from_chars("ab")
    }

    fn re(src: &str) -> Nfa {
        Regex::parse_chars(src).unwrap().to_nfa()
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
        assert_eq!(m.min_word_len, Some(3));

        let empty = Nfa::empty().metrics();
        assert_eq!(empty.min_word_len, None);
        assert!(empty.alphabet.is_empty());

        // The Glushkov automaton of `a*`: the start state and one position.
        let star = re("a*").metrics();
        assert_eq!((star.states, star.transitions), (2, 2));
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
        let astar = re("a*");
        assert!(astar.accepts(&[]));
        assert!(astar.accepts(&word_chars("aaaa")));
        assert!(!astar.accepts(&word_chars("ab")));
        let aplus = re("a+");
        assert!(!aplus.accepts(&[]));
        assert!(aplus.accepts(&word_chars("aa")));
        let aopt = re("a?");
        assert!(aopt.accepts(&[]));
        assert!(aopt.accepts(&word_chars("a")));
        assert!(!aopt.accepts(&word_chars("aa")));
        // Operands accepting ε: concatenation keeps the left finals, union
        // makes its fresh start final, and looping starts keep looping.
        let astar_bopt = astar.concat(&re("b?"));
        for (w, want) in [("", true), ("aa", true), ("aab", true), ("b", true), ("ba", false), ("bb", false)] {
            assert_eq!(astar_bopt.accepts(&word_chars(w)), want, "a*·b? on `{w}`");
        }
        let astar_or_b = astar.union(&b);
        for (w, want) in [("", true), ("aaa", true), ("b", true), ("ab", false), ("bb", false)] {
            assert_eq!(astar_or_b.accepts(&word_chars(w)), want, "a*∪b on `{w}`");
        }
        assert!(Nfa::epsilon().concat(&Nfa::epsilon()).accepts(&[]));
        assert!(Nfa::empty().concat(&astar).is_empty());
        // Appending piece by piece builds the same word as folding concat.
        let pieces = [re("a*"), re("b?"), Nfa::symbol("a"), re("(ab)*")];
        let mut appended = Nfa::epsilon();
        for piece in &pieces {
            appended.append(piece);
        }
        let folded = pieces.iter().fold(Nfa::epsilon(), |word, piece| word.concat(piece));
        assert!(crate::equiv::is_equivalent(&appended, &folded));
        assert_eq!(appended.num_states(), folded.num_states());
    }

    #[test]
    fn intersection_and_difference() {
        // (ab)* ∩ a(ba)*b = (ab)+ restricted... both describe strings of
        // alternating ab starting with a and ending with b, so the
        // intersection equals the non-empty even-length ones.
        let abstar = re("(ab)*");
        let a_ba_b = re("a(ba)*b");
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
        let astar = re("a*");
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
    fn shortest_and_enumeration() {
        let a = re("a+b");
        assert_eq!(a.shortest_accepted(), Some(word_chars("ab")));
        // Shortlex-least: among the shortest words, the least in text order.
        assert_eq!(re("b(a|b)|a(b|a)").shortest_accepted(), Some(word_chars("aa")));
        assert_eq!(Nfa::empty().shortest_accepted(), None);
        let tripping = crate::limits::faults::budget_tripping_after(0);
        assert!(a.shortest_accepted_with_budget(&tripping).is_err());
        let words = a.enumerate_accepted(4, 10);
        assert!(words.contains(&word_chars("ab")));
        assert!(words.contains(&word_chars("aaab")));
        assert!(!words.contains(&word_chars("b")));
    }

    #[test]
    fn the_pair_search_charges_one_step_per_group() {
        let k = 20;
        let nfa = re(&format!("(a|b)*a{}", "(a|b)".repeat(k - 1)));
        let moves: Vec<ProductMove<()>> =
            nfa.sorted_syms().into_iter().map(|(_, sid)| (sid, (), sid as usize)).collect();
        let search = |budget: &Budget| nfa.product_search((), &moves, |(), ()| Some(()), budget);
        let counted = Budget::unlimited().with_step_quota(u64::MAX);
        let pairs = search(&counted).unwrap();
        // Every state is reached, each once; a frontier search would pop
        // the 2^k subsets the suffix window can be in.
        assert_eq!(pairs.len(), nfa.num_states());
        let steps = counted.steps_spent();
        assert!(steps <= nfa.num_states() as u64 + 1, "{steps} steps for {} states", nfa.num_states());
        assert!(search(&crate::limits::faults::budget_tripping_after(steps)).is_ok());
        assert!(search(&crate::limits::faults::budget_tripping_after(steps - 1)).is_err());
        // The first final pair spells the least accepted word.
        let first = pairs.iter().position(|p| nfa.is_final(p.state)).unwrap();
        let word: Word = ProductPair::word(&pairs, first, |p| nfa.syms[p.tag]);
        assert_eq!(word, word_chars(&"a".repeat(k)));
    }

    #[test]
    fn the_pair_search_keeps_the_least_word_per_machine_state() {
        // `(a|b)*` read against a machine counting `a`s modulo 3: the least
        // word of each count is `a^count`, and a `b` never beats an `a`.
        let nfa = re("(a|b)*");
        let moves: Vec<ProductMove<usize>> = nfa
            .sorted_syms()
            .into_iter()
            .map(|(sym, sid)| (sid, usize::from(sym.as_str() == "a"), sid as usize))
            .collect();
        let pairs = nfa.product_search(0usize, &moves, |c, a| Some((c + a) % 3), &Budget::unlimited()).unwrap();
        for count in 0..3 {
            let first = pairs.iter().position(|p| nfa.is_final(p.state) && p.config == count).unwrap();
            let word: Word = ProductPair::word(&pairs, first, |p| nfa.syms[p.tag]);
            assert_eq!(word, word_chars(&"a".repeat(count)));
        }
        // A machine refusing `b` stops every word there.
        let a_only = nfa.product_search(0usize, &moves, |c, a| (a == 1).then_some((c + 1) % 3), &Budget::unlimited());
        let a_only = a_only.unwrap();
        for i in 0..a_only.len() {
            let word = ProductPair::word(&a_only, i, |p| nfa.syms[p.tag]);
            assert!(word.iter().all(|sym| sym.as_str() == "a"));
        }
    }

    #[test]
    fn appended_pieces_own_consecutive_state_ranges() {
        // `a* b` ◦ the ε-accepting `(a|c)*` ◦ `b a?`.
        let pieces = [re("a*b"), re("(a|c)*"), re("ba?")];
        let mut word = Nfa::epsilon();
        let mut starts = Vec::new();
        for piece in &pieces {
            starts.push(word.num_states());
            word.append(piece);
        }
        assert_eq!(word.num_states(), 1 + pieces.iter().map(Nfa::num_states).sum::<usize>());
        let accepted = word.enumerate_accepted(5, 200);
        assert!(accepted.contains(&word_chars("abcab")) && accepted.contains(&word_chars("bb")));
        for w in accepted {
            // Every accepting run, as the states its moves enter.
            let mut runs: Vec<Vec<StateId>> = vec![vec![word.start()]];
            for sym in &w {
                let sid = word.sym_id(sym).unwrap();
                runs = runs
                    .iter()
                    .flat_map(|run| {
                        let last = run[run.len() - 1];
                        word.succ_slice(last, sid).iter().map(move |&(_, t)| [&run[..], &[t]].concat())
                    })
                    .collect();
            }
            runs.retain(|run| word.is_final(run[run.len() - 1]));
            assert!(!runs.is_empty());
            for run in runs {
                let pieces: Vec<usize> = run[1..].iter().map(|&q| starts.partition_point(|&s| s <= q) - 1).collect();
                assert!(pieces.windows(2).all(|p| p[0] <= p[1]), "{w:?} runs through pieces {pieces:?}");
            }
        }
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
        let a = re("(ab)*");
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
