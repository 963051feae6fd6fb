//! Unranked tree automata (Section 2.1.3).
//!
//! A *nondeterministic unranked tree automaton* (nUTA) is a quadruple
//! `⟨K, Σ, Δ, F⟩` where `Δ` maps pairs `(state, label)` to [`Nfa`]s over the
//! state set: a tree is accepted iff there is an assignment `µ` of states to
//! nodes such that `µ(root) ∈ F` and for every node `x`, the word
//! `µ(children(x))` is accepted by `Δ(µ(x), lab(x))` (with ε for leaves).
//!
//! States are [`Symbol`]s, which makes nUTAs the direct operational model of
//! the paper's R-EDTDs (states = specialised element names). The module
//! provides:
//!
//! * membership ([`Nuta::accepts`]) via the bottom-up possible-state-set run;
//! * emptiness with witness trees ([`Nuta::inhabited_witnesses`]);
//! * bottom-up determinisation ([`Duta`], the dUTAs of the paper) via the
//!   reachable-subset construction, with per-label Moore machines over
//!   subset states;
//! * inclusion and equivalence of tree languages with counter-example trees
//!   ([`included`], [`equivalent`]) — the oracles behind `equiv[S]` for
//!   SDTDs and EDTDs (Theorem 4.7). Only the right-hand side is
//!   determinised: one product fixpoint ([`run_pairs`]) pairs the states of
//!   the nondeterministic left side with the deterministic run of the
//!   right side.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

use dxml_automata::{Alphabet, AutomataError, Budget, FxHashMap, FxHashSet, Nfa, StateSet, Symbol};

use crate::tree::XTree;

/// A nondeterministic unranked tree automaton whose states are [`Symbol`]s.
#[derive(Clone)]
pub struct Nuta {
    states: BTreeSet<Symbol>,
    finals: BTreeSet<Symbol>,
    labels: Alphabet,
    /// `(state, label) → content NFA over state symbols`.
    delta: BTreeMap<(Symbol, Symbol), Nfa>,
    /// `label → states with a rule for it` (sorted): the bottom-up run
    /// consults only the states that can type a node's label instead of
    /// scanning the whole state set per node.
    by_label: BTreeMap<Symbol, Vec<Symbol>>,
}

impl Nuta {
    /// Creates an automaton with no states.
    pub fn new() -> Nuta {
        Nuta {
            states: BTreeSet::new(),
            finals: BTreeSet::new(),
            labels: Alphabet::new(),
            delta: BTreeMap::new(),
            by_label: BTreeMap::new(),
        }
    }

    /// Adds a state (idempotent).
    pub fn add_state(&mut self, state: impl Into<Symbol>) {
        self.states.insert(state.into());
    }

    /// Marks a state as final (adds it if missing).
    pub fn set_final(&mut self, state: impl Into<Symbol>) {
        let s = state.into();
        self.states.insert(s);
        self.finals.insert(s);
    }

    /// Sets the content automaton for `(state, label)`. The content NFA reads
    /// *state* symbols. Adding a rule registers the state and the label.
    pub fn set_rule(&mut self, state: impl Into<Symbol>, label: impl Into<Symbol>, content: Nfa) {
        let s = state.into();
        let l = label.into();
        self.states.insert(s);
        self.labels.insert(l);
        let states = self.by_label.entry(l).or_default();
        if let Err(pos) = states.binary_search(&s) {
            states.insert(pos, s);
        }
        self.delta.insert((s, l), content);
    }

    /// The states.
    pub fn states(&self) -> &BTreeSet<Symbol> {
        &self.states
    }

    /// The final states.
    pub fn finals(&self) -> &BTreeSet<Symbol> {
        &self.finals
    }

    /// The tree-node labels for which at least one rule exists.
    pub fn labels(&self) -> &Alphabet {
        &self.labels
    }

    /// The content automaton for `(state, label)` if a rule exists.
    pub fn rule(&self, state: &Symbol, label: &Symbol) -> Option<&Nfa> {
        self.delta.get(&(*state, *label))
    }

    /// Iterates over all rules.
    pub fn rules(&self) -> impl Iterator<Item = (&Symbol, &Symbol, &Nfa)> {
        self.delta.iter().map(|((s, l), nfa)| (s, l, nfa))
    }

    /// Total size: number of states plus the sizes of all content automata.
    pub fn size(&self) -> usize {
        self.states.len()
            + self
                .delta
                .values()
                .map(|nfa| nfa.num_states() + nfa.num_transitions())
                .sum::<usize>()
    }

    // ------------------------------------------------------------------
    // Runs
    // ------------------------------------------------------------------

    /// Whether `content` accepts some word `w1…wk` with `wi ∈ child_sets[i]`.
    fn content_accepts_over_sets(content: &Nfa, child_sets: &[&BTreeSet<Symbol>]) -> bool {
        let mut current = content.start_closure();
        let mut next = StateSet::empty(content.num_states());
        for set in child_sets {
            content.step_all_into(&current, set.iter(), &mut next);
            if next.is_empty() {
                return false;
            }
            std::mem::swap(&mut current, &mut next);
        }
        current.iter().any(|q| content.is_final(q))
    }

    /// The bottom-up possible-state run: for each node (indexed by
    /// [`crate::tree::NodeId`]) the set of states the automaton can assign to
    /// it.
    ///
    /// # Panics
    ///
    /// Only on a broken internal invariant (the by-label index listing a
    /// state without a rule).
    pub fn run(&self, tree: &XTree) -> Vec<BTreeSet<Symbol>> {
        let mut possible: Vec<BTreeSet<Symbol>> = vec![BTreeSet::new(); tree.size()];
        for node in tree.bottom_up_order() {
            let label = tree.label(node);
            let child_sets: Vec<&BTreeSet<Symbol>> =
                tree.children(node).iter().map(|&c| &possible[c]).collect();
            let mut states = BTreeSet::new();
            // Only the states with a rule for this label can type the node.
            for q in self.by_label.get(label).map_or(&[][..], Vec::as_slice) {
                let content = self.rule(q, label).expect("by_label lists only ruled states");
                if Self::content_accepts_over_sets(content, &child_sets) {
                    states.insert(*q);
                }
            }
            possible[node] = states;
        }
        possible
    }

    /// Whether the automaton accepts the tree.
    pub fn accepts(&self, tree: &XTree) -> bool {
        let possible = self.run(tree);
        possible[tree.root()].iter().any(|q| self.finals.contains(q))
    }

    // ------------------------------------------------------------------
    // Emptiness
    // ------------------------------------------------------------------

    /// For every *inhabited* state `q` (a state to which some tree can be
    /// assigned), a witness tree. The language is empty iff no final state is
    /// inhabited.
    pub fn inhabited_witnesses(&self) -> BTreeMap<Symbol, XTree> {
        let mut witnesses: BTreeMap<Symbol, XTree> = BTreeMap::new();
        loop {
            let mut changed = false;
            for ((state, label), content) in &self.delta {
                if witnesses.contains_key(state) {
                    continue;
                }
                // Restrict the content automaton to currently inhabited
                // states and look for a shortest accepted word.
                let restricted = content.filter_symbols(|s| witnesses.contains_key(s));
                if let Some(word) = restricted.shortest_accepted() {
                    let children: Vec<XTree> = word.iter().map(|s| witnesses[s].clone()).collect();
                    witnesses.insert(*state, XTree::node(*label, children));
                    changed = true;
                }
            }
            if !changed {
                return witnesses;
            }
        }
    }

    /// Whether the tree language is empty.
    pub fn is_empty(&self) -> bool {
        let witnesses = self.inhabited_witnesses();
        !self.finals.iter().any(|f| witnesses.contains_key(f))
    }

    /// A tree in the language, if any.
    pub fn sample_tree(&self) -> Option<XTree> {
        let witnesses = self.inhabited_witnesses();
        self.finals.iter().find_map(|f| witnesses.get(f).cloned())
    }

    /// Determinises the automaton over the label universe `labels` (which
    /// should contain at least [`Nuta::labels`]; extra labels yield the
    /// empty subset for every node carrying them).
    ///
    /// # Panics
    ///
    /// Never in practice: the unlimited budget cannot trip.
    pub fn determinize(&self, labels: &Alphabet) -> Duta {
        self.determinize_with_budget(labels, &Budget::unlimited())
            .expect("the unlimited budget never trips")
    }

    /// Governed variant of [`Nuta::determinize`]: every `(label, config,
    /// subset letter)` expansion of the fixpoint charges one budget step and
    /// every discovered subset state charges the state quota; the
    /// construction aborts with [`AutomataError::BudgetExceeded`] when the
    /// budget trips, leaving no partial automaton behind.
    ///
    /// # Panics
    ///
    /// Only on a broken internal invariant (a ruled `(state, label)` pair
    /// without its content automaton).
    pub fn determinize_with_budget(
        &self,
        labels: &Alphabet,
        budget: &Budget,
    ) -> Result<Duta, AutomataError> {
        budget.check_interrupts()?;
        let labels = labels.union(self.labels());
        // Per label: the list of states with a rule and their ε-free content
        // automata.
        struct Building {
            states_with_rule: Vec<Symbol>,
            nfas: Vec<Nfa>,
            configs: Vec<Vec<StateSet>>,
            config_index: FxHashMap<Vec<StateSet>, usize>,
            config_paths: Vec<Vec<usize>>,
            /// Sorted `(letter, next config)` adjacency per config; letters
            /// are discovered in increasing order, so plain pushes keep the
            /// vectors sorted.
            trans: Vec<Vec<(usize, usize)>>,
            output: Vec<usize>,
        }
        let mut building: BTreeMap<Symbol, Building> = BTreeMap::new();
        for label in &labels {
            let states_with_rule: Vec<Symbol> = self
                .states()
                .iter()
                .filter(|q| self.rule(q, label).is_some())
                .cloned()
                .collect();
            let nfas: Vec<Nfa> = states_with_rule
                .iter()
                .map(|q| self.rule(q, label).unwrap().eps_free())
                .collect();
            building.insert(
                *label,
                Building {
                    states_with_rule,
                    nfas,
                    configs: Vec::new(),
                    config_index: FxHashMap::default(),
                    config_paths: Vec::new(),
                    trans: Vec::new(),
                    output: Vec::new(),
                },
            );
        }

        let mut subsets: Vec<BTreeSet<Symbol>> = Vec::new();
        let mut subset_index: BTreeMap<BTreeSet<Symbol>, usize> = BTreeMap::new();
        let mut witnesses: Vec<XTree> = Vec::new();

        // Helper closures operate through explicit arguments to appease the
        // borrow checker.
        fn config_output(b: &Building, config: &[StateSet]) -> BTreeSet<Symbol> {
            b.states_with_rule
                .iter()
                .zip(&b.nfas)
                .zip(config)
                .filter(|((_, nfa), comp)| comp.iter().any(|s| nfa.is_final(s)))
                .map(|((q, _), _)| *q)
                .collect()
        }

        // Seed: the start configuration of each label (its output is the
        // subset assigned to a leaf with that label).
        for (label, b) in &mut building {
            let start_config: Vec<StateSet> =
                b.nfas.iter().map(Nfa::start_closure).collect();
            b.configs.push(start_config.clone());
            b.config_index.insert(start_config.clone(), 0);
            b.config_paths.push(Vec::new());
            b.trans.push(Vec::new());
            let out = config_output(b, &start_config);
            let idx = match subset_index.entry(out.clone()) {
                std::collections::btree_map::Entry::Occupied(e) => *e.get(),
                std::collections::btree_map::Entry::Vacant(slot) => {
                    budget.grow_states(1)?;
                    subsets.push(out);
                    witnesses.push(XTree::leaf(*label));
                    *slot.insert(subsets.len() - 1)
                }
            };
            b.output.push(idx);
        }

        // Fixpoint: expand every (label, config, subset letter) combination.
        loop {
            let mut changed = false;
            let num_subsets = subsets.len();
            for (label, b) in &mut building {
                // Per-component scratch frontiers reused across every
                // (config, letter) expansion of this label; only genuinely
                // new configurations are cloned out of them.
                let mut scratch: Vec<StateSet> =
                    b.nfas.iter().map(|nfa| StateSet::empty(nfa.num_states())).collect();
                let mut config_id = 0;
                while config_id < b.configs.len() {
                    for letter in 0..num_subsets {
                        if b.trans[config_id]
                            .binary_search_by_key(&letter, |&(l, _)| l)
                            .is_ok()
                        {
                            continue;
                        }
                        changed = true;
                        budget.step()?;
                        // Advance every component by "any state in the letter
                        // subset".
                        for (slot, (nfa, comp)) in
                            scratch.iter_mut().zip(b.nfas.iter().zip(&b.configs[config_id]))
                        {
                            nfa.step_all_into(comp, &subsets[letter], slot);
                        }
                        let next_id = match b.config_index.get(&scratch) {
                            Some(&i) => i,
                            None => {
                                let i = b.configs.len();
                                b.configs.push(scratch.clone());
                                b.config_index.insert(scratch.clone(), i);
                                let mut path = b.config_paths[config_id].clone();
                                path.push(letter);
                                b.config_paths.push(path);
                                b.trans.push(Vec::new());
                                let out = config_output(b, &scratch);
                                let idx = match subset_index.entry(out.clone()) {
                                    std::collections::btree_map::Entry::Occupied(e) => *e.get(),
                                    std::collections::btree_map::Entry::Vacant(slot) => {
                                        budget.grow_states(1)?;
                                        let children: Vec<XTree> = b.config_paths[i]
                                            .iter()
                                            .map(|&l| witnesses[l].clone())
                                            .collect();
                                        subsets.push(out);
                                        witnesses.push(XTree::node(*label, children));
                                        *slot.insert(subsets.len() - 1)
                                    }
                                };
                                b.output.push(idx);
                                i
                            }
                        };
                        let v = &mut b.trans[config_id];
                        match v.binary_search_by_key(&letter, |&(l, _)| l) {
                            Ok(pos) => v[pos].1 = next_id,
                            Err(pos) => v.insert(pos, (letter, next_id)),
                        }
                    }
                    config_id += 1;
                }
            }
            if !changed && subsets.len() == num_subsets {
                break;
            }
        }

        let machines = building
            .into_iter()
            .map(|(label, b)| {
                (label, LabelMachine { start: 0, trans: b.trans, output: b.output })
            })
            .collect();

        Ok(Duta {
            subsets,
            witnesses,
            finals_orig: self.finals().clone(),
            labels,
            machines,
        })
    }
}

impl Default for Nuta {
    fn default() -> Self {
        Nuta::new()
    }
}

impl fmt::Debug for Nuta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Nuta(states={:?}, finals={:?})", self.states, self.finals)?;
        for ((s, l), nfa) in &self.delta {
            writeln!(f, "  Δ({s}, {l}) = <{} states>", nfa.num_states())?;
        }
        Ok(())
    }
}

// ----------------------------------------------------------------------
// Determinisation
// ----------------------------------------------------------------------

/// A per-label Moore machine of the determinised automaton: its states are
/// the reachable *configurations* of the simultaneous subset simulation of
/// all content automata for that label; reading a child subset-state advances
/// every component, and the output of a configuration is the subset of
/// original states whose content automaton is in an accepting configuration.
#[derive(Clone, Debug)]
pub struct LabelMachine {
    start: usize,
    /// `trans[config]`: sorted `(child subset index, next config)` pairs —
    /// the dense-adjacency analogue of the automata crate's transition
    /// storage (at most one entry per letter, found by binary search).
    trans: Vec<Vec<(usize, usize)>>,
    /// `output[config] = subset index`.
    output: Vec<usize>,
}

impl LabelMachine {
    /// The initial configuration.
    pub fn start(&self) -> usize {
        self.start
    }

    /// Deterministic transition on a child subset index.
    ///
    /// # Panics
    ///
    /// Panics if the transition was never materialised (the determinisation
    /// fixpoint makes every machine total over the discovered letters).
    pub fn step(&self, config: usize, child_subset: usize) -> usize {
        self.step_opt(config, child_subset)
            .expect("label machine is total over discovered subset letters")
    }

    /// [`LabelMachine::step`] returning `None` on a missing transition.
    fn step_opt(&self, config: usize, child_subset: usize) -> Option<usize> {
        let v = &self.trans[config];
        v.binary_search_by_key(&child_subset, |&(l, _)| l).ok().map(|pos| v[pos].1)
    }

    /// The subset-state produced for a node whose children produced
    /// `children` (in order).
    pub fn output_for(&self, children: &[usize]) -> usize {
        let mut config = self.start;
        for &c in children {
            config = self.step(config, c);
        }
        self.output[config]
    }

    /// The subset-state index a configuration outputs (the Moore output).
    pub fn output(&self, config: usize) -> usize {
        self.output[config]
    }

    /// Number of configurations.
    pub fn num_configs(&self) -> usize {
        self.output.len()
    }

    /// Iterates over the deterministic transitions as
    /// `(config, child_subset, next_config)` triples.
    pub fn transitions(&self) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        self.trans
            .iter()
            .enumerate()
            .flat_map(|(c, v)| v.iter().map(move |&(letter, next)| (c, letter, next)))
    }
}

/// A bottom-up deterministic unranked tree automaton obtained by
/// determinising an [`Nuta`]: its states are the reachable subsets of the
/// original state set; every tree over the label universe has exactly one
/// run.
#[derive(Clone)]
pub struct Duta {
    subsets: Vec<BTreeSet<Symbol>>,
    witnesses: Vec<XTree>,
    finals_orig: BTreeSet<Symbol>,
    labels: Alphabet,
    machines: BTreeMap<Symbol, LabelMachine>,
}

impl Duta {
    /// The number of subset states.
    pub fn num_states(&self) -> usize {
        self.subsets.len()
    }

    /// The subset of original states represented by subset state `i`.
    pub fn subset(&self, i: usize) -> &BTreeSet<Symbol> {
        &self.subsets[i]
    }

    /// All subset states, in discovery order.
    pub fn subsets(&self) -> &[BTreeSet<Symbol>] {
        &self.subsets
    }

    /// A tree whose run ends in subset state `i`.
    pub fn witness(&self, i: usize) -> &XTree {
        &self.witnesses[i]
    }

    /// Whether subset state `i` is accepting (contains an original final
    /// state).
    pub fn is_final(&self, i: usize) -> bool {
        self.subsets[i].iter().any(|q| self.finals_orig.contains(q))
    }

    /// The label universe the automaton was determinised over.
    pub fn labels(&self) -> &Alphabet {
        &self.labels
    }

    /// The per-label Moore machine.
    pub fn machine(&self, label: &Symbol) -> Option<&LabelMachine> {
        self.machines.get(label)
    }

    /// The unique bottom-up run: the subset state of every node
    /// (`None` if the tree uses a label outside the universe).
    pub fn run(&self, tree: &XTree) -> Option<Vec<usize>> {
        let mut states = vec![0usize; tree.size()];
        for node in tree.bottom_up_order() {
            let machine = self.machines.get(tree.label(node))?;
            let children: Vec<usize> = tree.children(node).iter().map(|&c| states[c]).collect();
            states[node] = machine.output_for(&children);
        }
        Some(states)
    }

    /// Whether the automaton accepts the tree. Agrees with the originating
    /// [`Nuta`] on every tree over the label universe.
    pub fn accepts(&self, tree: &XTree) -> bool {
        match self.run(tree) {
            Some(states) => self.is_final(states[tree.root()]),
            None => false,
        }
    }

    /// The content language of subset state `i` under `label`, as an NFA over
    /// subset-state symbols produced by `namer`. A word `S1…Sk` is accepted
    /// iff a node labelled `label` whose children have subset states
    /// `S1…Sk` gets subset state `i`. Used by the R-EDTD normalisation
    /// (Lemma 4.10).
    pub fn content_nfa(&self, i: usize, label: &Symbol, namer: impl Fn(usize) -> Symbol) -> Nfa {
        let machine = match self.machines.get(label) {
            Some(m) => m,
            None => return Nfa::empty(),
        };
        let mut nfa = Nfa::new(machine.num_configs(), machine.start);
        for (config, letter, next) in machine.transitions() {
            nfa.add_transition(config, namer(letter), next);
        }
        for (config, &out) in machine.output.iter().enumerate() {
            if out == i {
                nfa.set_final(config);
            }
        }
        nfa
    }

    /// The accepting subset states (those containing an original final
    /// state).
    pub fn accepting_states(&self) -> BTreeSet<usize> {
        (0..self.subsets.len()).filter(|&i| self.is_final(i)).collect()
    }

    /// The index of the *empty* subset state (the state of trees that admit
    /// no typing at all), if it is reachable.
    pub fn empty_subset(&self) -> Option<usize> {
        self.subsets.iter().position(BTreeSet::is_empty)
    }

    /// Every subset state achievable by some tree whose root carries
    /// `label`: the Moore outputs of all reachable configurations of the
    /// label's machine. Every subset state of the automaton is inhabited by
    /// construction (see [`Duta::witness`]), so all letters are available as
    /// children.
    pub fn label_outputs(&self, label: &Symbol) -> BTreeSet<usize> {
        let machine = match self.machines.get(label) {
            Some(m) => m,
            None => return BTreeSet::new(),
        };
        let mut seen = StateSet::singleton(machine.num_configs(), machine.start);
        let mut queue = VecDeque::from([machine.start]);
        while let Some(config) = queue.pop_front() {
            for &(_letter, next) in &machine.trans[config] {
                if seen.insert(next) {
                    queue.push_back(next);
                }
            }
        }
        seen.iter().map(|c| machine.output[c]).collect()
    }

    /// The inhabited `(label, subset state)` pairs: for every label of the
    /// universe, the subset states achievable by trees rooted at it. These
    /// are exactly the specialised names of the normalised R-EDTD of
    /// Lemma 4.10 (one per pair), and the sets the kernel boxes of
    /// Section 7 are made of.
    pub fn inhabited_label_states(&self) -> BTreeMap<Symbol, BTreeSet<usize>> {
        self.labels
            .iter()
            .map(|l| (*l, self.label_outputs(l)))
            .collect()
    }

    /// The image of a word language under a label's Moore machine: for each
    /// subset state `i` achievable as `machine.output_for(w)` for some word
    /// `w ∈ [word_lang]` (reading the symbols of `word_lang` through
    /// `letter_of`), a *shortest* such witness word.
    ///
    /// Symbols for which `letter_of` returns `None` (symbols that denote no
    /// subset state) contribute no transition, so words using them are
    /// unrealizable. An unknown label yields the empty map.
    ///
    /// This is the specialised-label validation primitive of the Section-7
    /// reduction: the children of a kernel node form a word-with-box-gaps
    /// language over subset states, and typing verification asks which
    /// subset states the node itself can reach.
    ///
    /// # Panics
    ///
    /// Never in practice: the unlimited budget cannot trip.
    pub fn outputs_over(
        &self,
        label: &Symbol,
        word_lang: &Nfa,
        letter_of: impl Fn(&Symbol) -> Option<usize>,
    ) -> BTreeMap<usize, Vec<Symbol>> {
        self.outputs_over_with_budget(label, word_lang, letter_of, &Budget::unlimited())
            .expect("the unlimited budget never trips")
    }

    /// Governed variant of [`Duta::outputs_over`]: the product BFS charges
    /// one budget step per popped pair and aborts with
    /// [`AutomataError::BudgetExceeded`] when the budget trips.
    pub fn outputs_over_with_budget(
        &self,
        label: &Symbol,
        word_lang: &Nfa,
        letter_of: impl Fn(&Symbol) -> Option<usize>,
        budget: &Budget,
    ) -> Result<BTreeMap<usize, Vec<Symbol>>, AutomataError> {
        let machine = match self.machines.get(label) {
            Some(m) => m,
            None => return Ok(BTreeMap::new()),
        };
        // Resolve each alphabet symbol's subset-state letter *and* its
        // local id in the word automaton once, outside the BFS — symbols
        // denoting no subset state never move the product, and the frontier
        // steps below never re-hash a symbol.
        let moves: Vec<(Symbol, usize, u32)> = word_lang
            .alphabet()
            .iter()
            .filter_map(|&sym| {
                let letter = letter_of(&sym)?;
                let sid = word_lang.sym_id(&sym)?;
                Some((sym, letter, sid))
            })
            .collect();
        let finals = word_lang.finals_set();
        let start = (machine.start, word_lang.start_closure());
        // One BFS state: (machine configuration, NFA frontier bitset). The
        // frontiers here are content-model sized (inline bitsets), so the
        // step allocates nothing and a reuse buffer would only add clones.
        type Pair = (usize, StateSet);
        let mut outputs: BTreeMap<usize, Vec<Symbol>> = BTreeMap::new();
        let mut seen: FxHashSet<Pair> = FxHashSet::from_iter([start.clone()]);
        let mut queue: VecDeque<(Pair, Vec<Symbol>)> = VecDeque::from([(start, Vec::new())]);
        while let Some(((config, set), word)) = queue.pop_front() {
            budget.step()?;
            if set.intersects(&finals) {
                outputs.entry(machine.output[config]).or_insert_with(|| word.clone());
            }
            for &(sym, letter, sid) in &moves {
                let next_config = match machine.step_opt(config, letter) {
                    Some(c) => c,
                    None => continue,
                };
                let next_set = word_lang.step_local(&set, sid);
                if next_set.is_empty() {
                    continue;
                }
                let state = (next_config, next_set);
                if seen.insert(state.clone()) {
                    let mut w = word.clone();
                    w.push(sym);
                    queue.push_back((state, w));
                }
            }
        }
        Ok(outputs)
    }
}

impl fmt::Debug for Duta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Duta({} subset states over {} labels)", self.subsets.len(), self.labels.len())?;
        for (i, s) in self.subsets.iter().enumerate() {
            writeln!(f, "  S{i} = {:?}{}", s, if self.is_final(i) { " (final)" } else { "" })?;
        }
        Ok(())
    }
}

// ----------------------------------------------------------------------
// Inclusion / equivalence
// ----------------------------------------------------------------------

/// Every pair `(q, s)` jointly reachable by some tree `t` — `q` a state `a`
/// can assign to `t`, `s` the state of `db`'s unique run on `t` — each with
/// such a tree as witness, in discovery order.
///
/// This is the product fixpoint behind tree-language inclusion of a
/// nondeterministic automaton in a deterministic one: `a` is never
/// determinised. Each rule `(q, label)` of `a` is evaluated by a BFS over
/// (content frontier, label-machine configuration) pairs that reads the
/// known pairs of its content's states as letters; a rule is re-evaluated
/// only when a state its content reads gains a pair.
///
/// `db` may have been determinised over a *smaller* label universe than
/// `a`'s (the point of caching a determinised target across inclusion
/// checks): a label unknown to `db` sends the `db` component to a virtual
/// dead state, rendered as `None`, which propagates upward — exactly the
/// semantics of [`Duta::run`] returning `None` on out-of-universe labels.
///
/// # Panics
///
/// Never in practice: the unlimited budget cannot trip.
pub fn run_pairs(a: &Nuta, db: &Duta) -> Vec<(Symbol, Option<usize>, XTree)> {
    run_pairs_with_budget(a, db, &Budget::unlimited()).expect("the unlimited budget never trips")
}

/// Governed variant of [`run_pairs`]: every BFS pop charges one budget step,
/// and the fixpoint aborts with [`AutomataError::BudgetExceeded`] when the
/// budget trips.
pub fn run_pairs_with_budget(
    a: &Nuta,
    db: &Duta,
    budget: &Budget,
) -> Result<Vec<(Symbol, Option<usize>, XTree)>, AutomataError> {
    budget.check_interrupts()?;
    let rules: Vec<(&Symbol, &Symbol, &Nfa)> = a.rules().collect();
    let mut readers: BTreeMap<Symbol, Vec<usize>> = BTreeMap::new();
    for (r, (_, _, content)) in rules.iter().enumerate() {
        for sym in content.alphabet().iter() {
            readers.entry(*sym).or_default().push(r);
        }
    }
    let mut pairs: Vec<(Symbol, Option<usize>, XTree)> = Vec::new();
    let mut known: FxHashSet<(Symbol, Option<usize>)> = FxHashSet::default();
    // The pairs of each state, as indices into `pairs`.
    let mut of_state: BTreeMap<Symbol, Vec<usize>> = BTreeMap::new();
    // Seeded in reverse state order: where states are numbered in document
    // order (as in extension automata), children then come before their
    // parents, so most rules settle in one evaluation.
    let mut queue: VecDeque<usize> = (0..rules.len()).rev().collect();
    let mut queued = vec![true; rules.len()];
    while let Some(r) = queue.pop_front() {
        queued[r] = false;
        let (&q, &label, content) = rules[r];
        let machine = db.machine(&label);
        // The letters: per state the content reads, its local symbol id and
        // its pairs known so far.
        let letters: Vec<(u32, Vec<usize>)> = content
            .alphabet()
            .iter()
            .filter_map(|sym| Some((content.sym_id(sym)?, of_state.get(sym)?.clone())))
            .collect();
        let finals = content.finals_set();
        type Node = (StateSet, Option<usize>);
        let start: Node = (content.start_closure(), machine.map(LabelMachine::start));
        let mut seen: FxHashSet<Node> = FxHashSet::from_iter([start.clone()]);
        let mut bfs: VecDeque<(Node, Vec<usize>)> = VecDeque::from([(start, Vec::new())]);
        while let Some(((set, config), path)) = bfs.pop_front() {
            budget.step()?;
            if set.intersects(&finals) {
                let out = config.zip(machine).map(|(c, m)| m.output(c));
                if known.insert((q, out)) {
                    let children = path.iter().map(|&p| pairs[p].2.clone()).collect();
                    of_state.entry(q).or_default().push(pairs.len());
                    pairs.push((q, out, XTree::node(label, children)));
                    for &reader in readers.get(&q).into_iter().flatten() {
                        if !queued[reader] {
                            queued[reader] = true;
                            queue.push_back(reader);
                        }
                    }
                }
            }
            for (sid, letter_pairs) in &letters {
                let next_set = content.step_local(&set, *sid);
                if next_set.is_empty() {
                    continue;
                }
                for &p in letter_pairs {
                    let next_config = match (config, pairs[p].1, machine) {
                        (Some(c), Some(s), Some(m)) => Some(m.step(c, s)),
                        _ => None,
                    };
                    let next = (next_set.clone(), next_config);
                    if seen.insert(next.clone()) {
                        let mut next_path = path.clone();
                        next_path.push(p);
                        bfs.push_back((next, next_path));
                    }
                }
            }
        }
    }
    Ok(pairs)
}

/// Checks `[a] ⊆ [b]` as tree languages; on failure returns a tree accepted
/// by `a` but not by `b`.
pub fn included(a: &Nuta, b: &Nuta) -> Result<(), XTree> {
    included_in_duta(a, &b.determinize(b.labels()))
}

/// Checks `[a] ⊆ [db]` against an already-determinised right-hand side; on
/// failure returns a tree accepted by `a` but not by `db`, the smallest
/// witness among the reachable pairs that separate the two.
///
/// This is the entry point for callers that check many left-hand sides
/// against the same target (typing verification, perfect-schema synthesis):
/// the expensive determinisation of the target happens once, outside, and
/// the left-hand side is never determinised ([`run_pairs`]).
///
/// # Panics
///
/// Never in practice: the unlimited budget cannot trip.
pub fn included_in_duta(a: &Nuta, db: &Duta) -> Result<(), XTree> {
    included_in_duta_with_budget(a, db, &Budget::unlimited())
        .expect("the unlimited budget never trips")
}

/// Governed variant of [`included_in_duta`]. The outer `Result` reports
/// resource governance ([`AutomataError::BudgetExceeded`]); the inner one is
/// the inclusion verdict with its counterexample tree.
pub fn included_in_duta_with_budget(
    a: &Nuta,
    db: &Duta,
    budget: &Budget,
) -> Result<Result<(), XTree>, AutomataError> {
    let separating = run_pairs_with_budget(a, db, budget)?
        .into_iter()
        .filter(|(q, s, _)| a.finals().contains(q) && !s.is_some_and(|i| db.is_final(i)))
        .map(|(_, _, witness)| witness)
        .min_by_key(XTree::size);
    Ok(separating.map_or(Ok(()), Err))
}

/// Checks `[a] = [b]` as tree languages, as two inclusions; on failure
/// returns a distinguishing tree together with the side that accepts it
/// (`true` = accepted by `a` only).
pub fn equivalent(a: &Nuta, b: &Nuta) -> Result<(), (XTree, bool)> {
    included(a, b).map_err(|w| (w, true))?;
    included(b, a).map_err(|w| (w, false))
}

/// Convenience boolean wrappers.
pub fn is_included(a: &Nuta, b: &Nuta) -> bool {
    included(a, b).is_ok()
}

/// Whether the two automata accept the same tree language.
pub fn is_equivalent(a: &Nuta, b: &Nuta) -> bool {
    equivalent(a, b).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{random_trees, TreeGenConfig};
    use crate::term::parse_term;
    use dxml_automata::Regex;

    /// Content model from an identifier-mode regular expression whose
    /// symbols are state names.
    fn content(re: &str) -> Nfa {
        Regex::parse(re).unwrap().to_nfa()
    }

    /// The language of trees `s((a b)*)` where `a` and `b` are leaves.
    fn ab_star_automaton() -> Nuta {
        let mut a = Nuta::new();
        a.set_rule("qs", "s", content("(qa qb)*"));
        a.set_rule("qa", "a", Nfa::epsilon());
        a.set_rule("qb", "b", Nfa::epsilon());
        a.set_final("qs");
        a
    }

    #[test]
    fn membership_basic() {
        let a = ab_star_automaton();
        assert!(a.accepts(&parse_term("s").unwrap()));
        assert!(a.accepts(&parse_term("s(a b)").unwrap()));
        assert!(a.accepts(&parse_term("s(a b a b)").unwrap()));
        assert!(!a.accepts(&parse_term("s(a a)").unwrap()));
        assert!(!a.accepts(&parse_term("s(b a)").unwrap()));
        assert!(!a.accepts(&parse_term("a").unwrap()));
        assert!(!a.accepts(&parse_term("s(a b(a))").unwrap()));
    }

    #[test]
    fn nondeterministic_specialisation() {
        // s(x x) where one x must contain b and the other must contain c,
        // in either order — genuinely nondeterministic at the x level.
        let mut a = Nuta::new();
        let mut c = Nfa::new(4, 0);
        c.add_transition(0, "x1", 1);
        c.add_transition(1, "x2", 3);
        c.add_transition(0, "x2", 2);
        c.add_transition(2, "x1", 3);
        c.set_final(3);
        a.set_rule("qs", "s", c);
        a.set_rule("x1", "x", Nfa::symbol("qb"));
        a.set_rule("x2", "x", Nfa::symbol("qc"));
        a.set_rule("qb", "b", Nfa::epsilon());
        a.set_rule("qc", "c", Nfa::epsilon());
        a.set_final("qs");

        assert!(a.accepts(&parse_term("s(x(b) x(c))").unwrap()));
        assert!(a.accepts(&parse_term("s(x(c) x(b))").unwrap()));
        assert!(!a.accepts(&parse_term("s(x(b) x(b))").unwrap()));
        assert!(!a.accepts(&parse_term("s(x(b))").unwrap()));
    }

    #[test]
    fn emptiness_and_witnesses() {
        let a = ab_star_automaton();
        assert!(!a.is_empty());
        assert_eq!(a.sample_tree(), Some(parse_term("s").unwrap()));

        // An automaton whose only rule needs an uninhabited state.
        let mut e = Nuta::new();
        e.set_rule("qs", "s", Nfa::symbol("qmissing"));
        e.set_final("qs");
        assert!(e.is_empty());
        assert_eq!(e.sample_tree(), None);

        // Mutual recursion that never bottoms out is empty too.
        let mut m = Nuta::new();
        m.set_rule("p", "a", Nfa::symbol("q"));
        m.set_rule("q", "a", Nfa::symbol("p"));
        m.set_final("p");
        assert!(m.is_empty());
    }

    #[test]
    fn determinisation_agrees_with_nuta() {
        let automata = vec![ab_star_automaton()];
        for a in &automata {
            let labels = a.labels().clone();
            let d = a.determinize(&labels);
            let config = TreeGenConfig::new(&labels, 3, 4);
            for tree in random_trees(11, &config, 200) {
                assert_eq!(a.accepts(&tree), d.accepts(&tree), "tree {tree}");
            }
            // Hand-picked trees as well.
            for src in ["s", "s(a b)", "s(a b a b)", "s(a a)", "a", "b", "s(s)"] {
                let t = parse_term(src).unwrap();
                assert_eq!(a.accepts(&t), d.accepts(&t), "tree {src}");
            }
        }
    }

    #[test]
    fn determinisation_of_nondeterministic_automaton() {
        let mut a = Nuta::new();
        let mut c = Nfa::new(4, 0);
        c.add_transition(0, "x1", 1);
        c.add_transition(1, "x2", 3);
        c.add_transition(0, "x2", 2);
        c.add_transition(2, "x1", 3);
        c.set_final(3);
        a.set_rule("qs", "s", c);
        a.set_rule("x1", "x", Nfa::symbol("qb"));
        a.set_rule("x2", "x", Nfa::symbol("qc"));
        a.set_rule("qb", "b", Nfa::epsilon());
        a.set_rule("qc", "c", Nfa::epsilon());
        a.set_final("qs");
        let d = a.determinize(a.labels());
        for src in ["s(x(b) x(c))", "s(x(c) x(b))", "s(x(b) x(b))", "s(x(c) x(c))", "s(x(b))"] {
            let t = parse_term(src).unwrap();
            assert_eq!(a.accepts(&t), d.accepts(&t), "tree {src}");
        }
        // Subset states must include a state where both x1 and x2 are
        // possible (an x node whose child is... none: impossible; but an x
        // with a b child yields {x1} and with a c child yields {x2}).
        assert!(d.subsets().iter().any(|s| s.contains(&Symbol::new("x1"))));
        assert!(d.subsets().iter().any(|s| s.contains(&Symbol::new("x2"))));
    }

    #[test]
    fn inclusion_and_equivalence_with_witnesses() {
        // L1 = s(a*), L2 = s((aa)*)
        let mut l1 = Nuta::new();
        l1.set_rule("qs", "s", Nfa::symbol("qa").star());
        l1.set_rule("qa", "a", Nfa::epsilon());
        l1.set_final("qs");
        let mut l2 = Nuta::new();
        l2.set_rule("qs", "s", Nfa::literal(&[Symbol::new("qa"), Symbol::new("qa")]).star());
        l2.set_rule("qa", "a", Nfa::epsilon());
        l2.set_final("qs");

        assert!(is_included(&l2, &l1));
        assert!(!is_included(&l1, &l2));
        let witness = included(&l1, &l2).unwrap_err();
        assert!(l1.accepts(&witness));
        assert!(!l2.accepts(&witness));

        let (w, in_first) = equivalent(&l1, &l2).unwrap_err();
        assert!(in_first);
        assert!(l1.accepts(&w) && !l2.accepts(&w));

        // Equivalence of syntactically different automata for the same
        // language: s(a*) vs s(a* a?) written differently.
        let mut l3 = Nuta::new();
        l3.set_rule("qs", "s", Nfa::symbol("qa").star().concat(&Nfa::symbol("qa").optional()));
        l3.set_rule("qa", "a", Nfa::epsilon());
        l3.set_final("qs");
        assert!(is_equivalent(&l1, &l3));
    }

    #[test]
    fn included_in_duta_handles_out_of_universe_labels() {
        // Target: s(a*) — determinised only over its own labels {s, a}.
        let mut target = Nuta::new();
        target.set_rule("qs", "s", Nfa::symbol("qa").star());
        target.set_rule("qa", "a", Nfa::epsilon());
        target.set_final("qs");
        let dt = target.determinize(target.labels());

        // Left side within the universe: s(aa) ⊆ target.
        let mut ok = Nuta::new();
        ok.set_rule("qs", "s", Nfa::literal(&[Symbol::new("qa"), Symbol::new("qa")]));
        ok.set_rule("qa", "a", Nfa::epsilon());
        ok.set_final("qs");
        assert!(included_in_duta(&ok, &dt).is_ok());

        // Left side using a label the target was never determinised over:
        // s(a x) must yield a counterexample containing the foreign label.
        let mut bad = Nuta::new();
        bad.set_rule("qs", "s", Nfa::literal(&[Symbol::new("qa"), Symbol::new("qx")]));
        bad.set_rule("qa", "a", Nfa::epsilon());
        bad.set_rule("qx", "x", Nfa::epsilon());
        bad.set_final("qs");
        let witness = included_in_duta(&bad, &dt).unwrap_err();
        assert!(bad.accepts(&witness));
        assert!(!target.accepts(&witness));

        // And a root-level foreign label alone is already a counterexample.
        let mut foreign = Nuta::new();
        foreign.set_rule("qt", "t", Nfa::epsilon());
        foreign.set_final("qt");
        let w2 = included_in_duta(&foreign, &dt).unwrap_err();
        assert_eq!(w2, parse_term("t").unwrap());
    }

    #[test]
    fn equivalence_distinguishes_different_alphabets() {
        let mut l1 = Nuta::new();
        l1.set_rule("qs", "s", Nfa::epsilon());
        l1.set_final("qs");
        let mut l2 = Nuta::new();
        l2.set_rule("qt", "t", Nfa::epsilon());
        l2.set_final("qt");
        let (w, _) = equivalent(&l1, &l2).unwrap_err();
        assert!(l1.accepts(&w) != l2.accepts(&w));
        assert!(!is_included(&l1, &l2));
    }

    #[test]
    fn label_outputs_and_inhabited_pairs() {
        let a = ab_star_automaton();
        let d = a.determinize(a.labels());
        // An `a` leaf types to {qa}; an `a` with children to the empty
        // subset — exactly two achievable states for the label.
        let qa = Symbol::new("qa");
        let a_outs = d.label_outputs(&Symbol::new("a"));
        assert_eq!(a_outs.len(), 2);
        assert!(a_outs.iter().any(|&i| d.subset(i).contains(&qa)));
        assert!(a_outs.iter().any(|&i| d.subset(i).is_empty()));
        // `s` can be typed qs (with a valid (ab)* child word) or not at all.
        let s_outs = d.label_outputs(&Symbol::new("s"));
        assert!(s_outs.iter().any(|&i| d.subset(i).contains(&Symbol::new("qs"))));
        assert!(s_outs.iter().any(|&i| d.subset(i).is_empty()));
        assert!(d.empty_subset().is_some());
        let pairs = d.inhabited_label_states();
        assert_eq!(pairs[&Symbol::new("b")].len(), 2);
        assert!(pairs[&Symbol::new("a")].iter().all(|i| !d.is_final(*i)));
        assert!(d.label_outputs(&Symbol::new("zz")).is_empty());
        // Accepting states are exactly the qs-containing subsets.
        for i in d.accepting_states() {
            assert!(d.subset(i).contains(&Symbol::new("qs")));
        }
    }

    #[test]
    fn outputs_over_images_a_word_language() {
        let a = ab_star_automaton();
        let d = a.determinize(a.labels());
        let state_sym = |i: usize| Symbol::new(format!("#s{i}"));
        let letter_of = |s: &Symbol| s.as_str().strip_prefix("#s").and_then(|t| t.parse().ok());
        let sa = *d.label_outputs(&Symbol::new("a")).iter().next().unwrap();
        let sb = *d.label_outputs(&Symbol::new("b")).iter().next().unwrap();
        // Children words (Sa Sb)*: the only output is the accepting state.
        let good = Nfa::literal(&[state_sym(sa), state_sym(sb)]).star();
        let outs = d.outputs_over(&Symbol::new("s"), &good, letter_of);
        assert!(outs.keys().all(|&i| d.is_final(i)));
        // Shortest witness is the empty word (a leaf s is valid).
        assert_eq!(outs.values().next().unwrap().len(), 0);
        // Children words (Sa Sb)* Sa: only the empty subset is achievable.
        let bad = good.concat(&Nfa::symbol(state_sym(sa)));
        let outs2 = d.outputs_over(&Symbol::new("s"), &bad, letter_of);
        assert_eq!(outs2.len(), 1);
        let (&o, w) = outs2.iter().next().unwrap();
        assert!(d.subset(o).is_empty());
        assert_eq!(w.len(), 1, "shortest witness is the single word Sa");
        // Symbols that denote no subset state make words unrealizable.
        let foreign = Nfa::symbol("not-a-state");
        assert!(d.outputs_over(&Symbol::new("s"), &foreign, letter_of).is_empty());
        // Unknown labels have no machine.
        assert!(d.outputs_over(&Symbol::new("zz"), &good, letter_of).is_empty());
    }

    #[test]
    fn content_nfa_of_determinisation() {
        let a = ab_star_automaton();
        let d = a.determinize(a.labels());
        // Find the subset state containing qs.
        let (qs_idx, _) = d
            .subsets()
            .iter()
            .enumerate()
            .find(|(_, s)| s.contains(&Symbol::new("qs")))
            .expect("qs subset must be reachable");
        let namer = |i: usize| Symbol::new(format!("S{i}"));
        let content = d.content_nfa(qs_idx, &Symbol::new("s"), namer);
        assert!(!content.is_empty());
        // The content language accepts the empty word (a leaf s gets qs).
        assert!(content.accepts(&[]));
    }
}
