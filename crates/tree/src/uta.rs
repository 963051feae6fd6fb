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
//! * emptiness and sample trees read off the inhabited states: the pairs
//!   of [`run_pairs`] against no target, one per inhabited state, with
//!   their witness DAG ([`Nuta::is_empty`], [`Nuta::sample_tree`]);
//! * bottom-up determinisation ([`Duta`], the dUTAs of the paper) via the
//!   reachable-subset construction, with per-label Moore machines over
//!   subset states, expanded only on the letters their content automata
//!   can read;
//! * inclusion and equivalence of tree languages with counter-example trees
//!   ([`included`], [`equivalent`]) — the oracles behind `equiv[S]` for
//!   SDTDs and EDTDs (Theorem 4.7). Only the right-hand side is
//!   determinised: one product fixpoint ([`run_pairs`]) pairs the states of
//!   the nondeterministic left side with the deterministic run of the right
//!   side, its witnesses a DAG of pairs that only [`materialise`] expands.
//!
//! Every word-level product here (the Moore image behind
//! [`Duta::outputs_over`] and each rule evaluation of [`run_pairs`]) is the
//! automata crate's one pair search, [`Nfa::product_search`], over
//! (content state, machine configuration) pairs: polynomial in the content
//! automaton, however nondeterministic it is.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::sync::Arc;

use dxml_automata::nfa::StateId;
use dxml_automata::{
    Alphabet, AutomataError, Budget, Dfa, FxHashMap, Nfa, ProductMove, ProductPair, StateSet, Symbol,
};

use crate::tree::{NodeId, XTree};

/// A nondeterministic unranked tree automaton whose states are [`Symbol`]s.
#[derive(Clone)]
pub struct Nuta {
    states: BTreeSet<Symbol>,
    finals: BTreeSet<Symbol>,
    labels: Alphabet,
    /// `(state, label) → content NFA over state symbols`, shared: a rule
    /// set from an `Arc` is stored without a copy.
    delta: BTreeMap<(Symbol, Symbol), Arc<Nfa>>,
    /// `label → states with a rule for it` (sorted): the bottom-up run and
    /// the determinisation consult only the states that can type a node's
    /// label instead of scanning the whole state set.
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
    /// `content` is an owned [`Nfa`] or an `Arc<Nfa>`; the automaton keeps
    /// an `Arc`, so a rule shared by several automata (the per-function
    /// fragments of an extension automaton) is stored once, not copied.
    pub fn set_rule(&mut self, state: impl Into<Symbol>, label: impl Into<Symbol>, content: impl Into<Arc<Nfa>>) {
        let s = state.into();
        let l = label.into();
        self.states.insert(s);
        self.labels.insert(l);
        let states = self.by_label.entry(l).or_default();
        if let Err(pos) = states.binary_search(&s) {
            states.insert(pos, s);
        }
        self.delta.insert((s, l), content.into());
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
        self.delta.get(&(*state, *label)).map(Arc::as_ref)
    }

    /// Iterates over all rules.
    pub fn rules(&self) -> impl Iterator<Item = (&Symbol, &Symbol, &Nfa)> {
        self.delta.iter().map(|((s, l), nfa)| (s, l, nfa.as_ref()))
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
        let mut current = content.start_set();
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

    /// Whether the tree language is empty: no final state is inhabited.
    ///
    /// # Panics
    ///
    /// Never in practice: the unlimited budget cannot trip.
    pub fn is_empty(&self) -> bool {
        let pairs = run_pairs(self, None, &Budget::unlimited()).expect("the unlimited budget never trips");
        !pairs.iter().any(|p| self.finals.contains(&p.name))
    }

    /// A tree in the language, if any: the witness of the first inhabited
    /// final state.
    ///
    /// # Panics
    ///
    /// Never in practice: the unlimited budget cannot trip.
    pub fn sample_tree(&self) -> Option<XTree> {
        let unlimited = Budget::unlimited();
        let pairs = run_pairs(self, None, &unlimited).expect("the unlimited budget never trips");
        let root = self.finals.iter().find_map(|f| pairs.iter().position(|p| p.name == *f))?;
        Some(materialise(&pairs, root, &unlimited).expect("the unlimited budget never trips"))
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

    /// Governed variant of [`Nuta::determinize`].
    ///
    /// The fixpoint is sparse. A configuration can leave the *dead*
    /// configuration (every component empty) only on a letter holding a
    /// state that one of its frontier states reads, so each configuration
    /// is expanded only on those letters, each at most once, and every
    /// such expansion charges one budget step. Every other letter leads to
    /// the dead configuration, which is created without a step and stored
    /// as no transition at all. Every discovered subset state charges the
    /// state quota. The construction aborts with
    /// [`AutomataError::BudgetExceeded`] when the budget trips, leaving no
    /// partial automaton behind.
    ///
    /// Subsets and configurations are numbered as by a dense scan that
    /// steps every configuration on every letter: round after round, each
    /// label's configurations in creation order on the letters in
    /// increasing order, the dead configuration being created at the first
    /// letter that would reach it.
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
        let state_index: FxHashMap<Symbol, usize> =
            self.states.iter().enumerate().map(|(i, q)| (*q, i)).collect();
        // One configuration of a label machine under construction.
        struct Config {
            /// One frontier per content automaton.
            sets: Vec<StateSet>,
            /// The original states (indices into `states`) the frontier
            /// reads, ascending.
            reads: Vec<usize>,
            /// Sorted `(letter, next config)` pairs; letters are expanded
            /// in increasing order, so plain pushes keep them sorted.
            trans: Vec<(usize, usize)>,
            output: usize,
            /// The letters below this one have been considered.
            expanded: usize,
        }
        // Per label: the states with a rule, their content automata and
        // the configurations found so far.
        struct Building<'a> {
            label: Symbol,
            states_with_rule: &'a [Symbol],
            nfas: Vec<&'a Nfa>,
            configs: Vec<Config>,
            index: FxHashMap<Vec<StateSet>, usize>,
            dead: Option<usize>,
            /// Per-component frontiers reused across every expansion; only
            /// genuinely new configurations are cloned out of them.
            scratch: Vec<StateSet>,
        }
        // The subset states found so far, with the letters each original
        // state belongs to.
        struct Subsets {
            list: Vec<BTreeSet<Symbol>>,
            /// Members' symbol ids (in text order) → letter.
            index: FxHashMap<Vec<u32>, usize>,
            /// `containing[state]`: ascending letters holding the state.
            containing: Vec<Vec<usize>>,
        }
        impl Building<'_> {
            fn add_config(
                &mut self,
                sets: Vec<StateSet>,
                subsets: &mut Subsets,
                state_index: &FxHashMap<Symbol, usize>,
                budget: &Budget,
            ) -> Result<usize, AutomataError> {
                let id = self.configs.len();
                // `states_with_rule` is sorted, so the output is in text
                // order.
                let outputs = || {
                    self.states_with_rule
                        .iter()
                        .zip(&self.nfas)
                        .zip(&sets)
                        .filter(|((_, nfa), comp)| comp.iter().any(|s| nfa.is_final(s)))
                        .map(|((q, _), _)| *q)
                };
                let key: Vec<u32> = outputs().map(Symbol::id).collect();
                let output = match subsets.index.get(&key) {
                    Some(&letter) => letter,
                    None => {
                        budget.grow_states(1)?;
                        let letter = subsets.list.len();
                        for q in outputs() {
                            subsets.containing[state_index[&q]].push(letter);
                        }
                        subsets.list.push(outputs().collect());
                        subsets.index.insert(key, letter);
                        letter
                    }
                };
                let mut reads = Vec::new();
                for (nfa, comp) in self.nfas.iter().zip(&sets) {
                    if !comp.is_empty() {
                        reads.extend(
                            nfa.transitions()
                                .filter(|&(s, _, _)| comp.contains(s))
                                .filter_map(|(_, sym, _)| state_index.get(sym).copied()),
                        );
                    }
                }
                reads.sort_unstable();
                reads.dedup();
                // No expansion reaches the dead configuration, so it is
                // never looked up.
                if sets.iter().all(StateSet::is_empty) {
                    self.dead = Some(id);
                } else {
                    self.index.insert(sets.clone(), id);
                }
                self.configs.push(Config { sets, reads, trans: Vec::new(), output, expanded: 0 });
                Ok(id)
            }

            /// Creates the dead configuration unless it exists. It keeps no
            /// frontiers: it reads nothing, so nothing steps it.
            fn reach_dead(
                &mut self,
                subsets: &mut Subsets,
                state_index: &FxHashMap<Symbol, usize>,
                budget: &Budget,
            ) -> Result<(), AutomataError> {
                if self.dead.is_none() {
                    self.add_config(Vec::new(), subsets, state_index, budget)?;
                }
                Ok(())
            }
        }

        let mut subsets = Subsets {
            list: Vec::new(),
            index: FxHashMap::default(),
            containing: vec![Vec::new(); self.states.len()],
        };
        // In label order, which numbers the subsets.
        let mut building: Vec<Building> = labels
            .iter()
            .map(|label| {
                let states_with_rule = self.by_label.get(label).map_or(&[][..], Vec::as_slice);
                let nfas: Vec<&Nfa> = states_with_rule
                    .iter()
                    .map(|q| self.rule(q, label).expect("by_label lists only ruled states"))
                    .collect();
                let scratch = nfas.iter().map(|nfa| StateSet::empty(nfa.num_states())).collect();
                Building {
                    label: *label,
                    states_with_rule,
                    nfas,
                    configs: Vec::new(),
                    index: FxHashMap::default(),
                    dead: None,
                    scratch,
                }
            })
            .collect();

        // Seed: the start configuration of each label (its output is the
        // subset assigned to a leaf with that label).
        for b in &mut building {
            let start: Vec<StateSet> = b.nfas.iter().map(|nfa| nfa.start_set()).collect();
            b.add_config(start, &mut subsets, &state_index, budget)?;
        }

        // Fixpoint: each round expands every configuration on the letters
        // it has not yet considered, until a round finds no new letter.
        let mut candidates: Vec<usize> = Vec::new();
        loop {
            let num_subsets = subsets.list.len();
            for b in &mut building {
                let mut next_config = 0;
                while next_config < b.configs.len() {
                    let id = next_config;
                    next_config += 1;
                    let config = &mut b.configs[id];
                    let from = config.expanded;
                    if from >= num_subsets {
                        continue;
                    }
                    config.expanded = num_subsets;
                    // The new letters holding a state the frontier reads.
                    candidates.clear();
                    for &q in &config.reads {
                        let letters = &subsets.containing[q];
                        let lo = letters.partition_point(|&l| l < from);
                        candidates.extend(letters[lo..].iter().take_while(|&&l| l < num_subsets));
                    }
                    candidates.sort_unstable();
                    candidates.dedup();
                    // Every skipped letter leads to the dead configuration.
                    let mut next_letter = from;
                    for &letter in &candidates {
                        if letter > next_letter {
                            b.reach_dead(&mut subsets, &state_index, budget)?;
                        }
                        next_letter = letter + 1;
                        budget.step()?;
                        // Advance every component by "any state in the
                        // letter subset".
                        let sets = &b.configs[id].sets;
                        for (slot, (nfa, comp)) in b.scratch.iter_mut().zip(b.nfas.iter().zip(sets)) {
                            nfa.step_all_into(comp, &subsets.list[letter], slot);
                        }
                        let next_id = match b.index.get(&b.scratch) {
                            Some(&i) => i,
                            None => {
                                let next = b.scratch.clone();
                                b.add_config(next, &mut subsets, &state_index, budget)?
                            }
                        };
                        b.configs[id].trans.push((letter, next_id));
                    }
                    if next_letter < num_subsets {
                        b.reach_dead(&mut subsets, &state_index, budget)?;
                    }
                }
            }
            if subsets.list.len() == num_subsets {
                break;
            }
        }

        let machines = building
            .into_iter()
            .map(|b| {
                let output = b.configs.iter().map(|c| c.output).collect();
                let trans = b.configs.into_iter().map(|c| c.trans).collect();
                (b.label, LabelMachine { start: 0, trans, output, dead: b.dead })
            })
            .collect();

        Ok(Duta {
            letters: (0..subsets.list.len()).map(|i| Symbol::new(format!("#s{i}"))).collect(),
            subsets: subsets.list,
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
///
/// The *dead* configuration, in which every component is empty, is left
/// implicit: no transition into it is stored, and a missing transition
/// means the dead configuration.
#[derive(Clone, Debug)]
pub struct LabelMachine {
    start: usize,
    /// `trans[config]`: sorted `(child subset index, next config)` pairs —
    /// the dense-adjacency analogue of the automata crate's transition
    /// storage (at most one entry per letter, found by binary search). A
    /// letter without an entry leads to the dead configuration.
    trans: Vec<Vec<(usize, usize)>>,
    /// `output[config] = subset index`.
    output: Vec<usize>,
    /// The dead configuration, if some configuration reaches it (or
    /// starts in it). Its output is the empty subset.
    dead: Option<usize>,
}

impl LabelMachine {
    /// The initial configuration.
    pub fn start(&self) -> usize {
        self.start
    }

    /// The dead configuration, in which every content automaton is empty;
    /// `None` if no configuration reaches it.
    pub fn dead(&self) -> Option<usize> {
        self.dead
    }

    /// Deterministic transition on a child subset index; a missing
    /// transition is the dead configuration.
    ///
    /// # Panics
    ///
    /// Only on a broken internal invariant: the determinisation creates
    /// the dead configuration whenever some letter leads to it.
    pub fn step(&self, config: usize, child_subset: usize) -> usize {
        let v = &self.trans[config];
        match v.binary_search_by_key(&child_subset, |&(l, _)| l) {
            Ok(pos) => v[pos].1,
            Err(_) => self.dead.expect("a missing transition leads to the dead configuration"),
        }
    }

    /// The subset-state produced for a node whose children produced
    /// `children` (in order).
    fn output_for(&self, children: &[usize]) -> usize {
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

    /// Number of configurations, the dead one included.
    pub fn num_configs(&self) -> usize {
        self.output.len()
    }

    /// Iterates over the stored transitions as
    /// `(config, child_subset, next_config)` triples: every transition
    /// except those into the dead configuration.
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
/// run. Its label machines ([`LabelMachine`]) store no transition into
/// their dead configuration: a missing transition means dead, and every
/// run, image and product below reads it so.
///
/// String automata over subset states — the content languages of
/// [`Duta::content_dfa`] and [`Duta::content_nfa`], the word languages
/// imaged by [`Duta::outputs_over`] — read subset state `i` as the symbol
/// [`Duta::letter`]`(i)`. A letter means something only to the automaton
/// that made it, and letters and element labels never share one automaton:
/// every conversion back to labels expands each letter in a single pass,
/// so a label spelled like a letter (`#` is a legal name character) is
/// never read as one.
#[derive(Clone)]
pub struct Duta {
    subsets: Vec<BTreeSet<Symbol>>,
    /// `letters[i]`: the symbol standing for subset state `i`.
    letters: Vec<Symbol>,
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

    /// The letter standing for subset state `i` in string automata over
    /// subset states.
    pub fn letter(&self, i: usize) -> Symbol {
        self.letters[i]
    }

    /// The subset state whose letter is `sym`; `None` for every symbol that
    /// is not a letter of this automaton (element labels, malformed or
    /// out-of-range `#s` spellings).
    fn letter_index(&self, sym: &Symbol) -> Option<usize> {
        let i: usize = sym.as_str().strip_prefix("#s")?.parse().ok()?;
        (self.letters.get(i) == Some(sym)).then_some(i)
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

    /// `label`'s Moore machine as a DFA over letters ([`Duta::letter`]):
    /// DFA state `c` is configuration `c`, final iff its output satisfies
    /// `accept`. It accepts a child word `S1…Sk` iff a node labelled
    /// `label` whose children have subset states `S1…Sk` gets a state
    /// satisfying `accept`. An unknown label yields a one-state DFA
    /// accepting nothing.
    ///
    /// The DFA is partial: a transition into the dead configuration is
    /// left out, unless the dead configuration's output satisfies
    /// `accept`; then every letter is routed, and the DFA is total.
    pub fn content_dfa(&self, label: &Symbol, accept: impl Fn(usize) -> bool) -> Dfa {
        let Some(machine) = self.machines.get(label) else {
            return Dfa::new(1, 0);
        };
        let mut dfa = Dfa::new(machine.num_configs(), machine.start);
        if machine.dead.is_some_and(|dead| accept(machine.output[dead])) {
            for config in 0..machine.num_configs() {
                for (letter, &sym) in self.letters.iter().enumerate() {
                    dfa.set_transition(config, sym, machine.step(config, letter));
                }
            }
        } else {
            for (config, letter, next) in machine.transitions() {
                dfa.set_transition(config, self.letters[letter], next);
            }
        }
        for (config, &out) in machine.output.iter().enumerate() {
            if accept(out) {
                dfa.set_final(config);
            }
        }
        dfa
    }

    /// The content language of subset state `i` under `label`, as an NFA
    /// over letters ([`Duta::letter`]): a word `S1…Sk` is accepted iff a
    /// node labelled `label` whose children have subset states `S1…Sk`
    /// gets subset state `i`. The rules of the R-EDTD normal form
    /// (Lemma 4.10) are these languages with every letter expanded.
    pub fn content_nfa(&self, i: usize, label: &Symbol) -> Nfa {
        self.content_dfa(label, |out| out == i).to_nfa()
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

    /// The inhabited `(label, subset state)` pairs: for every label of the
    /// universe, the subset states achievable by trees rooted at it — the
    /// Moore outputs of its machine. Every configuration is reachable (the
    /// determinisation creates one only as the successor of another, whose
    /// letter is itself the output of a reachable configuration), so each
    /// output is achieved by some tree. These are exactly the specialised names of the
    /// normalised R-EDTD of Lemma 4.10 (one per pair), and the sets the
    /// kernel boxes of Section 7 are made of.
    pub fn inhabited_label_states(&self) -> BTreeMap<Symbol, BTreeSet<usize>> {
        self.machines
            .iter()
            .map(|(label, machine)| (*label, machine.output.iter().copied().collect()))
            .collect()
    }

    /// The image of a word language over letters ([`Duta::letter`]) under
    /// `label`'s Moore machine: for each subset state `i` that
    /// `label`'s node reaches on some child word `w ∈ [word_lang]`, the run
    /// of `word_lang` on a *shortest* such `w`: per move, the letter read
    /// (a subset state) and the state the move enters.
    ///
    /// Symbols that are not letters of this automaton contribute no
    /// transition, so words using them are unrealizable. An unknown label
    /// yields the empty map.
    ///
    /// This is the specialised-label validation primitive of the Section-7
    /// reduction: the children of a kernel node form a word-with-box-gaps
    /// language over subset states, and typing verification asks which
    /// subset states the node itself can reach.
    ///
    /// The runs are the least words of a pair search over (content state,
    /// configuration) pairs ([`Nfa::product_search`]), which charges one
    /// `budget` step per group of pairs sharing a word and aborts with
    /// [`AutomataError::BudgetExceeded`] when the budget trips.
    pub fn outputs_over(
        &self,
        label: &Symbol,
        word_lang: &Nfa,
        budget: &Budget,
    ) -> Result<BTreeMap<usize, Vec<(usize, StateId)>>, AutomataError> {
        let Some(machine) = self.machines.get(label) else {
            return Ok(BTreeMap::new());
        };
        let moves: Vec<Move> = word_lang
            .alphabet()
            .iter()
            .filter_map(|sym| {
                let i = self.letter_index(sym)?;
                Some((word_lang.sym_id(sym)?, Some(i), i))
            })
            .collect();
        let image = moore_image(Some(machine), word_lang, &moves, |p| (p.tag, p.state), budget)?;
        Ok(image.into_iter().filter_map(|(out, run)| Some((out?, run))).collect())
    }
}

/// A move of [`moore_image`]: a content symbol's local id, a letter it
/// reads and its tag.
type Move = ProductMove<Option<usize>>;

/// An output of [`moore_image`] with the least word reaching it, spelled
/// move by move.
type Reached<T> = (Option<usize>, Vec<T>);

/// The Moore image of a content language under a label machine: the pair
/// search of the content automaton against the machine
/// ([`Nfa::product_search`]), in which the symbol of each move reads its
/// letter, `None` being the dead state of trees outside the machine's
/// universe. A dead letter, or a missing machine, sends the
/// configuration to `None` for good. Returns every output (`None` for the
/// dead configuration) of a final pair, in the order of their least words,
/// with that word — the length-then-move-order least word the content
/// accepts with that output — `spell`ed move by move
/// ([`ProductPair::word`]). Charges one budget step per group of the
/// search.
fn moore_image<T>(
    machine: Option<&LabelMachine>,
    content: &Nfa,
    moves: &[Move],
    spell: impl Fn(&ProductPair<Option<usize>>) -> T,
    budget: &Budget,
) -> Result<Vec<Reached<T>>, AutomataError> {
    let step = |config: Option<usize>, letter: Option<usize>| {
        Some(machine.zip(config).zip(letter).map(|((m, c), s)| m.step(c, s)))
    };
    let pairs = content.product_search(machine.map(LabelMachine::start), moves, step, budget)?;
    let mut image: Vec<Reached<T>> = Vec::new();
    for (i, pair) in pairs.iter().enumerate() {
        if content.is_final(pair.state) {
            let out = machine.zip(pair.config).map(|(m, c)| m.output(c));
            if !image.iter().any(|(known, _)| *known == out) {
                image.push((out, ProductPair::word(&pairs, i, &spell)));
            }
        }
    }
    Ok(image)
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

/// A pair of [`run_pairs`] as a node of its witness DAG: a `label` root
/// over the witnesses of the `children` pairs, which precede it.
#[derive(Clone, Debug)]
pub struct RunPair {
    /// The state of the nondeterministic automaton.
    pub name: Symbol,
    /// The deterministic run's state (`None` off its label universe).
    pub state: Option<usize>,
    /// The witness root's label.
    pub label: Symbol,
    /// The pairs witnessing the root's children, in order.
    pub children: Vec<usize>,
}

/// Every pair `(q, s)` jointly reachable by some tree `t` — `q` a state `a`
/// can assign to `t`, `s` the state of `db`'s unique run on `t` — each with
/// such a tree as witness ([`RunPair`]), in discovery order.
///
/// This is the product fixpoint behind tree-language inclusion of a
/// nondeterministic automaton in a deterministic one: `a` is never
/// determinised. Each rule `(q, label)` of `a` is evaluated by the pair
/// search over (content state, label-machine configuration) pairs behind
/// [`Duta::outputs_over`], reading the known pairs of its content's states
/// as letters; a rule is re-evaluated only when a state its content reads
/// gains a pair.
///
/// `db` may have been determinised over a *smaller* label universe than
/// `a`'s (the point of caching a determinised target across inclusion
/// checks): a label unknown to `db` sends the `db` component to a virtual
/// dead state, rendered as `None`, which propagates upward — exactly the
/// semantics of [`Duta::run`] returning `None` on out-of-universe labels.
///
/// With no target (`db = None`) every label is off the universe, so there
/// is exactly one pair per *inhabited* state of `a` (a state some tree can
/// be assigned), its witness built from the least shortest content word
/// over the states inhabited when its rule is evaluated: the same pair
/// search, with the configuration `None` throughout. This is the
/// inhabitation fixpoint behind emptiness ([`Nuta::is_empty`]), sample
/// trees ([`Nuta::sample_tree`]) and the reduction of schemas.
///
/// Every group of a rule evaluation's pair search charges one `budget`
/// step, and the fixpoint aborts with [`AutomataError::BudgetExceeded`]
/// when the budget trips.
pub fn run_pairs(a: &Nuta, db: Option<&Duta>, budget: &Budget) -> Result<Vec<RunPair>, AutomataError> {
    budget.check_interrupts()?;
    let rules: Vec<(&Symbol, &Symbol, &Nfa)> = a.rules().collect();
    let mut readers: FxHashMap<Symbol, Vec<usize>> = FxHashMap::default();
    for (r, (_, _, content)) in rules.iter().enumerate() {
        for sym in content.alphabet().iter() {
            readers.entry(*sym).or_default().push(r);
        }
    }
    let mut pairs: Vec<RunPair> = Vec::new();
    // The pairs of each state, as indices into `pairs`.
    let mut of_state: FxHashMap<Symbol, Vec<usize>> = FxHashMap::default();
    // Seeded in reverse state order: where states are numbered in document
    // order (as in extension automata), children then come before their
    // parents, so most rules settle in one evaluation.
    let mut queue: VecDeque<usize> = (0..rules.len()).rev().collect();
    let mut queued = vec![true; rules.len()];
    while let Some(r) = queue.pop_front() {
        queued[r] = false;
        let (&q, &label, content) = rules[r];
        // Each state the content reads moves through its pairs known so
        // far, read as their subset letters and tagged with their index.
        let found = &pairs;
        let moves: Vec<Move> = content
            .alphabet()
            .iter()
            .filter_map(|sym| Some((content.sym_id(sym)?, of_state.get(sym)?)))
            .flat_map(|(sid, of_sym)| of_sym.iter().map(move |&p| (sid, found[p].state, p)))
            .collect();
        let machine = db.and_then(|d| d.machine(&label));
        for (state, children) in moore_image(machine, content, &moves, |p| p.tag, budget)? {
            let known = of_state.entry(q).or_default();
            if !known.iter().any(|&p| pairs[p].state == state) {
                known.push(pairs.len());
                pairs.push(RunPair { name: q, state, label, children });
                for &reader in readers.get(&q).into_iter().flatten() {
                    if !queued[reader] {
                        queued[reader] = true;
                        queue.push_back(reader);
                    }
                }
            }
        }
    }
    Ok(pairs)
}

/// The witness tree of pair `root`, numbered in document order: the one
/// builder of witness trees, iterative, charging one `budget` step per node.
pub fn materialise(pairs: &[RunPair], root: usize, budget: &Budget) -> Result<XTree, AutomataError> {
    budget.step()?;
    let mut tree = XTree::leaf(pairs[root].label);
    // (pair, parent in `tree`), popped in document order.
    let mut stack: Vec<(usize, NodeId)> = pairs[root].children.iter().rev().map(|&c| (c, 0)).collect();
    while let Some((p, parent)) = stack.pop() {
        budget.step()?;
        let node = tree.add_child(parent, pairs[p].label);
        stack.extend(pairs[p].children.iter().rev().map(|&c| (c, node)));
    }
    Ok(tree)
}

/// Checks `[a] ⊆ [b]` as tree languages; on failure returns a tree accepted
/// by `a` but not by `b`.
pub fn included(a: &Nuta, b: &Nuta) -> Result<(), XTree> {
    included_in_duta(a, &b.determinize(b.labels()))
}

/// Checks `[a] ⊆ [db]` against an already-determinised right-hand side; on
/// failure returns a tree accepted by `a` but not by `db`: the first smallest
/// separating witness, sized over the pair DAG and the only tree built.
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
    let unlimited = Budget::unlimited();
    let pairs = run_pairs(a, Some(db), &unlimited).expect("the unlimited budget never trips");
    let mut sizes: Vec<u64> = Vec::with_capacity(pairs.len());
    for pair in &pairs {
        sizes.push(pair.children.iter().fold(1, |size, &c| size.saturating_add(sizes[c])));
    }
    let separating =
        |&p: &usize| a.finals().contains(&pairs[p].name) && !pairs[p].state.is_some_and(|i| db.is_final(i));
    let Some(p) = (0..pairs.len()).filter(separating).min_by_key(|&p| sizes[p]) else { return Ok(()) };
    Err(materialise(&pairs, p, &unlimited).expect("the unlimited budget never trips"))
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
        l1.set_rule("qs", "s", content("qa*"));
        l1.set_rule("qa", "a", Nfa::epsilon());
        l1.set_final("qs");
        let mut l2 = Nuta::new();
        l2.set_rule("qs", "s", content("(qa qa)*"));
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
        l3.set_rule("qs", "s", content("qa* qa?"));
        l3.set_rule("qa", "a", Nfa::epsilon());
        l3.set_final("qs");
        assert!(is_equivalent(&l1, &l3));
    }

    #[test]
    fn included_in_duta_handles_out_of_universe_labels() {
        // Target: s(a*) — determinised only over its own labels {s, a}.
        let mut target = Nuta::new();
        target.set_rule("qs", "s", content("qa*"));
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
        let pairs = d.inhabited_label_states();
        // An `a` leaf types to {qa}; an `a` with children to the empty
        // subset — exactly two achievable states for the label.
        let qa = Symbol::new("qa");
        let a_outs = &pairs[&Symbol::new("a")];
        assert_eq!(a_outs.len(), 2);
        assert!(a_outs.iter().any(|&i| d.subset(i).contains(&qa)));
        assert!(a_outs.iter().any(|&i| d.subset(i).is_empty()));
        // `s` can be typed qs (with a valid (ab)* child word) or not at all.
        let s_outs = &pairs[&Symbol::new("s")];
        assert!(s_outs.iter().any(|&i| d.subset(i).contains(&Symbol::new("qs"))));
        assert!(s_outs.iter().any(|&i| d.subset(i).is_empty()));
        assert!(d.empty_subset().is_some());
        assert_eq!(pairs[&Symbol::new("b")].len(), 2);
        assert!(pairs[&Symbol::new("a")].iter().all(|i| !d.is_final(*i)));
        assert!(!pairs.contains_key(&Symbol::new("zz")));
        // Every subset state is the output of some label.
        let outputs: BTreeSet<usize> = pairs.values().flatten().copied().collect();
        assert_eq!(outputs, (0..d.num_states()).collect());
        // Accepting states are exactly the qs-containing subsets.
        for i in d.accepting_states() {
            assert!(d.subset(i).contains(&Symbol::new("qs")));
        }
    }

    #[test]
    fn outputs_over_images_a_word_language() {
        let a = ab_star_automaton();
        let d = a.determinize(a.labels());
        let pairs = d.inhabited_label_states();
        let sa = *pairs[&Symbol::new("a")].iter().next().unwrap();
        let sb = *pairs[&Symbol::new("b")].iter().next().unwrap();
        // Children words (Sa Sb)*: the only output is the accepting state.
        let good = Regex::concat(vec![Regex::sym(d.letter(sa)), Regex::sym(d.letter(sb))]).star().to_nfa();
        let outs = d.outputs_over(&Symbol::new("s"), &good, &Budget::unlimited()).unwrap();
        assert!(outs.keys().all(|&i| d.is_final(i)));
        // Shortest witness is the empty word (a leaf s is valid).
        assert_eq!(outs.values().next().unwrap().len(), 0);
        // Children words (Sa Sb)* Sa: only the empty subset is achievable.
        let bad = good.concat(&Nfa::symbol(d.letter(sa)));
        let outs2 = d.outputs_over(&Symbol::new("s"), &bad, &Budget::unlimited()).unwrap();
        assert_eq!(outs2.len(), 1);
        let (&o, w) = outs2.iter().next().unwrap();
        assert!(d.subset(o).is_empty());
        // Its run enters the appended symbol piece's final state.
        assert_eq!(w, &vec![(sa, good.num_states() + 1)], "shortest witness is the single word Sa");
        // Unknown labels have no machine.
        let unknown = d.outputs_over(&Symbol::new("zz"), &good, &Budget::unlimited()).unwrap();
        assert!(unknown.is_empty());
    }

    #[test]
    fn outputs_over_ignores_symbols_that_are_not_letters() {
        let a = ab_star_automaton();
        let d = a.determinize(a.labels());
        let n = d.num_states();
        let s = Symbol::new("s");
        let not_letters = [
            format!("#s{n}"),
            format!("#s{}", n + 7),
            format!("#s0{}", n - 1),
            "#s".to_owned(),
            "#sx".to_owned(),
            "#s-1".to_owned(),
            "s".to_owned(),
            "a".to_owned(),
            "qa".to_owned(),
        ];
        for sym in &not_letters {
            // Alone: no realizable non-empty word, so no output at all.
            let alone = Nfa::symbol(sym.as_str());
            let outs = d.outputs_over(&s, &alone, &Budget::unlimited()).unwrap();
            assert!(outs.is_empty(), "`{sym}` read as a letter");
            // Beside the real letters: only the letter words are imaged.
            let mixed = Nfa::symbol(sym.as_str()).union(&Nfa::epsilon());
            let outs = d.outputs_over(&s, &mixed, &Budget::unlimited()).unwrap();
            assert_eq!(outs.len(), 1, "`{sym}` moved the machine");
            assert!(outs.values().all(Vec::is_empty));
        }
        // A letter of the automaton itself is read.
        let last = Nfa::symbol(d.letter(n - 1));
        assert!(!d.outputs_over(&s, &last, &Budget::unlimited()).unwrap().is_empty());
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
        let content = d.content_nfa(qs_idx, &Symbol::new("s"));
        assert!(!content.is_empty());
        // The content language accepts the empty word (a leaf s gets qs).
        assert!(content.accepts(&[]));
    }
}
