//! Differential property tests for the tree layer's word-level searches:
//! on random nUTAs, the determinised automaton's observables — bottom-up
//! runs and the `Duta::outputs_over` Moore-machine image (subset states
//! **and** the letters of the shortest witness runs) — must be
//! byte-identical to a `BTreeSet<usize>` reference reimplementation of the
//! seed algorithms.
//! For the image, that reference is the frontier search the engine used
//! to run, over (configuration, content *state set*) nodes: it pins the
//! pair search over (content state, configuration) pairs that replaced it
//! to the same least witness words.
//! The per-label content DFA ([`Duta::content_dfa`]) is checked against the
//! bottom-up run it encodes, and the sparse determinisation against a dense
//! reference that steps every configuration on every letter.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use dxml_automata::{equiv, Alphabet, Budget, Dfa, Nfa, Symbol};
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
        nfa.add_transition(from, states[rng.below(states.len())], to);
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
    trans: Vec<BTreeMap<Symbol, BTreeSet<usize>>>,
}

impl RefNfa {
    fn of(nfa: &Nfa) -> RefNfa {
        let mut out = RefNfa {
            start: nfa.start(),
            finals: nfa.finals().clone(),
            trans: vec![BTreeMap::new(); nfa.num_states()],
        };
        for (q, lbl, t) in nfa.transitions() {
            out.trans[q].entry(*lbl).or_default().insert(t);
        }
        out
    }

    fn step(&self, set: &BTreeSet<usize>, sym: &Symbol) -> BTreeSet<usize> {
        let mut next = BTreeSet::new();
        for &q in set {
            if let Some(ts) = self.trans[q].get(sym) {
                next.extend(ts.iter().copied());
            }
        }
        next
    }
}

/// The seed reimplementation of [`Duta::outputs_over`]: the frontier
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
    let start = (machine.start(), BTreeSet::from([word.start]));
    let mut outputs: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    let mut seen: BTreeSet<Pair> = BTreeSet::from([start.clone()]);
    let mut queue: VecDeque<(Pair, Vec<usize>)> = VecDeque::from([(start, Vec::new())]);
    while let Some(((config, set), witness)) = queue.pop_front() {
        if set.iter().any(|q| word.finals.contains(q)) {
            outputs.entry(machine.output(config)).or_insert_with(|| witness.clone());
        }
        for &(sym, letter) in &moves {
            // A missing transition leads to the dead configuration.
            let next_config = match delta.get(&(config, letter)) {
                Some(&c) => c,
                None => machine.dead().expect("a missing transition means a dead configuration"),
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
            let runs = duta.outputs_over(label, &word_lang, &Budget::unlimited()).unwrap();
            let real: BTreeMap<usize, Vec<usize>> =
                runs.iter().map(|(&out, run)| (out, run.iter().map(|&(letter, _)| letter).collect())).collect();
            let want = reference_outputs_over(&duta, label, &word_lang);
            assert_eq!(real, want, "case {case}: outputs_over diverged under `{label}`");
            nonempty_images += usize::from(!real.is_empty());
            // Each run is a run of the content automaton from its start to
            // a final state, and the label machine reads its letters to
            // the run's key.
            let edges: BTreeSet<(usize, Symbol, usize)> =
                word_lang.transitions().map(|(from, sym, to)| (from, *sym, to)).collect();
            let machine = duta.machine(label).expect("every label determinised has a machine");
            for (&out, run) in &runs {
                let mut state = word_lang.start();
                let mut config = machine.start();
                for &(letter, entered) in run {
                    assert!(edges.contains(&(state, letters[letter], entered)), "case {case}: {run:?} is no run");
                    state = entered;
                    config = machine.step(config, letter);
                }
                assert!(word_lang.is_final(state), "case {case}: {run:?} ends outside the finals");
                assert_eq!(machine.output(config), out, "case {case}: {run:?} reads to another output");
            }
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

/// One label's Moore machine in the dense reference: a transition for
/// every (configuration, letter) pair, the dead configuration included.
struct DenseMachine {
    trans: BTreeMap<(usize, usize), usize>,
    output: Vec<usize>,
}

/// The dense determinisation: round after round, every configuration of
/// every label (in creation order) is stepped on every subset letter (in
/// increasing order) that it has no transition for yet, until a round
/// finds no new letter.
fn dense_determinize(
    nuta: &Nuta,
    labels: &Alphabet,
) -> (Vec<BTreeSet<Symbol>>, BTreeMap<Symbol, DenseMachine>) {
    type Config = Vec<BTreeSet<usize>>;
    struct Label {
        comps: Vec<(Symbol, RefNfa)>,
        configs: Vec<Config>,
        index: BTreeMap<Config, usize>,
        machine: DenseMachine,
    }
    fn add_config(
        lab: &mut Label,
        config: Config,
        subsets: &mut Vec<BTreeSet<Symbol>>,
    ) -> usize {
        let out: BTreeSet<Symbol> = lab
            .comps
            .iter()
            .zip(&config)
            .filter(|((_, nfa), set)| set.iter().any(|q| nfa.finals.contains(q)))
            .map(|((q, _), _)| *q)
            .collect();
        let letter = match subsets.iter().position(|s| *s == out) {
            Some(i) => i,
            None => {
                subsets.push(out);
                subsets.len() - 1
            }
        };
        let id = lab.configs.len();
        lab.index.insert(config.clone(), id);
        lab.configs.push(config);
        lab.machine.output.push(letter);
        id
    }
    let mut lab_of: BTreeMap<Symbol, Label> = labels
        .union(nuta.labels())
        .iter()
        .map(|l| {
            let lab = Label {
                comps: Vec::new(),
                configs: Vec::new(),
                index: BTreeMap::new(),
                machine: DenseMachine { trans: BTreeMap::new(), output: Vec::new() },
            };
            (*l, lab)
        })
        .collect();
    // `rules()` runs in (state, label) order, so each label's states come
    // in text order.
    for (q, l, nfa) in nuta.rules() {
        lab_of.get_mut(l).expect("every ruled label is in the universe").comps.push((*q, RefNfa::of(nfa)));
    }
    let mut subsets: Vec<BTreeSet<Symbol>> = Vec::new();
    for lab in lab_of.values_mut() {
        let start = lab.comps.iter().map(|(_, nfa)| BTreeSet::from([nfa.start])).collect();
        add_config(lab, start, &mut subsets);
    }
    loop {
        let n = subsets.len();
        let mut changed = false;
        for lab in lab_of.values_mut() {
            let mut c = 0;
            while c < lab.configs.len() {
                for letter in 0..n {
                    if lab.machine.trans.contains_key(&(c, letter)) {
                        continue;
                    }
                    changed = true;
                    let next: Config = lab
                        .comps
                        .iter()
                        .zip(&lab.configs[c])
                        .map(|((_, nfa), set)| {
                            subsets[letter].iter().flat_map(|sym| nfa.step(set, sym)).collect()
                        })
                        .collect();
                    let id = match lab.index.get(&next) {
                        Some(&id) => id,
                        None => add_config(lab, next, &mut subsets),
                    };
                    lab.machine.trans.insert((c, letter), id);
                }
                c += 1;
            }
        }
        if !changed && subsets.len() == n {
            break;
        }
    }
    let machines = lab_of.into_iter().map(|(l, lab)| (l, lab.machine)).collect();
    (subsets, machines)
}

#[test]
fn sparse_determinisation_matches_the_dense_reference() {
    let mut rng = Rng(0x5ba7_5e00 ^ 0x0dd_c0de);
    let (mut missing, mut dead_accepted) = (0usize, 0usize);
    for case in 0..150 {
        let nuta = random_nuta(&mut rng);
        // A label without rules has a machine that starts dead.
        let mut labels = nuta.labels().clone();
        labels.insert(Symbol::new("lz"));
        let duta = nuta.determinize(&labels);
        let (subsets, machines) = dense_determinize(&nuta, &labels);
        assert_eq!(duta.subsets(), subsets.as_slice(), "case {case}: subsets or their order diverged");
        let n = subsets.len();
        let empty = subsets.iter().position(BTreeSet::is_empty);
        for (label, dense) in &machines {
            let machine = duta.machine(label).expect("every label of the universe has a machine");
            let configs = dense.output.len();
            assert_eq!(machine.num_configs(), configs, "case {case}: `{label}` configurations");
            for c in 0..configs {
                assert_eq!(machine.output(c), dense.output[c], "case {case}: `{label}` output of {c}");
                for letter in 0..n {
                    assert_eq!(
                        machine.step(c, letter),
                        dense.trans[&(c, letter)],
                        "case {case}: `{label}` step ({c}, {letter})"
                    );
                }
            }
            missing += configs * n - machine.transitions().count();
            // Content languages, for an acceptance set with and without
            // the empty subset.
            let accepts: [&dyn Fn(usize) -> bool; 2] =
                [&|out| Some(out) == empty || duta.is_final(out), &|out| duta.is_final(out)];
            for accept in accepts {
                let mut want = Dfa::new(configs, 0);
                for (&(c, letter), &next) in &dense.trans {
                    want.set_transition(c, duta.letter(letter), next);
                }
                for (c, &out) in dense.output.iter().enumerate() {
                    if accept(out) {
                        want.set_final(c);
                    }
                }
                let got = duta.content_dfa(label, accept);
                assert!(
                    equiv::is_equivalent(&got.to_nfa(), &want.to_nfa()),
                    "case {case}: content DFA of `{label}` diverged from the dense one"
                );
                dead_accepted += usize::from(
                    machine.dead().is_some_and(|d| accept(machine.output(d)))
                        && machine.transitions().count() < configs * n,
                );
            }
        }
    }
    assert!(missing > 2000, "the family must leave many transitions implicit ({missing})");
    assert!(dead_accepted > 300, "the family must accept the dead configuration ({dead_accepted})");
}
