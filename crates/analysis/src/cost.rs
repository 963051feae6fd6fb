//! Static cost analysis: bracket what a design's governed engine run
//! spends, and synthesise a [`Budget`] for it, **before** running anything.
//!
//! Two layers, both read off schema structure alone:
//!
//! * per content model, [`content_model_cost`] brackets the subset
//!   construction of the model's NFA (`dfa.subset_states`,
//!   `dfa.subset_transitions`) from its [`NfaMetrics`], and
//!   [`suffix_counting`] detects shapes like `(a|b)* a (a|b)^{n-1}` that
//!   force a `2^n` DFA lower bound (`DX014`);
//! * per design, [`design_cost`] / [`box_design_cost`] compose the
//!   per-rule brackets into a [`DesignCost`] whose `states` and `steps`
//!   bracket the budget spend of the cold, document-independent
//!   target-cache build: the determinisation of the target's tree
//!   automaton (`Nuta::determinize`) plus one product fixpoint per
//!   function schema (`uta::run_pairs`). [`recommend_budget`] turns that
//!   into step/state quotas.
//!
//! The model never builds or consults the target cache.
//!
//! # The bracket invariant
//!
//! Every [`Bounds`] value in this module is a *sound* bracket
//! `lower ≤ actual ≤ upper` of the counter it names. The calibration suite
//! (`crates/bench/tests/cost_calibration.rs`) checks it on the bench
//! corpus, and the `cost_analysis` bench target re-checks the pivotal
//! shapes. The load-bearing facts:
//!
//! * the subset construction materialises only **non-empty** subsets of
//!   the `m` NFA states, so it builds at most `2^m − 1` subset states —
//!   and it scans the NFA's registered alphabet once per popped subset, so
//!   `dfa.subset_transitions = dfa.subset_states × |alphabet|` exactly;
//! * the subsets visited along a shortest accepted word's run are pairwise
//!   distinct (collapsing two of them would pump the word shorter), so a
//!   non-empty language forces at least `min_word_len + 1` subset states;
//! * a suffix-counting model `S* a T_1 … T_k` with `{a, b} ⊆ T_i` for
//!   some filler `b ∈ S \ {a}` forces `2^{k+1}` subset states: the
//!   `2^{k+1}` prefixes in `{a,b}^{k+1}` lead to pairwise distinct,
//!   non-empty subsets (two prefixes differing at window offset `i` are
//!   separated by the extension `b^{k-i}`);
//! * every state of the determinised target is a set of specialisations
//!   of **one** label, or the empty set (the normal form of Lemma 4.10),
//!   so there are at most `1 + Σ_label (2^{k_label} − 1)` of them, where
//!   `k_label` counts the label's specialisations — `|labels| + 1` for a
//!   DTD target. Each label whose specialisations admit the empty child
//!   word types a leaf by a non-empty set of its own, so the number of
//!   such labels (at least 1) is a floor;
//! * the determinisation expands each configuration of a label's Moore
//!   machine at most once on each letter that holds a name its content
//!   automata read, and charges nothing for the other letters (they lead
//!   to the dead configuration). A letter holds specialisations of one
//!   label, so a label whose rules read the labels `L'` has at most
//!   `Σ_{L'} (2^{k_{L'}} − 1)` such letters, and its steps are at most
//!   `configs` times that. A configuration holds one state set per
//!   specialisation of the label — a subset of its content automaton's
//!   `m` states, or the dead empty set — so a label has at most the
//!   product of `2^m` over its specialisations; when every state is a
//!   single name (a DTD target), a deterministic content model stays on
//!   singletons and the product is over `subset_states.upper + 1`;
//! * a name some tree types makes its label's machine take at least
//!   `min_word_len` expansions: the configurations along a shortest child
//!   word that types it are pairwise distinct and none is dead. A label
//!   whose rules read nothing charges no step, so the floor is the sum
//!   over labels of the longest such word among their names known to be
//!   typable (a name without a rule or accepting ε, or one whose rule
//!   accepts a word and reads only typable names);
//! * a function's product fixpoint evaluates each rule of its schema once,
//!   plus once per new pair of a name the rule's content reads (a name has
//!   at most `states + 1` pairs). An evaluation is a pair search over
//!   (content state, label configuration or dead) pairs that charges one
//!   step per group of pairs first reached by one word, so at least one
//!   (the start pair's) and at most one per pair. The bracket still
//!   multiplies by the content model's subset-state bound: it is at least
//!   the number `m` of content states (`m ≤ 2^m − 1`), so it stays an
//!   upper bound.
//!
//! # What the brackets leave out
//!
//! The rest of a design op charges the same budget but depends on the
//! *document*: the kernel passes of `verify_local`, `typecheck` and the
//! confirmation of `perfect_schema`, the counterexample construction of a
//! refuted `typecheck` (forest searches over the cached function pairs, and
//! a step per tree node built, exponential in the schemas at worst), and the
//! residual walks of synthesis. No bracket models that work; quotas with a
//! positive headroom cover it with that factor plus [`BASE_SLACK`].
//!
//! # Budget synthesis
//!
//! [`recommend_budget`] (and [`recommend_box_budget`]) turn a
//! [`DesignCost`] into a [`Budget`]: with a positive headroom factor `h`
//! the quotas are `upper × h + BASE_SLACK` (admission control — every
//! well-behaved schema fits, a predicted-exponential one is surfaced by
//! `DX014`/`DX015` instead of an OOM); with headroom `0` the quotas are
//! `lower − 1`, *guaranteed* to trip on any run that builds the target
//! cache — the shape the fuzz smoke-test uses to prove the predictions
//! have teeth.

use std::fmt;

use dxml_automata::symbol::Word;
use dxml_automata::{Alphabet, Budget, FxHashMap, NfaMetrics, RSpec, Regex, Symbol};
use dxml_core::{BoxDesignProblem, DesignProblem};
use dxml_schema::{RDtd, REdtd};

/// Suffix-counting lower bounds at or above this many predicted subset
/// states raise `DX014` (predicted-exponential content model).
pub const EXPONENTIAL_THRESHOLD: u64 = 64;

/// Designs whose predicted upper state bound reaches this raise the
/// `DX015` budget advisory (and `DX016` when one location dominates).
pub const ATTENTION_THRESHOLD: u64 = 1 << 16;

/// Default headroom factor of [`recommend_budget`]: quotas are twice the
/// predicted upper bound (plus [`BASE_SLACK`]).
pub const DEFAULT_HEADROOM: f64 = 2.0;

/// Flat additive slack of every positive-headroom quota, covering (with the
/// headroom factor) the work that scales with the *document* rather than
/// the schema: kernel passes, counterexample construction and the residual
/// walks of synthesis.
pub const BASE_SLACK: u64 = 1 << 12;

/// A sound bracket `lower ≤ actual ≤ upper` of one cost counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Bounds {
    /// Guaranteed minimum of the counter.
    pub lower: u64,
    /// Guaranteed maximum of the counter (saturating; `u64::MAX` means
    /// "astronomical", not "unknown" — the bound is still sound).
    pub upper: u64,
}

impl Bounds {
    /// A bracket from both ends.
    ///
    /// # Panics
    ///
    /// Panics if `lower > upper` — a violated bracket is a bug in the
    /// model, never a recoverable condition.
    pub fn new(lower: u64, upper: u64) -> Bounds {
        assert!(lower <= upper, "inverted bounds: {lower} > {upper}");
        Bounds { lower, upper }
    }

    /// Whether `actual` falls inside the bracket.
    pub fn contains(&self, actual: u64) -> bool {
        self.lower <= actual && actual <= self.upper
    }

    /// Component-wise saturating scaling by a constant factor.
    pub fn times(self, k: u64) -> Bounds {
        Bounds { lower: self.lower.saturating_mul(k), upper: self.upper.saturating_mul(k) }
    }
}

impl fmt::Display for Bounds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.lower == self.upper {
            write!(f, "{}", self.lower)
        } else if self.upper == u64::MAX {
            write!(f, "[{} … 2^64)", self.lower)
        } else {
            write!(f, "[{} … {}]", self.lower, self.upper)
        }
    }
}

/// `2^m − 1` with saturation: the number of non-empty subsets of `m` NFA
/// states, i.e. the hard ceiling of the subset construction.
fn pow2_minus1(m: usize) -> u64 {
    if m >= 64 {
        u64::MAX
    } else {
        (1u64 << m) - 1
    }
}

fn pow2(m: usize) -> u64 {
    if m >= 64 {
        u64::MAX
    } else {
        1u64 << m
    }
}

// ---------------------------------------------------------------------
// Suffix-counting detection
// ---------------------------------------------------------------------

/// A detected suffix-counting shape `S* a T_1 … T_k` — the canonical
/// exponential-determinisation family of the form `(a|b)* a (a|b)^{n-1}`
/// — together with the witness data backing its lower bound.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SuffixCounting {
    /// The pivot symbol `a` whose position from the end the language
    /// counts.
    pub pivot: Symbol,
    /// A filler symbol `b ∈ S \ {a}` allowed at every window offset.
    pub filler: Symbol,
    /// The window width `k + 1`: membership of `pivot`-vs-`filler` words
    /// is decided by the letter exactly `window` positions from the end.
    pub window: u32,
    /// `2^window` (saturating): a lower bound on the states of *any* DFA
    /// for the language, hence on `dfa.subset_states`.
    pub dfa_lower_bound: u64,
    /// A shortest accepted member of the witness family:
    /// `pivot filler^{window-1}`.
    pub accepted: Word,
    /// The matching rejected word `filler^window` — same length, differs
    /// only at the window position.
    pub rejected: Word,
}

impl SuffixCounting {
    /// One-sentence human rendering of the witness, used by `DX014`.
    pub fn describe(&self) -> String {
        format!(
            "membership is decided by the letter {} position(s) from the end \
             (accepts `{}`, rejects `{}`), so any DFA must remember the last \
             {} letters: at least {} subset states",
            self.window,
            render_word(&self.accepted),
            render_word(&self.rejected),
            self.window,
            self.dfa_lower_bound,
        )
    }
}

fn render_word(w: &Word) -> String {
    let parts: Vec<String> = w.iter().map(ToString::to_string).collect();
    parts.join(" ")
}

/// Flattens nested top-level concatenations into a factor list.
fn flatten_concat(re: &Regex) -> Vec<&Regex> {
    fn go<'a>(re: &'a Regex, out: &mut Vec<&'a Regex>) {
        match re {
            Regex::Concat(vs) => {
                for v in vs {
                    go(v, out);
                }
            }
            other => out.push(other),
        }
    }
    let mut out = Vec::new();
    go(re, &mut out);
    out
}

/// The symbol set of a width-1 factor (a symbol or an alternation of
/// symbols — every word it accepts has length exactly 1), or `None`.
fn unit_symbols(re: &Regex) -> Option<Alphabet> {
    match re {
        Regex::Sym(s) => {
            let mut a = Alphabet::new();
            a.insert(*s);
            Some(a)
        }
        Regex::Alt(vs) => {
            let mut out = Alphabet::new();
            for v in vs {
                out = out.union(&unit_symbols(v)?);
            }
            Some(out)
        }
        _ => None,
    }
}

/// Detects the suffix-counting shape `S* a T_1 … T_k` in an expression:
/// a leading star over a width-1 alternation `S` with `|S| ≥ 2`, a pivot
/// `a ∈ S`, and a width-1 tail where some filler `b ∈ S \ {a}` satisfies
/// `{a, b} ⊆ T_i` for every tail factor.
///
/// Under those conditions `L ∩ {a,b}*` is exactly the words of length
/// `≥ k+1` whose letter `k+1` positions from the end is `a`, which is the
/// textbook `2^{k+1}`-state fooling family — the returned
/// [`SuffixCounting::dfa_lower_bound`] is a *proved* lower bound on the
/// subset-construction state count, not a heuristic. `(a|b)* a (a|b)^{n-1}`
/// yields `window = n` and bound `2^n`.
pub fn suffix_counting(re: &Regex) -> Option<SuffixCounting> {
    let parts = flatten_concat(re);
    if parts.len() < 2 {
        return None;
    }
    let body = match parts[0] {
        Regex::Star(body) => unit_symbols(body)?,
        _ => return None,
    };
    if body.len() < 2 {
        return None;
    }
    let pivot = match parts[1] {
        Regex::Sym(s) if body.contains(s) => *s,
        _ => return None,
    };
    let tails: Vec<Alphabet> = parts[2..].iter().map(|p| unit_symbols(p)).collect::<Option<_>>()?;
    if !tails.iter().all(|t| t.contains(&pivot)) {
        return None;
    }
    let filler =
        *body.iter().find(|b| **b != pivot && tails.iter().all(|t| t.contains(b)))?;
    let k = tails.len();
    let window = u32::try_from(k + 1).ok()?;
    let mut accepted = vec![pivot];
    accepted.extend(std::iter::repeat(filler).take(k));
    let rejected = vec![filler; k + 1];
    Some(SuffixCounting {
        pivot,
        filler,
        window,
        dfa_lower_bound: pow2(k + 1),
        accepted,
        rejected,
    })
}

// ---------------------------------------------------------------------
// Per-content-model cost
// ---------------------------------------------------------------------

/// The predicted determinisation cost of one content model.
#[derive(Clone, Debug)]
pub struct ContentModelCost {
    /// The structural metrics of the model's NFA (the Glushkov automaton
    /// for `nRE`/`dRE`, as-is for `nFA`/`dFA`) — the automaton
    /// [`Dfa::from_nfa`](dxml_automata::Dfa::from_nfa) determinises.
    pub metrics: NfaMetrics,
    /// Bracket of `dfa.subset_states` for determinising this model.
    pub subset_states: Bounds,
    /// Bracket of `dfa.subset_transitions`; exactly
    /// `subset_states × |alphabet|` on both ends.
    pub subset_steps: Bounds,
    /// The detected exponential shape, if any.
    pub suffix_counting: Option<SuffixCounting>,
}

/// Brackets the subset-construction cost of a content model from its
/// structure alone. See the module docs for the exact counter semantics
/// each bound tracks.
pub fn content_model_cost(spec: &RSpec) -> ContentModelCost {
    let nfa = spec.to_nfa();
    let metrics = nfa.metrics();
    let suffix = match spec {
        RSpec::Nre(re) | RSpec::Dre(re) => suffix_counting(re),
        RSpec::Nfa(_) | RSpec::Dfa(_) => None,
    };
    let mut lower = match metrics.min_word_len {
        Some(len) => (len as u64).saturating_add(1),
        None => 1, // the start set alone
    };
    if let Some(sc) = &suffix {
        lower = lower.max(sc.dfa_lower_bound);
    }
    let mut upper = pow2_minus1(metrics.states);
    if matches!(spec, RSpec::Dfa(_)) {
        // Determinising a DFA only ever visits singleton subsets.
        upper = upper.min(metrics.states as u64);
    }
    let subset_states = Bounds::new(lower, upper.max(lower));
    let subset_steps = subset_states.times(metrics.alphabet.len() as u64);
    ContentModelCost { metrics, subset_states, subset_steps, suffix_counting: suffix }
}

// ---------------------------------------------------------------------
// Schema- and design-level composition
// ---------------------------------------------------------------------

/// The summed determinisation cost of one schema's content models.
#[derive(Clone, Debug)]
pub struct SchemaCost {
    /// Per-rule costs with human-readable locations (`element `a`` /
    /// `specialisation `x``), in rule order.
    pub rules: Vec<(String, ContentModelCost)>,
    /// Every name of the schema's tree automaton, mapped to its label and
    /// the index of its rule in `rules` (`None` for a name without a rule,
    /// whose content is `{ε}`).
    names: FxHashMap<Symbol, (Symbol, Option<usize>)>,
}

impl SchemaCost {
    fn new<'a>(
        kind: &str,
        rules: impl Iterator<Item = (&'a Symbol, &'a RSpec)>,
        names: impl Iterator<Item = (Symbol, Symbol)>,
    ) -> SchemaCost {
        let mut index = FxHashMap::default();
        let rules: Vec<(String, ContentModelCost)> = rules
            .enumerate()
            .map(|(i, (name, spec))| {
                index.insert(*name, i);
                (format!("{kind} `{name}`"), content_model_cost(spec))
            })
            .collect();
        let names = names.map(|(name, label)| (name, (label, index.get(&name).copied()))).collect();
        SchemaCost { rules, names }
    }

    /// The rules whose detected suffix-counting lower bound crosses
    /// [`EXPONENTIAL_THRESHOLD`] — the `DX014` set.
    pub fn exponential(&self) -> impl Iterator<Item = (&str, &SuffixCounting)> {
        self.rules.iter().filter_map(|(loc, cost)| {
            cost.suffix_counting
                .as_ref()
                .filter(|sc| sc.dfa_lower_bound >= EXPONENTIAL_THRESHOLD)
                .map(|sc| (loc.as_str(), sc))
        })
    }

    /// The cost of a name's rule; `None` for a name without one.
    fn rule(&self, rule: Option<usize>) -> Option<&ContentModelCost> {
        rule.map(|i| &self.rules[i].1)
    }

    /// Names that type some tree, by a sufficient condition: a name
    /// without a rule or whose rule accepts the empty word, or whose rule
    /// accepts some word and reads only such names (every accepted word is
    /// then made of typable children). Each name appears once.
    fn surely_inhabited(&self) -> Vec<Symbol> {
        // Unit propagation: a name waits on the distinct names its rule
        // reads, and is ready once none is left, so it is pushed once.
        let mut waiting: FxHashMap<Symbol, usize> =
            FxHashMap::with_capacity_and_hasher(self.names.len(), Default::default());
        let mut readers: Vec<(Symbol, Symbol)> = Vec::new();
        let mut ready: Vec<Symbol> = Vec::new();
        for (name, (_, rule)) in &self.names {
            match self.rule(*rule).map(|c| &c.metrics) {
                None => ready.push(*name),
                Some(m) if m.min_word_len == Some(0) => ready.push(*name),
                Some(m) if m.min_word_len.is_some() => {
                    waiting.insert(*name, m.alphabet.len());
                    readers.extend(m.alphabet.iter().map(|read| (*read, *name)));
                }
                Some(_) => {}
            }
        }
        readers.sort_unstable_by_key(|(read, _)| read.id());
        let mut inhabited: Vec<Symbol> = Vec::with_capacity(self.names.len());
        while let Some(name) = ready.pop() {
            inhabited.push(name);
            let from = readers.partition_point(|(read, _)| read.id() < name.id());
            for (_, reader) in readers[from..].iter().take_while(|(read, _)| *read == name) {
                let left = waiting.get_mut(reader).expect("every reader waits");
                *left -= 1;
                if *left == 0 {
                    ready.push(*reader);
                }
            }
        }
        inhabited
    }
}

/// Brackets the content-model determinisation cost of an `R-DTD`.
pub fn dtd_cost(dtd: &RDtd) -> SchemaCost {
    SchemaCost::new("element", dtd.rules(), dtd.alphabet().iter().map(|a| (*a, *a)))
}

/// Brackets the content-model determinisation cost of an `R-EDTD`.
pub fn edtd_cost(e: &REdtd) -> SchemaCost {
    let names = e.specialized_names();
    SchemaCost::new(
        "specialisation",
        e.rules(),
        names.iter().filter_map(|name| Some((*name, *e.label_of(name)?))),
    )
}

/// The location whose predicted upper bound dominates a design's total.
#[derive(Clone, Debug)]
pub struct Dominant {
    /// The dominating content model's location (diagnostic style).
    pub location: String,
    /// Its predicted upper state bound.
    pub upper: u64,
    /// The design's total predicted upper state bound.
    pub total_upper: u64,
}

/// The composed cost model of a whole design problem: what the cold,
/// document-independent target-cache build charges against a [`Budget`].
/// Document-dependent work is not bracketed (see the module docs).
#[derive(Clone, Debug)]
pub struct DesignCost {
    /// The target schema's per-rule costs.
    pub target: SchemaCost,
    /// Each function schema's costs, keyed `schema of function `f``.
    pub functions: Vec<(String, SchemaCost)>,
    /// Bracket of the states the build grows: the states of the
    /// determinised target. A state quota of `states.lower − 1` provably
    /// trips.
    pub states: Bounds,
    /// Bracket of the steps the build charges: the determinisation's
    /// (configuration, readable letter) expansions plus the pops of every
    /// function's product fixpoint.
    pub steps: Bounds,
    /// The dominating location, when one content model accounts for at
    /// least half of the design's summed per-rule upper state bounds.
    pub dominant: Option<Dominant>,
}

impl DesignCost {
    fn compose(target: SchemaCost, functions: Vec<(String, SchemaCost)>) -> DesignCost {
        // Per target label: its specialisation count, and whether one of
        // them admits the empty child word (a leaf with the label is typed).
        let mut labels: FxHashMap<Symbol, (usize, bool)> = FxHashMap::default();
        for (label, rule) in target.names.values() {
            let slot = labels.entry(*label).or_default();
            slot.0 += 1;
            slot.1 |= target.rule(*rule).map_or(true, |c| c.metrics.min_word_len == Some(0));
        }
        let single_names = labels.values().all(|&(k, _)| k == 1);
        // Per target label: the configuration ceiling of its Moore machine,
        // one factor per specialisation. A name without a rule has the
        // one-state ε automaton: its start set or the dead one.
        let mut configs: FxHashMap<Symbol, u64> = FxHashMap::default();
        for (label, rule) in target.names.values() {
            let width = target.rule(*rule).map_or(2, |c| {
                if single_names {
                    c.subset_states.upper.saturating_add(1)
                } else {
                    pow2(c.metrics.states)
                }
            });
            let slot = configs.entry(*label).or_insert(1);
            *slot = slot.saturating_mul(width);
        }
        let states_upper =
            labels.values().fold(1u64, |sum, &(k, _)| sum.saturating_add(pow2_minus1(k)));
        let states_lower = labels.values().filter(|&&(_, leaf)| leaf).count().max(1) as u64;
        // (label, label its rules read): only the letters of the read
        // labels move a configuration anywhere but the dead one.
        let names = &target.names;
        let mut reads: Vec<(Symbol, Symbol)> = names
            .values()
            .filter_map(|(label, rule)| Some((*label, target.rule(*rule)?)))
            .flat_map(|(label, c)| {
                c.metrics.alphabet.iter().filter_map(move |n| Some((label, names.get(n)?.0)))
            })
            .collect();
        reads.sort_unstable_by_key(|(label, read)| (label.id(), read.id()));
        reads.dedup();
        let mut steps_upper = reads.iter().fold(0u64, |sum, (label, read)| {
            sum.saturating_add(configs[label].saturating_mul(pow2_minus1(labels[read].0)))
        });
        // Per target label: the longest shortest child word among its
        // names that some tree surely types.
        let mut longest: FxHashMap<Symbol, u64> =
            FxHashMap::with_capacity_and_hasher(labels.len(), Default::default());
        for name in &target.surely_inhabited() {
            let (label, rule) = target.names[name];
            let len = target.rule(rule).and_then(|c| c.metrics.min_word_len).unwrap_or(0);
            let slot = longest.entry(label).or_default();
            *slot = (*slot).max(len as u64);
        }
        let mut steps_lower = longest.values().fold(0u64, |sum, &len| sum.saturating_add(len));
        // The pairs a function name can reach: its label's output, a set of
        // that label's target specialisations, or the dead state.
        let pairs =
            |label: &Symbol| labels.get(label).map_or(1, |&(k, _)| pow2(k).saturating_add(1));
        for (_, schema) in &functions {
            steps_lower = steps_lower.saturating_add(schema.names.len() as u64);
            for (label, rule) in schema.names.values() {
                // A rule-less name's `{ε}` content is evaluated once and
                // pops its start node only.
                let pops = schema.rule(*rule).map_or(1, |c| {
                    let evaluations = c.metrics.alphabet.iter().fold(1u64, |sum, name| {
                        sum.saturating_add(pairs(&schema.names[name].0))
                    });
                    let machine = configs.get(label).map_or(1, |n| n.saturating_add(1));
                    evaluations.saturating_mul(c.subset_states.upper).saturating_mul(machine)
                });
                steps_upper = steps_upper.saturating_add(pops);
            }
        }
        let dominant = {
            let all = target
                .rules
                .iter()
                .map(|(loc, c)| (loc.clone(), c.subset_states.upper))
                .chain(functions.iter().flat_map(|(f, schema)| {
                    schema
                        .rules
                        .iter()
                        .map(move |(loc, c)| (format!("{f}: {loc}"), c.subset_states.upper))
                }));
            let mut total: u64 = 0;
            let mut top: Option<(String, u64)> = None;
            for (loc, upper) in all {
                total = total.saturating_add(upper);
                if top.as_ref().map_or(true, |(_, best)| upper > *best) {
                    top = Some((loc, upper));
                }
            }
            top.filter(|(_, upper)| total > 0 && *upper >= total.div_ceil(2))
                .map(|(location, upper)| Dominant { location, upper, total_upper: total })
        };
        DesignCost {
            target,
            functions,
            states: Bounds::new(states_lower, states_upper),
            steps: Bounds::new(steps_lower, steps_upper),
            dominant,
        }
    }
}

/// Composes the design-level cost model of a DTD-target design problem:
/// the box engine's model on the trivial embedding (one specialised name
/// per element), with the locations named by element.
pub fn design_cost(problem: &DesignProblem) -> DesignCost {
    let functions = problem
        .fun_schemas()
        .iter()
        .map(|(f, schema)| (format!("schema of function `{f}`"), dtd_cost(schema)))
        .collect();
    DesignCost::compose(dtd_cost(problem.doc_schema()), functions)
}

/// Composes the design-level cost model of a box (R-EDTD-target) design
/// problem.
pub fn box_design_cost(problem: &BoxDesignProblem) -> DesignCost {
    let functions = problem
        .fun_schemas()
        .iter()
        .map(|(f, schema)| (format!("schema of function `{f}`"), edtd_cost(schema)))
        .collect();
    DesignCost::compose(edtd_cost(problem.doc_schema()), functions)
}

// ---------------------------------------------------------------------
// Budget synthesis
// ---------------------------------------------------------------------

fn scale(v: u64, headroom: f64) -> u64 {
    if v == u64::MAX {
        return u64::MAX;
    }
    let x = (v as f64) * headroom;
    if x >= u64::MAX as f64 {
        u64::MAX
    } else {
        x as u64
    }
}

/// One quota from one bracket: `upper × headroom + BASE_SLACK` for
/// positive headroom (admission), `lower − 1` for headroom `≤ 0`
/// (guaranteed trip on a covering run).
fn quota(b: Bounds, headroom: f64) -> u64 {
    if headroom <= 0.0 {
        b.lower.saturating_sub(1)
    } else {
        scale(b.upper, headroom).saturating_add(BASE_SLACK)
    }
}

/// The `(state quota, step quota)` pair [`budget_from_cost`] would
/// install — exposed separately so the `DX015` advisory can print the
/// numbers it recommends.
pub fn recommended_quotas(cost: &DesignCost, headroom: f64) -> (u64, u64) {
    (quota(cost.states, headroom), quota(cost.steps, headroom))
}

/// Turns a composed [`DesignCost`] into a concrete [`Budget`] with
/// step/state quotas. Shared by the DTD and box routes.
pub fn budget_from_cost(cost: &DesignCost, headroom: f64) -> Budget {
    let (states, steps) = recommended_quotas(cost, headroom);
    Budget::unlimited().with_state_quota(states).with_step_quota(steps)
}

/// Recommends a [`Budget`] admitting this design with
/// [`DEFAULT_HEADROOM`]: every run the cost model covers fits, and a
/// schema that *cannot* fit is better surfaced by `DX014`/`DX015` than by
/// an unbounded determinisation.
pub fn recommend_budget(problem: &DesignProblem) -> Budget {
    recommend_budget_with_headroom(problem, DEFAULT_HEADROOM)
}

/// [`recommend_budget`] with an explicit headroom factor. Headroom `≤ 0`
/// synthesises the *trip* budget (`lower − 1` quotas), the shape the
/// fuzz smoke-test uses to prove predictions bind.
pub fn recommend_budget_with_headroom(problem: &DesignProblem, headroom: f64) -> Budget {
    budget_from_cost(&design_cost(problem), headroom)
}

/// Box-problem analogue of [`recommend_budget`].
pub fn recommend_box_budget(problem: &BoxDesignProblem) -> Budget {
    recommend_box_budget_with_headroom(problem, DEFAULT_HEADROOM)
}

/// Box-problem analogue of [`recommend_budget_with_headroom`].
pub fn recommend_box_budget_with_headroom(problem: &BoxDesignProblem, headroom: f64) -> Budget {
    budget_from_cost(&box_design_cost(problem), headroom)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dxml_automata::{Dfa, RFormalism};

    fn re(s: &str) -> Regex {
        Regex::parse(s).unwrap()
    }

    #[test]
    fn bounds_arithmetic_saturates() {
        let b = Bounds::new(2, 5);
        assert!(b.contains(2) && b.contains(5) && !b.contains(6));
        assert_eq!(b.times(3), Bounds::new(6, 15));
        assert_eq!(Bounds::new(1, u64::MAX).times(2).upper, u64::MAX);
        assert_eq!(format!("{}", Bounds::new(4, 4)), "4");
        assert_eq!(format!("{}", Bounds::new(2, 8)), "[2 … 8]");
    }

    #[test]
    #[should_panic(expected = "inverted bounds")]
    fn inverted_bounds_panic() {
        let _ = Bounds::new(3, 2);
    }

    #[test]
    fn pow2_minus1_saturates() {
        assert_eq!(pow2_minus1(0), 0);
        assert_eq!(pow2_minus1(3), 7);
        assert_eq!(pow2_minus1(63), (1u64 << 63) - 1);
        assert_eq!(pow2_minus1(64), u64::MAX);
        assert_eq!(pow2_minus1(200), u64::MAX);
    }

    #[test]
    fn suffix_counting_detects_the_canonical_family() {
        for n in 1..=8usize {
            let tail = " (a | b)".repeat(n - 1);
            let sc = suffix_counting(&re(&format!("(a | b)* a{tail}"))).unwrap();
            assert_eq!(sc.window as usize, n);
            assert_eq!(sc.dfa_lower_bound, 1u64 << n);
            assert_eq!(sc.accepted.len(), n);
            assert_eq!(sc.rejected.len(), n);
            // The witnesses really are decided the way the bound claims.
            let family = re(&format!("(a | b)* a{tail}"));
            assert!(family.accepts(&sc.accepted), "n={n}");
            assert!(!family.accepts(&sc.rejected), "n={n}");
        }
    }

    #[test]
    fn suffix_counting_survives_wider_windows() {
        // Tail letters may range over more than {pivot, filler}.
        let sc = suffix_counting(&re("(a | b | c)* a (a | b | c)")).unwrap();
        assert_eq!(sc.dfa_lower_bound, 4);
        // But a tail slot missing the pivot or every filler breaks the
        // window argument, so detection must refuse.
        assert!(suffix_counting(&re("(a | b)* a b")).is_none());
        assert!(suffix_counting(&re("(a | b)* a c")).is_none());
    }

    #[test]
    fn suffix_counting_rejects_benign_shapes() {
        assert!(suffix_counting(&re("b* a")).is_none(), "star body too narrow");
        assert!(suffix_counting(&re("(a | b)+ a")).is_none(), "plus is not star");
        assert!(suffix_counting(&re("(a b)* a")).is_none(), "body not width 1");
        assert!(suffix_counting(&re("(a | b)* c")).is_none(), "pivot outside body");
        assert!(suffix_counting(&re("a (a | b)*")).is_none(), "star not leading");
        assert!(suffix_counting(&re("(a | b)*")).is_none(), "no pivot");
    }

    #[test]
    fn content_model_bounds_bracket_the_real_subset_construction() {
        for expr in ["a, b?", "(b* a)+", "(a | b)* a", "(a | b)* a (a | b) (a | b)", "ε", "∅"] {
            let spec = RSpec::Nre(re(expr));
            let cost = content_model_cost(&spec);
            let dfa = Dfa::from_nfa(&spec.to_nfa());
            let actual = dfa.num_states() as u64;
            assert!(
                cost.subset_states.contains(actual),
                "{expr}: actual {actual} outside {}",
                cost.subset_states
            );
            assert_eq!(
                cost.subset_steps,
                cost.subset_states.times(cost.metrics.alphabet.len() as u64),
            );
        }
    }

    #[test]
    fn deterministic_specs_get_linear_uppers() {
        let dfa = Dfa::from_nfa(&re("(b* a)+").to_nfa());
        let n = dfa.num_states() as u64;
        let cost = content_model_cost(&RSpec::dfa(dfa));
        assert!(cost.subset_states.upper <= n, "{} > {n}", cost.subset_states.upper);
    }

    #[test]
    fn design_cost_floors_on_the_target_rules() {
        let dtd = RDtd::parse(RFormalism::Nre, "s -> a, b?\na -> b*").unwrap();
        let problem = DesignProblem::new(dtd);
        let cost = design_cost(&problem);
        assert!(cost.states.lower >= 2, "two non-empty rules force ≥ 2 states each");
        assert!(cost.states.lower <= cost.states.upper);
        assert!(cost.steps.lower <= cost.steps.upper);
    }

    #[test]
    fn target_states_are_bracketed_by_label() {
        // A DTD target: one state per label plus the empty set; `a` and
        // `b` (no rule) admit the empty child word, `s` does not.
        let dtd = RDtd::parse(RFormalism::Nre, "s -> a, b?\na -> b*").unwrap();
        let cost = design_cost(&DesignProblem::new(dtd.clone()));
        assert_eq!(cost.states, Bounds::new(2, 4));
        // The same target, determinised, stays inside the bracket.
        let duta = dtd.to_nuta().determinize(dtd.alphabet());
        assert!(cost.states.contains(duta.num_states() as u64), "{}", duta.num_states());

        // An EDTD target with two specialisations of `a`: their label
        // contributes 2^2 − 1 non-empty sets.
        let mut e = REdtd::new(RFormalism::Nre, "s", "s");
        e.add_specialization("x", "a");
        e.add_specialization("y", "a");
        e.set_rule("s", RSpec::Nre(re("x y*")));
        e.set_rule("x", RSpec::Nre(re("b")));
        let cost = box_design_cost(&BoxDesignProblem::new(e));
        assert_eq!(cost.states.upper, 1 + 1 + 3 + 1, "s, a (x, y), b");
    }

    #[test]
    fn target_steps_are_bracketed_by_readable_letters() {
        // `s` (8 configurations) reads the labels `a` and `b`, `a` (4)
        // reads `b`, and `b` reads nothing: 8 × 2 + 4 × 1 + 0 steps at
        // most. `s` types some tree only on a child word of length ≥ 1.
        let dtd = RDtd::parse(RFormalism::Nre, "s -> a, b?\na -> b*").unwrap();
        let cost = design_cost(&DesignProblem::new(dtd.clone()));
        assert_eq!(cost.steps, Bounds::new(1, 20));
        let budget = Budget::unlimited().with_step_quota(u64::MAX / 2);
        dtd.to_nuta().determinize_with_budget(dtd.alphabet(), &budget).unwrap();
        assert!(cost.steps.contains(budget.steps_spent()), "{}", budget.steps_spent());
    }

    #[test]
    fn dominant_location_is_flagged() {
        let mut dtd = RDtd::parse(RFormalism::Nre, "s -> a?").unwrap();
        dtd.set_rule(
            "a",
            RSpec::Nre(re("(a | b)* a (a | b) (a | b) (a | b) (a | b) (a | b)")),
        );
        let cost = design_cost(&DesignProblem::new(dtd));
        let dom = cost.dominant.expect("the adversarial rule dominates");
        assert!(dom.location.contains("element `a`"), "{}", dom.location);
        assert!(dom.upper * 2 >= dom.total_upper);
    }

    #[test]
    fn budgets_trip_at_zero_headroom_and_admit_with_headroom() {
        let dtd = RDtd::parse(RFormalism::Nre, "s -> a, b?\na -> b*").unwrap();
        let problem = DesignProblem::new(dtd);
        let cost = design_cost(&problem);
        let trip = budget_from_cost(&cost, 0.0);
        let admit = budget_from_cost(&cost, DEFAULT_HEADROOM);
        // The trip budget's state quota sits strictly below the floor;
        // the admission quota sits above the upper bound.
        assert!(trip.grow_states(cost.states.lower).is_err());
        assert!(admit.grow_states(cost.states.upper).is_ok());
    }
}
