//! The design engine: typing verification, local verification and perfect
//! typing for **R-EDTD targets** (Section 7).
//!
//! Section 7 of the paper lifts every design problem to full R-EDTD targets
//! (unranked regular tree languages) by reducing the tree problems to string
//! problems whose constant parts are *boxes* `B(fn)` ([`BoxLang`],
//! Definition 21): with the target in the normal form of Lemma 4.10 —
//! operationally, its bottom-up **determinised** specialised automaton —
//! every kernel subtree evaluates to a unique subset of specialised names,
//! so a sequence of fixed kernel children contributes a box `Σ1 Σ2 … Σn` of
//! specialised names, and every docking point contributes a regular gap
//! language over the same specialised alphabet.
//!
//! [`BoxDesignProblem`] packages an [`REdtd`] target with one [`REdtd`]
//! schema per function and is the crate's only decision engine. A DTD is
//! the EDTD with one specialisation per label ([`RDtd::to_edtd`]), and
//! [`crate::DesignProblem`] is the DTD-typed view that embeds its schemas
//! that way and renders the verdicts back as words and DTDs. The three
//! decision procedures:
//!
//! * [`BoxDesignProblem::typecheck`] — the ground-truth tree-automaton
//!   route: extension automaton vs. determinised target, with a full
//!   counterexample document on failure;
//! * [`BoxDesignProblem::verify_local`] — the Section-7 string route: a
//!   single bottom-up pass over the kernel computing, per node, the set of
//!   achievable subset states from the words-with-box-gaps language of its
//!   children (Moore-machine image, [`Duta::outputs_over`]); sound **and**
//!   complete because the determinised run is unique, with the offending
//!   realizable child word reported as a box;
//! * [`BoxDesignProblem::perfect_schema`] — perfect typing: the admissible
//!   gap language is propagated top-down from the root to the docking
//!   parents by context residuals over the per-label Moore machines, and
//!   the resulting maximal schema is itself an [`REdtd`] (one specialised
//!   name per inhabited `(label, subset state)` pair) — which a DTD could
//!   not express in general. The candidate is confirmed by the typecheck
//!   oracle against the cached target automaton, in the refute-or-confirm
//!   style of implicit-hitting-set abduction.
//!
//! All target- and schema-derived artefacts (the determinised specialised
//! target, the per-function gap languages over subset states, the
//! determinised Moore-machine skeletons) are built lazily once per problem
//! in a [`BoxTargetCache`] behind an `OnceLock`; extension automata are
//! memoised per document in a small FIFO.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use dxml_automata::{AutomataError, BoxLang, Budget, Dfa, Nfa, RFormalism, RSpec, StateSet, Symbol};
use dxml_schema::{RDtd, REdtd, SchemaError};
use dxml_telemetry as telemetry;
use dxml_tree::uta::Duta;
use dxml_tree::{uta, NodeId, Nuta, XTree};

use crate::design::{CacheStats, Origin, TypingVerdict};
use crate::doc::DistributedDoc;
use crate::error::DesignError;

/// How many `(document, extension automaton)` pairs a problem memoises —
/// enough for the few documents a problem is typically checked against
/// back-to-back, small enough that stale documents do not accumulate.
pub(crate) const EXT_CACHE_CAP: usize = 4;

/// The symbol standing for the determinised target's subset state `i` in
/// the string languages of the reduction (`#` cannot occur in parsed
/// element names, so these never collide with real labels).
fn state_sym(i: usize) -> Symbol {
    Symbol::new(format!("#s{i}"))
}

/// The inverse of [`state_sym`].
fn letter_of(sym: &Symbol) -> Option<usize> {
    sym.as_str().strip_prefix("#s").and_then(|t| t.parse().ok())
}

/// An NFA accepting exactly the single-symbol words of a subset-state set
/// (one box slot of the reduction).
fn state_set_nfa(states: &StateSet) -> Nfa {
    Nfa::any_of(states.iter().map(state_sym))
}

/// The deterministic *skeleton* of a per-label Moore machine over
/// subset-state symbols: its transitions, no final states. The machine is
/// deterministic by construction, so this is already a [`Dfa`] — the
/// residual constructions consume it directly, with the per-call admissible
/// outputs marked final on a clone (see [`BoxTargetCache::machine_dfa`]).
fn machine_skeleton(duta: &Duta, label: &Symbol) -> Dfa {
    let machine = match duta.machine(label) {
        Some(m) => m,
        None => return Dfa::new(1, 0),
    };
    let mut dfa = Dfa::new(machine.num_configs(), machine.start());
    for (config, letter, next) in machine.transitions() {
        dfa.set_transition(config, state_sym(letter), next);
    }
    dfa
}

// ----------------------------------------------------------------------
// Cached artefacts
// ----------------------------------------------------------------------

/// A lazily filled memo of determinised residual inputs: the key identifies
/// the *machine* (a per-label Moore machine) and the value is its
/// determinisation, shared by every residual taken against it. Kept behind
/// a `Mutex` so the enclosing cache stays usable through `&self`.
#[derive(Debug, Default)]
struct ResidualDfaCache {
    memo: Mutex<BTreeMap<Symbol, Arc<Dfa>>>,
    /// Memo misses (machines actually determinised) and hits, kept as plain
    /// per-problem atomics so test assertions stay deterministic even when
    /// the process-global telemetry registry is shared with other work; the
    /// same events are mirrored into `cache.residual_dfa_builds`/`_hits`.
    builds: AtomicU64,
    hits: AtomicU64,
}

impl ResidualDfaCache {
    /// The determinisation of the machine identified by `key`, built by
    /// `make` on first use and shared afterwards. A `make` that *panicked*
    /// on an earlier call poisons the mutex; the memo is only ever mutated
    /// after a successful build, so the poison is benign and recovered from.
    fn get_or_build(&self, key: &Symbol, make: impl FnOnce() -> Dfa) -> Arc<Dfa> {
        let mut memo = self.memo.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(d) = memo.get(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            telemetry::count(telemetry::Metric::ResidualDfaHits, 1);
            return Arc::clone(d);
        }
        let d = Arc::new(make());
        memo.insert(*key, Arc::clone(&d));
        self.builds.fetch_add(1, Ordering::Relaxed);
        telemetry::count(telemetry::Metric::ResidualDfaBuilds, 1);
        d
    }

    /// Memo misses and hits so far, in that order.
    fn stats(&self) -> (u64, u64) {
        (self.builds.load(Ordering::Relaxed), self.hits.load(Ordering::Relaxed))
    }
}

impl Clone for ResidualDfaCache {
    fn clone(&self) -> Self {
        ResidualDfaCache {
            memo: Mutex::new(
                self.memo.lock().map(|memo| memo.clone()).unwrap_or_default(),
            ),
            builds: AtomicU64::new(self.builds.load(Ordering::Relaxed)),
            hits: AtomicU64::new(self.hits.load(Ordering::Relaxed)),
        }
    }
}

/// Per-function artefacts of the box reduction: which trees the function can
/// realize, expressed in the determinised target's subset states.
#[derive(Clone, Debug)]
struct FunArtifacts {
    /// The gap language: the exact image of the function's forest language
    /// under the tree → subset-state evaluation, as an NFA over
    /// [`state_sym`] symbols.
    forest_states: Nfa,
    /// Whether the function can return no document at all (empty schema
    /// language — the design is vacuous).
    forest_empty: bool,
    /// A realizable element label unknown to the target, if any (every
    /// extension is then invalid no matter the kernel).
    unknown: Option<Symbol>,
    /// A realizable tree the target types by no name at all, if any: the
    /// label of its root, whose children all stay typable, and a shortest
    /// child word (over [`state_sym`] symbols) that already leaves the root
    /// untypable. Every extension the tree lands in is invalid.
    violation: Option<(Symbol, Vec<Symbol>)>,
}

impl FunArtifacts {
    fn build(schema: &REdtd, duta: &Duta, budget: &Budget) -> Result<FunArtifacts, AutomataError> {
        let nuta = schema.to_nuta();
        let inhabited = nuta.inhabited_witnesses();
        let restrict =
            |nfa: Nfa| nfa.filter_symbols(|s| inhabited.contains_key(s)).trim();
        // Realizable specialised names: reachable from the start content
        // through content models restricted to inhabited names — after the
        // restriction every remaining transition lies on a realizable word,
        // so reachability is occurrence-exact (the analogue of
        // `RDtd::reduce`).
        let forest_restricted = restrict(schema.content(schema.start()).to_nfa());
        let mut realizable: BTreeSet<Symbol> = forest_restricted.alphabet().iter().cloned().collect();
        let mut contents: BTreeMap<Symbol, Nfa> = BTreeMap::new();
        // Discovery order, and the names whose content mentions each name.
        let mut discovered: Vec<Symbol> = realizable.iter().cloned().collect();
        let mut parents: BTreeMap<Symbol, Vec<Symbol>> = BTreeMap::new();
        let mut next_ix = 0;
        while let Some(&spec) = discovered.get(next_ix) {
            next_ix += 1;
            let content = restrict(schema.content(&spec).to_nfa());
            for next in content.alphabet().iter() {
                parents.entry(*next).or_default().push(spec);
                if realizable.insert(*next) {
                    discovered.push(*next);
                }
            }
            contents.insert(spec, content);
        }
        let forest_empty = forest_restricted.is_empty();
        let label_of = |spec: &Symbol| {
            schema.label_of(spec).cloned().unwrap_or(*spec)
        };
        let unknown = realizable
            .iter()
            .map(&label_of)
            .find(|label| !duta.labels().contains(label));

        // Least fixpoint: `d[ã]` = the subset states achievable by trees
        // derivable from ã. Exact by induction — independent subtrees make
        // independent state choices, so the image of a content word is the
        // full product of the per-name sets. The slot map (ã → its states
        // as symbols) is the same data seen by `expand_symbols`; it grows
        // monotonically with `d`, so it is maintained incrementally. A
        // worklist seeded deepest-first re-evaluates a name only when one
        // of its children grew, so an acyclic schema settles in about one
        // evaluation per name.
        let universe = duta.num_states();
        let mut d: BTreeMap<Symbol, StateSet> =
            realizable.iter().map(|s| (*s, StateSet::empty(universe))).collect();
        let mut slots: BTreeMap<Symbol, BTreeSet<Symbol>> =
            realizable.iter().map(|s| (*s, BTreeSet::new())).collect();
        if unknown.is_none() && !forest_empty {
            let mut queue: VecDeque<Symbol> = discovered.iter().rev().cloned().collect();
            let mut queued: BTreeSet<Symbol> = realizable.clone();
            while let Some(spec) = queue.pop_front() {
                queued.remove(&spec);
                budget.step()?;
                let word_lang = contents[&spec].expand_symbols(&slots);
                let outs =
                    duta.outputs_over_with_budget(&label_of(&spec), &word_lang, letter_of, budget)?;
                let entry = d.get_mut(&spec).expect("d covers every realizable name");
                let slot = slots.get_mut(&spec).expect("slots covers every realizable name");
                let mut grew = false;
                for &o in outs.keys() {
                    if entry.insert(o) {
                        slot.insert(state_sym(o));
                        grew = true;
                    }
                }
                if grew {
                    for parent in parents.get(&spec).into_iter().flatten() {
                        if queued.insert(*parent) {
                            queue.push_back(*parent);
                        }
                    }
                }
            }
        }

        // Some realizable tree is untypable: a smallest one has typable
        // children only, so search the names again with the empty subset
        // removed from every slot. Only invalid designs pay for this pass.
        let mut violation = None;
        if let Some(e) = duta.empty_subset().filter(|&e| d.values().any(|s| s.contains(e))) {
            let untypable = state_sym(e);
            let typable: BTreeMap<Symbol, BTreeSet<Symbol>> = slots
                .iter()
                .map(|(spec, slot)| (*spec, slot.iter().filter(|s| **s != untypable).cloned().collect()))
                .collect();
            for spec in &realizable {
                let word_lang = contents[spec].expand_symbols(&typable);
                let mut outs =
                    duta.outputs_over_with_budget(&label_of(spec), &word_lang, letter_of, budget)?;
                if let Some(witness) = outs.remove(&e) {
                    violation = Some((label_of(spec), witness));
                    break;
                }
            }
        }
        let forest_states = forest_restricted.expand_symbols(&slots).trim();
        Ok(FunArtifacts { forest_states, forest_empty, unknown, violation })
    }
}

/// Problem artefacts of a [`BoxDesignProblem`] that are expensive to build
/// and independent of the document being checked: the determinised
/// specialised target and the per-function gap languages. Computed lazily
/// on the first decision and shared by every subsequent
/// [`BoxDesignProblem::typecheck`], [`BoxDesignProblem::verify_local`] and
/// [`BoxDesignProblem::perfect_schema`] call; mutating the problem
/// invalidates it.
#[derive(Clone, Debug)]
pub struct BoxTargetCache {
    duta: Duta,
    accepting: StateSet,
    empty_subset: Option<usize>,
    funs: BTreeMap<Symbol, FunArtifacts>,
    /// Determinised per-label Moore-machine skeletons, keyed by label —
    /// the residual inputs of the spine walk, built at most once per label.
    machine_dfas: ResidualDfaCache,
}

impl BoxTargetCache {
    fn build(target: &REdtd, fun_schemas: &BTreeMap<Symbol, REdtd>) -> BoxTargetCache {
        BoxTargetCache::build_with(target, fun_schemas, &Budget::unlimited())
            .expect("the unlimited budget never trips")
    }

    /// Governed cache build: the target determinisation and every
    /// per-function `D`-fixpoint charge `budget`. A trip aborts the build
    /// and caches nothing. The one build site of the crate: a target whose
    /// every specialised name is its own label (a DTD) is counted under
    /// `design.*`, any other under `boxes.*`.
    fn build_with(
        target: &REdtd,
        fun_schemas: &BTreeMap<Symbol, REdtd>,
        budget: &Budget,
    ) -> Result<BoxTargetCache, AutomataError> {
        let dtd_target = target.specialized_names().iter().all(|n| target.label_of(n) == Some(n));
        let (span, metric) = if dtd_target {
            (telemetry::SpanKind::TargetCacheBuild, telemetry::Metric::TargetCacheBuilds)
        } else {
            (telemetry::SpanKind::BoxTargetCacheBuild, telemetry::Metric::BoxTargetCacheBuilds)
        };
        let _span = telemetry::span(span);
        telemetry::count(metric, 1);
        let duta = target.to_nuta().determinize_with_budget(&target.labels(), budget)?;
        let accepting = StateSet::from_iter(duta.num_states(), duta.accepting_states());
        let empty_subset = duta.empty_subset();
        let funs = fun_schemas
            .iter()
            .map(|(f, schema)| FunArtifacts::build(schema, &duta, budget).map(|a| (*f, a)))
            .collect::<Result<_, _>>()?;
        Ok(BoxTargetCache {
            duta,
            accepting,
            empty_subset,
            funs,
            machine_dfas: ResidualDfaCache::default(),
        })
    }

    /// The determinised skeleton of `label`'s Moore machine (transitions
    /// over subset-state symbols, no finals), memoised per problem. Callers
    /// clone it and mark their admissible outputs final — the clone is
    /// cheap next to the subset construction it replaces.
    fn machine_dfa(&self, label: &Symbol) -> Arc<Dfa> {
        self.machine_dfas.get_or_build(label, || machine_skeleton(&self.duta, label))
    }

    /// The language of child words whose Moore output under `label` lies in
    /// `outputs`, as a DFA over subset-state symbols: the memoised skeleton
    /// with the admissible configurations marked final.
    fn admissible_children_dfa(&self, label: &Symbol, outputs: &StateSet) -> Dfa {
        let mut dfa = (*self.machine_dfa(label)).clone();
        if let Some(machine) = self.duta.machine(label) {
            for config in 0..machine.num_configs() {
                if outputs.contains(machine.output(config)) {
                    dfa.set_final(config);
                }
            }
        }
        dfa
    }

    /// The child-word language of kernel `children` over subset-state
    /// symbols: a docking point contributes its function's gap language,
    /// any other child its `achievable` subset states.
    fn child_word(&self, doc: &DistributedDoc, children: &[NodeId], achievable: &[StateSet]) -> Nfa {
        children.iter().fold(Nfa::epsilon(), |word, &child| {
            let label = doc.kernel().label(child);
            word.concat(&match self.funs.get(label) {
                Some(fa) if doc.is_function(label) => fa.forest_states.clone(),
                _ => state_set_nfa(&achievable[child]),
            })
        })
    }

    /// For a *local* target — every label has at most one non-empty
    /// inhabited subset state — the unique such state of each label that
    /// has one; `None` for any other target. Every DTD target is local:
    /// a DTD node is typed by its own label or not at all.
    fn local_states(&self) -> Option<BTreeMap<Symbol, usize>> {
        let mut out = BTreeMap::new();
        for (label, states) in self.duta.inhabited_label_states() {
            let mut typed = states.into_iter().filter(|&i| Some(i) != self.empty_subset);
            if let Some(i) = typed.next() {
                if typed.next().is_some() {
                    return None;
                }
                out.insert(label, i);
            }
        }
        Some(out)
    }

    /// Whether the target is *local*: every label has at most one non-empty
    /// inhabited subset state. Perfect-schema synthesis handles docking
    /// points under several distinct parents exactly on local targets.
    pub fn is_local(&self) -> bool {
        self.local_states().is_some()
    }

    /// Residual-memo misses and hits so far (backs
    /// [`BoxDesignProblem::cache_stats`]).
    fn residual_stats(&self) -> (u64, u64) {
        self.machine_dfas.stats()
    }

    /// The target's specialised tree automaton, determinised (bottom-up)
    /// over the target's label universe. Its subset states are the slots of
    /// the kernel boxes.
    pub fn duta(&self) -> &Duta {
        &self.duta
    }

    /// The gap language of a declared function: the exact image of its
    /// forest language under tree → subset-state evaluation, over
    /// `#s<i>` state symbols. Exposed so tests and benches can pin that
    /// repeated decisions reuse it.
    pub fn forest_states(&self, function: &Symbol) -> Option<&Nfa> {
        self.funs.get(function).map(|fa| &fa.forest_states)
    }
}
// ----------------------------------------------------------------------
// Verdicts
// ----------------------------------------------------------------------

/// A violation found by the box (string-level) typing check of an EDTD
/// target.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BoxViolation {
    /// An element name can occur in some extension but is not part of the
    /// target's label universe.
    UnknownElement {
        /// The undeclared element name.
        element: Symbol,
        /// Where the element comes from.
        origin: Origin,
    },
    /// A realizable child word of `element` breaks the typing: rendered as
    /// a box whose slots are the exact sets of specialised types the
    /// children can take.
    Content {
        /// The element whose children break the typing.
        element: Symbol,
        /// A shortest realizable child word, as a box of specialised-name
        /// sets.
        counterexample: BoxLang,
        /// The specialised types the element still admits under that child
        /// word — empty when no typing exists at all; non-empty (at the
        /// root) when types exist but the start name is not among them.
        admitted: Vec<Symbol>,
        /// Where the bad word can be realised.
        origin: Origin,
    },
}

impl fmt::Display for BoxViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoxViolation::UnknownElement { element, origin } => {
                write!(f, "element `{element}` ({origin}) is not declared in the target schema")
            }
            BoxViolation::Content { element, counterexample, admitted, origin } => {
                if admitted.is_empty() {
                    write!(
                        f,
                        "children ⟨{counterexample}⟩ of `{element}` ({origin}) are realizable but \
                         admit no typing under the target"
                    )
                } else {
                    let names: Vec<&str> = admitted.iter().map(Symbol::as_str).collect();
                    write!(
                        f,
                        "children ⟨{counterexample}⟩ of `{element}` ({origin}) type the node as \
                         [{}], which does not include the start name",
                        names.join(", ")
                    )
                }
            }
        }
    }
}

/// The outcome of the box typing check.
#[derive(Clone, Debug)]
pub enum BoxVerdict {
    /// All achievable subset states are admissible; every extension
    /// validates against the EDTD target.
    Valid,
    /// A realizable violation exists.
    Invalid(BoxViolation),
}

impl BoxVerdict {
    /// Whether the verdict is [`BoxVerdict::Valid`].
    pub fn is_valid(&self) -> bool {
        matches!(self, BoxVerdict::Valid)
    }
}

// ----------------------------------------------------------------------
// The problem
// ----------------------------------------------------------------------

/// A design problem: the target schema `τ` plus one R-EDTD schema per
/// function symbol. DTD problems embed through [`RDtd::to_edtd`] /
/// [`From<&DesignProblem>`](BoxDesignProblem::from); [`crate::DesignProblem`]
/// is the DTD-typed view over this engine.
///
/// The problem-derived artefacts ([`BoxTargetCache`]) are built lazily on
/// the first decision and reused by every later one; the extension
/// automaton is additionally memoised per document (a FIFO of the last few
/// documents). Mutating the problem invalidates both.
pub struct BoxDesignProblem {
    doc_schema: REdtd,
    fun_schemas: BTreeMap<Symbol, REdtd>,
    target: OnceLock<BoxTargetCache>,
    /// FIFO memo of extension automata, keyed by the document.
    ext_cache: Mutex<Vec<(DistributedDoc, Arc<Nuta>)>>,
    /// Extension-memo hits/misses for [`BoxDesignProblem::cache_stats`]
    /// (mirrored into the global `design.ext_memo_*` telemetry counters).
    ext_hits: AtomicU64,
    ext_misses: AtomicU64,
}

impl Clone for BoxDesignProblem {
    fn clone(&self) -> Self {
        BoxDesignProblem {
            doc_schema: self.doc_schema.clone(),
            fun_schemas: self.fun_schemas.clone(),
            target: self.target.clone(),
            ext_cache: Mutex::new(
                self.ext_cache.lock().map(|entries| entries.clone()).unwrap_or_default(),
            ),
            ext_hits: AtomicU64::new(self.ext_hits.load(Ordering::Relaxed)),
            ext_misses: AtomicU64::new(self.ext_misses.load(Ordering::Relaxed)),
        }
    }
}

impl fmt::Debug for BoxDesignProblem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BoxDesignProblem")
            .field("doc_schema", &self.doc_schema)
            .field("fun_schemas", &self.fun_schemas)
            .field("target_cache_ready", &self.target_cache_ready())
            .finish()
    }
}

impl From<&crate::DesignProblem> for BoxDesignProblem {
    /// Embeds a DTD design problem as a box design problem with trivial
    /// specialisations (every element name is its own specialisation).
    fn from(problem: &crate::DesignProblem) -> BoxDesignProblem {
        problem.engine.clone()
    }
}

impl BoxDesignProblem {
    /// Creates a box design problem with no function schemas.
    pub fn new(doc_schema: REdtd) -> BoxDesignProblem {
        BoxDesignProblem {
            doc_schema,
            fun_schemas: BTreeMap::new(),
            target: OnceLock::new(),
            ext_cache: Mutex::new(Vec::new()),
            ext_hits: AtomicU64::new(0),
            ext_misses: AtomicU64::new(0),
        }
    }

    /// Declares the R-EDTD schema of a function (builder style).
    pub fn with_function(mut self, function: impl Into<Symbol>, schema: REdtd) -> BoxDesignProblem {
        self.add_function(function, schema);
        self
    }

    /// Declares a DTD schema for a function, embedded as a trivial EDTD
    /// (builder style).
    pub fn with_function_dtd(self, function: impl Into<Symbol>, schema: &RDtd) -> BoxDesignProblem {
        self.with_function(function, schema.to_edtd())
    }

    /// Declares the R-EDTD schema of a function, invalidating the cached
    /// problem artefacts.
    pub fn add_function(&mut self, function: impl Into<Symbol>, schema: REdtd) {
        self.fun_schemas.insert(function.into(), schema);
        self.invalidate_caches();
    }

    /// The target document schema `τ`.
    pub fn doc_schema(&self) -> &REdtd {
        &self.doc_schema
    }

    /// Replaces the target schema, invalidating the cached determinised
    /// target.
    pub fn set_doc_schema(&mut self, doc_schema: REdtd) {
        self.doc_schema = doc_schema;
        self.invalidate_caches();
    }

    fn invalidate_caches(&mut self) {
        self.target = OnceLock::new();
        if let Ok(entries) = self.ext_cache.get_mut() {
            entries.clear();
        }
    }

    /// The declared function schemas.
    pub fn fun_schemas(&self) -> &BTreeMap<Symbol, REdtd> {
        &self.fun_schemas
    }

    /// The schema of a function, if declared.
    pub fn fun_schema(&self, function: &Symbol) -> Option<&REdtd> {
        self.fun_schemas.get(function)
    }

    /// Every content model of the problem — the target schema's rules
    /// followed by each function schema's rules — paired with a stable
    /// human-readable location in the style of the `dxml-analysis`
    /// diagnostics (`target schema: specialisation `x``, `schema of
    /// function `f`: specialisation `y``). The budget-synthesis entry
    /// point of the box route: `dxml-analysis::cost` brackets the
    /// determinisation cost of exactly these models to recommend
    /// step/state quotas for the Section-7 constructions.
    pub fn content_models(&self) -> Vec<(String, RSpec)> {
        let mut out = Vec::new();
        for (name, spec) in self.doc_schema.rules() {
            out.push((format!("target schema: specialisation `{name}`"), spec.clone()));
        }
        for (f, schema) in &self.fun_schemas {
            for (name, spec) in schema.rules() {
                out.push((format!("schema of function `{f}`: specialisation `{name}`"), spec.clone()));
            }
        }
        out
    }

    /// The lazily built problem artefacts (determinised specialised target,
    /// per-function gap languages). The first call pays for the
    /// determinisation; later calls are free.
    pub fn target_cache(&self) -> &BoxTargetCache {
        self.target.get_or_init(|| BoxTargetCache::build(&self.doc_schema, &self.fun_schemas))
    }

    /// Governed variant of [`BoxDesignProblem::target_cache`]: the cold
    /// build (determinisation plus per-function fixpoints) charges `budget`,
    /// and a trip propagates *without* initialising the cache cell — the
    /// cell is only set from a fully built cache, so a tripped build leaves
    /// the problem exactly as it was and a retry with a larger budget
    /// rebuilds cleanly.
    pub fn target_cache_with_budget(&self, budget: &Budget) -> Result<&BoxTargetCache, DesignError> {
        if let Some(cache) = self.target.get() {
            return Ok(cache);
        }
        let built = BoxTargetCache::build_with(&self.doc_schema, &self.fun_schemas, budget)?;
        Ok(self.target.get_or_init(|| built))
    }

    /// Whether the cache has been built (used by tests and benches to pin
    /// that repeated decisions do not re-determinise).
    pub fn target_cache_ready(&self) -> bool {
        self.target.get().is_some()
    }

    /// Point-in-time statistics of this problem's caches: target-cache
    /// readiness, residual-DFA memo builds/hits and extension-memo
    /// hits/misses. Exact for this problem regardless of other work in the
    /// process; the same events also feed the global [`dxml_telemetry`]
    /// counters.
    pub fn cache_stats(&self) -> CacheStats {
        let (residual_dfa_builds, residual_dfa_hits) = self
            .target
            .get()
            .map_or((0, 0), BoxTargetCache::residual_stats);
        CacheStats {
            target_cache_built: self.target_cache_ready(),
            residual_dfa_builds,
            residual_dfa_hits,
            ext_memo_hits: self.ext_hits.load(Ordering::Relaxed),
            ext_memo_misses: self.ext_misses.load(Ordering::Relaxed),
        }
    }

    fn require_schemas(&self, doc: &DistributedDoc) -> Result<(), DesignError> {
        for f in doc.called_functions() {
            if !self.fun_schemas.contains_key(&f) {
                return Err(DesignError::MissingFunctionSchema { function: f });
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Kernel boxes
    // ------------------------------------------------------------------

    /// The kernel box `B` of a node (Definition 21): one slot per child,
    /// each the exact set of specialised names the child's subtree can be
    /// typed as under the target. Defined for nodes whose children carry no
    /// docking point anywhere below them (and that are not docking points
    /// themselves); `None` otherwise. A child using a label unknown to the
    /// target contributes an empty slot (the box language is then empty).
    pub fn kernel_box(&self, doc: &DistributedDoc, node: NodeId) -> Option<BoxLang> {
        let kernel = doc.kernel();
        if doc.is_function(kernel.label(node)) {
            return None;
        }
        let cache = self.target_cache();
        let mut b = BoxLang::epsilon();
        for &child in kernel.children(node) {
            let sub = kernel.subtree(child);
            if sub.document_order().iter().any(|&n| doc.is_function(sub.label(n))) {
                return None;
            }
            match cache.duta.run(&sub) {
                Some(states) => b.push_slot(cache.duta.subset(states[sub.root()]).iter().cloned()),
                None => b.push_slot(Vec::<Symbol>::new()),
            }
        }
        Some(b)
    }

    // ------------------------------------------------------------------
    // Typing verification — tree route
    // ------------------------------------------------------------------

    /// A [`Nuta`] recognising exactly the extensions of `doc`: the kernel
    /// with every docking point `f` replaced by a forest of trees valid
    /// under `τf`'s specialised rules whose root word matches the content
    /// model of `τf`'s start name.
    ///
    /// States are `#k<i>` for kernel node `i` and `<f>$<ã>` for specialised
    /// name `ã` of function `f`'s schema (the `$`/`#` mangling cannot
    /// collide with parsed element names). Each call site expands
    /// independently, so the automaton over-approximates snapshot
    /// materialisation when the same function occurs twice — matching the
    /// paper, where every docking point is its own call.
    ///
    /// The automaton is memoised per document (FIFO of the last few
    /// documents): back-to-back decisions on the same document hand back
    /// the very same `Arc` without rebuilding. Mutating the problem clears
    /// the memo.
    pub fn extension_nuta(&self, doc: &DistributedDoc) -> Result<Arc<Nuta>, DesignError> {
        self.require_schemas(doc)?;
        if let Ok(entries) = self.ext_cache.lock() {
            if let Some((_, ext)) = entries.iter().find(|(d, _)| d == doc) {
                self.ext_hits.fetch_add(1, Ordering::Relaxed);
                telemetry::count(telemetry::Metric::ExtMemoHits, 1);
                return Ok(Arc::clone(ext));
            }
        }
        self.ext_misses.fetch_add(1, Ordering::Relaxed);
        telemetry::count(telemetry::Metric::ExtMemoMisses, 1);
        let ext = Arc::new(self.build_extension_nuta(doc, None));
        if let Ok(mut entries) = self.ext_cache.lock() {
            if entries.len() >= EXT_CACHE_CAP {
                entries.remove(0);
            }
            entries.push((doc.clone(), Arc::clone(&ext)));
        }
        Ok(ext)
    }

    /// Builds the extension automaton of `doc` (no memoisation), with the
    /// schema of one function optionally `replaced` — the synthesis oracle
    /// checks a candidate schema this way without cloning the problem.
    /// Callers have checked that every called function has a schema.
    fn build_extension_nuta(&self, doc: &DistributedDoc, replaced: Option<(&Symbol, &REdtd)>) -> Nuta {
        let kernel = doc.kernel();
        let mut a = Nuta::new();

        let mut forest_nfas: BTreeMap<Symbol, Nfa> = BTreeMap::new();
        for f in doc.called_functions() {
            let schema = match replaced {
                Some((g, schema)) if *g == f => schema,
                _ => &self.fun_schemas[&f],
            };
            let prefix = |name: &Symbol| Symbol::new(format!("{f}${name}"));
            for spec in schema.specialized_names().iter() {
                let content = schema.content(spec).to_nfa().map_symbols(prefix);
                let label = schema.label_of(spec).cloned().unwrap_or(*spec);
                a.set_rule(prefix(spec), label, content);
            }
            let forest = schema.content(schema.start()).to_nfa().map_symbols(prefix);
            forest_nfas.insert(f, forest);
        }

        let state_of = |node: usize| Symbol::new(format!("#k{node}"));
        for node in kernel.document_order() {
            if doc.is_function(kernel.label(node)) {
                continue;
            }
            let mut content = Nfa::epsilon();
            for &child in kernel.children(node) {
                let label = kernel.label(child);
                let piece = match forest_nfas.get(label) {
                    Some(forest) => forest.clone(),
                    None => Nfa::symbol(state_of(child)),
                };
                content = content.concat(&piece);
            }
            a.set_rule(state_of(node), *kernel.label(node), content);
        }
        a.set_final(state_of(kernel.root()));
        a
    }

    /// Decides whether every extension of `doc` validates against the EDTD
    /// target, via tree-language inclusion of the extension automaton in
    /// the determinised specialised target. On failure the verdict carries
    /// a full counterexample document and the typing failure it triggers
    /// ([`REdtd::validate`]).
    ///
    /// The target automaton is determinised once per problem (see
    /// [`BoxDesignProblem::target_cache`]); repeated calls only pay for the
    /// extension side.
    pub fn typecheck(&self, doc: &DistributedDoc) -> Result<TypingVerdict, DesignError> {
        self.typecheck_with_budget(doc, &Budget::unlimited())
    }

    /// Governed variant of [`BoxDesignProblem::typecheck`]: the cache build,
    /// the extension determinisation and the product walk all charge
    /// `budget`, and a trip surfaces as [`DesignError::BudgetExceeded`]
    /// without poisoning the problem's caches.
    pub fn typecheck_with_budget(
        &self,
        doc: &DistributedDoc,
        budget: &Budget,
    ) -> Result<TypingVerdict, DesignError> {
        self.typecheck_by(doc, budget, |tree| self.doc_schema.validate(tree))
    }

    /// [`BoxDesignProblem::typecheck_with_budget`] with the counterexample
    /// explained by `validate` — the target's own validator, in whichever
    /// schema language the caller states the target.
    pub(crate) fn typecheck_by(
        &self,
        doc: &DistributedDoc,
        budget: &Budget,
        validate: impl Fn(&XTree) -> Result<(), SchemaError>,
    ) -> Result<TypingVerdict, DesignError> {
        let _span = telemetry::span(telemetry::SpanKind::Typecheck);
        budget.check_interrupts().map_err(DesignError::from)?;
        let ext = self.extension_nuta(doc)?;
        let cache = self.target_cache_with_budget(budget)?;
        Self::included(&ext, cache, budget, validate)
    }

    /// Tree-language inclusion of an extension automaton in the cached
    /// target, with the counterexample re-validated by `validate`.
    fn included(
        ext: &Nuta,
        cache: &BoxTargetCache,
        budget: &Budget,
        validate: impl Fn(&XTree) -> Result<(), SchemaError>,
    ) -> Result<TypingVerdict, DesignError> {
        match uta::included_in_duta_with_budget(ext, &cache.duta, budget)
            .map_err(DesignError::from)?
        {
            Ok(()) => Ok(TypingVerdict::Valid),
            Err(counterexample) => match validate(&counterexample) {
                Err(violation) => Ok(TypingVerdict::Invalid { counterexample, violation }),
                Ok(()) => Err(DesignError::InvariantViolation {
                    detail: format!(
                        "tree-inclusion counterexample `{counterexample}` unexpectedly \
                         validates against the target"
                    ),
                }),
            },
        }
    }

    // ------------------------------------------------------------------
    // Typing verification — box/string route
    // ------------------------------------------------------------------

    /// Renders a witness word over subset-state symbols as a box of
    /// specialised-name sets.
    fn box_of(&self, cache: &BoxTargetCache, witness: &[Symbol]) -> BoxLang {
        let mut b = BoxLang::epsilon();
        for sym in witness {
            match letter_of(sym) {
                Some(i) => b.push_slot(cache.duta.subset(i).iter().cloned()),
                None => b.push_slot(Vec::<Symbol>::new()),
            }
        }
        b
    }

    /// The Section-7 string route: typing verification without tree
    /// automata on the extension side. One bottom-up pass over the kernel
    /// computes, per node, the **exact** set of subset states its subtree
    /// can evaluate to — fixed children contribute box slots, docking
    /// points their gap languages — via the Moore-machine image
    /// [`Duta::outputs_over`]. Sound and complete for every R-EDTD target
    /// because the determinised run is unique; agrees with
    /// [`BoxDesignProblem::typecheck`] on every input (asserted by the
    /// tests).
    ///
    /// Checks run in this order: a called function with an empty schema
    /// language makes the verdict vacuously valid; a function realizing an
    /// element unknown to the target, or a tree the target cannot type,
    /// is reported with [`Origin::Function`]; then the kernel pass reports
    /// the first violating node bottom-up, so of several kernel violations
    /// the deepest is the one reported.
    pub fn verify_local(&self, doc: &DistributedDoc) -> Result<BoxVerdict, DesignError> {
        self.verify_local_with_budget(doc, &Budget::unlimited())
    }

    /// Governed variant of [`BoxDesignProblem::verify_local`]: the cache
    /// build and every per-node Moore-machine image charge `budget`, and a
    /// trip surfaces as [`DesignError::BudgetExceeded`].
    pub fn verify_local_with_budget(
        &self,
        doc: &DistributedDoc,
        budget: &Budget,
    ) -> Result<BoxVerdict, DesignError> {
        let _span = telemetry::span(telemetry::SpanKind::VerifyLocal);
        budget.check_interrupts().map_err(DesignError::from)?;
        self.require_schemas(doc)?;
        let cache = self.target_cache_with_budget(budget)?;
        let kernel = doc.kernel();
        let called = doc.called_functions();

        for f in &called {
            if cache.funs[f].forest_empty {
                return Ok(BoxVerdict::Valid);
            }
        }
        for f in &called {
            let origin = Origin::Function { function: *f };
            if let Some(label) = &cache.funs[f].unknown {
                return Ok(BoxVerdict::Invalid(BoxViolation::UnknownElement {
                    element: *label,
                    origin,
                }));
            }
            if let Some((label, witness)) = &cache.funs[f].violation {
                return Ok(BoxVerdict::Invalid(BoxViolation::Content {
                    element: *label,
                    counterexample: self.box_of(cache, witness),
                    admitted: Vec::new(),
                    origin,
                }));
            }
        }

        let universe = cache.duta.num_states();
        let mut achievable: Vec<StateSet> = vec![StateSet::empty(universe); kernel.size()];
        for node in kernel.bottom_up_order() {
            let label = kernel.label(node);
            if doc.is_function(label) {
                continue;
            }
            let origin = || Origin::Kernel { path: kernel.anc_str(node) };
            if !cache.duta.labels().contains(label) {
                return Ok(BoxVerdict::Invalid(BoxViolation::UnknownElement {
                    element: *label,
                    origin: origin(),
                }));
            }
            let word = cache.child_word(doc, kernel.children(node), &achievable);
            let outs = cache
                .duta
                .outputs_over_with_budget(label, &word, letter_of, budget)
                .map_err(DesignError::from)?;
            // A realizable child word with no typing at all is already a
            // violation — the surrounding kernel always completes it to a
            // full extension (all gap languages are non-empty), and the
            // empty subset propagates to a non-accepting root.
            if let Some(ei) = cache.empty_subset {
                if let Some(witness) = outs.get(&ei) {
                    return Ok(BoxVerdict::Invalid(BoxViolation::Content {
                        element: *label,
                        counterexample: self.box_of(cache, witness),
                        admitted: Vec::new(),
                        origin: origin(),
                    }));
                }
            }
            if node == kernel.root() {
                for (&state, witness) in &outs {
                    if !cache.accepting.contains(state) {
                        return Ok(BoxVerdict::Invalid(BoxViolation::Content {
                            element: *label,
                            counterexample: self.box_of(cache, witness),
                            admitted: cache.duta.subset(state).iter().cloned().collect(),
                            origin: origin(),
                        }));
                    }
                }
            }
            achievable[node] = StateSet::from_iter(universe, outs.keys().copied());
        }
        Ok(BoxVerdict::Valid)
    }

    // ------------------------------------------------------------------
    // Perfect typing
    // ------------------------------------------------------------------

    /// Computes the **perfect schema** of `function`: the most permissive
    /// R-EDTD schema under which the design still typechecks, the other
    /// functions keeping their declared schemas (Sections 6 and 7).
    ///
    /// The admissible gap language is computed exactly by walking the
    /// *spine* — the kernel nodes on a path from the root to a docking
    /// parent — top-down. With a single docking parent, the safe subset
    /// states of each spine level are the universal context residual of
    /// the admissible-children language (the per-label Moore machine with
    /// every admissible output marked final) by the realizable sibling
    /// languages, restricted to single states. With several docking
    /// parents the target must be *local* ([`BoxTargetCache::is_local`],
    /// true for every DTD): every spine node must then evaluate to its
    /// label's unique non-empty state, a spine node without a docking
    /// point of its own must admit its fixed child word, and the gap
    /// language is the intersection of the docking parents' residuals. At a
    /// docking parent the residual is universal for one docking point and
    /// uniform ([`Nfa::uniform_context_residual`]) for several.
    ///
    /// The schema materialises the gap language with one specialised name
    /// per inhabited `(label, subset state)` pair. The candidate is an
    /// upper bound on every schema the design typechecks with, so it is the
    /// maximum iff the typecheck oracle — run against the cached target
    /// automaton — confirms it.
    ///
    /// # Errors
    ///
    /// * [`DesignError::FunctionNotCalled`] — `function` labels no docking
    ///   point of `doc`.
    /// * [`DesignError::MissingFunctionSchema`] — another called function
    ///   has no declared schema.
    /// * [`DesignError::NoMaximalSchema`] — another function's language is
    ///   empty (the design is vacuous), or several docking points under the
    ///   same parent interact without a unique maximum.
    /// * [`DesignError::SynthesisUnsupported`] — the docking points of
    ///   `function` sit under several distinct parents of a target that is
    ///   not local.
    /// * [`DesignError::InvariantViolation`] — the oracle refuted a
    ///   candidate the construction proves maximal; a bug in this library,
    ///   never a property of the input.
    pub fn perfect_schema(
        &self,
        doc: &DistributedDoc,
        function: impl Into<Symbol>,
    ) -> Result<REdtd, DesignError> {
        self.perfect_schema_with_budget(doc, function, &Budget::unlimited())
    }

    /// Governed variant of [`BoxDesignProblem::perfect_schema`]: the cache
    /// build, the achievable-set pass, the spine residuals and the
    /// confirming typecheck oracle all charge `budget`, and a trip surfaces
    /// as [`DesignError::BudgetExceeded`] with the problem's caches left
    /// unpoisoned (a retry with a larger budget agrees with the ungoverned
    /// result).
    ///
    /// # Errors
    ///
    /// Everything [`BoxDesignProblem::perfect_schema`] reports, plus
    /// [`DesignError::BudgetExceeded`].
    ///
    /// # Panics
    ///
    /// Only on a broken internal invariant (a single-parent spine node
    /// without its spine child).
    pub fn perfect_schema_with_budget(
        &self,
        doc: &DistributedDoc,
        function: impl Into<Symbol>,
        budget: &Budget,
    ) -> Result<REdtd, DesignError> {
        let _span = telemetry::span(telemetry::SpanKind::PerfectSchema);
        budget.check_interrupts().map_err(DesignError::from)?;
        let f = function.into();
        let kernel = doc.kernel();

        let mut docking: BTreeMap<NodeId, Vec<usize>> = BTreeMap::new();
        for parent in kernel.document_order() {
            if doc.is_function(kernel.label(parent)) {
                continue;
            }
            for (position, &child) in kernel.children(parent).iter().enumerate() {
                if kernel.label(child) == &f {
                    docking.entry(parent).or_default().push(position);
                }
            }
        }
        if !doc.is_function(&f) || docking.is_empty() {
            return Err(DesignError::FunctionNotCalled { function: f });
        }
        let cache = self.target_cache_with_budget(budget)?;
        // Several docking parents: every spine node is pinned to its
        // label's unique typing, which only local targets guarantee.
        let local = if docking.len() > 1 {
            Some(cache.local_states().ok_or_else(|| DesignError::SynthesisUnsupported {
                function: f,
                detail: "its docking points sit under several distinct parents of a target \
                         whose labels have several typings"
                    .into(),
            })?)
        } else {
            None
        };
        let mut forced_empty = false;
        for g in doc.called_functions() {
            if g == f {
                continue;
            }
            let art = cache
                .funs
                .get(&g)
                .ok_or(DesignError::MissingFunctionSchema { function: g })?;
            if art.forest_empty {
                return Err(DesignError::NoMaximalSchema { function: f });
            }
            if art.unknown.is_some() || art.violation.is_some() {
                // A sibling realizes trees the target rejects: every
                // non-vacuous design fails, independent of `f`.
                forced_empty = true;
            }
        }

        // The spine: every kernel node on a path from the root to a
        // docking parent, top-down. Everything off the spine is free of
        // `f` and gets an exact achievable set.
        let mut spine_set: BTreeSet<NodeId> = BTreeSet::new();
        for &parent in docking.keys() {
            let mut cursor = Some(parent);
            while let Some(node) = cursor.filter(|&n| spine_set.insert(n)) {
                cursor = kernel.parent(node);
            }
        }
        let spine: Vec<NodeId> =
            kernel.document_order().into_iter().filter(|n| spine_set.contains(n)).collect();

        // Bottom-up: every off-spine node gets its exact achievable set; on
        // a local target every spine node is pinned to its label's unique
        // typing (accepting, at the root).
        let universe = cache.duta.num_states();
        let mut achievable: Vec<StateSet> = vec![StateSet::empty(universe); kernel.size()];
        for node in kernel.bottom_up_order() {
            let label = kernel.label(node);
            if doc.is_function(label) {
                continue;
            }
            if !cache.duta.labels().contains(label) {
                forced_empty = true;
            } else if !spine_set.contains(&node) {
                let word = cache.child_word(doc, kernel.children(node), &achievable);
                let outs = cache
                    .duta
                    .outputs_over_with_budget(label, &word, letter_of, budget)
                    .map_err(DesignError::from)?;
                achievable[node] = StateSet::from_iter(universe, outs.keys().copied());
            } else if let Some(local) = &local {
                let typing = local
                    .get(label)
                    .copied()
                    .filter(|&i| node != kernel.root() || cache.accepting.contains(i));
                achievable[node] = StateSet::from_iter(universe, typing);
            }
        }
        let segment = |range: &[NodeId]| cache.child_word(doc, range, &achievable);

        // Top-down: the admissible outputs per spine level, then the
        // residual at every docking parent.
        let mut safe: StateSet = cache.accepting.clone();
        let mut gap: Option<Nfa> = None;
        for &x in &spine {
            if forced_empty {
                break;
            }
            let label = kernel.label(x);
            if local.is_some() {
                safe = achievable[x].clone();
            }
            if safe.is_empty() {
                forced_empty = true;
                break;
            }
            // The skeleton DFA comes from the problem memo; only the finals
            // (the admissible outputs at this level) differ per call.
            let admissible_children = cache.admissible_children_dfa(label, &safe);
            let children = kernel.children(x);
            if let Some(positions) = docking.get(&x) {
                let mut contexts: Vec<Nfa> = Vec::with_capacity(positions.len() + 1);
                let mut prev = 0usize;
                for &position in positions {
                    contexts.push(segment(&children[prev..position]));
                    prev = position + 1;
                }
                contexts.push(segment(&children[prev..]));
                let residual = if positions.len() == 1 {
                    admissible_children.universal_context_residual_with_budget(
                        &contexts[0],
                        &contexts[1],
                        budget,
                    )
                } else {
                    admissible_children.uniform_context_residual_with_budget(&contexts, budget)
                }
                .map_err(DesignError::from)?;
                gap = Some(match gap {
                    Some(g) => g.intersect(&residual),
                    None => residual,
                });
            } else if local.is_some() {
                // No docking point of its own: with every spine child
                // pinned, the child word is fixed and must be admissible.
                let outs = cache
                    .duta
                    .outputs_over_with_budget(label, &segment(children), letter_of, budget)
                    .map_err(DesignError::from)?;
                if outs.keys().any(|&o| !safe.contains(o)) {
                    forced_empty = true;
                }
            } else {
                // The single spine child: its safe states are the single
                // letters the universal residual of its context admits.
                let position = children
                    .iter()
                    .position(|c| spine_set.contains(c))
                    .expect("a spine node above the docking parent has a spine child");
                let prefix = segment(&children[..position]);
                let suffix = segment(&children[position + 1..]);
                let residual = admissible_children
                    .universal_context_residual_with_budget(&prefix, &suffix, budget)
                    .map_err(DesignError::from)?;
                safe = StateSet::from_iter(
                    universe,
                    (0..universe).filter(|&j| residual.accepts(&[state_sym(j)])),
                );
            }
        }
        let gap = match gap {
            Some(gap) if !forced_empty => gap,
            _ => Nfa::empty(),
        };

        let schema = self.build_perfect(&gap, cache);
        let candidate = self.build_extension_nuta(doc, Some((&f, &schema)));
        match Self::included(&candidate, cache, budget, |tree| self.doc_schema.validate(tree))? {
            TypingVerdict::Valid => Ok(schema),
            TypingVerdict::Invalid { counterexample, .. } => {
                if docking.values().any(|positions| positions.len() > 1) {
                    // The uniform candidate is an upper bound on every
                    // valid gap language (substituting any of its words at
                    // every docking point stays valid), so a refutation
                    // proves incomparable maximal languages exist.
                    Err(DesignError::NoMaximalSchema { function: f })
                } else {
                    Err(DesignError::InvariantViolation {
                        detail: format!(
                            "typecheck refuted the maximal candidate for `{f}` \
                             with `{counterexample}`"
                        ),
                    })
                }
            }
        }
    }

    /// Perfect schemas for every called function of `doc`, each synthesised
    /// with the other functions keeping their declared schemas.
    pub fn perfect_schemas(
        &self,
        doc: &DistributedDoc,
    ) -> Result<BTreeMap<Symbol, REdtd>, DesignError> {
        doc.called_functions()
            .into_iter()
            .map(|f| self.perfect_schema(doc, f).map(|s| (f, s)))
            .collect()
    }

    /// Materialises a gap language over subset-state symbols as an R-EDTD:
    /// a fresh start whose content model is the gap language with every
    /// state expanded to the inhabited `(label, state)` pairs carrying it,
    /// plus one specialised rule per reachable pair holding the target's
    /// exact content language for that pair.
    fn build_perfect(&self, gap: &Nfa, cache: &BoxTargetCache) -> REdtd {
        let duta = &cache.duta;
        let pairs = duta.inhabited_label_states();
        let mut slots: BTreeMap<Symbol, BTreeSet<Symbol>> = BTreeMap::new();
        let mut pair_index: BTreeMap<Symbol, (Symbol, usize)> = BTreeMap::new();
        for (label, states) in &pairs {
            for &i in states {
                let name = label.specialize(i);
                slots.entry(state_sym(i)).or_default().insert(name);
                pair_index.insert(name, (*label, i));
            }
        }
        let mut start = String::from("result");
        while duta.labels().contains(&Symbol::new(&start)) {
            start.push('_');
        }
        let mut schema = REdtd::new(RFormalism::Nfa, start.as_str(), start.as_str());
        // `trim` keeps the start state, loops included, even when the
        // language is empty; an empty gap must not pull in any name.
        let forest = if gap.is_empty() { Nfa::empty() } else { gap.trim().expand_symbols(&slots) };
        schema.set_rule(start.as_str(), RSpec::Nfa(forest.clone()));
        let mut queue: VecDeque<Symbol> = forest.alphabet().iter().cloned().collect();
        let mut seen: BTreeSet<Symbol> = queue.iter().cloned().collect();
        while let Some(name) = queue.pop_front() {
            let (label, i) = pair_index[&name];
            let content = duta
                .content_nfa(i, &label, state_sym)
                .expand_symbols(&slots)
                .trim();
            for next in content.alphabet().iter() {
                if seen.insert(*next) {
                    queue.push_back(*next);
                }
            }
            schema.add_specialization(name, label);
            schema.set_rule(name, RSpec::Nfa(content));
        }
        schema
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dxml_automata::Regex;
    use dxml_tree::term::parse_term;

    fn dtd(rules: &str) -> RDtd {
        RDtd::parse(RFormalism::Nre, rules).unwrap()
    }

    /// The classic non-DTD-definable target: `s` has `a`-children of which
    /// exactly one contains a `c`, the rest contain a `b`.
    fn one_c_target() -> REdtd {
        let mut e = REdtd::new(RFormalism::Nre, "s", "s");
        e.add_specialization("ab", "a");
        e.add_specialization("ac", "a");
        e.set_rule("s", RSpec::Nre(Regex::parse("ab* ac ab*").unwrap()));
        e.set_rule("ab", RSpec::Nre(Regex::parse("b").unwrap()));
        e.set_rule("ac", RSpec::Nre(Regex::parse("c").unwrap()));
        e
    }

    /// An EDTD function schema returning forests of `a(c)`-trees: start
    /// content `x*` with `µ(x) = a`, `x → c`.
    fn ac_forest_schema(star: bool) -> REdtd {
        let mut e = REdtd::new(RFormalism::Nre, "r", "r");
        e.add_specialization("x", "a");
        let content = if star { "x*" } else { "x" };
        e.set_rule("r", RSpec::Nre(Regex::parse(content).unwrap()));
        e.set_rule("x", RSpec::Nre(Regex::parse("c").unwrap()));
        e
    }

    fn agree(problem: &BoxDesignProblem, doc: &DistributedDoc) -> bool {
        let global = problem.typecheck(doc).unwrap();
        let local = problem.verify_local(doc).unwrap();
        assert_eq!(
            global.is_valid(),
            local.is_valid(),
            "typecheck ({global:?}) and verify_local ({local:?}) disagree on {doc:?}"
        );
        global.is_valid()
    }

    #[test]
    fn specialised_target_typechecks_the_right_forests() {
        let target = one_c_target();
        // f returns exactly one a(c): the kernel supplies the a(b)'s.
        let good = BoxDesignProblem::new(target.clone())
            .with_function("f", ac_forest_schema(false));
        let doc = DistributedDoc::parse("s(a(b) f)", ["f"]).unwrap();
        assert!(agree(&good, &doc));
        // f returning any number of a(c)'s can produce zero or two: invalid.
        let bad = BoxDesignProblem::new(target).with_function("f", ac_forest_schema(true));
        assert!(!agree(&bad, &doc));
        match bad.typecheck(&doc).unwrap() {
            TypingVerdict::Invalid { counterexample, violation } => {
                assert!(!bad.doc_schema().accepts(&counterexample));
                assert!(bad.extension_nuta(&doc).unwrap().accepts(&counterexample));
                let _ = format!("{violation}");
            }
            TypingVerdict::Valid => panic!("expected invalid"),
        }
        match bad.verify_local(&doc).unwrap() {
            BoxVerdict::Invalid(ref v @ BoxViolation::Content { ref counterexample, .. }) => {
                assert!(counterexample.width() >= 1);
                let _ = format!("{v}");
            }
            other => panic!("expected a Content violation, got {other:?}"),
        }
    }

    #[test]
    fn unknown_elements_are_reported_with_origin() {
        let target = one_c_target();
        // Kernel element outside the target universe.
        let p = BoxDesignProblem::new(target.clone());
        let doc = DistributedDoc::parse("s(a(b) zz)", [] as [&str; 0]).unwrap();
        assert!(!agree(&p, &doc));
        assert!(matches!(
            p.verify_local(&doc).unwrap(),
            BoxVerdict::Invalid(BoxViolation::UnknownElement { ref element, origin: Origin::Kernel { .. } })
                if element.as_str() == "zz"
        ));
        // Function forest realizing an unknown element.
        let mut schema = REdtd::new(RFormalism::Nre, "r", "r");
        schema.add_specialization("x", "a");
        schema.set_rule("r", RSpec::Nre(Regex::parse("x").unwrap()));
        schema.set_rule("x", RSpec::Nre(Regex::parse("zz?").unwrap()));
        let p2 = BoxDesignProblem::new(target).with_function("f", schema);
        let doc2 = DistributedDoc::parse("s(a(b) a(c) f)", ["f"]).unwrap();
        assert!(!agree(&p2, &doc2));
        assert!(matches!(
            p2.verify_local(&doc2).unwrap(),
            BoxVerdict::Invalid(BoxViolation::UnknownElement { origin: Origin::Function { .. }, .. })
        ));
    }

    #[test]
    fn untypable_function_trees_are_blamed_on_the_function() {
        // f returns a(b b): neither `ab` (one b) nor `ac` types it, so the
        // violation lies inside f's forests, not at the kernel root.
        let mut schema = REdtd::new(RFormalism::Nre, "r", "r");
        schema.add_specialization("x", "a");
        schema.set_rule("r", RSpec::Nre(Regex::parse("x").unwrap()));
        schema.set_rule("x", RSpec::Nre(Regex::parse("b b").unwrap()));
        let p = BoxDesignProblem::new(one_c_target()).with_function("f", schema);
        let doc = DistributedDoc::parse("s(a(c) f)", ["f"]).unwrap();
        assert!(!agree(&p, &doc));
        match p.verify_local(&doc).unwrap() {
            BoxVerdict::Invalid(BoxViolation::Content { element, counterexample, origin, .. }) => {
                assert_eq!(element.as_str(), "a");
                assert_eq!(counterexample.width(), 2);
                assert_eq!(origin, Origin::Function { function: Symbol::new("f") });
            }
            other => panic!("expected a content violation inside f, got {other:?}"),
        }
    }

    #[test]
    fn vacuous_designs_are_valid() {
        // The function's specialised language is empty: x → x never
        // bottoms out.
        let mut schema = REdtd::new(RFormalism::Nre, "r", "r");
        schema.add_specialization("x", "a");
        schema.set_rule("r", RSpec::Nre(Regex::parse("x").unwrap()));
        schema.set_rule("x", RSpec::Nre(Regex::parse("x").unwrap()));
        let p = BoxDesignProblem::new(one_c_target()).with_function("f", schema);
        let doc = DistributedDoc::parse("s(f)", ["f"]).unwrap();
        assert!(agree(&p, &doc));
    }

    #[test]
    fn missing_schema_is_an_error() {
        let p = BoxDesignProblem::new(one_c_target());
        let doc = DistributedDoc::parse("s(f)", ["f"]).unwrap();
        assert!(matches!(p.typecheck(&doc), Err(DesignError::MissingFunctionSchema { .. })));
        assert!(matches!(p.verify_local(&doc), Err(DesignError::MissingFunctionSchema { .. })));
    }

    #[test]
    fn kernel_boxes_expose_the_specialised_slots() {
        let p = BoxDesignProblem::new(one_c_target());
        let doc = DistributedDoc::parse("s(a(b) a(c) f)", ["f"]).unwrap();
        let kernel_box = p.kernel_box(&doc, doc.kernel().root());
        assert!(kernel_box.is_none(), "root has a docking child");
        // The box of the first a-child: its `b` subtree types exactly as a
        // leaf typable by no specialisation other than… `b` itself has no
        // rule in the target, so check the a-node instead: a(b) types
        // exactly as {ab}.
        let a_node = doc.kernel().children(doc.kernel().root())[0];
        let b = p.kernel_box(&doc, a_node).unwrap();
        assert_eq!(b.width(), 1, "a(b) has one child");
        // And the box of the whole fixed prefix via a synthetic doc without
        // the docking point: slots are the exact specialised-type sets.
        let plain = DistributedDoc::parse("s(a(b) a(c))", [] as [&str; 0]).unwrap();
        let pb = p.kernel_box(&plain, plain.kernel().root()).unwrap();
        assert_eq!(pb.width(), 2);
        assert_eq!(pb.slots()[0], BTreeSet::from([Symbol::new("ab")]));
        assert_eq!(pb.slots()[1], BTreeSet::from([Symbol::new("ac")]));
        assert!(pb.contains(&[Symbol::new("ab"), Symbol::new("ac")]));
    }

    #[test]
    fn dtd_embedding_agrees_with_design_problem() {
        let target = dtd("s -> a, b*\nb -> c?");
        let problem = crate::DesignProblem::new(target).with_function("f", dtd("r -> b, b\nb -> c?"));
        let doc = DistributedDoc::parse("s(a f)", ["f"]).unwrap();
        let boxed = BoxDesignProblem::from(&problem);
        assert!(agree(&boxed, &doc));
        assert_eq!(
            problem.typecheck(&doc).unwrap().is_valid(),
            boxed.typecheck(&doc).unwrap().is_valid()
        );
        // And on an invalid design.
        let bad = crate::DesignProblem::new(dtd("s -> a, b*\nb -> c?"))
            .with_function("f", dtd("r -> b*\nb -> d?"));
        let boxed_bad = BoxDesignProblem::from(&bad);
        assert!(!agree(&boxed_bad, &doc));
        assert!(!bad.typecheck(&doc).unwrap().is_valid());
    }

    #[test]
    fn repeated_decisions_reuse_the_cache() {
        let p = BoxDesignProblem::new(one_c_target()).with_function("f", ac_forest_schema(false));
        let doc = DistributedDoc::parse("s(a(b) f)", ["f"]).unwrap();
        assert!(!p.target_cache_ready());
        assert!(p.verify_local(&doc).unwrap().is_valid());
        assert!(p.target_cache_ready());
        let first = p.target_cache().duta() as *const _;
        assert!(p.typecheck(&doc).unwrap().is_valid());
        let second = p.target_cache().duta() as *const _;
        assert!(std::ptr::eq(first, second), "decisions must not re-determinise the target");
        let f = Symbol::new("f");
        let fs1 = p.target_cache().forest_states(&f).unwrap() as *const _;
        assert!(p.verify_local(&doc).unwrap().is_valid());
        let fs2 = p.target_cache().forest_states(&f).unwrap() as *const _;
        assert!(std::ptr::eq(fs1, fs2), "gap languages must be reused across calls");
        // Mutation invalidates.
        let mut changed = p.clone();
        changed.set_doc_schema(one_c_target());
        assert!(!changed.target_cache_ready());
    }

    #[test]
    fn perfect_schema_for_a_specialised_target() {
        // Kernel s(a(b) f): the perfect gap language is a's typed ab* ac ab*
        // — expressible as an EDTD, not as a DTD.
        let p = BoxDesignProblem::new(one_c_target());
        let doc = DistributedDoc::parse("s(a(b) f)", ["f"]).unwrap();
        let perfect = p.perfect_schema(&doc, "f").unwrap();
        let solved = p.clone().with_function("f", perfect.clone());
        assert!(solved.typecheck(&doc).unwrap().is_valid());
        assert!(solved.verify_local(&doc).unwrap().is_valid());
        // The synthesised schema accepts a lone a(c) forest …
        let forest_ac = parse_term("r(a(c))").unwrap();
        // … by embedding it under the fresh start (whose name we read off).
        let start = *perfect.start();
        let embed = |forest: &str| {
            parse_term(&format!("{}({forest})", start.as_str())).unwrap()
        };
        assert!(perfect.accepts(&embed("a(c)")));
        assert!(perfect.accepts(&embed("a(b) a(c) a(b)")));
        assert!(!perfect.accepts(&embed("a(b)")));
        assert!(!perfect.accepts(&embed("a(c) a(c)")));
        let _ = forest_ac;
        // Declared valid schemas are subsumed: the single-a(c) schema's
        // forests are all accepted by the perfect one.
        let declared = ac_forest_schema(false);
        let with_declared = p.clone().with_function("f", declared);
        assert!(with_declared.typecheck(&doc).unwrap().is_valid());
    }

    #[test]
    fn perfect_schema_error_cases() {
        let p = BoxDesignProblem::new(one_c_target());
        let doc = DistributedDoc::parse("s(a(b) f)", ["f"]).unwrap();
        assert!(matches!(
            p.perfect_schema(&doc, "g"),
            Err(DesignError::FunctionNotCalled { .. })
        ));
        // Docking under two distinct parents is unsupported when a label
        // has several typings: here `t` is typed `ta` or `tb` by its
        // children.
        let mut nested = REdtd::new(RFormalism::Nre, "s", "s");
        nested.add_specialization("ta", "t");
        nested.add_specialization("tb", "t");
        nested.set_rule("s", RSpec::Nre(Regex::parse("ta tb").unwrap()));
        nested.set_rule("ta", RSpec::Nre(Regex::parse("a a*").unwrap()));
        nested.set_rule("tb", RSpec::Nre(Regex::parse("b b*").unwrap()));
        let p2 = BoxDesignProblem::new(nested);
        let doc2 = DistributedDoc::parse("s(t(f) t(f))", ["f"]).unwrap();
        assert!(!p2.target_cache().is_local());
        assert!(matches!(
            p2.perfect_schema(&doc2, "f"),
            Err(DesignError::SynthesisUnsupported { .. })
        ));
        // With one typing per label the same kernel synthesises.
        let mut local = REdtd::new(RFormalism::Nre, "s", "s");
        local.set_rule("s", RSpec::Nre(Regex::parse("t t").unwrap()));
        local.set_rule("t", RSpec::Nre(Regex::parse("a*").unwrap()));
        let p5 = BoxDesignProblem::new(local);
        assert!(p5.target_cache().is_local());
        let perfect = p5.perfect_schema(&doc2, "f").unwrap();
        let solved = p5.clone().with_function("f", perfect);
        assert!(solved.typecheck(&doc2).unwrap().is_valid());
        // Interacting docking points under one parent: (ab ac | ac ab)
        // admits {ab-word} and {ac-word}… use the DTD-style (a,a)|(b,b).
        let mut t = REdtd::new(RFormalism::Nre, "s", "s");
        t.set_rule("s", RSpec::Nre(Regex::parse("a a | b b").unwrap()));
        let p3 = BoxDesignProblem::new(t);
        let doc3 = DistributedDoc::parse("s(f f)", ["f"]).unwrap();
        assert!(matches!(
            p3.perfect_schema(&doc3, "f"),
            Err(DesignError::NoMaximalSchema { .. })
        ));
        // A sibling with an empty language makes the design vacuous.
        let mut empty = REdtd::new(RFormalism::Nre, "r", "r");
        empty.set_rule("r", RSpec::Nre(Regex::parse("r").unwrap()));
        let p4 = BoxDesignProblem::new(one_c_target()).with_function("g", empty);
        let doc4 = DistributedDoc::parse("s(a(b) f g)", ["f", "g"]).unwrap();
        assert!(matches!(
            p4.perfect_schema(&doc4, "f"),
            Err(DesignError::NoMaximalSchema { .. })
        ));
    }

    #[test]
    fn perfect_schema_with_repeated_docking_points() {
        // τ(s) = (ab)* over specialised pairs: s → (x y)* with µ(x)=a,
        // µ(y)=b; kernel s(f f): the uniform candidate (x y)* is closed
        // under concatenation, hence the unique maximum.
        let mut t = REdtd::new(RFormalism::Nre, "s", "s");
        t.add_specialization("x", "a");
        t.add_specialization("y", "b");
        t.set_rule("s", RSpec::Nre(Regex::parse("(x y)*").unwrap()));
        let p = BoxDesignProblem::new(t);
        let doc = DistributedDoc::parse("s(f f)", ["f"]).unwrap();
        let perfect = p.perfect_schema(&doc, "f").unwrap();
        let solved = p.clone().with_function("f", perfect.clone());
        assert!(solved.typecheck(&doc).unwrap().is_valid());
        let start = *perfect.start();
        let embed = |forest: &str| parse_term(&format!("{}({forest})", start.as_str())).unwrap();
        assert!(perfect.accepts(&embed("a b")));
        assert!(!perfect.accepts(&embed("a")));
    }

    #[test]
    fn independent_violations_force_the_empty_gap() {
        // The kernel's `zz` child violates the target whatever f returns:
        // the perfect gap language is empty (vacuously valid).
        let mut t = REdtd::new(RFormalism::Nre, "s", "s");
        t.set_rule("s", RSpec::Nre(Regex::parse("t a*").unwrap()));
        t.set_rule("t", RSpec::Nre(Regex::parse("b").unwrap()));
        let p = BoxDesignProblem::new(t);
        let doc = DistributedDoc::parse("s(t(zz) f)", ["f"]).unwrap();
        let perfect = p.perfect_schema(&doc, "f").unwrap();
        let forest = perfect.content(perfect.start()).to_nfa();
        assert!(forest.is_empty());
        let solved = p.clone().with_function("f", perfect);
        assert!(solved.typecheck(&doc).unwrap().is_valid());
    }
}
