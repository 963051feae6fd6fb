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
//! the EDTD with one specialisation per label
//! ([`RDtd::to_edtd`](dxml_schema::RDtd::to_edtd)), and
//! [`crate::DesignProblem`] is the DTD-typed view that embeds its schemas
//! that way and renders the verdicts back as words and DTDs. The three
//! decision procedures:
//!
//! * [`BoxDesignProblem::verify_local`] — the Section-7 string route: a
//!   single bottom-up pass over the kernel computing, per node, the set of
//!   achievable subset states from the words-with-box-gaps language of its
//!   children (Moore-machine image, [`Duta::outputs_over`]); sound **and**
//!   complete because the determinised run is unique, with the offending
//!   realizable child word reported as a box;
//! * [`BoxDesignProblem::typecheck`] — the same kernel pass, with a full
//!   counterexample document on failure, built top-down from the run of the
//!   violating node's child word: each letter goes to the child whose piece
//!   its move enters, and a docking point's letters are turned back into a
//!   forest of its function's schema;
//! * [`BoxDesignProblem::perfect_schema`] — perfect typing: the admissible
//!   gap language is propagated top-down from the root to the docking
//!   parents by context residuals over the per-label Moore machines, and
//!   the resulting maximal schema is itself an [`REdtd`] (one specialised
//!   name per inhabited `(label, subset state)` pair) — which a DTD could
//!   not express in general. The candidate is confirmed by the same kernel
//!   pass with its gap language at the function's docking points, in the
//!   refute-or-confirm style of implicit-hitting-set abduction.
//!
//! The kernel pass is the one decision procedure. The tree-automaton route
//! — [`BoxDesignProblem::extension_nuta`] checked for inclusion in the
//! cached target by [`uta::included_in_duta`] — stays a public API and the
//! test oracle: the runtime never cross-checks a verdict against it, the
//! differential tests and `make soak` do.
//!
//! All target- and schema-derived artefacts are built lazily once per
//! problem, each behind its own `OnceLock`: the decisions' [`BoxTargetCache`]
//! (the determinised specialised target; per function, the pairs of the
//! product fixpoint [`uta::run_pairs`] on its schema and the gap language
//! read off them), and the extension automaton's per-function fragments
//! (each function's rules renamed `f$ã`, and its start forest), which need
//! the function schemas alone and never determinise the target. Every
//! extension automaton shares the fragments' rule automata rather than
//! copying them. Nothing document-dependent is cached.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::{Arc, OnceLock};

use dxml_automata::{AutomataError, BoxLang, Budget, FxHashMap, Nfa, RSpec, StateSet, Symbol};
use dxml_schema::{REdtd, SchemaError};
use dxml_telemetry as telemetry;
use dxml_tree::uta::{Duta, RunPair};
use dxml_tree::{uta, NodeId, Nuta, XForest, XTree};

use crate::design::{Origin, TypingVerdict};
use crate::doc::DistributedDoc;
use crate::error::DesignError;

// ----------------------------------------------------------------------
// Cached artefacts
// ----------------------------------------------------------------------

/// Per-function artefacts of the box reduction: which trees the function can
/// realize, expressed in the determinised target's subset states.
#[derive(Clone, Debug)]
struct FunArtifacts {
    /// The gap language: the exact image of the function's forest language
    /// under the tree → subset-state evaluation, as an NFA over the
    /// target's letters ([`Duta::letter`]).
    forest_states: Nfa,
    /// Whether the function can return no document at all (empty schema
    /// language — the design is vacuous).
    forest_empty: bool,
    /// Every (specialised name, target subset state) pair some tree of the
    /// name realizes, with the witness DAG ([`uta::run_pairs`]).
    pairs: Vec<RunPair>,
    /// A forest the function can return: a shortest root word, each name
    /// replaced by its first pair. Counterexamples plug it into every
    /// docking point they do not constrain.
    default_forest: Vec<usize>,
    /// A violation the function's forests realize on their own, whatever
    /// the kernel — an element unknown to the target, else a tree the
    /// target types by no name at all — with a forest of the function
    /// containing the offending pair.
    fault: Option<(BoxViolation, Vec<usize>)>,
}

impl FunArtifacts {
    fn build(
        function: Symbol,
        schema: &REdtd,
        duta: &Duta,
        budget: &Budget,
    ) -> Result<FunArtifacts, AutomataError> {
        // `d[ã]` is the set of `Some` states of ã's pairs. Exact — independent
        // subtrees make independent state choices, so the image of a content
        // word is the full product of the per-name sets. A label the target
        // does not know yields `None`, which propagates to every ancestor.
        let pairs = uta::run_pairs(&schema.to_nuta(), Some(duta), budget)?;
        let mut slots: BTreeMap<Symbol, BTreeSet<Symbol>> = BTreeMap::new();
        for pair in &pairs {
            slots.entry(pair.name).or_default().extend(pair.state.map(|i| duta.letter(i)));
        }
        // The forest language over inhabited names: after the restriction
        // every remaining transition lies on a realizable word, so the
        // names it reads are exactly the roots of the returned forests.
        let forest_restricted = schema
            .content(schema.start())
            .to_nfa()
            .filter_symbols(|s| slots.contains_key(s))
            .trim();
        let forest_empty = forest_restricted.is_empty();
        let roots = &forest_restricted.alphabet();
        let realizable =
            |state| (0..pairs.len()).find(|&p| pairs[p].state == state && roots.contains(&pairs[p].name));
        let origin = Origin::Function { function };
        // The first pair of a root name whose witness leaves the target's
        // label universe, else the first one the target types by no name.
        let fault = match realizable(None) {
            Some(p) => Some((BoxViolation::UnknownElement { element: culprit(duta, &pairs, p).label, origin }, p)),
            None => duta.empty_subset().and_then(|e| realizable(Some(e))).map(|p| {
                let node = culprit(duta, &pairs, p);
                let counterexample = box_of(duta, node.children.iter().filter_map(|&c| pairs[c].state));
                (BoxViolation::Content { element: node.label, counterexample, admitted: Vec::new(), origin }, p)
            }),
        };
        // A shortest root word with each name's first pair plugged in; a
        // fault's forest has the bad pair at the first occurrence of its
        // name.
        let first = |name: &Symbol| pairs.iter().position(|pair| pair.name == *name);
        let plug = |word: &[Symbol]| -> Vec<usize> { word.iter().filter_map(first).collect() };
        let default_forest =
            forest_restricted.shortest_accepted_with_budget(budget)?.map_or_else(Vec::new, |word| plug(&word));
        let fault = match fault {
            Some((violation, bad)) => {
                let (around, name) = (Nfa::sigma_star(roots), pairs[bad].name);
                let containing = around.concat(&Nfa::symbol(name)).concat(&around);
                let word =
                    forest_restricted.intersect(&containing).shortest_accepted_with_budget(budget)?.unwrap_or_default();
                let mut forest = plug(&word);
                if let Some(at) = word.iter().position(|n| *n == name) {
                    forest[at] = bad;
                }
                Some((violation, forest))
            }
            None => None,
        };
        let forest_states = forest_restricted.expand_symbols(&slots).trim();
        Ok(FunArtifacts { forest_states, forest_empty, pairs, default_forest, fault })
    }
}

/// The last pair on the chain from pair `p` down through first children in
/// `p`'s state, stopping at a label the target does not know: for a pair off
/// the label universe, the first unknown element of its witness in document
/// order; for an untypable one, an untypable node over typable children.
fn culprit<'p>(duta: &Duta, pairs: &'p [RunPair], mut p: usize) -> &'p RunPair {
    while duta.labels().contains(&pairs[p].label) {
        let Some(&child) = pairs[p].children.iter().find(|&&c| pairs[c].state == pairs[p].state) else { break };
        p = child;
    }
    &pairs[p]
}

/// Renders a witness word of subset states as a box of specialised-name
/// sets.
fn box_of(duta: &Duta, witness: impl IntoIterator<Item = usize>) -> BoxLang {
    BoxLang::new(witness.into_iter().map(|i| duta.subset(i).clone()).collect())
}

/// A forest of `schema` whose trees evaluate, in order, to the subset
/// states of `word`: a word of the forest language whose `j`-th name has a
/// pair with `word[j]` among `pairs` ([`uta::run_pairs`] of the schema),
/// each name replaced by the first such pair. `None` if `word` is not in
/// the function's gap language. The search for the name word charges `budget`.
fn forest_for(
    schema: &REdtd,
    pairs: &[RunPair],
    word: &[usize],
    budget: &Budget,
) -> Result<Option<Vec<usize>>, AutomataError> {
    // The pairs of each state, in discovery order.
    let mut of_state: FxHashMap<Option<usize>, Vec<usize>> = FxHashMap::default();
    for (p, pair) in pairs.iter().enumerate() {
        of_state.entry(pair.state).or_default().push(p);
    }
    let of = |state: usize| of_state.get(&Some(state)).map_or(&[][..], Vec::as_slice);
    let mut chain = Nfa::new(word.len() + 1, 0);
    for (j, &state) in word.iter().enumerate() {
        for &p in of(state) {
            chain.add_transition(j, pairs[p].name, j + 1);
        }
    }
    chain.set_final(word.len());
    let forests = schema.content(schema.start()).to_nfa().intersect(&chain);
    let Some(names) = forests.shortest_accepted_with_budget(budget)? else { return Ok(None) };
    let pair = |(name, &state): (&Symbol, &usize)| of(state).iter().copied().find(|&p| pairs[p].name == *name);
    Ok(names.iter().zip(word).map(pair).collect())
}

/// A synthesis candidate's gap language standing in for one function's.
type Candidate<'a> = Option<(&'a Symbol, &'a Nfa)>;

/// Where the kernel pass refutes a design.
enum Refutation {
    /// A called function realizes, on its own, its cached `fault`.
    Function(Symbol),
    /// A kernel node labelled outside the target's label universe.
    UnknownElement(NodeId),
    /// A kernel node reaching subset state `state` — the empty subset, or
    /// at the root a non-accepting one — on a shortest child word, given
    /// as its `run` over the node's child word ([`Duta::outputs_over`]).
    Content { node: NodeId, state: usize, run: Vec<(usize, usize)> },
}

/// One run of the kernel pass ([`BoxTargetCache::kernel_pass`]).
struct KernelPass {
    /// Per evaluated kernel node: every subset state it can reach.
    achievable: Vec<StateSet>,
    /// The first refutation found; `None` for a valid design.
    refutation: Option<Refutation>,
}

/// Problem artefacts of a [`BoxDesignProblem`] that are expensive to build
/// and independent of the document being checked: the determinised
/// specialised target and, per function, its pair DAG and gap language. Plain data,
/// computed lazily on the first decision and shared by every subsequent
/// [`BoxDesignProblem::typecheck`], [`BoxDesignProblem::verify_local`] and
/// [`BoxDesignProblem::perfect_schema`] call; mutating the problem
/// invalidates it.
#[derive(Clone, Debug)]
pub struct BoxTargetCache {
    duta: Duta,
    accepting: StateSet,
    empty_subset: Option<usize>,
    funs: BTreeMap<Symbol, FunArtifacts>,
}

impl BoxTargetCache {
    /// Governed cache build: the target determinisation, every
    /// per-function product fixpoint and the searches for each function's
    /// default and fault forests charge `budget`. A trip aborts the build
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
            .map(|(f, schema)| FunArtifacts::build(*f, schema, &duta, budget).map(|a| (*f, a)))
            .collect::<Result<_, _>>()?;
        Ok(BoxTargetCache { duta, accepting, empty_subset, funs })
    }

    /// The gap language at a docking point of `function`: the `candidate`'s
    /// when it stands in for `function`, else the cached one.
    fn gap<'a>(&'a self, function: &Symbol, candidate: Candidate<'a>) -> Option<&'a Nfa> {
        match candidate {
            Some((g, gap)) if g == function => Some(gap),
            _ => self.funs.get(function).map(|fa| &fa.forest_states),
        }
    }

    /// The child-word language of kernel `children` over letters: a docking
    /// point contributes its gap language, any other child the single
    /// letters of its `achievable` subset states (one box slot). `starts`,
    /// when given, receives the first state of each child's piece.
    fn child_word(
        &self,
        doc: &DistributedDoc,
        children: &[NodeId],
        achievable: &[StateSet],
        candidate: Candidate<'_>,
        mut starts: Option<&mut Vec<usize>>,
    ) -> Nfa {
        let mut word = Nfa::epsilon();
        for &child in children {
            if let Some(starts) = starts.as_deref_mut() {
                starts.push(word.num_states());
            }
            let label = doc.kernel().label(child);
            match self.gap(label, candidate) {
                Some(gap) if doc.is_function(label) => word.append(gap),
                _ => word.append(&Nfa::any_of(achievable[child].iter().map(|i| self.duta.letter(i)))),
            }
        }
        word
    }

    /// The Section-7 kernel pass, the one decision procedure of the
    /// engine. A called function with an empty language makes the design
    /// vacuously valid; a function whose forests violate the target on
    /// their own refutes it; otherwise one bottom-up pass computes, per
    /// kernel node, the exact set of subset states its subtree can reach,
    /// and stops at the first node that is unknown to the target, reaches
    /// the empty subset, or (at the root) reaches a non-accepting state (on
    /// the kept run). `candidate` stands in for one function's gap
    /// language, which then needs no declared schema.
    fn kernel_pass(
        &self,
        doc: &DistributedDoc,
        candidate: Candidate<'_>,
        budget: &Budget,
    ) -> Result<KernelPass, AutomataError> {
        let kernel = doc.kernel();
        let called = doc.called_functions();
        let universe = self.duta.num_states();
        let mut pass = KernelPass { achievable: vec![StateSet::empty(universe); kernel.size()], refutation: None };
        let stands_in = |f: &Symbol| matches!(candidate, Some((g, _)) if g == f);
        let vacuous = called.iter().any(|f| match candidate {
            Some((g, gap)) if g == f => gap.is_empty(),
            _ => self.funs[f].forest_empty,
        });
        if vacuous {
            return Ok(pass);
        }
        if let Some(f) = called.iter().find(|f| !stands_in(f) && self.funs[*f].fault.is_some()) {
            pass.refutation = Some(Refutation::Function(*f));
            return Ok(pass);
        }
        for node in kernel.bottom_up_order() {
            let label = kernel.label(node);
            if doc.is_function(label) {
                continue;
            }
            if !self.duta.labels().contains(label) {
                pass.refutation = Some(Refutation::UnknownElement(node));
                return Ok(pass);
            }
            let word = self.child_word(doc, kernel.children(node), &pass.achievable, candidate, None);
            let mut outs = self.duta.outputs_over(label, &word, budget)?;
            // A realizable child word with no typing at all is already a
            // violation — the surrounding kernel always completes it to a
            // full extension (all gap languages are non-empty), and the
            // empty subset propagates to a non-accepting root.
            let bad = self.empty_subset.filter(|e| outs.contains_key(e)).or_else(|| {
                let root = node == kernel.root();
                outs.keys().copied().find(|&s| root && !self.accepting.contains(s))
            });
            pass.achievable[node] = StateSet::from_iter(universe, outs.keys().copied());
            if let Some(state) = bad {
                let run = outs.remove(&state).expect("a reached state has a run");
                pass.refutation = Some(Refutation::Content { node, state, run });
                return Ok(pass);
            }
        }
        Ok(pass)
    }

    /// The violation a kernel pass reports, if it refuted the design.
    fn violation(&self, doc: &DistributedDoc, pass: &KernelPass) -> Option<BoxViolation> {
        let kernel = doc.kernel();
        let origin = |node| Origin::Kernel { path: kernel.anc_str(node) };
        Some(match *pass.refutation.as_ref()? {
            Refutation::Function(f) => self.funs[&f].fault.as_ref()?.0.clone(),
            Refutation::UnknownElement(node) => {
                BoxViolation::UnknownElement { element: *kernel.label(node), origin: origin(node) }
            }
            Refutation::Content { node, state, ref run } => BoxViolation::Content {
                element: *kernel.label(node),
                counterexample: box_of(&self.duta, run.iter().map(|&(letter, _)| letter)),
                admitted: self.duta.subset(state).iter().cloned().collect(),
                origin: origin(node),
            },
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

    /// The target's specialised tree automaton, determinised (bottom-up)
    /// over the target's label universe. Its subset states are the slots of
    /// the kernel boxes.
    pub fn duta(&self) -> &Duta {
        &self.duta
    }

    /// The gap language of a declared function: the exact image of its
    /// forest language under tree → subset-state evaluation, as an NFA over
    /// the letters of [`BoxTargetCache::duta`] ([`Duta::letter`]). Exposed
    /// so tests and benches can pin that repeated decisions reuse it.
    pub fn forest_states(&self, function: &Symbol) -> Option<&Nfa> {
        self.funs.get(function).map(|fa| &fa.forest_states)
    }
}

/// One function's half of the extension automaton
/// ([`BoxDesignProblem::extension_nuta`]): its schema with every specialised
/// name `ã` renamed `f$ã`. It depends on the function schema alone, so a
/// problem builds it once and every extension automaton shares its rules.
#[derive(Clone)]
struct ExtensionFragment {
    /// `(f$ã, µ(ã), content of ã over f$ names)`, per specialised name.
    rules: Vec<(Symbol, Symbol, Arc<Nfa>)>,
    /// The start name's rule, whose content is the forests a docking point
    /// of the function reads.
    start: usize,
}

impl ExtensionFragment {
    /// Compiles `schema`'s content models once and renames them for
    /// `function`. Fails only when the symbol table cannot intern an `f$`
    /// name.
    fn build(function: Symbol, schema: &REdtd) -> Result<ExtensionFragment, AutomataError> {
        let compiled: Vec<(Symbol, Nfa)> =
            schema.specialized_names().into_iter().map(|spec| (spec, schema.content(&spec).to_nfa())).collect();
        let mut names: FxHashMap<Symbol, Symbol> = FxHashMap::default();
        for name in compiled.iter().flat_map(|(spec, nfa)| std::iter::once(*spec).chain(nfa.alphabet())) {
            if let Entry::Vacant(slot) = names.entry(name) {
                slot.insert(Symbol::try_new(format!("{function}${name}"))?);
            }
        }
        let start = compiled.iter().position(|(spec, _)| spec == schema.start()).expect("µ maps the start name");
        let rules = compiled
            .iter()
            .map(|(spec, nfa)| {
                let label = schema.label_of(spec).copied().unwrap_or(*spec);
                (names[spec], label, Arc::new(nfa.map_symbols(|s| names[s])))
            })
            .collect();
        Ok(ExtensionFragment { rules, start })
    }

    /// The forests a docking point of the function reads, over `f$` names.
    fn forest(&self) -> &Nfa {
        &self.rules[self.start].2
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
        /// A realizable child word, as a box of specialised-name sets — a
        /// shortest one at a kernel node; inside a function's forests, the
        /// child word of an untypable node of a witness tree.
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
/// function symbol. DTD problems embed through
/// [`RDtd::to_edtd`](dxml_schema::RDtd::to_edtd) /
/// [`From<&DesignProblem>`](BoxDesignProblem::from); [`crate::DesignProblem`]
/// is the DTD-typed view over this engine.
///
/// The problem-derived artefacts ([`BoxTargetCache`]) are built lazily on
/// the first decision and reused by every later one. The per-function
/// fragments of [`BoxDesignProblem::extension_nuta`] sit in a second cell,
/// built on its first call from the function schemas alone and shared by
/// every later extension automaton. Mutating the problem invalidates both.
/// Nothing document-dependent is cached.
#[derive(Clone)]
pub struct BoxDesignProblem {
    doc_schema: REdtd,
    fun_schemas: BTreeMap<Symbol, REdtd>,
    target: OnceLock<BoxTargetCache>,
    fragments: OnceLock<BTreeMap<Symbol, ExtensionFragment>>,
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
            fragments: OnceLock::new(),
        }
    }

    /// Declares the R-EDTD schema of a function (builder style).
    pub fn with_function(mut self, function: impl Into<Symbol>, schema: REdtd) -> BoxDesignProblem {
        self.add_function(function, schema);
        self
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
        self.fragments = OnceLock::new();
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
    /// function `f`: specialisation `y``). A flat view for building
    /// content-model corpora (the cost-model calibration test and bench use
    /// it); the cost model itself reads the schemas directly
    /// (`dxml-analysis::cost::box_design_cost` goes through `edtd_cost`).
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
    ///
    /// # Panics
    ///
    /// Never: the build runs under [`Budget::unlimited`], which never trips.
    pub fn target_cache(&self) -> &BoxTargetCache {
        self.target_cache_with_budget(&Budget::unlimited())
            .expect("the unlimited budget never trips")
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

    /// The per-function fragments of the extension automaton, built on the
    /// first call from the function schemas alone (the target is not
    /// determinised). Like [`BoxDesignProblem::target_cache_with_budget`],
    /// the cell is only set from a complete build, so a failed one caches
    /// nothing.
    fn fragments(&self) -> Result<&BTreeMap<Symbol, ExtensionFragment>, DesignError> {
        if let Some(fragments) = self.fragments.get() {
            return Ok(fragments);
        }
        let built = self
            .fun_schemas
            .iter()
            .map(|(f, schema)| ExtensionFragment::build(*f, schema).map(|fragment| (*f, fragment)))
            .collect::<Result<_, _>>()?;
        Ok(self.fragments.get_or_init(|| built))
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
    // Typing verification
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
    /// The function half depends on the schemas alone: the first call
    /// compiles every declared function's `f$` rules and start forest once,
    /// and every later call shares those rule automata (the same `Arc`s)
    /// instead of recompiling them. A call builds only the kernel rules,
    /// each node's content in time linear in its children. Interning a
    /// `#k`/`f$` name in a full symbol table is an error, not a panic.
    ///
    /// No decision reads it: it is the tree-route oracle of the tests —
    /// `typecheck` agrees with [`uta::included_in_duta`] of this automaton
    /// against [`BoxTargetCache::duta`], and every counterexample it
    /// returns is accepted here.
    pub fn extension_nuta(&self, doc: &DistributedDoc) -> Result<Nuta, DesignError> {
        self.require_schemas(doc)?;
        let fragments = self.fragments()?;
        let kernel = doc.kernel();
        let mut a = Nuta::new();
        for f in doc.called_functions() {
            for (state, label, content) in &fragments[&f].rules {
                a.set_rule(*state, *label, Arc::clone(content));
            }
        }
        // Children before parents, so each `#k<node>` is interned once and
        // read by its parent's content; docking points have no state.
        let mut states: Vec<Option<Symbol>> = vec![None; kernel.size()];
        for node in kernel.bottom_up_order() {
            let label = kernel.label(node);
            if doc.is_function(label) {
                continue;
            }
            let mut content = Nfa::epsilon();
            for &child in kernel.children(node) {
                match states[child] {
                    Some(state) => content.append(&Nfa::symbol(state)),
                    None => content.append(fragments[kernel.label(child)].forest()),
                }
            }
            let state = Symbol::try_new(format!("#k{node}"))?;
            a.set_rule(state, *label, content);
            states[node] = Some(state);
        }
        if let Some(root) = states[kernel.root()] {
            a.set_final(root);
        }
        Ok(a)
    }

    /// Decides whether every extension of `doc` validates against the EDTD
    /// target. Runs the kernel pass of [`BoxDesignProblem::verify_local`];
    /// on failure the verdict carries a full counterexample document, built
    /// top-down from the refutation's run, and the typing failure the
    /// target's own validator ([`REdtd::validate`]) reports on it.
    ///
    /// The counterexample follows the refutation: for a function whose
    /// forests violate the target on their own, a forest of it containing
    /// the offending tree at its first docking point; for a kernel
    /// violation, the run of the violating node's shortest child word
    /// ([`Duta::outputs_over`]), each letter given to the child whose piece
    /// of the child word holds the state its move enters — one letter per
    /// kernel child, whose child word is imaged again, and a word of the
    /// gap language per docking point, turned back into a forest of the
    /// function — recursively down to the leaves. Every other docking point
    /// gets a default forest of its function.
    ///
    /// The target automaton is determinised once per problem (see
    /// [`BoxDesignProblem::target_cache`]); a valid design only pays for
    /// the kernel pass, a refuted one also for imaging the nodes below the
    /// violating one again, searching the cached function pairs and
    /// building the counterexample from them ([`uta::materialise`]).
    pub fn typecheck(&self, doc: &DistributedDoc) -> Result<TypingVerdict, DesignError> {
        self.typecheck_with_budget(doc, &Budget::unlimited())
    }

    /// Governed variant of [`BoxDesignProblem::typecheck`]: the cache
    /// build, the kernel pass and the counterexample construction all
    /// charge `budget`, and a trip surfaces as
    /// [`DesignError::BudgetExceeded`] without poisoning the problem's
    /// caches.
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
        budget.check_interrupts()?;
        self.require_schemas(doc)?;
        let cache = self.target_cache_with_budget(budget)?;
        let pass = cache.kernel_pass(doc, None, budget)?;
        if pass.refutation.is_none() {
            return Ok(TypingVerdict::Valid);
        }
        let counterexample = self.counterexample(cache, doc, &pass, budget)?;
        match validate(&counterexample) {
            Err(violation) => Ok(TypingVerdict::Invalid { counterexample, violation }),
            Ok(()) => Err(DesignError::InvariantViolation {
                detail: format!(
                    "counterexample `{counterexample}` of a refuted design unexpectedly \
                     validates against the target"
                ),
            }),
        }
    }

    /// The counterexample document of a refuted kernel pass: the kernel
    /// with every docking point replaced by a forest of its function — the
    /// refutation's own forests where it pins them, a default forest
    /// everywhere else (see [`BoxDesignProblem::typecheck`]).
    fn counterexample(
        &self,
        cache: &BoxTargetCache,
        doc: &DistributedDoc,
        pass: &KernelPass,
        budget: &Budget,
    ) -> Result<XTree, DesignError> {
        let kernel = doc.kernel();
        let broken = |detail: &str| DesignError::InvariantViolation { detail: detail.into() };
        let mut planted: BTreeMap<NodeId, Vec<usize>> = BTreeMap::new();
        match pass.refutation {
            Some(Refutation::Function(function)) => {
                let dock = doc.function_nodes().into_iter().find(|&n| *kernel.label(n) == function);
                let fault = cache.funs[&function].fault.iter();
                planted.extend(dock.into_iter().zip(fault).map(|(n, (_, forest))| (n, forest.clone())));
            }
            Some(Refutation::Content { node, state, ref run }) => {
                // Top-down from the violating node: each node's run for its
                // required state (re-imaged below the violating node) hands
                // each letter to the child whose piece its move enters.
                let mut todo = vec![(node, state)];
                while let Some((x, s)) = todo.pop() {
                    budget.step()?;
                    let children = kernel.children(x);
                    let mut starts = Vec::with_capacity(children.len());
                    let word = cache.child_word(doc, children, &pass.achievable, None, Some(&mut starts));
                    let reimaged;
                    let run = if x == node {
                        run
                    } else {
                        reimaged = cache.duta.outputs_over(kernel.label(x), &word, budget)?;
                        reimaged.get(&s).ok_or_else(|| broken("an achievable state has no run"))?
                    };
                    let mut pieces = vec![Vec::new(); children.len()];
                    for &(letter, entered) in run {
                        pieces[starts.partition_point(|&start| start <= entered) - 1].push(letter);
                    }
                    for (&child, piece) in children.iter().zip(pieces) {
                        let label = kernel.label(child);
                        if !doc.is_function(label) {
                            todo.push((child, piece[0]));
                            continue;
                        }
                        let forest = forest_for(&self.fun_schemas[label], &cache.funs[label].pairs, &piece, budget)?
                            .ok_or_else(|| broken("a gap word has no forest of its function's schema"))?;
                        planted.insert(child, forest);
                    }
                }
            }
            Some(Refutation::UnknownElement(_)) | None => {}
        }
        let mut forests: BTreeMap<NodeId, XForest> = BTreeMap::new();
        for dock in doc.function_nodes() {
            let fun = &cache.funs[kernel.label(dock)];
            let word = planted.get(&dock).unwrap_or(&fun.default_forest).iter();
            forests.insert(dock, word.map(|&p| uta::materialise(&fun.pairs, p, budget)).collect::<Result<_, _>>()?);
        }
        Ok(kernel.replace_nodes(|n| forests.get(&n).map(Vec::as_slice)))
    }

    /// The Section-7 string route: typing verification without tree
    /// automata on the extension side. One bottom-up pass over the kernel
    /// computes, per node, the **exact** set of subset states its subtree
    /// can evaluate to — fixed children contribute box slots, docking
    /// points their gap languages — via the Moore-machine image
    /// [`Duta::outputs_over`]. Sound and complete for every R-EDTD target
    /// because the determinised run is unique. [`BoxDesignProblem::typecheck`]
    /// runs the same pass; the tests pin both against the tree-route oracle
    /// ([`BoxDesignProblem::extension_nuta`] in the cached target) and
    /// brute-force enumeration.
    ///
    /// Checks run in this order: a called function with an empty schema
    /// language makes the verdict vacuously valid; a function realizing an
    /// element unknown to the target, or a tree the target cannot type,
    /// is reported with [`Origin::Function`]; then the kernel pass visits
    /// the nodes in reverse document order (every node after all of its
    /// descendants) and reports the first violation it meets — the last
    /// violating node in document order, which has no violating
    /// descendant. That node need not be the deepest: a violation in a
    /// later sibling subtree is reported before a deeper one in an earlier
    /// subtree.
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
        budget.check_interrupts()?;
        self.require_schemas(doc)?;
        let cache = self.target_cache_with_budget(budget)?;
        let pass = cache.kernel_pass(doc, None, budget)?;
        Ok(cache.violation(doc, &pass).map_or(BoxVerdict::Valid, BoxVerdict::Invalid))
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
    /// uniform ([`dxml_automata::Dfa::uniform_context_residual`]) for several.
    ///
    /// The schema materialises the gap language with one specialised name
    /// per inhabited `(label, subset state)` pair reachable from its start
    /// ([`REdtd::from_duta`]). The candidate is an
    /// upper bound on every schema the design typechecks with, so it is the
    /// maximum iff the design typechecks with it. The kernel pass of
    /// [`BoxDesignProblem::typecheck`] confirms that, with the candidate's
    /// gap language — which is `gap` itself, since every tree of its name
    /// `label~i` evaluates to `i` — at the docking points of `function`.
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
    /// * [`DesignError::InvariantViolation`] — the confirming kernel pass
    ///   refuted a candidate the construction proves maximal; a bug in this
    ///   library, never a property of the input.
    pub fn perfect_schema(
        &self,
        doc: &DistributedDoc,
        function: impl Into<Symbol>,
    ) -> Result<REdtd, DesignError> {
        self.perfect_schema_with_budget(doc, function, &Budget::unlimited())
    }

    /// Governed variant of [`BoxDesignProblem::perfect_schema`]: the cache
    /// build, the achievable-set pass, the spine residuals and the
    /// confirming kernel pass all charge `budget`, and a trip surfaces
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
            if art.fault.is_some() {
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
                let word = cache.child_word(doc, kernel.children(node), &achievable, None, None);
                let outs = cache
                    .duta
                    .outputs_over(label, &word, budget)
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
        let segment = |range: &[NodeId]| cache.child_word(doc, range, &achievable, None, None);

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
            let admissible_children = cache.duta.content_dfa(label, |out| safe.contains(out));
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
                    let (prefixes, suffixes) = (&contexts[0], &contexts[1]);
                    admissible_children.universal_context_residual(prefixes, suffixes, budget)
                } else {
                    admissible_children.uniform_context_residual(&contexts, budget)
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
                    .outputs_over(label, &segment(children), budget)
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
                    .universal_context_residual(&prefix, &suffix, budget)
                    .map_err(DesignError::from)?;
                safe = StateSet::from_iter(
                    universe,
                    (0..universe).filter(|&j| residual.accepts(&[cache.duta.letter(j)])),
                );
            }
        }
        let gap = match gap {
            Some(gap) if !forced_empty => gap,
            _ => Nfa::empty(),
        };

        // One specialised name per inhabited (label, state) pair reachable
        // from a fresh start whose content is the gap language.
        let mut start = String::from("result");
        while cache.duta.labels().contains(&Symbol::new(&start)) {
            start.push('_');
        }
        let schema = REdtd::from_duta(&cache.duta, start.as_str(), start.as_str(), &gap);
        // Every tree of the schema's name `label~i` evaluates to `i`, so its
        // gap language is `gap` itself: the kernel pass confirms the
        // candidate with `gap` at the docking points of `f`.
        let pass = cache.kernel_pass(doc, Some((&f, &gap)), budget)?;
        match cache.violation(doc, &pass) {
            None => Ok(schema),
            // The uniform candidate is an upper bound on every valid gap
            // language (substituting any of its words at every docking
            // point stays valid), so a refutation proves incomparable
            // maximal languages exist.
            Some(_) if docking.values().any(|positions| positions.len() > 1) => {
                Err(DesignError::NoMaximalSchema { function: f })
            }
            Some(violation) => Err(DesignError::InvariantViolation {
                detail: format!("the kernel pass refuted the maximal candidate for `{f}`: {violation}"),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dxml_automata::{RFormalism, Regex};
    use dxml_schema::RDtd;
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

    /// Both decisions against the tree-route oracle: inclusion of the
    /// extension automaton in the cached target.
    fn agree(problem: &BoxDesignProblem, doc: &DistributedDoc) -> bool {
        let global = problem.typecheck(doc).unwrap();
        let local = problem.verify_local(doc).unwrap();
        let extension = problem.extension_nuta(doc).unwrap();
        let oracle = uta::included_in_duta(&extension, problem.target_cache().duta());
        assert_eq!(
            global.is_valid(),
            oracle.is_ok(),
            "typecheck ({global:?}) and the tree oracle ({oracle:?}) disagree on {doc:?}"
        );
        assert_eq!(
            local.is_valid(),
            oracle.is_ok(),
            "verify_local ({local:?}) and the tree oracle ({oracle:?}) disagree on {doc:?}"
        );
        oracle.is_ok()
    }

    #[test]
    fn verify_local_reports_the_last_violating_node_in_document_order() {
        // Two kernel violations: `b(b)` at /r/a/b (`b` is leaf-only) and
        // `c(c)` at /r/c. The pass visits the nodes in reverse document
        // order, so the later `c` is reported although `b` is deeper.
        let problem = BoxDesignProblem::new(dtd("r -> a, c\na -> b").to_edtd());
        let doc = DistributedDoc::parse("r(a(b(b)) c(c))", [] as [&str; 0]).unwrap();
        assert!(!agree(&problem, &doc));
        match problem.verify_local(&doc).unwrap() {
            BoxVerdict::Invalid(BoxViolation::Content { element, origin, .. }) => {
                assert_eq!(element.as_str(), "c");
                assert_eq!(origin, Origin::Kernel { path: vec![Symbol::new("r"), Symbol::new("c")] });
            }
            other => panic!("expected a content violation at /r/c, got {other:?}"),
        }
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
    fn labels_spelled_like_letters_stay_labels() {
        // `#` is a legal name character, so labels may be spelled like the
        // determinised target's letters (`#s<i>`); letters and labels never
        // share one automaton, so the spelling changes nothing.
        // A compact-syntax line starting with `#` is a comment, so the
        // rules of `#`-named elements are added by hand.
        let mut target = dtd("s -> #s0, #s1*, a?");
        target.set_rule("#s1", RSpec::Nre(Regex::parse("#q0?").unwrap()));
        let mut fun = dtd("r -> #s1*");
        fun.set_rule("#s1", RSpec::Nre(Regex::parse("#q0").unwrap()));
        let problem = crate::DesignProblem::new(target.clone()).with_function("f", fun);
        let boxed = BoxDesignProblem::from(&problem);
        for (kernel, valid) in [("s(#s0 f)", true), ("s(#s1 f)", false)] {
            let doc = DistributedDoc::parse(kernel, ["f"]).unwrap();
            assert_eq!(agree(&boxed, &doc), valid, "{kernel}");
            assert_eq!(problem.typecheck(&doc).unwrap().is_valid(), valid, "{kernel}");
            assert_eq!(problem.verify_local(&doc).unwrap().is_valid(), valid, "{kernel}");
            let perfect = boxed.perfect_schema(&doc, "f").unwrap();
            let solved = boxed.clone().with_function("f", perfect);
            assert!(solved.typecheck(&doc).unwrap().is_valid(), "{kernel}");
        }
        let edtd = target.to_edtd();
        let normal = edtd.normalize();
        assert!(edtd.equivalent(&normal), "{normal}");
        assert!(normal.is_normal(), "{normal}");
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

    /// Same states, finals and rules, each rule's content the same
    /// language.
    fn same_extension(a: &Nuta, b: &Nuta) -> bool {
        a.states() == b.states()
            && a.finals() == b.finals()
            && a.rules().count() == b.rules().count()
            && a.rules().all(|(s, l, content)| {
                b.rule(s, l).is_some_and(|other| dxml_automata::equiv::is_equivalent(content, other))
            })
    }

    #[test]
    fn extension_fragments_are_built_once_and_shared() {
        let p = BoxDesignProblem::new(one_c_target()).with_function("f", ac_forest_schema(false));
        let doc = DistributedDoc::parse("s(a(b) f)", ["f"]).unwrap();
        let first = p.extension_nuta(&doc).unwrap();
        assert!(!p.target_cache_ready(), "the fragments must not determinise the target");
        let second = p.extension_nuta(&doc).unwrap();
        let (state, label) = (Symbol::new("f$x"), Symbol::new("a"));
        let rule = first.rule(&state, &label).expect("the function's x-rule");
        assert!(std::ptr::eq(rule, second.rule(&state, &label).unwrap()), "function rules must be shared");
        // A clone shares them too and builds the same automaton.
        let cloned = p.clone();
        let third = cloned.extension_nuta(&doc).unwrap();
        assert!(std::ptr::eq(rule, third.rule(&state, &label).unwrap()));
        assert!(same_extension(&first, &third));
        // Replacing the schema rebuilds the fragments: `f` may now return
        // any number of `a(c)`s, as on a fresh problem.
        let mut changed = p.clone();
        changed.add_function("f", ac_forest_schema(true));
        let replaced = changed.extension_nuta(&doc).unwrap();
        let fresh = BoxDesignProblem::new(one_c_target()).with_function("f", ac_forest_schema(true));
        assert!(same_extension(&replaced, &fresh.extension_nuta(&doc).unwrap()));
        assert!(!same_extension(&first, &replaced));
        let two = parse_term("s(a(b) a(c) a(c))").unwrap();
        assert!(replaced.accepts(&two) && !first.accepts(&two));
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
