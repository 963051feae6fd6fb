//! Design problems and typing verification for DTD targets (Sections 3–5).
//!
//! A [`DesignProblem`] pairs the *global type* `τ` a distributed document
//! must conform to with a schema `τf` for each function, describing the
//! documents the function may return. A kernel `T` **has type `τ`** iff every
//! possible extension `ext_T(t1…tn)` with `ti ∈ [τfi]` validates against `τ`
//! — the typing-verification problem.
//!
//! A DTD is the EDTD with one specialisation per label, so a
//! [`DesignProblem`] is a DTD-typed view over the one engine,
//! [`BoxDesignProblem`]: it embeds its schemas trivially, delegates every
//! decision and renders the results back in DTD terms.
//!
//! * [`DesignProblem::typecheck`] — the engine's kernel pass, with a full
//!   counterexample document built from its witnesses and validated
//!   against the DTD;
//! * [`DesignProblem::verify_local`] — the same bottom-up pass over the
//!   kernel by Moore-machine images, reporting the offending child word. In
//!   a DTD embedding every typable subtree is typed by its own label alone,
//!   so the witness boxes are plain label words, reported against the DTD
//!   content model.
//!
//! The tree-automaton route ([`DesignProblem::extension_nuta`] included in
//! the cached target) is the oracle of the tests and `make soak`; no
//! decision runs it.

use std::collections::BTreeMap;
use std::fmt;

use dxml_automata::{Budget, RSpec, Symbol};
use dxml_schema::{RDtd, SchemaError};
use dxml_tree::{Nuta, XTree};

use crate::boxes::{BoxDesignProblem, BoxTargetCache, BoxVerdict, BoxViolation};
use crate::doc::DistributedDoc;
use crate::error::DesignError;

/// A typing-verification instance with a DTD target: the target document
/// schema `τ` plus one DTD schema per function symbol.
///
/// Decisions run on the trivial EDTD embedding of the problem, a
/// [`BoxDesignProblem`] held alongside the DTDs: its target cache
/// ([`BoxTargetCache`]) is built lazily on the first decision and reused
/// by every later [`DesignProblem::typecheck`],
/// [`DesignProblem::verify_local`] and
/// [`DesignProblem::perfect_schema`](crate::perfect) call. Mutating the
/// problem through [`DesignProblem::set_doc_schema`] or
/// [`DesignProblem::add_function`] invalidates it.
#[derive(Clone)]
pub struct DesignProblem {
    doc_schema: RDtd,
    fun_schemas: BTreeMap<Symbol, RDtd>,
    pub(crate) engine: BoxDesignProblem,
}

impl fmt::Debug for DesignProblem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DesignProblem")
            .field("doc_schema", &self.doc_schema)
            .field("fun_schemas", &self.fun_schemas)
            .field("target_cache_ready", &self.target_cache_ready())
            .finish()
    }
}

/// The outcome of typing verification.
#[derive(Clone, Debug)]
pub enum TypingVerdict {
    /// Every extension of the kernel validates against the target schema.
    Valid,
    /// Some extension violates the target schema.
    Invalid {
        /// A materialised document that is a possible extension but does not
        /// validate.
        counterexample: XTree,
        /// Why the counterexample fails validation.
        violation: SchemaError,
    },
}

impl TypingVerdict {
    /// Whether the verdict is [`TypingVerdict::Valid`].
    pub fn is_valid(&self) -> bool {
        matches!(self, TypingVerdict::Valid)
    }
}

/// Where a local-typing violation was detected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Origin {
    /// At a kernel node, identified by its root-to-node label path.
    Kernel {
        /// `anc-str` of the kernel node.
        path: Vec<Symbol>,
    },
    /// Inside documents producible by a function.
    Function {
        /// The function symbol.
        function: Symbol,
    },
}

impl fmt::Display for Origin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Origin::Kernel { path } => {
                let p: Vec<&str> = path.iter().map(Symbol::as_str).collect();
                write!(f, "kernel node /{}", p.join("/"))
            }
            Origin::Function { function } => write!(f, "documents returned by `{function}`"),
        }
    }
}

/// A violation found by the local (string-level) typing check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LocalViolation {
    /// The kernel root label differs from the target start symbol.
    RootLabel {
        /// The target start symbol.
        expected: Symbol,
        /// The kernel root label.
        found: Symbol,
    },
    /// An element name can occur in some extension but is not declared in the
    /// target schema.
    UnknownElement {
        /// The undeclared element name.
        element: Symbol,
        /// Where the element comes from.
        origin: Origin,
    },
    /// A realizable child word violates the target content model of
    /// `element`.
    Content {
        /// The element whose content model is violated.
        element: Symbol,
        /// A realizable child word outside the target content model (a
        /// shortest one at a kernel node; see [`BoxViolation::Content`]).
        counterexample: Vec<Symbol>,
        /// A rendering of the expected content model.
        expected: String,
        /// Where the bad word can be realised.
        origin: Origin,
    },
}

impl fmt::Display for LocalViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LocalViolation::RootLabel { expected, found } => {
                write!(f, "kernel root is `{found}` but the target schema starts at `{expected}`")
            }
            LocalViolation::UnknownElement { element, origin } => {
                write!(f, "element `{element}` ({origin}) is not declared in the target schema")
            }
            LocalViolation::Content { element, counterexample, expected, origin } => {
                let w: Vec<&str> = counterexample.iter().map(Symbol::as_str).collect();
                write!(
                    f,
                    "children [{}] of `{element}` ({origin}) are possible but do not match \
                     {expected}",
                    w.join(" ")
                )
            }
        }
    }
}

/// The outcome of the local typing check.
#[derive(Clone, Debug)]
pub enum LocalVerdict {
    /// All local inclusions hold; every extension validates.
    Valid,
    /// A local inclusion fails; the violation is realizable in some
    /// extension.
    Invalid(LocalViolation),
}

impl LocalVerdict {
    /// Whether the verdict is [`LocalVerdict::Valid`].
    pub fn is_valid(&self) -> bool {
        matches!(self, LocalVerdict::Valid)
    }
}

impl DesignProblem {
    /// Creates a design problem with no function schemas.
    pub fn new(doc_schema: RDtd) -> DesignProblem {
        let engine = BoxDesignProblem::new(doc_schema.to_edtd());
        DesignProblem { doc_schema, fun_schemas: BTreeMap::new(), engine }
    }

    /// Declares the schema of a function (builder style).
    pub fn with_function(mut self, function: impl Into<Symbol>, schema: RDtd) -> DesignProblem {
        self.add_function(function, schema);
        self
    }

    /// Declares the schema of a function, invalidating the cached problem
    /// artefacts (the per-function gap languages depend on the function
    /// schemas).
    pub fn add_function(&mut self, function: impl Into<Symbol>, schema: RDtd) {
        let function = function.into();
        self.engine.add_function(function, schema.to_edtd());
        self.fun_schemas.insert(function, schema);
    }

    /// The target document schema `τ`.
    pub fn doc_schema(&self) -> &RDtd {
        &self.doc_schema
    }

    /// Replaces the target document schema, invalidating the cached
    /// determinised target.
    pub fn set_doc_schema(&mut self, doc_schema: RDtd) {
        self.engine.set_doc_schema(doc_schema.to_edtd());
        self.doc_schema = doc_schema;
    }

    /// The declared function schemas.
    pub fn fun_schemas(&self) -> &BTreeMap<Symbol, RDtd> {
        &self.fun_schemas
    }

    /// The schema of a function, if declared.
    pub fn fun_schema(&self, function: &Symbol) -> Option<&RDtd> {
        self.fun_schemas.get(function)
    }

    /// Every content model of the problem — the target schema's rules
    /// followed by each function schema's rules — paired with a stable
    /// human-readable location in the style of the `dxml-analysis`
    /// diagnostics (`target schema: element `a``, `schema of function `f`:
    /// element `b``). A flat view for building content-model corpora (the
    /// cost-model calibration test and bench use it); the cost model itself
    /// reads the schemas directly (`dxml-analysis::cost::design_cost` goes
    /// through `dtd_cost`).
    pub fn content_models(&self) -> Vec<(String, RSpec)> {
        let mut out = Vec::new();
        for (name, spec) in self.doc_schema.rules() {
            out.push((format!("target schema: element `{name}`"), spec.clone()));
        }
        for (f, schema) in &self.fun_schemas {
            for (name, spec) in schema.rules() {
                out.push((format!("schema of function `{f}`: element `{name}`"), spec.clone()));
            }
        }
        out
    }

    /// The lazily built problem artefacts of the embedded box problem
    /// (determinised target automaton, per-function gap languages). The
    /// first call pays for the determinisation; later calls are free.
    pub fn target_cache(&self) -> &BoxTargetCache {
        self.engine.target_cache()
    }

    /// Governed variant of [`DesignProblem::target_cache`]: the cold build
    /// charges `budget`, and a trip leaves the problem exactly as it was —
    /// a retry (with any budget) rebuilds from scratch.
    pub fn target_cache_with_budget(&self, budget: &Budget) -> Result<&BoxTargetCache, DesignError> {
        self.engine.target_cache_with_budget(budget)
    }

    /// Whether the target cache has already been built (used by tests and
    /// benches to pin that repeated decisions do not re-determinise).
    pub fn target_cache_ready(&self) -> bool {
        self.engine.target_cache_ready()
    }

    /// A [`Nuta`] recognising exactly the extensions of `doc`: the kernel
    /// with every docking point `f` replaced by a forest of `τf`-valid trees
    /// whose root-label word matches the content model of `τf`'s start
    /// symbol; see [`BoxDesignProblem::extension_nuta`]. The tree-route
    /// oracle of the tests; no decision reads it.
    pub fn extension_nuta(&self, doc: &DistributedDoc) -> Result<Nuta, DesignError> {
        self.engine.extension_nuta(doc)
    }

    /// Decides whether every extension of `doc` validates against
    /// [`DesignProblem::doc_schema`], by the engine's kernel pass
    /// ([`BoxDesignProblem::typecheck`]). On failure the verdict carries a
    /// full counterexample document, built from the pass's witnesses, and
    /// the DTD validation error it triggers.
    ///
    /// The target automaton is determinised once per problem (see
    /// [`DesignProblem::target_cache`]); a valid design only pays for the
    /// kernel pass, a refuted one also for the counterexample.
    pub fn typecheck(&self, doc: &DistributedDoc) -> Result<TypingVerdict, DesignError> {
        self.typecheck_with_budget(doc, &Budget::unlimited())
    }

    /// Governed variant of [`DesignProblem::typecheck`]: the target
    /// determinisation (on a cold cache), the kernel pass and the
    /// counterexample construction all charge `budget`; a trip surfaces as
    /// [`DesignError::BudgetExceeded`] and leaves every cache rebuildable.
    pub fn typecheck_with_budget(
        &self,
        doc: &DistributedDoc,
        budget: &Budget,
    ) -> Result<TypingVerdict, DesignError> {
        self.engine.typecheck_by(doc, budget, |tree| self.doc_schema.validate(tree))
    }

    /// Local typing verification: the engine's kernel pass, with the
    /// verdict rendered in DTD terms. Sound and complete; the same pass as
    /// [`DesignProblem::typecheck`], pinned by the tests against the
    /// tree-route oracle.
    ///
    /// A called function with an empty schema language makes the verdict
    /// vacuously valid. Otherwise a kernel root other than the target start
    /// symbol is reported as [`LocalViolation::RootLabel`]; then, in the
    /// engine's order, an element undeclared in the target as
    /// [`LocalViolation::UnknownElement`] and a realizable child word
    /// outside a target content model as [`LocalViolation::Content`] —
    /// inside function forests first, then in the kernel in reverse
    /// document order, so of several kernel violations the last one in
    /// document order — which has no violating descendant — is reported.
    pub fn verify_local(&self, doc: &DistributedDoc) -> Result<LocalVerdict, DesignError> {
        self.verify_local_with_budget(doc, &Budget::unlimited())
    }

    /// Governed variant of [`DesignProblem::verify_local`]: the cold
    /// target-cache build and every per-node Moore-machine image charge
    /// `budget`; a trip surfaces as [`DesignError::BudgetExceeded`].
    pub fn verify_local_with_budget(
        &self,
        doc: &DistributedDoc,
        budget: &Budget,
    ) -> Result<LocalVerdict, DesignError> {
        let violation = match self.engine.verify_local_with_budget(doc, budget)? {
            BoxVerdict::Valid => return Ok(LocalVerdict::Valid),
            BoxVerdict::Invalid(violation) => violation,
        };
        let tau = &self.doc_schema;
        let root = doc.kernel().root_label();
        if root != tau.start() {
            return Ok(LocalVerdict::Invalid(LocalViolation::RootLabel {
                expected: *tau.start(),
                found: *root,
            }));
        }
        Ok(LocalVerdict::Invalid(match violation {
            BoxViolation::UnknownElement { element, origin } => {
                LocalViolation::UnknownElement { element, origin }
            }
            BoxViolation::Content { element, counterexample, origin, .. } => {
                // Each slot holds the one label typing a child.
                let word: Option<Vec<Symbol>> = counterexample
                    .slots()
                    .iter()
                    .map(|slot| slot.first().copied().filter(|_| slot.len() == 1))
                    .collect();
                let counterexample = word.ok_or_else(|| DesignError::InvariantViolation {
                    detail: format!(
                        "the witness ⟨{counterexample}⟩ under `{element}` is not a word of \
                         the DTD embedding"
                    ),
                })?;
                LocalViolation::Content {
                    element,
                    counterexample,
                    expected: format!("{}", tau.content(&element)),
                    origin,
                }
            }
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dxml_automata::RFormalism;
    use dxml_tree::term::parse_term;

    fn dtd(rules: &str) -> RDtd {
        RDtd::parse(RFormalism::Nre, rules).unwrap()
    }

    /// Both decisions against the tree-route oracle: inclusion of the
    /// extension automaton in the cached target.
    fn agree(problem: &DesignProblem, doc: &DistributedDoc) -> bool {
        let global = problem.typecheck(doc).unwrap();
        let local = problem.verify_local(doc).unwrap();
        let extension = problem.extension_nuta(doc).unwrap();
        let oracle = dxml_tree::uta::included_in_duta(&extension, problem.target_cache().duta());
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
    fn valid_typing_accepts() {
        let target = dtd("s -> a, b*\nb -> c?");
        let problem = DesignProblem::new(target).with_function("f", dtd("r -> b, b\nb -> c?"));
        let doc = DistributedDoc::parse("s(a f)", ["f"]).unwrap();
        assert!(agree(&problem, &doc));
    }

    #[test]
    fn invalid_typing_yields_counterexample() {
        let target = dtd("s -> a, b*\nb -> c?");
        // f may return roots whose b-children contain a `d`, unknown to τ.
        let problem = DesignProblem::new(target.clone()).with_function("f", dtd("r -> b*\nb -> d?"));
        let doc = DistributedDoc::parse("s(a f)", ["f"]).unwrap();
        assert!(!agree(&problem, &doc));
        match problem.typecheck(&doc).unwrap() {
            TypingVerdict::Invalid { counterexample, violation } => {
                assert!(!target.accepts(&counterexample));
                assert!(problem.extension_nuta(&doc).unwrap().accepts(&counterexample));
                let _ = format!("{violation}");
            }
            TypingVerdict::Valid => panic!("expected invalid"),
        }
    }

    #[test]
    fn wrong_root_and_unknown_kernel_element() {
        let target = dtd("s -> a*");
        let problem = DesignProblem::new(target);
        let wrong_root = DistributedDoc::parse("t(a)", [] as [&str; 0]).unwrap();
        assert!(!agree(&problem, &wrong_root));
        assert!(matches!(
            problem.verify_local(&wrong_root).unwrap(),
            LocalVerdict::Invalid(LocalViolation::RootLabel { .. })
        ));
        let unknown = DistributedDoc::parse("s(a x)", [] as [&str; 0]).unwrap();
        assert!(!agree(&problem, &unknown));
    }

    #[test]
    fn empty_function_language_is_vacuously_valid() {
        let target = dtd("s -> a");
        // f's schema has an empty language (r -> r never bottoms out), so no
        // extension exists at all.
        let problem = DesignProblem::new(target).with_function("f", dtd("r -> r"));
        let doc = DistributedDoc::parse("s(f)", ["f"]).unwrap();
        assert!(agree(&problem, &doc));
    }

    #[test]
    fn missing_schema_is_an_error() {
        let problem = DesignProblem::new(dtd("s -> a"));
        let doc = DistributedDoc::parse("s(f)", ["f"]).unwrap();
        assert!(matches!(
            problem.typecheck(&doc),
            Err(DesignError::MissingFunctionSchema { .. })
        ));
        assert!(problem.fun_schema(&Symbol::new("f")).is_none());
    }

    #[test]
    fn forest_word_interleaves_with_kernel_children() {
        // τ requires a (b c)* content; f supplies `b c` pairs between the
        // kernel's own children.
        let target = dtd("s -> (b, c)*");
        let good = DesignProblem::new(target.clone()).with_function("f", dtd("r -> (b, c)*"));
        let doc = DistributedDoc::parse("s(b c f)", ["f"]).unwrap();
        assert!(agree(&good, &doc));
        // A function returning a lone `b` forest breaks the pairing.
        let bad = DesignProblem::new(target).with_function("f", dtd("r -> b"));
        assert!(!agree(&bad, &doc));
    }

    #[test]
    fn two_call_sites_expand_independently() {
        let target = dtd("s -> a, a");
        let problem = DesignProblem::new(target).with_function("f", dtd("r -> a"));
        let doc = DistributedDoc::parse("s(f f)", ["f"]).unwrap();
        assert!(agree(&problem, &doc));
    }

    #[test]
    fn typecheck_reuses_the_cached_target() {
        let problem = DesignProblem::new(dtd("s -> a, b*\nb -> c?"))
            .with_function("f", dtd("r -> b, b\nb -> c?"));
        let doc = DistributedDoc::parse("s(a f)", ["f"]).unwrap();
        assert!(!problem.target_cache_ready());
        assert!(problem.typecheck(&doc).unwrap().is_valid());
        assert!(problem.target_cache_ready());
        // Repeated decisions hand back the very same determinised target.
        let first = problem.target_cache().duta() as *const _;
        assert!(problem.typecheck(&doc).unwrap().is_valid());
        assert!(problem.verify_local(&doc).unwrap().is_valid());
        let second = problem.target_cache().duta() as *const _;
        assert!(std::ptr::eq(first, second), "typecheck must not re-determinise the target");
        // Replacing the target invalidates the cache.
        let mut changed = problem.clone();
        changed.set_doc_schema(dtd("s -> a"));
        assert!(!changed.target_cache_ready());
        assert!(!changed.typecheck(&doc).unwrap().is_valid());
    }

    #[test]
    fn verify_local_reuses_cached_reduced_schemas() {
        let problem = DesignProblem::new(dtd("s -> a, b*\nb -> c?"))
            .with_function("f", dtd("r -> b, b\nb -> c?\njunk -> junk"));
        let doc = DistributedDoc::parse("s(a f)", ["f"]).unwrap();
        assert!(problem.verify_local(&doc).unwrap().is_valid());
        let f = Symbol::new("f");
        // The function is reduced once into its gap language over the
        // target's states; the unproductive `junk` rule leaves no trace.
        let first = problem.target_cache().forest_states(&f).unwrap() as *const _;
        assert!(problem.verify_local(&doc).unwrap().is_valid());
        assert!(problem.typecheck(&doc).unwrap().is_valid());
        let second = problem.target_cache().forest_states(&f).unwrap() as *const _;
        assert!(std::ptr::eq(first, second), "verify_local must not re-reduce function schemas");
        // Declaring a new function invalidates the problem cache.
        let mut changed = problem.clone();
        changed.add_function("g", dtd("r -> b"));
        assert!(!changed.target_cache_ready());
        assert!(changed.target_cache().forest_states(&Symbol::new("g")).is_some());
    }

    #[test]
    fn agreement_on_unproductive_recursive_schemas() {
        // Target with an empty language: `a -> a` never bottoms out, and the
        // start symbol requires an `a`. The kernel r(a) cannot validate; both
        // routes must refute, exercising the `bound_names` fixpoint.
        let empty_target = dtd("r -> a\na -> a");
        let problem = DesignProblem::new(empty_target);
        let doc = DistributedDoc::parse("r(a)", [] as [&str; 0]).unwrap();
        assert!(!agree(&problem, &doc));

        // Target whose unproductive branch is avoidable: `s -> b | a` with
        // `a -> a`; a kernel using only `b` stays valid.
        let avoidable = dtd("s -> b | a\na -> a");
        let problem2 = DesignProblem::new(avoidable.clone());
        assert!(agree(&problem2, &DistributedDoc::parse("s(b)", [] as [&str; 0]).unwrap()));
        assert!(!agree(&problem2, &DistributedDoc::parse("s(a)", [] as [&str; 0]).unwrap()));

        // Function schema with an unproductive-recursive branch: the reduced
        // forest language is just `b`, and the design is valid.
        let problem3 = DesignProblem::new(dtd("s -> b*"))
            .with_function("f", dtd("r -> b | a\na -> a"));
        let doc3 = DistributedDoc::parse("s(f)", ["f"]).unwrap();
        assert!(agree(&problem3, &doc3));

        // Mutually-recursive unproductive function schema: empty language,
        // vacuously valid (no extension exists).
        let problem4 = DesignProblem::new(dtd("s -> a"))
            .with_function("f", dtd("r -> a\na -> b\nb -> a"));
        assert!(agree(&problem4, &doc3));
    }

    #[test]
    fn agreement_when_element_names_overlap_function_names() {
        // The target declares an *element* literally named `f`, while the
        // kernel also calls a *function* named `f`. The docking-point leaf is
        // a call; the trees the call returns contain `f`-elements.
        let target = dtd("s -> f, a\nf -> a?");
        let problem = DesignProblem::new(target.clone())
            .with_function("f", dtd("r -> f\nf -> a?"));
        let doc = DistributedDoc::parse("s(f a)", ["f"]).unwrap();
        assert!(agree(&problem, &doc));

        // An f-forest violating the target's `f` content model is caught.
        let bad = DesignProblem::new(target).with_function("f", dtd("r -> f\nf -> a, a"));
        assert!(!agree(&bad, &doc));

        // Elements whose names textually embed the mangling prefixes used by
        // the extension automaton (`f$…`, `#k…`) must not collide. `$` is
        // not parseable syntax, so the schemas and kernel are built directly.
        let fa = Symbol::new("f$a");
        let mut tricky_target = RDtd::new(dxml_automata::RFormalism::Nre, "s");
        tricky_target.set_rule(
            "s",
            dxml_automata::RSpec::Nre(dxml_automata::Regex::concat(vec![
                dxml_automata::Regex::Sym(fa),
                dxml_automata::Regex::sym("#k0").star(),
            ])),
        );
        let mut gschema = RDtd::new(dxml_automata::RFormalism::Nre, "r");
        gschema.set_rule("r", dxml_automata::RSpec::Nre(dxml_automata::Regex::sym("#k0").star()));
        let tricky = DesignProblem::new(tricky_target).with_function("g", gschema);
        let kernel = dxml_tree::XTree::node(
            Symbol::new("s"),
            vec![dxml_tree::XTree::leaf(fa), dxml_tree::XTree::leaf(Symbol::new("g"))],
        );
        let tricky_doc = DistributedDoc::new(kernel, ["g"]).unwrap();
        assert!(agree(&tricky, &tricky_doc));
    }

    #[test]
    fn extension_nuta_recognises_materialisations() {
        let problem = DesignProblem::new(dtd("s -> a, b*\nb -> c?"))
            .with_function("f", dtd("r -> b, b\nb -> c?"));
        let doc = DistributedDoc::parse("s(a f)", ["f"]).unwrap();
        let ext = problem.extension_nuta(&doc).unwrap();
        assert!(ext.accepts(&parse_term("s(a b b)").unwrap()));
        assert!(ext.accepts(&parse_term("s(a b(c) b)").unwrap()));
        // Not an extension: the forest must contribute exactly two b's.
        assert!(!ext.accepts(&parse_term("s(a b)").unwrap()));
        assert!(!ext.accepts(&parse_term("s(a)").unwrap()));
    }
}
