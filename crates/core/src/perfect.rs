//! Perfect typing — maximal function-schema synthesis (Section 6).
//!
//! [`DesignProblem::typecheck`] answers "does this design typecheck?".
//! This module answers the question the paper is actually about: *what are
//! the most permissive function schemas for which it would?* For a DTD
//! target `τ` and a function `f` docking into the kernel, the **perfect
//! schema** of `f` is the schema with the largest content models such that
//! the design still typechecks when `f` is given that schema (the other
//! functions keep their declared schemas).
//!
//! # Construction
//!
//! The synthesis is [`BoxDesignProblem::perfect_schema`](crate::BoxDesignProblem::perfect_schema)
//! run on the
//! trivial EDTD embedding of the problem, in the style of
//! implicit-hitting-set abduction:
//!
//! 1. **Candidate construction.** Inside the forests `f` may return, target
//!    validation is per-node-local, so the maximal content model of an
//!    element `a` is the target's own `π(a)` restricted to productive
//!    names. The only genuinely constrained language is the *forest*
//!    language `W` contributed at the docking points: for a docking point
//!    under a kernel node labelled `b`, with sibling languages `P` (to the
//!    left) and `S` (to the right), the admissible words are the universal
//!    residual `{ w : ∀u∈P, ∀v∈S, u·w·v ∈ π(b) }`. When `f` docks
//!    *several times under the same parent*, the candidate is the uniform
//!    residual instead: the words `w` whose substitution at *every*
//!    docking point stays in `π(b)`. A DTD node is typed by its own label
//!    or not at all, so docking parents constrain `W` independently and
//!    the candidate `U` is the intersection over all of them.
//!
//!    `U` is an upper bound by construction: a forest language `V` is
//!    valid iff every combination of its words at the docking points
//!    validates, and since singletons only shrink the combination space,
//!    every `w ∈ V` has `{w}` valid, i.e. `V ⊆ U`. Consequently **a
//!    maximal schema exists iff `U` itself is valid, and is then exactly
//!    `U`** — mixed-word combinations from `U` are what the oracle below
//!    decides.
//! 2. **Refute or confirm.** The candidate is submitted to the typecheck
//!    oracle against the cached target automaton. A refutation proves —
//!    by the maximality argument above — that incomparable maximal
//!    languages exist ([`DesignError::NoMaximalSchema`]: e.g. `(a,a) |
//!    (b,b)` with two `f` docking points, where `{a}` and `{b}` are both
//!    maximal). A violation independent of `f` is found before the oracle
//!    runs: only the empty forest language typechecks then, vacuously.
//!
//! The engine's maximal R-EDTD has one specialised name per typable
//! label, so it projects 1:1 onto the DTD returned here.
//!
//! # Worked example (the paper's Eurostat scenario, Figures 1–4)
//!
//! The global type requires `eurostat → averages, nationalIndex*`; the
//! kernel stores the averages locally and docks the per-country data at a
//! single call `fNCP`. The perfect schema for `fNCP` is then: forests of
//! `nationalIndex*`, with every inner element free to use the target's own
//! content models.
//!
//! ```
//! use dxml_automata::RFormalism;
//! use dxml_core::{DesignProblem, DistributedDoc};
//! use dxml_schema::RDtd;
//!
//! let target = RDtd::parse(
//!     RFormalism::Nre,
//!     "eurostat -> averages, nationalIndex*\n\
//!      averages -> (Good, index+)+\n\
//!      nationalIndex -> country, Good, (index | value, year)\n\
//!      index -> value, year",
//! )
//! .unwrap();
//! let problem = DesignProblem::new(target);
//! let doc = DistributedDoc::parse(
//!     "eurostat(averages(Good index(value year)) fNCP)",
//!     ["fNCP"],
//! )
//! .unwrap();
//!
//! let perfect = problem.perfect_schema(&doc, "fNCP").unwrap();
//! // The forest language is nationalIndex*: both the old `index` format and
//! // the newer `value, year` format are admitted …
//! let forest = perfect.content(perfect.start()).to_nfa();
//! let national = |n: usize| vec![dxml_automata::Symbol::new("nationalIndex"); n];
//! assert!(forest.accepts(&national(0)));
//! assert!(forest.accepts(&national(3)));
//! // … and the design typechecks with the synthesised schema.
//! let solved = problem.clone().with_function("fNCP", perfect);
//! assert!(solved.typecheck(&doc).unwrap().is_valid());
//! ```

use std::collections::BTreeMap;

use dxml_automata::{Budget, RFormalism, RSpec, Symbol};
use dxml_schema::{RDtd, REdtd};

use crate::design::DesignProblem;
use crate::doc::DistributedDoc;
use crate::error::DesignError;

impl DesignProblem {
    /// Computes the **perfect schema** of `function`: the schema with the
    /// largest content models under which the design still typechecks, the
    /// other functions keeping their declared schemas (Section 6).
    ///
    /// The returned [`RDtd`]'s start symbol is a fresh name; its start
    /// content model is the maximal *forest* language of the docking
    /// points, and every other rule is the target's content model of that
    /// element restricted to productive names. Any schema the design
    /// typechecks with is a sub-schema of the result, and enlarging any
    /// returned content model by a single word over the schema's element
    /// names breaks typechecking (the property the tests assert).
    ///
    /// # Errors
    ///
    /// * [`DesignError::FunctionNotCalled`] — `function` labels no docking
    ///   point of `doc`, so every schema typechecks and no maximal one
    ///   exists.
    /// * [`DesignError::MissingFunctionSchema`] — another called function
    ///   has no declared schema.
    /// * [`DesignError::NoMaximalSchema`] — no single most-permissive
    ///   schema exists: either another function's language is empty (the
    ///   design is vacuous and every schema typechecks), or the docking
    ///   points of `function` interact through a content model with several
    ///   incomparable maximal languages.
    /// * [`DesignError::InvariantViolation`] — the typecheck oracle refuted
    ///   a candidate for a reason the construction cannot explain; a bug in
    ///   this library, never a property of the input.
    pub fn perfect_schema(
        &self,
        doc: &DistributedDoc,
        function: impl Into<Symbol>,
    ) -> Result<RDtd, DesignError> {
        self.perfect_schema_with_budget(doc, function, &Budget::unlimited())
    }

    /// Governed variant of [`DesignProblem::perfect_schema`]: the residual
    /// constructions, the cached determinisations and the confirming
    /// typecheck oracle all charge `budget`, and a trip surfaces as
    /// [`DesignError::BudgetExceeded`]. A trip leaves the problem's caches
    /// unpoisoned: retrying the same synthesis with a larger budget (or the
    /// unlimited default) succeeds and agrees with the ungoverned result.
    ///
    /// # Errors
    ///
    /// Everything [`DesignProblem::perfect_schema`] reports, plus
    /// [`DesignError::BudgetExceeded`].
    pub fn perfect_schema_with_budget(
        &self,
        doc: &DistributedDoc,
        function: impl Into<Symbol>,
        budget: &Budget,
    ) -> Result<RDtd, DesignError> {
        let schema = self.engine.perfect_schema_with_budget(doc, function, budget)?;
        Ok(project(&schema))
    }

    /// Perfect schemas for every called function of `doc`, each synthesised
    /// with the other functions keeping their declared schemas.
    pub fn perfect_schemas(
        &self,
        doc: &DistributedDoc,
    ) -> Result<BTreeMap<Symbol, RDtd>, DesignError> {
        doc.called_functions()
            .into_iter()
            .map(|f| self.perfect_schema(doc, f).map(|s| (f, s)))
            .collect()
    }
}

/// Projects a perfect R-EDTD onto its labels: every specialised name
/// becomes its element name. On a DTD target each label carries at most
/// one specialised name, so the projection is 1:1 and keeps the language.
fn project(schema: &REdtd) -> RDtd {
    let label = |name: &Symbol| schema.label_of(name).copied().unwrap_or(*name);
    let mut dtd = RDtd::new(RFormalism::Nfa, label(schema.start()));
    for (name, spec) in schema.rules() {
        dtd.set_rule(label(name), RSpec::Nfa(spec.to_nfa().map_symbols(label)));
    }
    dtd
}

#[cfg(test)]
mod tests {
    use super::*;
    use dxml_automata::equiv::included as str_included;
    use dxml_automata::symbol::word;

    fn dtd(rules: &str) -> RDtd {
        RDtd::parse(RFormalism::Nre, rules).unwrap()
    }

    fn solve(problem: &DesignProblem, doc: &DistributedDoc, f: &str, schema: RDtd) -> bool {
        problem
            .clone()
            .with_function(f, schema)
            .typecheck(doc)
            .unwrap()
            .is_valid()
    }

    #[test]
    fn single_docking_point_residual() {
        // τ(s) = a, b* and the kernel is s(a f): the forest language is b*.
        let problem = DesignProblem::new(dtd("s -> a, b*\nb -> c?"));
        let doc = DistributedDoc::parse("s(a f)", ["f"]).unwrap();
        let perfect = problem.perfect_schema(&doc, "f").unwrap();
        let forest = perfect.content(perfect.start()).to_nfa();
        assert!(forest.accepts(&[]));
        assert!(forest.accepts(&word("b b b")));
        assert!(!forest.accepts(&word("a")));
        assert!(!forest.accepts(&word("b a")));
        // The inner `b` elements inherit the target's content model c?.
        let b_content = perfect.content(&Symbol::new("b")).to_nfa();
        assert!(b_content.accepts(&[]));
        assert!(b_content.accepts(&word("c")));
        assert!(!b_content.accepts(&word("c c")));
        assert!(solve(&problem, &doc, "f", perfect));
    }

    #[test]
    fn perfect_schema_respects_fixed_sibling_functions() {
        // τ(s) = (b, c)* with kernel s(g f): g is declared to return a
        // single `b`, so f must contribute c (b c)*.
        let problem = DesignProblem::new(dtd("s -> (b, c)*")).with_function("g", dtd("r -> b"));
        let doc = DistributedDoc::parse("s(g f)", ["g", "f"]).unwrap();
        let perfect = problem.perfect_schema(&doc, "f").unwrap();
        let forest = perfect.content(perfect.start()).to_nfa();
        assert!(forest.accepts(&word("c")));
        assert!(forest.accepts(&word("c b c")));
        assert!(!forest.accepts(&[]));
        assert!(!forest.accepts(&word("b c")));
        assert!(solve(&problem, &doc, "f", perfect));
    }

    #[test]
    fn unproductive_target_names_are_excluded() {
        // τ(s) = (a | d)* but d -> d is unproductive: the perfect forest
        // language is a*, and `d` does not appear in the schema at all.
        let problem = DesignProblem::new(dtd("s -> (a | d)*\nd -> d"));
        let doc = DistributedDoc::parse("s(f)", ["f"]).unwrap();
        let perfect = problem.perfect_schema(&doc, "f").unwrap();
        let forest = perfect.content(perfect.start()).to_nfa();
        assert!(forest.accepts(&word("a a")));
        assert!(!forest.accepts(&word("d")));
        assert!(!perfect.alphabet().contains(&Symbol::new("d")));
        assert!(solve(&problem, &doc, "f", perfect));
    }

    #[test]
    fn independent_violations_force_the_empty_forest() {
        // The kernel node `x` violates τ no matter what f returns, so only
        // the empty forest language (no extension at all) typechecks.
        let problem = DesignProblem::new(dtd("s -> x, b*\nx -> a"));
        let doc = DistributedDoc::parse("s(x f)", ["f"]).unwrap();
        let perfect = problem.perfect_schema(&doc, "f").unwrap();
        assert!(perfect.content(perfect.start()).to_nfa().is_empty());
        assert!(solve(&problem, &doc, "f", perfect));
    }

    #[test]
    fn uncallable_and_vacuous_designs_are_errors() {
        let problem = DesignProblem::new(dtd("s -> a, b*"));
        let doc = DistributedDoc::parse("s(a f)", ["f"]).unwrap();
        assert!(matches!(
            problem.perfect_schema(&doc, "g"),
            Err(DesignError::FunctionNotCalled { .. })
        ));
        // `a` is an element of the kernel, not a declared function.
        assert!(matches!(
            problem.perfect_schema(&doc, "a"),
            Err(DesignError::FunctionNotCalled { .. })
        ));
        // A sibling function with an empty language makes the design
        // vacuous: every schema typechecks, no maximal one exists.
        let vacuous = DesignProblem::new(dtd("s -> a, b*")).with_function("g", dtd("r -> r"));
        let doc2 = DistributedDoc::parse("s(a f g)", ["f", "g"]).unwrap();
        assert!(matches!(
            vacuous.perfect_schema(&doc2, "f"),
            Err(DesignError::NoMaximalSchema { .. })
        ));
        // A sibling function without a schema is reported as missing.
        let missing = DesignProblem::new(dtd("s -> a, b*"));
        assert!(matches!(
            missing.perfect_schema(&doc2, "f"),
            Err(DesignError::MissingFunctionSchema { .. })
        ));
    }

    #[test]
    fn interacting_docking_points_have_no_maximum() {
        // τ(s) = (a, a) | (b, b) with kernel s(f f): {a} and {b} are both
        // maximal forest languages, so no single maximal schema exists.
        let problem = DesignProblem::new(dtd("s -> a, a | b, b"));
        let doc = DistributedDoc::parse("s(f f)", ["f"]).unwrap();
        assert!(matches!(
            problem.perfect_schema(&doc, "f"),
            Err(DesignError::NoMaximalSchema { .. })
        ));
    }

    #[test]
    fn compatible_repeated_docking_points_converge() {
        // τ(s) = a* with kernel s(f f): the candidate a* is valid as-is.
        let problem = DesignProblem::new(dtd("s -> a*"));
        let doc = DistributedDoc::parse("s(f f)", ["f"]).unwrap();
        let perfect = problem.perfect_schema(&doc, "f").unwrap();
        let forest = perfect.content(perfect.start()).to_nfa();
        assert!(forest.accepts(&[]));
        assert!(forest.accepts(&word("a a a")));
        assert!(!forest.accepts(&word("b")));
        assert!(solve(&problem, &doc, "f", perfect));
    }

    #[test]
    fn repeated_docking_points_with_unique_empty_maximum() {
        // τ(s) = a with kernel s(f f): no word can be contributed twice and
        // concatenate to the single `a`, so the *unique* maximal forest
        // language is empty — not a NoMaximalSchema situation.
        let problem = DesignProblem::new(dtd("s -> a"));
        let doc = DistributedDoc::parse("s(f f)", ["f"]).unwrap();
        let perfect = problem.perfect_schema(&doc, "f").unwrap();
        assert!(perfect.content(perfect.start()).to_nfa().is_empty());
        assert!(solve(&problem, &doc, "f", perfect));
    }

    #[test]
    fn repeated_docking_points_with_nonempty_uniform_maximum() {
        // τ(s) = (a, b)* with kernel s(f f): the uniform candidate (ab)* is
        // closed under concatenation, hence valid — and it is the unique
        // maximum, which the plain two-sided residual can never find.
        let problem = DesignProblem::new(dtd("s -> (a, b)*"));
        let doc = DistributedDoc::parse("s(f f)", ["f"]).unwrap();
        let perfect = problem.perfect_schema(&doc, "f").unwrap();
        let forest = perfect.content(perfect.start()).to_nfa();
        assert!(forest.accepts(&[]));
        assert!(forest.accepts(&word("a b")));
        assert!(forest.accepts(&word("a b a b")));
        assert!(!forest.accepts(&word("a")));
        assert!(!forest.accepts(&word("b a")));
        assert!(solve(&problem, &doc, "f", perfect));
    }

    #[test]
    fn perfect_schemas_covers_every_called_function() {
        let problem = DesignProblem::new(dtd("s -> a, b*\nb -> c?"))
            .with_function("f", dtd("r -> b"))
            .with_function("g", dtd("r -> b"));
        let doc = DistributedDoc::parse("s(a f g)", ["f", "g"]).unwrap();
        let all = problem.perfect_schemas(&doc).unwrap();
        assert_eq!(all.len(), 2);
        for (f, schema) in &all {
            assert!(solve(&problem, &doc, f.as_str(), schema.clone()), "function {f}");
        }
    }

    #[test]
    fn declared_schemas_are_subsumed_by_the_perfect_one() {
        // Whenever the design typechecks with the declared schema, that
        // schema's forest language is included in the perfect one.
        let problem = DesignProblem::new(dtd("s -> a, b*\nb -> c?"))
            .with_function("f", dtd("r -> b, b\nb -> c?"));
        let doc = DistributedDoc::parse("s(a f)", ["f"]).unwrap();
        assert!(problem.typecheck(&doc).unwrap().is_valid());
        let perfect = problem.perfect_schema(&doc, "f").unwrap();
        let declared = problem.fun_schema(&Symbol::new("f")).unwrap();
        let declared_forest = declared.content(declared.start()).to_nfa();
        let perfect_forest = perfect.content(perfect.start()).to_nfa();
        assert!(str_included(&declared_forest, &perfect_forest).is_ok());
    }
}
