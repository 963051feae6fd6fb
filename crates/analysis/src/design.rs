//! Design-level analysis passes over [`DesignProblem`] (DTD targets) and
//! [`BoxDesignProblem`] (EDTD targets): the schema rules applied to the
//! target and every function schema, plus the rules that need the
//! distributed document — shadowing, never-docked and schema-less
//! functions, vacuous designs, and the multi-parent docking advisory that
//! predicts `SynthesisUnsupported` for perfect-schema synthesis on
//! non-local EDTD targets.

use std::collections::BTreeSet;

use dxml_automata::Symbol;
use dxml_core::{BoxDesignProblem, DesignProblem, DistributedDoc};

use crate::cost::{
    box_design_cost, design_cost, recommended_quotas, DesignCost, ATTENTION_THRESHOLD,
    DEFAULT_HEADROOM,
};
use crate::rules::{analyze_dtd, analyze_edtd};
use crate::{sort_report, Diagnostic, Severity};

/// Analyzes a design problem with a DTD target: schema rules over the
/// target and the function schemas, plus the design-level rules. Multi-
/// parent docking is *not* flagged here — every DTD target is local, and
/// `DesignProblem::perfect_schema` synthesises it.
pub fn analyze_design(problem: &DesignProblem, doc: &DistributedDoc) -> Vec<Diagnostic> {
    let mut out = prefixed(analyze_dtd(problem.doc_schema()), "target schema");
    for (f, schema) in problem.fun_schemas() {
        out.extend(prefixed(analyze_dtd(schema), &format!("schema of function `{f}`")));
        if schema.language_is_empty() {
            out.push(empty_function_schema(f));
        }
        if problem.doc_schema().alphabet().contains(f) {
            out.push(shadowing(f));
        }
    }
    out.extend(doc_rules(
        doc,
        problem.doc_schema().language_is_empty(),
        &problem.fun_schemas().keys().copied().collect(),
    ));
    out.extend(cost_advisories(&design_cost(problem)));
    sort_report(&mut out);
    out
}

/// Analyzes a box-design problem (EDTD target): the EDTD schema rules —
/// including the definability advisories that unlock the SDTD/DTD fast
/// paths — plus the design-level rules and the multi-parent docking
/// advisory (`DX012`), which predicts exactly the condition under which
/// [`BoxDesignProblem::perfect_schema`] refuses with `SynthesisUnsupported`:
/// a function docking under several parents of a target that is not local
/// ([`BoxTargetCache::is_local`](dxml_core::BoxTargetCache::is_local)).
pub fn analyze_box_design(problem: &BoxDesignProblem, doc: &DistributedDoc) -> Vec<Diagnostic> {
    let mut out = prefixed(analyze_edtd(problem.doc_schema()), "target schema");
    for (f, schema) in problem.fun_schemas() {
        out.extend(prefixed(analyze_edtd(schema), &format!("schema of function `{f}`")));
        if schema.language_is_empty() {
            out.push(empty_function_schema(f));
        }
        if problem.doc_schema().labels().contains(f) {
            out.push(shadowing(f));
        }
    }
    out.extend(doc_rules(
        doc,
        problem.doc_schema().language_is_empty(),
        &problem.fun_schemas().keys().copied().collect(),
    ));
    // Multi-parent docking: the same scan `perfect_schema` performs. A
    // target with one specialisation per label is local without
    // determinising anything; any other is asked of the target cache.
    let kernel = doc.kernel();
    let target = problem.doc_schema();
    let local = || {
        target.labels().len() == target.specialized_names().len()
            || problem.target_cache().is_local()
    };
    for f in doc.called_functions() {
        let mut parents = BTreeSet::new();
        for parent in kernel.document_order() {
            if doc.is_function(kernel.label(parent)) {
                continue;
            }
            if kernel.children(parent).iter().any(|&c| kernel.label(c) == &f) {
                parents.insert(parent);
            }
        }
        if parents.len() > 1 && !local() {
            out.push(
                Diagnostic::new(
                    "DX012",
                    Severity::Warning,
                    format!("function `{f}`"),
                    format!(
                        "function `{f}` docks under {} distinct parents of a target whose \
                         labels have several typings: schema synthesis (`perfect_schema`) \
                         will refuse with `SynthesisUnsupported`",
                        parents.len()
                    ),
                )
                .with_suggestion(
                    "regroup the docking points under a single parent, or split the \
                     function into one function per parent",
                ),
            );
        }
    }
    out.extend(cost_advisories(&box_design_cost(problem)));
    sort_report(&mut out);
    out
}

/// The static-cost advisories: `DX015` (the recommended budget quotas)
/// and `DX016` (one location dominates the predicted cost). Both are
/// threshold-gated — they fire only when the predicted upper state bound
/// reaches [`ATTENTION_THRESHOLD`] or a rule is predicted-exponential
/// (`DX014` territory) — so cheap designs stay diagnostic-free.
fn cost_advisories(cost: &DesignCost) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let exponential = cost.target.exponential().next().is_some()
        || cost.functions.iter().any(|(_, s)| s.exponential().next().is_some());
    if cost.states.upper < ATTENTION_THRESHOLD && !exponential {
        return out;
    }
    let (state_quota, step_quota) = recommended_quotas(cost, DEFAULT_HEADROOM);
    out.push(
        Diagnostic::new(
            "DX015",
            Severity::Info,
            "design",
            format!(
                "predicted determinisation cost: {} subset states, {} governed steps \
                 (determinised tree target: {} states)",
                cost.states, cost.steps, cost.duta_states
            ),
        )
        .with_suggestion(format!(
            "run this design governed: `cost::recommend_budget` synthesises a budget \
             with state quota {state_quota} and step quota {step_quota} \
             (headroom {DEFAULT_HEADROOM})"
        )),
    );
    if let Some(dom) = &cost.dominant {
        out.push(Diagnostic::new(
            "DX016",
            Severity::Info,
            dom.location.clone(),
            format!(
                "this content model dominates the design's predicted cost: {} of the \
                 {} upper-bound subset states",
                dom.upper, dom.total_upper
            ),
        ));
    }
    out
}

/// The document-dependent rules shared by both passes: vacuous designs,
/// never-docked functions and called-but-schema-less functions.
fn doc_rules(
    doc: &DistributedDoc,
    target_empty: bool,
    declared: &BTreeSet<Symbol>,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if target_empty {
        out.push(Diagnostic::new(
            "DX008",
            Severity::Error,
            "design",
            "the design is vacuous: the target schema's language is empty, so no \
             materialisation of any document can typecheck",
        ));
    }
    let called = doc.called_functions();
    for f in declared {
        if !called.contains(f) {
            out.push(
                Diagnostic::new(
                    "DX010",
                    Severity::Warning,
                    format!("function `{f}`"),
                    format!("function `{f}` has a schema but the document never calls it"),
                )
                .with_suggestion("remove the unused schema or dock the function in the kernel"),
            );
        }
    }
    for f in &called {
        if !declared.contains(f) {
            out.push(Diagnostic::new(
                "DX011",
                Severity::Error,
                format!("function `{f}`"),
                format!(
                    "function `{f}` is called by the document but has no schema: \
                     typechecking will fail with `MissingFunctionSchema`"
                ),
            ));
        }
    }
    out
}

fn empty_function_schema(f: &Symbol) -> Diagnostic {
    Diagnostic::new(
        "DX013",
        Severity::Warning,
        format!("function `{f}`"),
        format!(
            "the schema of function `{f}` has an empty language: every call site is \
             unsatisfiable and the design cannot typecheck once `{f}` is called"
        ),
    )
}

fn shadowing(f: &Symbol) -> Diagnostic {
    Diagnostic::new(
        "DX009",
        Severity::Warning,
        format!("function `{f}`"),
        format!(
            "function `{f}` shares its name with an element of the target schema: \
             kernel nodes labelled `{f}` are docking points, never plain elements"
        ),
    )
    .with_suggestion("rename the function; docking is detected purely by label")
}

fn prefixed(mut report: Vec<Diagnostic>, prefix: &str) -> Vec<Diagnostic> {
    for d in &mut report {
        d.location = format!("{prefix}: {}", d.location);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use dxml_automata::{RFormalism, RSpec, Regex};
    use dxml_schema::{RDtd, REdtd};
    use dxml_tree::XTree;

    fn codes(report: &[Diagnostic]) -> Vec<&'static str> {
        report.iter().map(|d| d.code).collect()
    }

    /// Target `s -> a, f?`; kernel `s(a f)`; one function `f` returning `a`.
    fn simple_design() -> (DesignProblem, DistributedDoc) {
        let mut target = RDtd::new(RFormalism::Nre, "s");
        target.set_rule("s", RSpec::Nre(Regex::parse("a, a?").unwrap()));
        let mut fschema = RDtd::new(RFormalism::Nre, "a");
        fschema.add_element("a");
        let problem = DesignProblem::new(target).with_function("f", fschema);
        let mut kernel = XTree::leaf("s");
        kernel.add_child(0, "a");
        kernel.add_child(0, "f");
        let doc = DistributedDoc::new(kernel, ["f"]).unwrap();
        (problem, doc)
    }

    #[test]
    fn clean_design_yields_no_diagnostics() {
        let (problem, doc) = simple_design();
        let report = analyze_design(&problem, &doc);
        assert!(report.is_empty(), "{report:?}");
        assert!(problem.typecheck(&doc).unwrap().is_valid());
    }

    #[test]
    fn never_docked_and_missing_schema_functions() {
        let (problem, doc) = simple_design();
        // `g` declared but never called.
        let mut extra = RDtd::new(RFormalism::Nre, "a");
        extra.add_element("a");
        let problem = problem.with_function("g", extra);
        let report = analyze_design(&problem, &doc);
        assert_eq!(codes(&report), vec!["DX010"]);
        // `h` called but undeclared.
        let mut kernel = XTree::leaf("s");
        kernel.add_child(0, "a");
        kernel.add_child(0, "h");
        let doc2 = DistributedDoc::new(kernel, ["h"]).unwrap();
        let report = analyze_design(&problem, &doc2);
        assert!(codes(&report).contains(&"DX011"));
        assert_eq!(report[0].severity, Severity::Error);
    }

    #[test]
    fn vacuous_designs_and_empty_function_schemas() {
        let (_, doc) = simple_design();
        let mut empty_target = RDtd::new(RFormalism::Nre, "s");
        empty_target.set_rule("s", RSpec::Nre(Regex::sym("s")));
        let mut empty_fun = RDtd::new(RFormalism::Nre, "r");
        empty_fun.set_rule("r", RSpec::Nre(Regex::sym("r")));
        let problem = DesignProblem::new(empty_target).with_function("f", empty_fun);
        let report = analyze_design(&problem, &doc);
        let c = codes(&report);
        assert!(c.contains(&"DX008"), "{c:?}");
        assert!(c.contains(&"DX013"), "{c:?}");
        // DX008 is design-level; the target schema's own DX001 also fires,
        // prefixed with its location.
        assert!(report.iter().any(|d| d.code == "DX001" && d.location.starts_with("target")));
    }

    #[test]
    fn shadowing_functions_are_flagged() {
        let (problem, _) = simple_design();
        let mut fschema = RDtd::new(RFormalism::Nre, "a");
        fschema.add_element("a");
        // `a` is an element of the target — shadowed.
        let problem = problem.with_function("a", fschema);
        let mut kernel = XTree::leaf("s");
        kernel.add_child(0, "a");
        kernel.add_child(0, "f");
        let doc = DistributedDoc::new(kernel, ["f", "a"]).unwrap();
        let report = analyze_design(&problem, &doc);
        assert!(codes(&report).contains(&"DX009"), "{report:?}");
    }

    #[test]
    fn multi_parent_docking_predicts_synthesis_unsupported() {
        // Target s -> t t where each `t` is typed `ta` or `tb` by its
        // children: `f` docks under both `t` nodes of a non-local target.
        let mut target = REdtd::new(RFormalism::Nre, "s", "s");
        target.add_specialization("ta", "t");
        target.add_specialization("tb", "t");
        target.set_rule("s", RSpec::Nre(Regex::parse("ta, tb").unwrap()));
        target.set_rule("ta", RSpec::Nre(Regex::parse("c?").unwrap()));
        target.set_rule("tb", RSpec::Nre(Regex::parse("c, c").unwrap()));
        let mut fschema = REdtd::new(RFormalism::Nre, "c", "c");
        fschema.add_specialization("c", "c");
        let problem = BoxDesignProblem::new(target).with_function("f", fschema.clone());
        let two_parents = |parent: &str| {
            let mut kernel = XTree::leaf("s");
            let t1 = kernel.add_child(0, parent);
            let t2 = kernel.add_child(0, parent);
            kernel.add_child(t1, "f");
            kernel.add_child(t2, "f");
            DistributedDoc::new(kernel, ["f"]).unwrap()
        };
        let doc = two_parents("t");
        let report = analyze_box_design(&problem, &doc);
        assert!(codes(&report).contains(&"DX012"), "{report:?}");
        // The advisory predicts the actual synthesis error.
        assert!(matches!(
            problem.perfect_schema(&doc, "f"),
            Err(dxml_core::DesignError::SynthesisUnsupported { .. })
        ));
        // A single-parent variant is clean.
        let mut kernel = XTree::leaf("s");
        let t1 = kernel.add_child(0, "t");
        kernel.add_child(0, "t");
        kernel.add_child(t1, "f");
        let doc = DistributedDoc::new(kernel, ["f"]).unwrap();
        let report = analyze_box_design(&problem, &doc);
        assert!(!codes(&report).contains(&"DX012"), "{report:?}");
        // On a local target (s -> b b, b -> c?) the two-parent kernel is
        // clean and synthesis succeeds.
        let mut target = REdtd::new(RFormalism::Nre, "s", "s");
        target.set_rule("s", RSpec::Nre(Regex::parse("b, b").unwrap()));
        target.set_rule("b", RSpec::Nre(Regex::parse("c?").unwrap()));
        let problem = BoxDesignProblem::new(target).with_function("f", fschema);
        let doc = two_parents("b");
        let report = analyze_box_design(&problem, &doc);
        assert!(!codes(&report).contains(&"DX012"), "{report:?}");
        let perfect = problem.perfect_schema(&doc, "f").expect("local targets synthesise");
        let solved = problem.clone().with_function("f", perfect);
        assert!(solved.typecheck(&doc).unwrap().is_valid());
    }

    #[test]
    fn cost_advisories_fire_only_above_the_attention_threshold() {
        // A predicted-exponential rule pushes the design over the gate:
        // DX014 on the rule, DX015 with the recommended quotas, DX016 on
        // the dominating location.
        let mut target = RDtd::parse(RFormalism::Nre, "s -> a?").unwrap();
        let tail = " (a | b)".repeat(9);
        target.set_rule("a", RSpec::Nre(Regex::parse(&format!("(a | b)* a{tail}")).unwrap()));
        let problem = DesignProblem::new(target);
        let mut kernel = XTree::leaf("s");
        kernel.add_child(0, "a");
        let doc = DistributedDoc::new(kernel, Vec::<Symbol>::new()).unwrap();
        let report = analyze_design(&problem, &doc);
        let c = codes(&report);
        assert!(c.contains(&"DX014"), "{c:?}");
        assert!(c.contains(&"DX015"), "{c:?}");
        assert!(c.contains(&"DX016"), "{c:?}");
        let dx15 = report.iter().find(|d| d.code == "DX015").unwrap();
        assert_eq!(dx15.severity, Severity::Info);
        assert!(
            dx15.suggestion.as_deref().is_some_and(|s| s.contains("state quota")),
            "{:?}",
            dx15.suggestion
        );
        let dx16 = report.iter().find(|d| d.code == "DX016").unwrap();
        assert!(dx16.location.contains("element `a`"), "{}", dx16.location);
    }

    #[test]
    fn box_targets_get_definability_advisories() {
        // An EDTD target that is secretly a DTD: advisory DX007 fires on
        // the target schema, prefixed with its location.
        let mut target = REdtd::new(RFormalism::Nre, "s", "s");
        target.add_specialization("x", "a");
        target.add_specialization("y", "a");
        target.set_rule("s", RSpec::Nre(Regex::parse("x y*").unwrap()));
        target.set_rule("x", RSpec::Nre(Regex::parse("b").unwrap()));
        target.set_rule("y", RSpec::Nre(Regex::parse("b").unwrap()));
        let problem = BoxDesignProblem::new(target);
        let mut kernel = XTree::leaf("s");
        let a = kernel.add_child(0, "a");
        kernel.add_child(a, "b");
        let doc = DistributedDoc::new(kernel, Vec::<Symbol>::new()).unwrap();
        let report = analyze_box_design(&problem, &doc);
        let advisory = report.iter().find(|d| d.code == "DX007").expect("DTD-definable target");
        assert!(advisory.location.starts_with("target schema"), "{}", advisory.location);
    }
}
