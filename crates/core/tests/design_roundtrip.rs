//! Cross-crate integration: W3C `<!ELEMENT …>` parsing (`dxml-schema`) →
//! distributed document with function calls (`dxml-core`) → typing verdict
//! with the counterexample the paper's Example 1 scenario predicts
//! (`dxml-tree` + `dxml-automata` underneath).

use std::collections::BTreeMap;

use dxml_automata::{RFormalism, Symbol};
use dxml_core::{DesignProblem, DistributedDoc, LocalVerdict, LocalViolation, TypingVerdict};
use dxml_schema::{RDtd, SchemaError};
use dxml_tree::term::{parse_forest, parse_term};

/// The Eurostat NCPI global type τ of Figure 3, in the W3C syntax, with
/// deterministic (dRE) content models as the standard requires.
fn eurostat_target() -> RDtd {
    RDtd::parse_w3c(
        RFormalism::Dre,
        r#"<!-- Figure 3: the global type of the Eurostat NCPI document -->
           <!ELEMENT eurostat (averages, nationalIndex*)>
           <!ELEMENT averages (Good, index+)+>
           <!ELEMENT nationalIndex (country, Good, (index | (value, year)))>
           <!ELEMENT index (value, year)>
           <!ELEMENT country (#PCDATA)>
           <!ELEMENT Good (#PCDATA)>
           <!ELEMENT value (#PCDATA)>
           <!ELEMENT year (#PCDATA)>"#,
    )
    .expect("the Figure 3 DTD parses")
}

/// A national-statistics-office function returning well-typed
/// `nationalIndex` entries (old format: nested `index`).
fn well_typed_office() -> RDtd {
    RDtd::parse(
        RFormalism::Dre,
        "natResult -> nationalIndex*\n\
         nationalIndex -> country, Good, index\n\
         index -> value, year",
    )
    .unwrap()
}

/// An office whose results use a format the target forbids: `index`
/// followed by a stray `value` — the Example 1 shape, where one resource's
/// local format breaks the global type.
fn ill_typed_office() -> RDtd {
    RDtd::parse(
        RFormalism::Dre,
        "natResult -> nationalIndex*\n\
         nationalIndex -> country, Good, index, value\n\
         index -> value, year",
    )
    .unwrap()
}

/// Kernel of the distributed Eurostat document: the averages are stored
/// locally, the per-country indexes come from two function calls.
fn kernel() -> DistributedDoc {
    DistributedDoc::parse(
        "eurostat(averages(Good index(value year)) fDE fFR)",
        ["fDE", "fFR"],
    )
    .unwrap()
}

#[test]
fn well_typed_design_accepts() {
    let problem = DesignProblem::new(eurostat_target())
        .with_function("fDE", well_typed_office())
        .with_function("fFR", well_typed_office());
    let doc = kernel();
    assert!(problem.typecheck(&doc).unwrap().is_valid());
    assert!(problem.verify_local(&doc).unwrap().is_valid());

    // A materialised snapshot validates against the target directly.
    let mut results = BTreeMap::new();
    results.insert(
        Symbol::new("fDE"),
        parse_forest("nationalIndex(country Good index(value year))").unwrap(),
    );
    results.insert(Symbol::new("fFR"), parse_forest("").unwrap());
    let ext = doc.materialize(&results).unwrap();
    assert!(eurostat_target().accepts(&ext));
}

#[test]
fn ill_typed_design_rejects_with_predicted_counterexample() {
    let problem = DesignProblem::new(eurostat_target())
        .with_function("fDE", well_typed_office())
        .with_function("fFR", ill_typed_office());
    let doc = kernel();

    // The tree-level check produces a full bad extension whose violation is
    // exactly the predicted one: a nationalIndex with children
    // [country Good index value], which the target content model
    // (country, Good, (index | (value, year))) forbids.
    match problem.typecheck(&doc).unwrap() {
        TypingVerdict::Invalid { counterexample, violation } => {
            assert!(problem.extension_nuta(&doc).unwrap().accepts(&counterexample));
            assert!(!eurostat_target().accepts(&counterexample));
            match violation {
                SchemaError::InvalidContent { path, children, .. } => {
                    assert_eq!(path.last().unwrap().as_str(), "nationalIndex");
                    assert_eq!(
                        children,
                        vec![
                            Symbol::new("country"),
                            Symbol::new("Good"),
                            Symbol::new("index"),
                            Symbol::new("value"),
                        ]
                    );
                }
                other => panic!("expected InvalidContent, got {other}"),
            }
        }
        TypingVerdict::Valid => panic!("the ill-typed design must be rejected"),
    }

    // The string-level check pins the same violation as a word
    // counterexample inside the documents returned by fFR.
    match problem.verify_local(&doc).unwrap() {
        LocalVerdict::Invalid(LocalViolation::Content { element, counterexample, .. }) => {
            assert_eq!(element.as_str(), "nationalIndex");
            assert_eq!(
                counterexample,
                vec![
                    Symbol::new("country"),
                    Symbol::new("Good"),
                    Symbol::new("index"),
                    Symbol::new("value"),
                ]
            );
        }
        other => panic!("expected a content violation, got {other:?}"),
    }
}

#[test]
fn typecheck_and_local_check_agree_on_a_battery() {
    let target = eurostat_target();
    let offices = [well_typed_office(), ill_typed_office()];
    let kernels = [
        "eurostat(averages(Good index(value year)) fDE)",
        "eurostat(averages(Good index(value year)) fDE fFR)",
        "eurostat(averages(Good index(value year)) nationalIndex(country Good value year) fFR)",
        "eurostat(fDE averages(Good index(value year)))",
    ];
    for (i, a) in offices.iter().enumerate() {
        for (j, b) in offices.iter().enumerate() {
            for k in kernels {
                let problem = DesignProblem::new(target.clone())
                    .with_function("fDE", a.clone())
                    .with_function("fFR", b.clone());
                let doc = DistributedDoc::parse(k, ["fDE", "fFR"]).unwrap();
                let global = problem.typecheck(&doc).unwrap().is_valid();
                let local = problem.verify_local(&doc).unwrap().is_valid();
                assert_eq!(global, local, "disagreement for offices ({i},{j}) kernel {k}");
            }
        }
    }
}

#[test]
fn materialised_snapshots_sample_the_extension_language() {
    // Every sample of a function schema, materialised, is accepted by the
    // extension automaton; and whenever the design typechecks it validates.
    let problem = DesignProblem::new(eurostat_target())
        .with_function("fDE", well_typed_office())
        .with_function("fFR", well_typed_office());
    let doc = kernel();
    let ext = problem.extension_nuta(&doc).unwrap();

    let sample = well_typed_office().sample_tree().expect("office schema is non-empty");
    let forest: Vec<_> = sample
        .children(sample.root())
        .iter()
        .map(|&c| sample.subtree(c))
        .collect();
    let mut results = BTreeMap::new();
    results.insert(Symbol::new("fDE"), forest.clone());
    results.insert(Symbol::new("fFR"), forest);
    let materialised = doc.materialize(&results).unwrap();
    assert!(ext.accepts(&materialised));
    assert!(eurostat_target().accepts(&materialised));
}

#[test]
fn w3c_and_compact_routes_build_the_same_problem() {
    // The same target written in the compact syntax yields the same verdicts.
    let compact = RDtd::parse(
        RFormalism::Dre,
        "eurostat -> averages, nationalIndex*\n\
         averages -> (Good, index+)+\n\
         nationalIndex -> country, Good, (index | value, year)\n\
         index -> value, year",
    )
    .unwrap();
    assert!(compact.equivalent(&eurostat_target()));

    let doc = kernel();
    for office in [well_typed_office(), ill_typed_office()] {
        let via_w3c = DesignProblem::new(eurostat_target())
            .with_function("fDE", office.clone())
            .with_function("fFR", office.clone());
        let via_compact = DesignProblem::new(compact.clone())
            .with_function("fDE", office.clone())
            .with_function("fFR", office);
        assert_eq!(
            via_w3c.typecheck(&doc).unwrap().is_valid(),
            via_compact.typecheck(&doc).unwrap().is_valid()
        );
    }
}

#[test]
fn rejects_kernel_breaking_the_global_type_without_functions() {
    // No functions at all: typing verification degenerates to validation.
    let target = eurostat_target();
    let problem = DesignProblem::new(target.clone());
    let plain = DistributedDoc::new(
        parse_term("eurostat(averages(Good index(value year)))").unwrap(),
        [] as [&str; 0],
    )
    .unwrap();
    assert!(problem.typecheck(&plain).unwrap().is_valid());

    let bad = DistributedDoc::new(parse_term("eurostat").unwrap(), [] as [&str; 0]).unwrap();
    assert!(!problem.typecheck(&bad).unwrap().is_valid());
    assert!(!problem.verify_local(&bad).unwrap().is_valid());
}

#[test]
fn refuted_deep_kernel_yields_a_rejected_counterexample() {
    // s(a(a(…a(f)…))) with 10,000 `a`s: f returns `b b`, which no `a`
    // admits, so the only violation sits at the bottom of the kernel.
    let depth = 10_000;
    let target = RDtd::parse(RFormalism::Nre, "s -> a\na -> a | b\nb -> ε").unwrap();
    let fun = RDtd::parse(RFormalism::Nre, "r -> b, b\nb -> ε").unwrap();
    let problem = DesignProblem::new(target.clone()).with_function("f", fun);
    let term = format!("s({}f{})", "a(".repeat(depth), ")".repeat(depth));
    let doc = DistributedDoc::parse(&term, ["f"]).unwrap();
    match problem.typecheck(&doc).unwrap() {
        TypingVerdict::Invalid { counterexample, .. } => {
            assert_eq!(counterexample.size(), depth + 3);
            match target.validate(&counterexample) {
                Err(SchemaError::InvalidContent { path, children, .. }) => {
                    assert_eq!(path.len(), depth + 1);
                    assert_eq!(children, vec![Symbol::new("b"), Symbol::new("b")]);
                }
                other => panic!("expected InvalidContent, got {other:?}"),
            }
        }
        TypingVerdict::Valid => panic!("the deep design must be rejected"),
    }
}
