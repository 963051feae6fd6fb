//! Static cost analysis: the `dxml-analysis::cost` predictor itself.
//!
//! Two jobs. First, **calibration guards**: before any timing, the cases
//! re-assert the model's contract — `lower ≤ actual ≤ upper` against the
//! telemetry counters a real content-model determinisation records, the
//! `DX014` flagging of the adversarial suffix-counting family, and the
//! admit/trip behaviour of `recommend_budget` — so a regression in the
//! model fails the bench run before it can poison the baseline. (The full
//! corpus-wide sweep lives in `tests/cost_calibration.rs`; this re-checks
//! the pivotal shapes in release mode.)
//!
//! Second, **timing** (all warm — the predictor is pure structural
//! arithmetic with no caches): the analysis must stay orders of magnitude
//! cheaper than the work it predicts, which is what makes it usable as an
//! admission gate.
//!
//! * `content_cost_warm/n=..` — [`content_model_cost`] over every rule of
//!   the table-family DTD;
//! * `suffix_detect_warm/n=..` — [`suffix_counting`] detection on the
//!   adversarial family (the worst case: the shape matches, so every
//!   window position is inspected);
//! * `design_cost_warm/n=..` — the composed [`design_cost`] model over the
//!   design workload;
//! * `box_cost_warm/n=..` — [`box_design_cost`] over the box workload;
//! * `recommend_budget_warm/n=..` — quota synthesis on top of the design
//!   model.

use dxml_analysis::{
    analyze_schema, box_design_cost, content_model_cost, design_cost, recommend_budget,
    recommend_budget_with_headroom, suffix_counting, AnySchema,
};
use dxml_automata::{Dfa, RFormalism, Regex, RSpec};
use dxml_bench::{
    adversarial_dtd, box_workload, design_workload, dtd_family, eurostat_figure3, section, Session,
};
use dxml_core::{DesignError, DesignProblem, DistributedDoc};
use dxml_telemetry::{self as telemetry, Metric, Snapshot};

/// Re-asserts the calibration contract on the pivotal shapes: the Figure 3
/// DTD (realistic), the adversarial family (worst case) and the budget
/// admit/trip pair derived from it.
fn calibration_guards() {
    telemetry::set_enabled(true);
    let mut specs: Vec<(String, RSpec)> =
        DesignProblem::new(eurostat_figure3()).content_models();
    specs.extend(DesignProblem::new(adversarial_dtd(8)).content_models());
    for (loc, spec) in specs {
        let cost = content_model_cost(&spec);
        telemetry::reset();
        let _dfa = Dfa::from_nfa(&spec.to_nfa());
        let snap = Snapshot::take();
        assert!(
            cost.subset_states.contains(snap.counter(Metric::SubsetStates)),
            "{loc}: dfa.subset_states outside predicted {}",
            cost.subset_states
        );
        assert!(
            cost.subset_steps.contains(snap.counter(Metric::SubsetTransitions)),
            "{loc}: dfa.subset_transitions outside predicted {}",
            cost.subset_steps
        );
    }
    telemetry::set_enabled(false);

    // The adversarial family is flagged with its proved 2^n floor …
    let problem = DesignProblem::new(adversarial_dtd(10));
    let report = analyze_schema(AnySchema::Dtd(problem.doc_schema()));
    assert!(
        report.iter().any(|d| d.code == "DX014" && d.message.contains("1024")),
        "adversarial_dtd(10) must be flagged DX014 with the 2^10 bound"
    );

    // … and the derived budgets behave: zero headroom trips on a covering
    // document (verifying it determinises the target first), the default
    // headroom admits it.
    let doc = DistributedDoc::parse("s(a b b b b b b b b b)", std::iter::empty::<&str>())
        .expect("the covering document parses");
    match problem.verify_local_with_budget(&doc, &recommend_budget_with_headroom(&problem, 0.0)) {
        Err(DesignError::BudgetExceeded { .. }) => {}
        other => panic!("expected a trip below the proved floor, got {other:?}"),
    }
    problem
        .verify_local_with_budget(&doc, &recommend_budget(&problem))
        .expect("the default-headroom budget admits the adversarial run");
}

fn main() {
    let mut session = Session::new("cost_analysis");

    section("cost_analysis: calibration guards");
    calibration_guards();
    println!("  predictions bracket actuals; DX014 + budget admit/trip hold");

    section("cost_analysis: predictor timing");
    for n in [4usize, 8, 12] {
        let specs = DesignProblem::new(dtd_family(RFormalism::Nre, n, 7)).content_models();
        session.bench(&format!("content_cost_warm/n={n}"), 50, || {
            specs.iter().map(|(_, s)| content_model_cost(s).subset_states.upper).max()
        });
    }
    for n in [8usize, 16, 32] {
        let re = {
            let ab = || Regex::alt(vec![Regex::sym("a"), Regex::sym("b")]);
            let mut parts = vec![ab().star(), Regex::sym("a")];
            parts.extend((1..n).map(|_| ab()));
            Regex::concat(parts)
        };
        session.bench(&format!("suffix_detect_warm/n={n}"), 50, || {
            suffix_counting(&re).expect("the family matches").dfa_lower_bound
        });
    }
    for n in [8usize, 16, 32] {
        let (problem, _) = design_workload(n, 3, 7);
        session.bench(&format!("design_cost_warm/n={n}"), 25, || {
            design_cost(&problem).states.upper
        });
        session.bench(&format!("recommend_budget_warm/n={n}"), 25, || {
            recommend_budget(&problem)
        });
    }
    for n in [4usize, 8, 16] {
        let (problem, _) = box_workload(n);
        session.bench(&format!("box_cost_warm/n={n}"), 25, || {
            box_design_cost(&problem).states.upper
        });
    }

    session.finish();
}
