//! Differential calibration of the static cost model (`dxml-analysis`'s
//! `cost` module) against the engine's telemetry counters.
//!
//! The cost model predicts, per content model, a `[lower … upper]` bracket
//! on the `dfa.subset_states` / `dfa.subset_transitions` a determinisation
//! will record, and per design a bracket on the states and steps the cold
//! target-cache build charges to its budget. These tests run the real
//! engine over the bench corpus and assert `lower ≤ actual ≤ upper` for
//! every content model and every design — the calibration contract of the
//! model. Two budget tests close the loop: `recommend_budget` must admit
//! every corpus workload, while the zero-headroom budget must trip on the
//! adversarial suffix-counting family it is derived from.
//!
//! The telemetry registry is process-global, so every test takes the same
//! mutex and resets the counters itself.

use std::sync::{Mutex, MutexGuard, OnceLock};

use dxml_analysis::{
    analyze_schema, box_design_cost, content_model_cost, design_cost, recommend_box_budget,
    recommend_budget, recommend_budget_with_headroom, AnySchema, DesignCost,
};
use dxml_automata::{Budget, Dfa, RFormalism, RSpec};
use dxml_bench::{adversarial_dtd, box_workload, design_workload, dtd_family, eurostat_figure3};
use dxml_core::{BoxDesignProblem, DesignError, DesignProblem, DistributedDoc};
use dxml_telemetry::{self as telemetry, Metric, Snapshot};

/// Serialises the tests touching the process-global telemetry registry.
fn telemetry_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Every content model of the bench corpus, labelled, plus the adversarial
/// suffix-counting family at a size that is still cheap to determinise.
fn corpus_specs() -> Vec<(String, RSpec)> {
    let mut specs = Vec::new();
    let mut push_all = |tag: &str, models: Vec<(String, RSpec)>| {
        specs.extend(models.into_iter().map(|(loc, s)| (format!("{tag}: {loc}"), s)));
    };
    push_all("eurostat", DesignProblem::new(eurostat_figure3()).content_models());
    for formalism in RFormalism::ALL {
        let dtd = dtd_family(formalism, 12, 7);
        push_all(&format!("dtd_family({formalism})"), DesignProblem::new(dtd).content_models());
    }
    let (problem, _) = design_workload(12, 3, 7);
    push_all("design_workload", problem.content_models());
    let (problem, _) = box_workload(6);
    push_all("box_workload", problem.content_models());
    push_all("adversarial(8)", DesignProblem::new(adversarial_dtd(8)).content_models());
    specs
}

#[test]
fn subset_construction_stays_within_the_predicted_bracket() {
    let _guard = telemetry_lock();
    telemetry::set_enabled(true);
    let specs = corpus_specs();
    assert!(specs.len() >= 40, "the corpus should exercise the model broadly");
    for (loc, spec) in specs {
        let cost = content_model_cost(&spec);
        telemetry::reset();
        let _dfa = Dfa::from_nfa(&spec.to_nfa());
        let snap = Snapshot::take();
        let states = snap.counter(Metric::SubsetStates);
        let steps = snap.counter(Metric::SubsetTransitions);
        assert!(
            cost.subset_states.contains(states),
            "{loc}: dfa.subset_states = {states} outside predicted {}",
            cost.subset_states
        );
        assert!(
            cost.subset_steps.contains(steps),
            "{loc}: dfa.subset_transitions = {steps} outside predicted {}",
            cost.subset_steps
        );
    }
    telemetry::set_enabled(false);
}

/// The designs whose cold target-cache build is calibrated: every DTD and
/// box workload shape of the bench corpus, including the adversarial family.
fn corpus_designs() -> Vec<(String, DesignCost, BoxDesignProblem)> {
    let mut out = Vec::new();
    let mut push_dtd = |tag: String, problem: DesignProblem| {
        out.push((tag, design_cost(&problem), BoxDesignProblem::from(&problem)));
    };
    push_dtd("eurostat".into(), DesignProblem::new(eurostat_figure3()));
    for n in [8, 10] {
        push_dtd(format!("adversarial_dtd({n})"), DesignProblem::new(adversarial_dtd(n)));
    }
    for n in [8, 12, 16, 28, 32] {
        push_dtd(format!("design_workload({n},3,7)"), design_workload(n, 3, 7).0);
    }
    for n in [4, 6, 8, 16] {
        let (problem, _) = box_workload(n);
        out.push((format!("box_workload({n})"), box_design_cost(&problem), problem));
    }
    out
}

#[test]
fn target_cache_build_stays_within_the_predicted_bracket() {
    for (tag, cost, problem) in corpus_designs() {
        let budget = Budget::unlimited()
            .with_step_quota(u64::MAX / 2)
            .with_state_quota(u64::MAX / 2);
        problem.target_cache_with_budget(&budget).expect("the quotas are out of reach");
        let (states, steps) = (budget.states_spent(), budget.steps_spent());
        println!(
            "{tag}: states {states} in {} (slack {:.1}x), steps {steps} in {} (slack {:.1}x)",
            cost.states,
            cost.states.upper as f64 / states as f64,
            cost.steps,
            cost.steps.upper as f64 / steps as f64,
        );
        assert!(cost.states.contains(states), "{tag}: {states} states outside {}", cost.states);
        assert!(cost.steps.contains(steps), "{tag}: {steps} steps outside {}", cost.steps);
        let dtd_target = problem
            .doc_schema()
            .specialized_names()
            .iter()
            .all(|name| problem.doc_schema().label_of(name) == Some(name));
        if dtd_target {
            let labels = problem.doc_schema().labels().len() as u64;
            // One state per label, plus the empty set.
            assert_eq!(cost.states.upper, labels + 1, "{tag}");
        }
    }
}

#[test]
fn recommended_budget_admits_every_corpus_workload() {
    let _guard = telemetry_lock();
    let (problem, doc) = design_workload(12, 3, 7);
    let budget = recommend_budget(&problem);
    problem
        .typecheck_with_budget(&doc, &budget)
        .expect("the recommended budget admits the design-workload typecheck");
    problem
        .verify_local_with_budget(&doc, &budget)
        .expect("the recommended budget admits the design-workload verification");
    problem
        .perfect_schema_with_budget(&doc, "f0", &budget)
        .expect("the recommended budget admits the design-workload synthesis");

    let (problem, doc) = box_workload(6);
    let budget = recommend_box_budget(&problem);
    problem
        .typecheck_with_budget(&doc, &budget)
        .expect("the recommended box budget admits the box-workload typecheck");
    problem
        .verify_local_with_budget(&doc, &budget)
        .expect("the recommended box budget admits the box-workload verification");
    problem
        .perfect_schema_with_budget(&doc, "f", &budget)
        .expect("the recommended box budget admits the box-workload synthesis");

    let problem = DesignProblem::new(eurostat_figure3());
    let doc = DistributedDoc::parse(
        "eurostat(averages(Good index(value year)))",
        std::iter::empty::<&str>(),
    )
    .expect("the eurostat document parses");
    let budget = recommend_budget(&problem);
    problem
        .verify_local_with_budget(&doc, &budget)
        .expect("the recommended budget admits the eurostat verification");
}

#[test]
fn zero_headroom_budget_trips_on_the_adversarial_family() {
    let _guard = telemetry_lock();
    let problem = DesignProblem::new(adversarial_dtd(10));

    // The lint flags the family with the proved 2^10 lower bound …
    let report = analyze_schema(AnySchema::Dtd(problem.doc_schema()));
    let dx014 = report
        .iter()
        .find(|d| d.code == "DX014")
        .expect("the adversarial family is flagged predicted-exponential");
    assert!(dx014.message.contains("1024"), "the 2^10 bound is named: {}", dx014.message);

    // … and a budget scaled to just below the proved floor must trip on a
    // covering document (verifying it determinises the target first), while
    // the default-headroom budget admits the same run.
    let children: Vec<&str> = std::iter::once("a").chain(std::iter::repeat("b").take(9)).collect();
    let doc = DistributedDoc::parse(
        &format!("s({})", children.join(" ")),
        std::iter::empty::<&str>(),
    )
    .expect("the covering document parses");
    let tripping = recommend_budget_with_headroom(&problem, 0.0);
    match problem.verify_local_with_budget(&doc, &tripping) {
        Err(DesignError::BudgetExceeded { .. }) => {}
        other => panic!("expected a budget trip below the proved floor, got {other:?}"),
    }
    let admitted = recommend_budget(&problem);
    problem
        .verify_local_with_budget(&doc, &admitted)
        .expect("the default-headroom budget admits the adversarial run");
}
