//! End-to-end resource governance: budgets, deadlines, cancellation and
//! fault injection across every engine entry point. The central claim under
//! test: a budget trip is a *typed verdict*, not a broken engine — the same
//! problem object answers correctly when retried with a larger (or
//! unlimited) budget, because a tripped build never initialises a cache.
//!
//! This test owns its process (integration tests build as separate
//! binaries), so the process-global fault injector cannot interfere with
//! any other test binary.

use dxml_automata::limits::faults;
use dxml_automata::{Budget, RFormalism, Resource};
use dxml_core::{
    validate_batch, validate_batch_with_budget, BoxDesignProblem, DesignError, DesignProblem,
    DistributedDoc, TypingVerdict,
};
use dxml_schema::{RDtd, RSdtd, SchemaError, StreamValidator};
use dxml_tree::XTree;

/// A design problem whose target content model is the subset-blowup family
/// `(a|b)* a (a|b)^{n-1}` — determinising it needs `2^n` states, so small
/// budgets trip and generous ones succeed.
fn blowup_problem(n: usize) -> DesignProblem {
    let mut rules = String::from("s -> (a | b)*, a");
    for _ in 0..n.saturating_sub(1) {
        rules.push_str(", (a | b)");
    }
    let target = RDtd::parse(RFormalism::Nre, &rules).unwrap();
    let fun = RDtd::parse(RFormalism::Nre, "r -> a*").unwrap();
    DesignProblem::new(target).with_function("f", fun)
}

fn doc() -> DistributedDoc {
    DistributedDoc::parse("s(f)", ["f"]).unwrap()
}

#[test]
fn typecheck_trips_promptly_and_the_same_problem_recovers() {
    let problem = blowup_problem(10);
    let doc = doc();
    match problem.typecheck_with_budget(&doc, &faults::budget_tripping_after(10)) {
        Err(DesignError::BudgetExceeded { resource: Resource::Steps, limit: 10, .. }) => {}
        other => panic!("expected a steps trip, got {other:?}"),
    }
    // The trip initialised nothing: the cache cell is still empty …
    assert!(!problem.target_cache_ready(), "a tripped build must not cache");
    // … and the *same* problem object, retried without a budget, decides.
    let free = problem.typecheck(&doc).unwrap();
    // A governed retry with a generous budget agrees.
    let governed = problem
        .typecheck_with_budget(&doc, &Budget::unlimited().with_step_quota(50_000_000))
        .unwrap();
    assert_eq!(free.is_valid(), governed.is_valid());
}

#[test]
fn verify_local_and_perfect_schema_trip_and_recover() {
    let problem = blowup_problem(9);
    let doc = doc();
    assert!(matches!(
        problem.verify_local_with_budget(&doc, &faults::expired_deadline()),
        Err(DesignError::BudgetExceeded { resource: Resource::Deadline, .. })
    ));
    assert!(matches!(
        problem.perfect_schema_with_budget(&doc, "f", &faults::budget_tripping_after(5)),
        Err(DesignError::BudgetExceeded { resource: Resource::Steps, .. })
    ));
    // Unbudgeted synthesis on the same object still succeeds and the result
    // solves the design.
    let perfect = problem.perfect_schema(&doc, "f").unwrap();
    let solved = problem.clone().with_function("f", perfect);
    assert!(solved.typecheck(&doc).unwrap().is_valid());
}

#[test]
fn cancellation_trips_at_the_entry_boundary_even_when_cached() {
    let problem = blowup_problem(6);
    let doc = doc();
    // Warm every cache first.
    assert!(problem.typecheck(&doc).is_ok());
    assert!(problem.target_cache_ready());
    // A pre-raised cancellation still trips: entry points check interrupts
    // before consulting any cache.
    let (budget, handle) = Budget::unlimited().cancellable();
    handle.cancel();
    assert!(matches!(
        problem.typecheck_with_budget(&doc, &budget),
        Err(DesignError::BudgetExceeded { resource: Resource::Cancelled, .. })
    ));
}

#[test]
fn box_problem_trips_and_recovers() {
    let problem = BoxDesignProblem::from(&blowup_problem(9));
    let doc = doc();
    match problem.typecheck_with_budget(&doc, &faults::budget_tripping_after(10)) {
        Err(DesignError::BudgetExceeded { resource: Resource::Steps, .. }) => {}
        other => panic!("expected a steps trip, got {other:?}"),
    }
    assert!(!problem.target_cache_ready(), "a tripped box build must not cache");
    assert!(matches!(
        problem.verify_local_with_budget(&doc, &faults::cancelled()),
        Err(DesignError::BudgetExceeded { resource: Resource::Cancelled, .. })
    ));
    // The same object recovers, and its verdict matches the tree-route
    // oracle on the now-cached target.
    let global = problem.typecheck(&doc).unwrap();
    let extension = problem.extension_nuta(&doc).unwrap();
    let oracle = dxml_tree::uta::included_in_duta(&extension, problem.target_cache().duta());
    assert_eq!(global.is_valid(), oracle.is_ok());
    assert_eq!(global.is_valid(), problem.verify_local(&doc).unwrap().is_valid());
    // Box perfect typing honours the budget too.
    assert!(matches!(
        problem.perfect_schema_with_budget(&doc, "f", &faults::expired_deadline()),
        Err(DesignError::BudgetExceeded { resource: Resource::Deadline, .. })
    ));
    let perfect = problem.perfect_schema(&doc, "f").unwrap();
    let solved = problem.clone().with_function("f", perfect);
    assert!(solved.typecheck(&doc).unwrap().is_valid());
}

#[test]
fn counterexample_construction_trips_and_the_same_problem_recovers() {
    // `x` admits only `b` children, but every forest of `f` ends in an
    // `a`: a kernel content violation at `x`, whose counterexample is built
    // through the docking point of `f`.
    let target = RDtd::parse(RFormalism::Nre, "s -> x, a?\nx -> b*").unwrap();
    let fun = RDtd::parse(RFormalism::Nre, "r -> b*, a").unwrap();
    let problem = DesignProblem::new(target.clone()).with_function("f", fun);
    let doc = DistributedDoc::parse("s(x(f))", ["f"]).unwrap();
    assert!(!problem.verify_local(&doc).unwrap().is_valid(), "warms the cache");
    let pass = Budget::unlimited().with_step_quota(u64::MAX);
    problem.verify_local_with_budget(&doc, &pass).unwrap();
    let full = Budget::unlimited().with_step_quota(u64::MAX);
    assert!(!problem.typecheck_with_budget(&doc, &full).unwrap().is_valid());
    // The construction reads the cached pairs of `f` and runs no product
    // fixpoint: a schema of `f` that differs only by rules unreachable
    // from its start charges a warm refuted typecheck the same steps.
    let padded = RDtd::parse(RFormalism::Nre, "r -> b*, a\nz -> (a | b | y)*\ny -> a, z?").unwrap();
    let padded = DesignProblem::new(target).with_function("f", padded);
    assert!(!padded.verify_local(&doc).unwrap().is_valid(), "warms the cache");
    let padded_full = Budget::unlimited().with_step_quota(u64::MAX);
    assert!(!padded.typecheck_with_budget(&doc, &padded_full).unwrap().is_valid());
    assert_eq!(padded_full.steps_spent(), full.steps_spent(), "unreachable rules are charged");
    // A quota the kernel pass fits in trips inside the construction.
    let quota = pass.steps_spent();
    assert!(problem.verify_local_with_budget(&doc, &faults::budget_tripping_after(quota)).is_ok());
    match problem.typecheck_with_budget(&doc, &faults::budget_tripping_after(quota)) {
        Err(DesignError::BudgetExceeded { resource: Resource::Steps, .. }) => {}
        other => panic!("expected a steps trip, got {other:?}"),
    }
    assert!(!problem.typecheck(&doc).unwrap().is_valid());
}

/// `first` followed by the doubling chain `a<i> -> a<i+1>, a<i+1>` for
/// `i < n`: the one tree of `a0` has `2^(n+1) - 1` nodes, over a pair DAG
/// of `n + 1` pairs.
fn doubling_chain(first: &str, n: usize) -> String {
    let mut rules = String::from(first);
    for i in 0..n {
        rules.push_str(&format!("\na{i} -> a{j}, a{j}", j = i + 1));
    }
    rules
}

#[test]
fn an_exponential_counterexample_trips_the_step_quota_and_the_same_problem_recovers() {
    let n = 16;
    let target = RDtd::parse(RFormalism::Nre, &doubling_chain("s -> a0*", n)).unwrap();
    let fun = RDtd::parse(RFormalism::Nre, &doubling_chain("r -> a0", n)).unwrap();
    let problem = DesignProblem::new(target).with_function("f", fun);
    let doc = DistributedDoc::parse("s(f a0(a1 a1 a1))", ["f"]).unwrap();
    // The kernel's leaf `a1` refutes the design, and the counterexample
    // plugs the default forest of `f` — one tree of 2^17 - 1 nodes — into
    // the docking point. Building it charges a step per node.
    match problem.typecheck_with_budget(&doc, &Budget::unlimited().with_step_quota(10_000)) {
        Err(DesignError::BudgetExceeded { resource: Resource::Steps, .. }) => {}
        Err(other) => panic!("expected a steps trip, got {other}"),
        Ok(verdict) => panic!("expected a steps trip, got a verdict (valid: {})", verdict.is_valid()),
    }
    let mut full = XTree::leaf(format!("a{n}"));
    for i in (0..n).rev() {
        full = XTree::node(format!("a{i}"), vec![full.clone(), full]);
    }
    let kernel_a0 = XTree::node("a0", vec![XTree::leaf("a1"), XTree::leaf("a1"), XTree::leaf("a1")]);
    let expected = XTree::node("s", vec![full, kernel_a0]);
    match problem.typecheck(&doc).unwrap() {
        TypingVerdict::Invalid { counterexample, .. } => {
            assert_eq!(counterexample.size(), 131_076);
            assert!(counterexample == expected, "an unexpected counterexample");
        }
        TypingVerdict::Valid => panic!("expected invalid"),
    }
}

#[test]
fn streaming_validation_honours_every_budget_dimension() {
    let sdtd = RSdtd::parse(RFormalism::Nre, "s -> r*\nr -> r*").unwrap();
    let depth = 64usize;
    let mut xml = String::from("<s>");
    for _ in 0..depth {
        xml.push_str("<r>");
    }
    for _ in 0..depth {
        xml.push_str("</r>");
    }
    xml.push_str("</s>");
    let validator = StreamValidator::new(&sdtd);
    assert!(validator.validate(&xml).is_ok());

    let deep = Budget::unlimited().with_depth_limit(8);
    assert!(matches!(
        validator.validate_with_budget(&xml, &deep),
        Err(SchemaError::BudgetExceeded { resource: Resource::Depth, limit: 8, .. })
    ));
    let nodes = Budget::unlimited().with_node_quota(10);
    assert!(matches!(
        validator.validate_with_budget(&xml, &nodes),
        Err(SchemaError::BudgetExceeded { resource: Resource::Nodes, limit: 10, .. })
    ));
    assert!(matches!(
        validator.validate_with_budget(&xml, &faults::budget_tripping_after(5)),
        Err(SchemaError::BudgetExceeded { resource: Resource::Steps, limit: 5, .. })
    ));
    // A budget that fits changes nothing about the verdict.
    let generous = Budget::unlimited().with_depth_limit(depth + 1).with_node_quota(1000);
    assert!(validator.validate_with_budget(&xml, &generous).is_ok());
}

#[test]
fn batch_isolates_injected_worker_panics_and_pools_budgets() {
    let sdtd = RSdtd::parse(RFormalism::Nre, "s -> a*, b\na -> c?").unwrap();
    let docs: Vec<String> = (0..16)
        .map(|i| {
            if i % 2 == 0 {
                "<s><a><c/></a><b/></s>".to_string()
            } else {
                "<s><b/></s>".to_string()
            }
        })
        .collect();

    // Inject a panic into two specific documents: their verdicts degrade to
    // a typed error, every other document keeps its real verdict, and the
    // batch itself completes instead of propagating the panic.
    faults::arm_worker_panic(&[3, 11]);
    let verdicts = validate_batch(&sdtd, &docs);
    faults::disarm_worker_panic();
    assert_eq!(verdicts.len(), docs.len());
    for (i, verdict) in verdicts.iter().enumerate() {
        if i == 3 || i == 11 {
            match verdict {
                Err(SchemaError::Structural(msg)) => {
                    assert!(msg.contains("panicked"), "verdict must explain itself: {msg}");
                    assert!(msg.contains(&i.to_string()), "verdict must name the document");
                }
                other => panic!("expected a panic verdict for document {i}, got {other:?}"),
            }
        } else {
            assert_eq!(verdict, &StreamValidator::new(&sdtd).validate(&docs[i]), "document {i}");
        }
    }
    // After disarming, the same batch validates cleanly — no leaked state.
    assert!(validate_batch(&sdtd, &docs).iter().all(Result::is_ok));

    // A pre-expired deadline is observed by every worker at its entry
    // check: all verdicts trip, none panics, no lock is poisoned.
    let verdicts = validate_batch_with_budget(&sdtd, &docs, &faults::expired_deadline());
    assert!(verdicts
        .iter()
        .all(|v| matches!(v, Err(SchemaError::BudgetExceeded { resource: Resource::Deadline, .. }))));

    // Quotas are pooled across workers: a node quota smaller than the batch
    // trips somewhere, yet documents validated before the trip keep real
    // verdicts and a fresh unlimited run still succeeds.
    let pooled = Budget::unlimited().with_node_quota(8);
    let verdicts = validate_batch_with_budget(&sdtd, &docs, &pooled);
    assert!(verdicts
        .iter()
        .any(|v| matches!(v, Err(SchemaError::BudgetExceeded { resource: Resource::Nodes, .. }))));
    assert!(validate_batch(&sdtd, &docs).iter().all(Result::is_ok));
}
