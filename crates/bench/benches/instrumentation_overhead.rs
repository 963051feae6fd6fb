//! Overhead of the instrumentation compiled into every hot path: the
//! `dxml-telemetry` gate and the resource-governance budget checks.
//!
//! The contract is that with the telemetry gate off each record operation
//! collapses to a relaxed atomic load plus one predictable branch, and that
//! with the default unlimited budget each budget check collapses to one
//! `Option` discriminant branch — no atomics, no clock. The `*_warm` cases
//! run warmed table-family workloads through the ungoverned public APIs
//! (which delegate to the governed implementations with the unlimited
//! budget) with collection explicitly **off**, and gate against the
//! committed `baselines/BENCH_instrumentation_overhead.json` through
//! `bench_compare`: an instrumentation regression beyond the usual 2×
//! threshold fails `make bench-compare` exactly like a regression in the
//! engine itself.
//!
//! The ungated cases (no `warm` in the name) document the armed costs
//! without constraining them: `enabled_*` reruns the workloads with
//! collection on, `governed_*` under a generous finite budget (relaxed
//! `fetch_add` per step), and the `trip_*` cases pin that tiny budgets and
//! expired deadlines abort promptly instead of running to completion.

use std::time::Duration;

use dxml_automata::limits::faults;
use dxml_automata::{AutomataError, Budget, Dfa, RFormalism, Regex, Resource};
use dxml_bench::{design_workload, section, Session};
use dxml_core::DesignError;
use dxml_schema::{RSdtd, StreamValidator};
use dxml_telemetry as telemetry;

/// A wide streaming corpus: `n` flat records under one root.
fn stream_workload(n: usize) -> (StreamValidator, String) {
    let sdtd = RSdtd::parse(RFormalism::Nre, "s -> r*\nr -> a, b?").unwrap();
    let mut doc = String::from("<s>");
    for i in 0..n {
        doc.push_str(if i % 2 == 0 { "<r><a/></r>" } else { "<r><a/><b/></r>" });
    }
    doc.push_str("</s>");
    (StreamValidator::new(&sdtd), doc)
}

/// A budget none of the workloads below can exhaust.
fn generous() -> Budget {
    Budget::unlimited()
        .with_step_quota(u64::MAX / 2)
        .with_state_quota(u64::MAX / 2)
        .with_node_quota(u64::MAX / 2)
        .with_deadline(Duration::from_secs(3600))
}

/// Ten thousand record operations — the disabled path must be branch-cheap.
fn record_loop() {
    for _ in 0..10_000 {
        telemetry::count(telemetry::Metric::StreamEvents, 1);
        telemetry::observe(telemetry::Hist::StreamDocEvents, 42);
    }
}

fn main() {
    let mut session = Session::new("instrumentation_overhead");
    // The gate as the environment set it (`make bench-smoke` exports
    // DXML_TELEMETRY=1); restored for the governed and fault sections.
    let env_gate = telemetry::enabled();

    // The gated section: collection OFF and the unlimited budget. These
    // medians are the committed baseline of the whole instrumentation layer.
    telemetry::set_enabled(false);
    section("telemetry off, unlimited budget: instrumented hot paths at baseline speed");
    for n in [8usize, 16] {
        let (problem, doc) = design_workload(n, 2, 11);
        // Warm the problem caches once so the gated cases measure the
        // instrumented steady state, not the one-off determinisation.
        assert!(problem.verify_local(&doc).unwrap().is_valid());
        session.bench(&format!("verify_local_warm/n={n}"), 10, || {
            assert!(problem.verify_local(&doc).unwrap().is_valid());
        });
        session.bench(&format!("typecheck_warm/n={n}"), 10, || {
            assert!(problem.typecheck(&doc).unwrap().is_valid());
        });
    }
    for n in [256usize, 1024] {
        let (validator, doc) = stream_workload(n);
        session.bench(&format!("stream_warm/n={n}"), 10, || {
            assert!(validator.validate(&doc).is_ok());
        });
    }
    // The cold determinisation path, unlimited.
    let blowup = Regex::parse("(a|b)* a (a|b) (a|b) (a|b) (a|b) (a|b) (a|b) (a|b)")
        .unwrap()
        .to_nfa();
    session.bench("determinize_warm/2^8", 10, || {
        assert!(Dfa::from_nfa(&blowup).num_states() >= 256);
    });
    session.bench("record_off_warm/count+observe", 20, record_loop);
    assert_eq!(
        telemetry::Snapshot::take().nonzero_metrics(),
        0,
        "disabled-path cases must not record anything"
    );

    // Collection ON — reported, not gated.
    telemetry::set_enabled(true);
    section("telemetry on: the same workloads with collection enabled");
    for n in [8usize, 16] {
        let (problem, doc) = design_workload(n, 2, 11);
        assert!(problem.verify_local(&doc).unwrap().is_valid());
        session.bench(&format!("enabled_verify_local/n={n}"), 10, || {
            assert!(problem.verify_local(&doc).unwrap().is_valid());
        });
    }
    for n in [256usize, 1024] {
        let (validator, doc) = stream_workload(n);
        session.bench(&format!("enabled_streaming/n={n}"), 10, || {
            assert!(validator.validate(&doc).is_ok());
        });
    }
    session.bench("enabled_record/count+observe", 20, record_loop);
    let on_snapshot = telemetry::Snapshot::take();
    assert!(
        on_snapshot.nonzero_metrics() >= 5,
        "enabled cases must actually record (got {} non-zero metrics)",
        on_snapshot.nonzero_metrics()
    );
    println!("\n{}", on_snapshot.render());
    telemetry::set_enabled(env_gate);

    // A finite budget — reported, not gated.
    section("finite budget: the same workloads, counters armed");
    for n in [8usize, 16] {
        let (problem, doc) = design_workload(n, 2, 11);
        assert!(problem.verify_local(&doc).unwrap().is_valid());
        let budget = generous();
        session.bench(&format!("governed_verify_local/n={n}"), 10, || {
            assert!(problem.verify_local_with_budget(&doc, &budget).unwrap().is_valid());
        });
        let budget = generous();
        session.bench(&format!("governed_typecheck/n={n}"), 10, || {
            assert!(problem.typecheck_with_budget(&doc, &budget).unwrap().is_valid());
        });
    }
    for n in [256usize, 1024] {
        let (validator, doc) = stream_workload(n);
        let budget = generous();
        session.bench(&format!("governed_stream/n={n}"), 10, || {
            assert!(validator.validate_with_budget(&doc, &budget).is_ok());
        });
    }
    let budget = generous();
    session.bench("governed_determinize/2^8", 10, || {
        assert!(Dfa::from_nfa_with_budget(&blowup, &budget).unwrap().num_states() >= 256);
    });

    // Trips must be prompt: a tiny budget aborts the blowup construction
    // long before it would finish, and the error is typed.
    section("fault injection: tiny budgets abort promptly");
    session.bench("trip_determinize/steps=64", 20, || {
        assert!(matches!(
            Dfa::from_nfa_with_budget(&blowup, &faults::budget_tripping_after(64)),
            Err(AutomataError::BudgetExceeded { resource: Resource::Steps, .. })
        ));
    });
    let (problem, doc) = design_workload(8, 2, 11);
    session.bench("trip_typecheck/expired_deadline", 20, || {
        assert!(matches!(
            problem.typecheck_with_budget(&doc, &faults::expired_deadline()),
            Err(DesignError::BudgetExceeded { resource: Resource::Deadline, .. })
        ));
    });

    session.finish();
}
