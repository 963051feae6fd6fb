//! Resource-governance integration: governed loops trip deterministically
//! on adversarial inputs, unwind cleanly, agree with the unlimited budget
//! when the budget is generous, and record their trips in the telemetry
//! registry. This test owns its process (integration tests build as
//! separate binaries), so flipping the global telemetry gate here cannot
//! interfere with any other test binary.

use dxml_automata::equiv::equivalent;
use dxml_automata::limits::faults;
use dxml_automata::{AutomataError, Budget, Dfa, Nfa, Regex, Resource};
use dxml_telemetry as telemetry;

/// The classic subset-blowup family: `(a|b)* a (a|b)^{n-1}` is an
/// `(n+1)`-state NFA whose minimal DFA has `2^n` states — the adversarial
/// input class budgets exist for.
fn blowup_nfa(n: usize) -> Nfa {
    let mut src = String::from("(a|b)* a");
    for _ in 0..n.saturating_sub(1) {
        src.push_str(" (a|b)");
    }
    Regex::parse(&src).unwrap().to_nfa()
}

/// A budget no test in this file can exhaust.
fn generous() -> Budget {
    Budget::unlimited().with_step_quota(50_000_000).with_state_quota(1_000_000)
}

#[test]
fn generous_budget_is_byte_identical_to_unbudgeted() {
    let nfa = blowup_nfa(8);
    let free = Dfa::from_nfa(&nfa);
    let governed = Dfa::from_nfa_with_budget(&nfa, &generous()).unwrap();
    assert_eq!(free, governed, "budget checks must not perturb state numbering");
}

#[test]
fn state_quota_trips_on_subset_blowup_and_retry_succeeds() {
    let nfa = blowup_nfa(10); // minimal DFA: 2^10 states
    let tight = Budget::unlimited().with_state_quota(64);
    match Dfa::from_nfa_with_budget(&nfa, &tight) {
        Err(AutomataError::BudgetExceeded { resource: Resource::States, limit: 64, spent }) => {
            assert!(spent > 64);
        }
        other => panic!("expected a states trip, got {other:?}"),
    }
    // The trip leaves no residue: a fresh, larger budget completes and the
    // result is identical to the free construction.
    let big = Budget::unlimited().with_state_quota(1 << 12);
    let governed = Dfa::from_nfa_with_budget(&nfa, &big).unwrap();
    assert_eq!(governed, Dfa::from_nfa(&nfa));
}

#[test]
fn expired_deadline_and_cancellation_trip_before_any_work() {
    let a = blowup_nfa(4);
    assert!(matches!(
        Dfa::from_nfa_with_budget(&a, &faults::expired_deadline()),
        Err(AutomataError::BudgetExceeded { resource: Resource::Deadline, .. })
    ));
    assert!(matches!(
        Dfa::from_nfa_with_budget(&a, &faults::cancelled()),
        Err(AutomataError::BudgetExceeded { resource: Resource::Cancelled, .. })
    ));
}

#[test]
fn residual_walks_respect_the_budget() {
    let d = Dfa::from_nfa(&blowup_nfa(5));
    let eps = Nfa::epsilon();
    assert!(matches!(
        d.universal_context_residual(&eps, &eps, &faults::budget_tripping_after(2)),
        Err(AutomataError::BudgetExceeded { resource: Resource::Steps, .. })
    ));
    // A generous budget gives the same residual as the unlimited one.
    let free = d.universal_context_residual(&eps, &eps, &Budget::unlimited()).unwrap();
    let governed = d.universal_context_residual(&eps, &eps, &generous()).unwrap();
    assert!(equivalent(&free, &governed).is_ok());
    // The uniform residual trips too.
    let contexts = [Nfa::epsilon(), Nfa::epsilon(), Nfa::epsilon()];
    assert!(matches!(
        d.uniform_context_residual(&contexts, &faults::budget_tripping_after(1)),
        Err(AutomataError::BudgetExceeded { .. })
    ));
}

#[test]
fn shared_budget_pools_quotas_across_clones() {
    // Two determinisations drawing from one pool: the pair trips where
    // either alone would fit.
    let nfa = blowup_nfa(7); // 128 subset states each
    let solo = Budget::unlimited().with_state_quota(200);
    assert!(Dfa::from_nfa_with_budget(&nfa, &solo).is_ok());
    let shared = Budget::unlimited().with_state_quota(200);
    let clone = shared.clone();
    assert!(Dfa::from_nfa_with_budget(&nfa, &shared).is_ok());
    assert!(matches!(
        Dfa::from_nfa_with_budget(&nfa, &clone),
        Err(AutomataError::BudgetExceeded { resource: Resource::States, .. })
    ));
    assert!(clone.states_spent() > 200);
}

#[test]
fn trips_are_recorded_in_the_telemetry_registry() {
    telemetry::set_enabled(true);
    let nfa = blowup_nfa(8);
    let _ = Dfa::from_nfa_with_budget(&nfa, &Budget::unlimited().with_state_quota(4));
    let _ = Dfa::from_nfa_with_budget(&nfa, &faults::expired_deadline());
    let _ = Dfa::from_nfa_with_budget(&nfa, &faults::cancelled());
    let snapshot = telemetry::Snapshot::take();
    assert!(
        snapshot.counter(telemetry::Metric::LimitsBudgetTrips) >= 1,
        "quota trips must count limits.budget_trips:\n{}",
        snapshot.render()
    );
    assert!(
        snapshot.counter(telemetry::Metric::LimitsDeadlineTrips) >= 1,
        "deadline trips must count limits.deadline_trips:\n{}",
        snapshot.render()
    );
    assert!(
        snapshot.counter(telemetry::Metric::LimitsCancellations) >= 1,
        "cancellations must count limits.cancellations:\n{}",
        snapshot.render()
    );
}
