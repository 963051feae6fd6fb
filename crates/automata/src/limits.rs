//! Resource governance: budgets, deadlines and cooperative cancellation
//! for the engine's worst-case-exponential loops.
//!
//! The engine's loops — tree-automaton determinisation of the target, the
//! pair fixpoint of tree inclusion, the Moore-image pair search of the
//! kernel passes, the residual walks of synthesis — and the string-automaton
//! subset construction are worst-case exponential and, unbounded, run to
//! completion no matter what. A [`Budget`] makes
//! abusive input degrade into a *typed error*
//! ([`AutomataError::BudgetExceeded`]) instead of an unbounded compute
//! sink: the governed entry points thread a budget through their hot loops
//! and return the error as soon as a quota, the deadline or a cancellation
//! trips. A procedure with one entry point takes `&Budget` in its
//! signature (the residuals, `Duta::outputs_over`, `uta::run_pairs`); a
//! `*_with_budget` name marks the governed half of a pair whose plain half
//! runs with [`Budget::unlimited`] (`Dfa::from_nfa`, `Nuta::determinize`,
//! the design-engine entry points).
//!
//! # What each quota counts
//!
//! * **steps** ([`Budget::with_step_quota`]) — one unit per innermost loop
//!   iteration of a governed search: a `(state set, symbol)` expansion in
//!   subset construction, a popped pair or traversed edge in a product BFS,
//!   a group of pairs sharing a word in a pair search
//!   ([`Nfa::product_search`](crate::Nfa::product_search)),
//!   a `(configuration, letter)` expansion in tree-automaton
//!   determinisation, a consumed SAX event in streaming validation, a
//!   witness-tree node built by `uta::materialise`. The step counter is the
//!   universal work measure; every other check piggybacks on it.
//! * **states** ([`Budget::with_state_quota`]) — one unit per *discovered*
//!   state of a constructed automaton (subset states of a DFA, subset
//!   states of a determinised tree automaton, elements of a transformation
//!   monoid). This is the memory-shaped quota: exponential blow-ups show up
//!   here first.
//! * **nodes** ([`Budget::with_node_quota`]) — one unit per document node
//!   processed (an `Open` event in streaming validation).
//! * **depth** ([`Budget::with_depth_limit`]) — the maximum element nesting
//!   depth a streaming validation accepts (folded into the SAX parser's own
//!   stack bound).
//! * **deadline** ([`Budget::with_deadline`]) — a wall-clock bound for the
//!   whole governed call tree.
//! * **cancellation** ([`Budget::cancellable`]) — a relaxed-atomic flag a
//!   [`CancelHandle`] on another thread can raise at any time.
//!
//! # Cooperative-check granularity
//!
//! Quota comparisons are exact (every step/state/node is counted), but the
//! *clock and cancellation flag* are only consulted every
//! [`CHECK_INTERVAL`] steps and at governed entry-point boundaries, so the
//! steady-state cost of a governed loop is one relaxed `fetch_add` and a
//! predictable branch per iteration — `Instant::now` never appears on the
//! per-iteration path.
//!
//! # Zero cost when unlimited
//!
//! The default budget ([`Budget::unlimited`]) holds no shared state at all:
//! every check collapses to one `Option` discriminant branch — no atomics,
//! no clock, mirroring the `dxml-telemetry` gate discipline. The ungoverned
//! public APIs (`Dfa::from_nfa`, `typecheck`, …) call the governed
//! implementations with the unlimited budget and are byte-identical to
//! their pre-governance behaviour; the `instrumentation_overhead` bench
//! target pins the claim against a committed baseline.
//!
//! A `Budget` is cheaply clonable (an `Arc` handle); clones share the spent
//! counters, so one budget governs a whole request even when the engine
//! fans work out across threads. Trips are observable in the telemetry
//! registry as `limits.budget_trips`, `limits.deadline_trips` and
//! `limits.cancellations`.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dxml_telemetry as telemetry;

use crate::error::AutomataError;

/// How many counted steps elapse between wall-clock/cancellation checks in
/// a governed loop (quota comparisons happen on every step regardless).
pub const CHECK_INTERVAL: u64 = 1024;

/// The resource dimension that tripped a [`Budget`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Resource {
    /// The step quota (innermost loop iterations).
    Steps,
    /// The state quota (discovered automaton states).
    States,
    /// The node quota (document nodes processed).
    Nodes,
    /// The depth limit (element nesting depth).
    Depth,
    /// The wall-clock deadline.
    Deadline,
    /// A cooperative cancellation raised through a [`CancelHandle`].
    Cancelled,
}

impl Resource {
    /// A stable lowercase name for the resource.
    pub fn as_str(self) -> &'static str {
        match self {
            Resource::Steps => "steps",
            Resource::States => "states",
            Resource::Nodes => "nodes",
            Resource::Depth => "depth",
            Resource::Deadline => "deadline",
            Resource::Cancelled => "cancelled",
        }
    }
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Shared state of a governed budget. Counters are relaxed atomics so
/// clones of the handle (including clones on other threads) draw from the
/// same pool.
#[derive(Debug, Default)]
struct Inner {
    max_steps: Option<u64>,
    max_states: Option<u64>,
    max_nodes: Option<u64>,
    depth_limit: Option<usize>,
    deadline: Option<Instant>,
    /// The originally allotted wall-clock budget, for error reporting.
    deadline_ms: u64,
    cancelled: AtomicBool,
    steps: AtomicU64,
    states: AtomicU64,
    nodes: AtomicU64,
}

/// Builds the typed trip error and bumps the matching telemetry counter.
#[cold]
fn trip(resource: Resource, limit: u64, spent: u64) -> AutomataError {
    let metric = match resource {
        Resource::Deadline => telemetry::Metric::LimitsDeadlineTrips,
        Resource::Cancelled => telemetry::Metric::LimitsCancellations,
        _ => telemetry::Metric::LimitsBudgetTrips,
    };
    telemetry::count(metric, 1);
    AutomataError::BudgetExceeded { resource, limit, spent }
}

impl Inner {
    fn step(&self) -> Result<(), AutomataError> {
        let n = self.steps.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(limit) = self.max_steps {
            if n > limit {
                return Err(trip(Resource::Steps, limit, n));
            }
        }
        if n % CHECK_INTERVAL == 0 {
            self.interrupts()?;
        }
        Ok(())
    }

    fn interrupts(&self) -> Result<(), AutomataError> {
        if self.cancelled.load(Ordering::Relaxed) {
            return Err(trip(Resource::Cancelled, 0, 0));
        }
        if let Some(deadline) = self.deadline {
            let now = Instant::now();
            if now >= deadline {
                let over = u64::try_from(now.duration_since(deadline).as_millis())
                    .unwrap_or(u64::MAX);
                return Err(trip(
                    Resource::Deadline,
                    self.deadline_ms,
                    self.deadline_ms.saturating_add(over),
                ));
            }
        }
        Ok(())
    }

    fn grow(
        &self,
        counter: &AtomicU64,
        max: Option<u64>,
        resource: Resource,
        n: u64,
    ) -> Result<(), AutomataError> {
        let total = counter.fetch_add(n, Ordering::Relaxed) + n;
        if let Some(limit) = max {
            if total > limit {
                return Err(trip(resource, limit, total));
            }
        }
        Ok(())
    }
}

/// A cheap, clonable resource budget governing a call tree.
///
/// See the [module docs](self) for the semantics of each quota. The
/// default/[`unlimited`](Budget::unlimited) budget never trips and costs
/// one branch per check; builders ([`with_step_quota`](Budget::with_step_quota)
/// and friends) must be applied before the handle is cloned.
#[derive(Clone, Debug, Default)]
pub struct Budget {
    inner: Option<Arc<Inner>>,
}

impl Budget {
    /// The budget that never trips: every check is a single branch on an
    /// `Option` discriminant — no atomics, no clock.
    pub fn unlimited() -> Budget {
        Budget { inner: None }
    }

    /// Whether this is the unlimited budget (no governance state attached).
    pub fn is_unlimited(&self) -> bool {
        self.inner.is_none()
    }

    fn governed(&mut self) -> &mut Inner {
        let arc = self.inner.get_or_insert_with(Arc::default);
        Arc::get_mut(arc).expect("budget builders must run before the handle is cloned")
    }

    /// Caps the counted loop iterations (see the module docs for what a
    /// step is).
    #[must_use]
    pub fn with_step_quota(mut self, max_steps: u64) -> Budget {
        self.governed().max_steps = Some(max_steps);
        self
    }

    /// Caps the discovered automaton states across all constructions under
    /// this budget.
    #[must_use]
    pub fn with_state_quota(mut self, max_states: u64) -> Budget {
        self.governed().max_states = Some(max_states);
        self
    }

    /// Caps the document nodes processed under this budget.
    #[must_use]
    pub fn with_node_quota(mut self, max_nodes: u64) -> Budget {
        self.governed().max_nodes = Some(max_nodes);
        self
    }

    /// Caps the element nesting depth accepted by streaming validation.
    #[must_use]
    pub fn with_depth_limit(mut self, depth_limit: usize) -> Budget {
        self.governed().depth_limit = Some(depth_limit);
        self
    }

    /// Sets a wall-clock deadline `within` from now for the whole governed
    /// call tree. The clock is consulted every [`CHECK_INTERVAL`] steps and
    /// at governed entry-point boundaries.
    #[must_use]
    pub fn with_deadline(mut self, within: Duration) -> Budget {
        let now = Instant::now();
        let inner = self.governed();
        inner.deadline = Some(now.checked_add(within).unwrap_or(now));
        inner.deadline_ms = u64::try_from(within.as_millis()).unwrap_or(u64::MAX);
        self
    }

    /// Makes the budget cancellable: returns the budget plus a
    /// [`CancelHandle`] that any thread may use to raise the cooperative
    /// cancellation flag.
    ///
    /// # Panics
    ///
    /// Only on a broken internal invariant (`governed()` not attaching the
    /// shared counters).
    #[must_use]
    pub fn cancellable(mut self) -> (Budget, CancelHandle) {
        self.governed();
        let arc = self.inner.clone().expect("governed() attached an inner");
        (self, CancelHandle { inner: arc })
    }

    /// Counts one unit of loop work; every [`CHECK_INTERVAL`]-th step also
    /// consults the deadline and the cancellation flag.
    #[inline]
    pub fn step(&self) -> Result<(), AutomataError> {
        match &self.inner {
            None => Ok(()),
            Some(inner) => inner.step(),
        }
    }

    /// Counts `n` newly discovered automaton states against the state
    /// quota.
    #[inline]
    pub fn grow_states(&self, n: u64) -> Result<(), AutomataError> {
        match &self.inner {
            None => Ok(()),
            Some(inner) => inner.grow(&inner.states, inner.max_states, Resource::States, n),
        }
    }

    /// Counts `n` processed document nodes against the node quota.
    #[inline]
    pub fn grow_nodes(&self, n: u64) -> Result<(), AutomataError> {
        match &self.inner {
            None => Ok(()),
            Some(inner) => inner.grow(&inner.nodes, inner.max_nodes, Resource::Nodes, n),
        }
    }

    /// Checks the nesting depth `depth` against the depth limit.
    #[inline]
    pub fn check_depth(&self, depth: usize) -> Result<(), AutomataError> {
        match &self.inner {
            None => Ok(()),
            Some(inner) => match inner.depth_limit {
                Some(limit) if depth > limit => Err(trip(
                    Resource::Depth,
                    limit as u64,
                    depth as u64,
                )),
                _ => Ok(()),
            },
        }
    }

    /// Immediately consults the deadline and cancellation flag (used at
    /// governed entry-point boundaries, so an already-expired deadline or a
    /// pre-raised cancellation trips before any work starts).
    #[inline]
    pub fn check_interrupts(&self) -> Result<(), AutomataError> {
        match &self.inner {
            None => Ok(()),
            Some(inner) => inner.interrupts(),
        }
    }

    /// The configured depth limit, if any (folded into the SAX parser's
    /// stack bound by the streaming validator).
    pub fn depth_limit(&self) -> Option<usize> {
        self.inner.as_ref().and_then(|i| i.depth_limit)
    }

    /// Steps counted so far across every clone of this budget.
    pub fn steps_spent(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.steps.load(Ordering::Relaxed))
    }

    /// States counted so far across every clone of this budget.
    pub fn states_spent(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.states.load(Ordering::Relaxed))
    }
}

/// Raises the cooperative cancellation flag of a [`Budget`] from any
/// thread; governed loops observe it at their next interrupt check and
/// unwind with [`AutomataError::BudgetExceeded`] (`resource: Cancelled`).
#[derive(Clone, Debug)]
pub struct CancelHandle {
    inner: Arc<Inner>,
}

impl CancelHandle {
    /// Raises the cancellation flag (idempotent).
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether the flag has been raised.
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Relaxed)
    }
}

pub mod faults {
    //! Deterministic fault injection for tests and benches.
    //!
    //! The constructors build budgets that trip at a *chosen*, reproducible
    //! point; the worker-panic registry lets the batch front end inject a
    //! panic into a specific document's validation. The harness is
    //! compiled in (cross-crate integration tests need it) but is intended
    //! for tests and benches only: when disarmed, the panic probe is one
    //! relaxed atomic load.

    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Mutex, OnceLock, PoisonError};
    use std::time::Duration;

    use super::Budget;

    /// A budget whose step quota trips after exactly `steps` counted
    /// iterations.
    pub fn budget_tripping_after(steps: u64) -> Budget {
        Budget::unlimited().with_step_quota(steps)
    }

    /// A budget whose deadline has already passed: the first interrupt
    /// check (every governed entry point performs one up front) trips it.
    pub fn expired_deadline() -> Budget {
        Budget::unlimited().with_deadline(Duration::ZERO)
    }

    /// A budget whose cancellation flag is already raised.
    pub fn cancelled() -> Budget {
        let (budget, handle) = Budget::unlimited().cancellable();
        handle.cancel();
        budget
    }

    static PANIC_ARMED: AtomicBool = AtomicBool::new(false);

    fn panic_docs() -> &'static Mutex<BTreeSet<usize>> {
        static DOCS: OnceLock<Mutex<BTreeSet<usize>>> = OnceLock::new();
        DOCS.get_or_init(|| Mutex::new(BTreeSet::new()))
    }

    /// Arms the worker-panic injector: subsequent
    /// [`maybe_inject_worker_panic`] calls panic for the listed document
    /// indices. Process-global; pair with [`disarm_worker_panic`].
    pub fn arm_worker_panic(docs: &[usize]) {
        let mut set = panic_docs().lock().unwrap_or_else(PoisonError::into_inner);
        set.clear();
        set.extend(docs.iter().copied());
        PANIC_ARMED.store(true, Ordering::Relaxed);
    }

    /// Disarms the worker-panic injector and clears the document list.
    pub fn disarm_worker_panic() {
        PANIC_ARMED.store(false, Ordering::Relaxed);
        panic_docs().lock().unwrap_or_else(PoisonError::into_inner).clear();
    }

    /// One relaxed load when disarmed — cheap enough to sit on the batch
    /// per-document path unconditionally.
    ///
    /// # Panics
    ///
    /// Panics iff the injector is armed for `doc_index`: the injected
    /// fault itself.
    #[inline]
    pub fn maybe_inject_worker_panic(doc_index: usize) {
        if PANIC_ARMED.load(Ordering::Relaxed) {
            let armed = panic_docs()
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .contains(&doc_index);
            if armed {
                panic!("injected fault: worker panic at document {doc_index}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_trips() {
        let b = Budget::unlimited();
        assert!(b.is_unlimited());
        for _ in 0..10_000 {
            b.step().unwrap();
        }
        b.grow_states(u64::MAX).unwrap();
        b.grow_nodes(u64::MAX).unwrap();
        b.check_depth(usize::MAX).unwrap();
        b.check_interrupts().unwrap();
        assert_eq!(b.steps_spent(), 0, "unlimited budgets hold no counters");
        assert_eq!(b.depth_limit(), None);
    }

    #[test]
    fn step_quota_trips_exactly_after_the_quota() {
        let b = Budget::unlimited().with_step_quota(5);
        for _ in 0..5 {
            b.step().unwrap();
        }
        match b.step() {
            Err(AutomataError::BudgetExceeded { resource, limit, spent }) => {
                assert_eq!(resource, Resource::Steps);
                assert_eq!(limit, 5);
                assert_eq!(spent, 6);
            }
            other => panic!("expected a steps trip, got {other:?}"),
        }
    }

    #[test]
    fn state_and_node_quotas_count_exactly() {
        let b = Budget::unlimited().with_state_quota(3).with_node_quota(2);
        b.grow_states(3).unwrap();
        assert!(matches!(
            b.grow_states(1),
            Err(AutomataError::BudgetExceeded { resource: Resource::States, limit: 3, spent: 4 })
        ));
        b.grow_nodes(2).unwrap();
        assert!(matches!(
            b.grow_nodes(5),
            Err(AutomataError::BudgetExceeded { resource: Resource::Nodes, limit: 2, spent: 7 })
        ));
    }

    #[test]
    fn clones_share_the_spent_pool() {
        let a = Budget::unlimited().with_step_quota(4);
        let b = a.clone();
        a.step().unwrap();
        a.step().unwrap();
        b.step().unwrap();
        b.step().unwrap();
        assert_eq!(a.steps_spent(), 4);
        assert!(b.step().is_err(), "the pool is shared, not per-clone");
    }

    #[test]
    fn deadline_and_cancellation_trip_at_interrupt_checks() {
        let expired = faults::expired_deadline();
        assert!(matches!(
            expired.check_interrupts(),
            Err(AutomataError::BudgetExceeded { resource: Resource::Deadline, .. })
        ));

        let (budget, handle) = Budget::unlimited().cancellable();
        budget.check_interrupts().unwrap();
        assert!(!handle.is_cancelled());
        handle.cancel();
        assert!(handle.is_cancelled());
        assert!(matches!(
            budget.check_interrupts(),
            Err(AutomataError::BudgetExceeded { resource: Resource::Cancelled, .. })
        ));
        // The flag is also observed from the stepping path, within one
        // CHECK_INTERVAL of work.
        let mut tripped = false;
        for _ in 0..=CHECK_INTERVAL {
            if budget.step().is_err() {
                tripped = true;
                break;
            }
        }
        assert!(tripped, "stepping must observe the cancellation");
    }

    #[test]
    fn depth_checks_compare_against_the_limit() {
        let b = Budget::unlimited().with_depth_limit(3);
        assert_eq!(b.depth_limit(), Some(3));
        b.check_depth(3).unwrap();
        assert!(matches!(
            b.check_depth(4),
            Err(AutomataError::BudgetExceeded { resource: Resource::Depth, limit: 3, spent: 4 })
        ));
    }

    #[test]
    fn cancellation_crosses_threads() {
        let (budget, handle) = Budget::unlimited().cancellable();
        std::thread::scope(|scope| {
            scope.spawn(move || handle.cancel());
        });
        assert!(budget.check_interrupts().is_err());
    }

    #[test]
    fn fault_constructors_are_deterministic() {
        assert!(faults::cancelled().check_interrupts().is_err());
        let b = faults::budget_tripping_after(2);
        assert!(b.step().is_ok() && b.step().is_ok() && b.step().is_err());
    }

    #[test]
    fn panic_injector_arms_and_disarms() {
        faults::arm_worker_panic(&[7]);
        faults::maybe_inject_worker_panic(3);
        let caught = std::panic::catch_unwind(|| faults::maybe_inject_worker_panic(7));
        assert!(caught.is_err(), "armed index must panic");
        faults::disarm_worker_panic();
        faults::maybe_inject_worker_panic(7);
    }
}
