//! Zero-dependency, lock-free instrumentation for the distributed XML
//! design workspace.
//!
//! The engine's offline decisions (determinisation, residual synthesis,
//! cache builds) and its online hot paths (streaming validation, batch
//! fan-out, the symbol interner) report what they did through this crate:
//! **atomic counters**, **log-scale histograms** and **RAII spans**, all
//! behind one global on/off gate. The registry this workspace builds in is
//! offline, so the layer is deliberately `std`-only — no `tracing`, no
//! `metrics`, no allocation on the record paths.
//!
//! # The gate
//!
//! Telemetry is **off by default**. When off, every record operation is a
//! relaxed atomic load plus one predictable branch — cheap enough that the
//! instrumentation stays compiled into the hot paths gated by the committed
//! `bench_compare` baselines (pinned by the `telemetry_overhead` bench
//! target). It is switched:
//!
//! * by the environment: `DXML_TELEMETRY=1` (or any value other than `0`,
//!   `off`, `false` or the empty string) enables collection at the first
//!   record or query; unset or one of those values keeps it off;
//! * programmatically: [`set_enabled`] overrides the environment at runtime
//!   (the bench harness enables collection for its `TELEMETRY_<name>.json`
//!   sidecars this way).
//!
//! # Metric name table
//!
//! Counters ([`Metric`], recorded with [`count`]):
//!
//! | name | meaning |
//! |------|---------|
//! | `interner.symbols_interned` | distinct symbols allocated in the global intern table |
//! | `interner.table_bytes` | bytes of leaked symbol text + record overhead |
//! | `interner.shard_contention` | intern-shard lock acquisitions that found the lock held |
//! | `dfa.subset_constructions` | `Dfa::from_nfa` subset constructions run |
//! | `dfa.subset_states` | subset states created across all constructions |
//! | `dfa.subset_transitions` | `(state set, symbol)` steps explored |
//! | `equiv.bfs_runs` | product-BFS searches (inclusion/equivalence oracles) |
//! | `equiv.bfs_states` | product state pairs popped across all searches |
//! | `equiv.bfs_transitions` | product edges traversed across all searches |
//! | `design.target_cache_builds` | cold `BoxTargetCache` builds of DTD targets (each specialised name its own label) |
//! | `boxes.target_cache_builds` | cold `BoxTargetCache` builds of every other EDTD target |
//! | `cache.residual_dfa_builds` | residual-DFA memo misses (machines determinised) |
//! | `cache.residual_dfa_hits` | residual-DFA memo hits |
//! | `design.ext_memo_hits` | extension-automaton FIFO memo hits (every target kind) |
//! | `design.ext_memo_misses` | extension-automaton FIFO memo misses (rebuilds) |
//! | `stream.docs` | documents validated by `StreamValidator` |
//! | `stream.events` | SAX events consumed across all streaming runs |
//! | `stream.violations` | streaming validations that ended in a schema error |
//! | `batch.runs` | `validate_batch` invocations |
//! | `batch.workers` | workers spawned across all batch runs |
//! | `batch.docs` | documents claimed by batch workers |
//! | `batch.steals` | documents claimed beyond a worker's even share |
//! | `span.entered` | RAII spans entered |
//! | `limits.budget_trips` | budget quota trips (step/state/node/depth quotas) |
//! | `limits.deadline_trips` | wall-clock deadline trips |
//! | `limits.cancellations` | cooperative cancellations observed by governed loops |
//!
//! Histograms ([`Hist`], recorded with [`observe`]; buckets are powers of
//! two — bucket `k` counts values `v` with `2^(k-1) ≤ v < 2^k`, bucket 0
//! counts zeros):
//!
//! | name | unit | meaning |
//! |------|------|---------|
//! | `dfa.subset_dfa_states` | states | size of each determinised DFA |
//! | `equiv.bfs_explored` | pairs | product pairs explored per search |
//! | `stream.doc_events` | events | SAX events per streaming validation |
//! | `stream.doc_depth` | depth | peak open-element depth per document |
//! | `batch.worker_docs` | docs | documents validated per batch worker |
//! | `span.typecheck_ns` | ns | `DesignProblem`/`BoxDesignProblem::typecheck` wall time |
//! | `span.verify_local_ns` | ns | `verify_local` wall time |
//! | `span.perfect_schema_ns` | ns | `perfect_schema` wall time |
//! | `span.validate_stream_ns` | ns | one streaming validation wall time |
//! | `span.target_cache_build_ns` | ns | cold target-cache build wall time, DTD targets |
//! | `span.box_target_cache_build_ns` | ns | cold target-cache build wall time, other EDTD targets |
//! | `span.batch_ns` | ns | whole `validate_batch` wall time |
//!
//! # Span semantics
//!
//! [`span`] pushes a [`SpanKind`] onto a **thread-local span stack** and
//! returns a guard; dropping the guard pops the stack and records the
//! span's wall time into its latency histogram (`span.<kind>_ns`). Spans
//! nest freely within a thread ([`span_depth`] reports the current nesting;
//! [`current_span`] the innermost kind); each span records its *inclusive*
//! time — child spans are not subtracted. When the gate is off a span is a
//! no-op guard: nothing is pushed, no clock is read.
//!
//! # Reading the data
//!
//! [`Snapshot::take`] copies every counter and histogram at one point in
//! time. Counter totals are exact once the writing threads have quiesced
//! (relaxed increments, no locks — nothing is ever lost); a snapshot taken
//! mid-flight is a consistent lower bound and never tears a single counter.
//! The snapshot renders as a rustc-style text report ([`Snapshot::render`])
//! or as JSON ([`Snapshot::to_json`]) — the format behind the
//! `TELEMETRY_<name>.json` sidecars the bench harness emits next to each
//! `BENCH_<name>.json`.
//!
//! ```
//! use dxml_telemetry as telemetry;
//!
//! telemetry::set_enabled(true);
//! telemetry::count(telemetry::Metric::StreamDocs, 1);
//! telemetry::observe(telemetry::Hist::StreamDocDepth, 12);
//! {
//!     let _span = telemetry::span(telemetry::SpanKind::Typecheck);
//!     // … work …
//! }
//! let snap = telemetry::Snapshot::take();
//! assert!(snap.counter(telemetry::Metric::StreamDocs) >= 1);
//! assert!(snap.to_json().contains("stream.doc_depth"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod metrics;
mod snapshot;
mod span;

pub use metrics::{count, observe, reset, Hist, Metric};
pub use snapshot::{HistSnapshot, Snapshot};
pub use span::{current_span, span, span_depth, Span, SpanKind};

use std::sync::atomic::{AtomicU8, Ordering};

/// Gate states: unresolved (consult the environment on first use), or
/// explicitly off/on.
const UNINIT: u8 = 0;
const OFF: u8 = 1;
const ON: u8 = 2;

static GATE: AtomicU8 = AtomicU8::new(UNINIT);

/// Whether telemetry collection is on. The steady-state cost is one relaxed
/// atomic load and a branch; the first call resolves the `DXML_TELEMETRY`
/// environment variable.
#[inline]
pub fn enabled() -> bool {
    match GATE.load(Ordering::Relaxed) {
        ON => true,
        OFF => false,
        _ => init_from_env(),
    }
}

/// Resolves the gate from `DXML_TELEMETRY` (cold path of [`enabled`]).
#[cold]
fn init_from_env() -> bool {
    let on = std::env::var_os("DXML_TELEMETRY").is_some_and(|v| {
        !(v.is_empty() || v == "0" || v == "off" || v == "false")
    });
    // A racing `set_enabled` wins: only replace the UNINIT state.
    let resolved = if on { ON } else { OFF };
    match GATE.compare_exchange(UNINIT, resolved, Ordering::Relaxed, Ordering::Relaxed) {
        Ok(_) => on,
        Err(current) => current == ON,
    }
}

/// Turns collection on or off at runtime, overriding the environment. The
/// switch is process-wide and takes effect for every subsequent record
/// operation; data already collected is kept (use [`reset`] to zero it).
pub fn set_enabled(on: bool) {
    GATE.store(if on { ON } else { OFF }, Ordering::Relaxed);
}

/// Serialises the crate's own unit tests: the gate and the registry are
/// process-global, so tests that flip the gate or compare counter deltas
/// must not interleave. (Integration tests live in separate binaries and
/// own their process.)
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_flips_and_records_follow() {
        let _guard = test_lock();
        set_enabled(false);
        assert!(!enabled());
        let before = Snapshot::take().counter(Metric::SpanEntered);
        {
            let _s = span(SpanKind::Typecheck);
            assert_eq!(span_depth(), 0, "disabled spans must not touch the stack");
        }
        assert_eq!(Snapshot::take().counter(Metric::SpanEntered), before);

        set_enabled(true);
        assert!(enabled());
        {
            let _s = span(SpanKind::Typecheck);
            assert_eq!(span_depth(), 1);
            assert_eq!(current_span(), Some(SpanKind::Typecheck));
        }
        assert_eq!(span_depth(), 0);
        assert!(Snapshot::take().counter(Metric::SpanEntered) > before);
        set_enabled(false);
    }
}
