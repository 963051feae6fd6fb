//! RAII spans on a thread-local span stack.
//!
//! A span marks one timed region of engine work. Entering a span pushes its
//! [`SpanKind`] onto the current thread's stack and starts a wall clock;
//! dropping the guard pops the stack and records the elapsed nanoseconds
//! into the kind's latency histogram (`span.<kind>_ns`). Times are
//! *inclusive* — a parent span's recording covers its children. When the
//! gate is off the guard is inert: no stack push, no clock read.

use std::cell::RefCell;
use std::time::Instant;

use crate::metrics::{count, observe, Hist, Metric};

/// The timed regions the engine instruments. Each kind owns one latency
/// histogram (see [`SpanKind::hist`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
#[non_exhaustive]
pub enum SpanKind {
    /// `DesignProblem::typecheck` / `BoxDesignProblem::typecheck`.
    Typecheck,
    /// `verify_local` on either problem kind.
    VerifyLocal,
    /// `perfect_schema` synthesis.
    PerfectSchema,
    /// One `StreamValidator` document validation.
    ValidateStream,
    /// Cold `BoxTargetCache` build of a DTD target (every specialised name
    /// its own label).
    TargetCacheBuild,
    /// Cold `BoxTargetCache` build of any other EDTD target.
    BoxTargetCacheBuild,
    /// One whole `validate_batch` run.
    ValidateBatch,
}

impl SpanKind {
    /// The latency histogram this span kind records into.
    pub fn hist(self) -> Hist {
        match self {
            SpanKind::Typecheck => Hist::SpanTypecheckNs,
            SpanKind::VerifyLocal => Hist::SpanVerifyLocalNs,
            SpanKind::PerfectSchema => Hist::SpanPerfectSchemaNs,
            SpanKind::ValidateStream => Hist::SpanValidateStreamNs,
            SpanKind::TargetCacheBuild => Hist::SpanTargetCacheBuildNs,
            SpanKind::BoxTargetCacheBuild => Hist::SpanBoxTargetCacheBuildNs,
            SpanKind::ValidateBatch => Hist::SpanBatchNs,
        }
    }

    /// The span's name (the histogram name minus the `span.`/`_ns` wrap).
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Typecheck => "typecheck",
            SpanKind::VerifyLocal => "verify_local",
            SpanKind::PerfectSchema => "perfect_schema",
            SpanKind::ValidateStream => "validate_stream",
            SpanKind::TargetCacheBuild => "target_cache_build",
            SpanKind::BoxTargetCacheBuild => "box_target_cache_build",
            SpanKind::ValidateBatch => "batch",
        }
    }
}

thread_local! {
    static STACK: RefCell<Vec<SpanKind>> = const { RefCell::new(Vec::new()) };
}

/// A live span guard returned by [`span`]. Dropping it ends the span.
///
/// The guard is `!Send` by construction (it belongs to the thread whose
/// stack it pushed) and inert when telemetry was disabled at entry.
#[must_use = "a span measures the scope it is held for; dropping it immediately records ~0ns"]
pub struct Span {
    live: Option<(SpanKind, Instant)>,
    // RefCell is !Sync, and holding a *const makes the guard !Send without
    // unsafe impls; the span must be dropped on the thread that opened it.
    _not_send: std::marker::PhantomData<*const ()>,
}

/// Enters a span of the given kind on the current thread. No-op (returns an
/// inert guard) when the gate is off.
#[inline]
pub fn span(kind: SpanKind) -> Span {
    if !crate::enabled() {
        return Span {
            live: None,
            _not_send: std::marker::PhantomData,
        };
    }
    STACK.with(|s| s.borrow_mut().push(kind));
    count(Metric::SpanEntered, 1);
    Span {
        live: Some((kind, Instant::now())),
        _not_send: std::marker::PhantomData,
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((kind, started)) = self.live.take() {
            let elapsed = started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
            STACK.with(|s| {
                let mut stack = s.borrow_mut();
                // Guards drop in LIFO order within a thread, so the top is
                // ours; pop defensively in case a guard was moved across a
                // scope boundary and outlived a later span (not expected).
                if stack.last() == Some(&kind) {
                    stack.pop();
                } else if let Some(pos) = stack.iter().rposition(|k| *k == kind) {
                    stack.remove(pos);
                }
            });
            observe(kind.hist(), elapsed);
        }
    }
}

/// How many spans are open on the current thread.
pub fn span_depth() -> usize {
    STACK.with(|s| s.borrow().len())
}

/// The innermost open span on the current thread, if any.
pub fn current_span() -> Option<SpanKind> {
    STACK.with(|s| s.borrow().last().copied())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_record() {
        let _guard = crate::test_lock();
        crate::set_enabled(true);
        crate::reset();
        {
            let _outer = span(SpanKind::Typecheck);
            assert_eq!(current_span(), Some(SpanKind::Typecheck));
            {
                let _inner = span(SpanKind::VerifyLocal);
                assert_eq!(span_depth(), 2);
                assert_eq!(current_span(), Some(SpanKind::VerifyLocal));
            }
            assert_eq!(span_depth(), 1);
            assert_eq!(current_span(), Some(SpanKind::Typecheck));
        }
        assert_eq!(span_depth(), 0);
        assert_eq!(current_span(), None);
        let snap = crate::Snapshot::take();
        assert_eq!(snap.counter(Metric::SpanEntered), 2);
        assert_eq!(snap.histogram(Hist::SpanTypecheckNs).count, 1);
        assert_eq!(snap.histogram(Hist::SpanVerifyLocalNs).count, 1);
        crate::set_enabled(false);
    }

    #[test]
    fn every_kind_maps_to_a_distinct_histogram() {
        let kinds = [
            SpanKind::Typecheck,
            SpanKind::VerifyLocal,
            SpanKind::PerfectSchema,
            SpanKind::ValidateStream,
            SpanKind::TargetCacheBuild,
            SpanKind::BoxTargetCacheBuild,
            SpanKind::ValidateBatch,
        ];
        let mut hists: Vec<Hist> = kinds.iter().map(|k| k.hist()).collect();
        let total = hists.len();
        hists.sort_by_key(|h| *h as usize);
        hists.dedup();
        assert_eq!(hists.len(), total);
        for k in kinds {
            assert!(k.hist().name().contains(k.name()));
        }
    }
}
