//! The metric registry: enum-indexed atomic counters and log-scale
//! histograms.
//!
//! Every metric the workspace records is a variant of [`Metric`] (counters)
//! or [`Hist`] (histograms); the backing storage is one flat array of
//! `AtomicU64`s per kind, indexed by the enum discriminant — recording is an
//! array index plus one relaxed `fetch_add`, with no locks, no allocation
//! and no hashing. The closed enum is deliberate: the workspace is a single
//! codebase, so the metric universe is known statically, which is what makes
//! the disabled path (one load, one branch) and the enabled path (one RMW)
//! this cheap.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Number of histogram buckets: bucket 0 counts zeros, bucket `k ≥ 1`
/// counts values `v` with `2^(k-1) ≤ v < 2^k`, up to bucket 64 for values
/// of `2^63` and above.
pub(crate) const BUCKETS: usize = 65;

/// A monotonically increasing counter.
///
/// The variant order is the storage order; [`Metric::ALL`] iterates it.
/// See the [crate docs](crate) for the full name table.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
#[non_exhaustive]
pub enum Metric {
    /// Distinct symbols allocated in the global intern table.
    SymbolsInterned,
    /// Bytes of leaked symbol text plus per-record overhead.
    InternTableBytes,
    /// Intern-shard lock acquisitions that found the lock already held.
    InternShardContention,
    /// `Dfa::from_nfa` subset constructions run.
    SubsetConstructions,
    /// Subset states created across all constructions.
    SubsetStates,
    /// `(state set, symbol)` steps explored by subset constructions.
    SubsetTransitions,
    /// Product-BFS searches run by the inclusion/equivalence oracles.
    EquivBfsRuns,
    /// Product state pairs popped across all searches.
    EquivBfsStates,
    /// Product edges traversed across all searches.
    EquivBfsTransitions,
    /// Cold `BoxTargetCache` builds of DTD targets (every specialised
    /// name its own label).
    TargetCacheBuilds,
    /// Cold `BoxTargetCache` builds of every other EDTD target.
    BoxTargetCacheBuilds,
    /// Residual-DFA memo misses: machines actually determinised.
    ResidualDfaBuilds,
    /// Residual-DFA memo hits.
    ResidualDfaHits,
    /// Extension-automaton FIFO memo hits.
    ExtMemoHits,
    /// Extension-automaton FIFO memo misses (automaton rebuilt).
    ExtMemoMisses,
    /// Documents validated by `StreamValidator`.
    StreamDocs,
    /// SAX events consumed across all streaming validations.
    StreamEvents,
    /// Streaming validations that ended in a schema violation.
    StreamViolations,
    /// `validate_batch` invocations.
    BatchRuns,
    /// Workers spawned across all batch runs.
    BatchWorkers,
    /// Documents claimed by batch workers.
    BatchDocs,
    /// Documents a worker claimed beyond its even share of the batch.
    BatchSteals,
    /// RAII spans entered.
    SpanEntered,
    /// Budget quota trips (step/state/node/depth quotas exceeded).
    LimitsBudgetTrips,
    /// Wall-clock deadline trips.
    LimitsDeadlineTrips,
    /// Cooperative cancellations observed by governed loops.
    LimitsCancellations,
}

impl Metric {
    /// Every counter, in storage order.
    pub const ALL: [Metric; 26] = [
        Metric::SymbolsInterned,
        Metric::InternTableBytes,
        Metric::InternShardContention,
        Metric::SubsetConstructions,
        Metric::SubsetStates,
        Metric::SubsetTransitions,
        Metric::EquivBfsRuns,
        Metric::EquivBfsStates,
        Metric::EquivBfsTransitions,
        Metric::TargetCacheBuilds,
        Metric::BoxTargetCacheBuilds,
        Metric::ResidualDfaBuilds,
        Metric::ResidualDfaHits,
        Metric::ExtMemoHits,
        Metric::ExtMemoMisses,
        Metric::StreamDocs,
        Metric::StreamEvents,
        Metric::StreamViolations,
        Metric::BatchRuns,
        Metric::BatchWorkers,
        Metric::BatchDocs,
        Metric::BatchSteals,
        Metric::SpanEntered,
        Metric::LimitsBudgetTrips,
        Metric::LimitsDeadlineTrips,
        Metric::LimitsCancellations,
    ];

    /// The stable, dotted metric name (the key used in reports and the
    /// `TELEMETRY_<name>.json` sidecars).
    pub fn name(self) -> &'static str {
        match self {
            Metric::SymbolsInterned => "interner.symbols_interned",
            Metric::InternTableBytes => "interner.table_bytes",
            Metric::InternShardContention => "interner.shard_contention",
            Metric::SubsetConstructions => "dfa.subset_constructions",
            Metric::SubsetStates => "dfa.subset_states",
            Metric::SubsetTransitions => "dfa.subset_transitions",
            Metric::EquivBfsRuns => "equiv.bfs_runs",
            Metric::EquivBfsStates => "equiv.bfs_states",
            Metric::EquivBfsTransitions => "equiv.bfs_transitions",
            Metric::TargetCacheBuilds => "design.target_cache_builds",
            Metric::BoxTargetCacheBuilds => "boxes.target_cache_builds",
            Metric::ResidualDfaBuilds => "cache.residual_dfa_builds",
            Metric::ResidualDfaHits => "cache.residual_dfa_hits",
            Metric::ExtMemoHits => "design.ext_memo_hits",
            Metric::ExtMemoMisses => "design.ext_memo_misses",
            Metric::StreamDocs => "stream.docs",
            Metric::StreamEvents => "stream.events",
            Metric::StreamViolations => "stream.violations",
            Metric::BatchRuns => "batch.runs",
            Metric::BatchWorkers => "batch.workers",
            Metric::BatchDocs => "batch.docs",
            Metric::BatchSteals => "batch.steals",
            Metric::SpanEntered => "span.entered",
            Metric::LimitsBudgetTrips => "limits.budget_trips",
            Metric::LimitsDeadlineTrips => "limits.deadline_trips",
            Metric::LimitsCancellations => "limits.cancellations",
        }
    }
}

/// A log-scale (power-of-two bucket) histogram.
///
/// The variant order is the storage order; [`Hist::ALL`] iterates it. The
/// `Span*` variants are the latency sinks of the [`crate::SpanKind`] spans.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
#[non_exhaustive]
pub enum Hist {
    /// States of each determinised DFA (`Dfa::from_nfa` output size).
    SubsetDfaStates,
    /// Product pairs explored per inclusion/equivalence search.
    EquivBfsExplored,
    /// SAX events per streaming validation.
    StreamDocEvents,
    /// Peak open-element depth per streaming validation.
    StreamDocDepth,
    /// Documents validated per batch worker.
    BatchWorkerDocs,
    /// `typecheck` wall time, nanoseconds.
    SpanTypecheckNs,
    /// `verify_local` wall time, nanoseconds.
    SpanVerifyLocalNs,
    /// `perfect_schema` wall time, nanoseconds.
    SpanPerfectSchemaNs,
    /// One streaming validation's wall time, nanoseconds.
    SpanValidateStreamNs,
    /// Cold target-cache build wall time of DTD targets, nanoseconds.
    SpanTargetCacheBuildNs,
    /// Cold target-cache build wall time of other EDTD targets,
    /// nanoseconds.
    SpanBoxTargetCacheBuildNs,
    /// Whole `validate_batch` wall time, nanoseconds.
    SpanBatchNs,
}

impl Hist {
    /// Every histogram, in storage order.
    pub const ALL: [Hist; 12] = [
        Hist::SubsetDfaStates,
        Hist::EquivBfsExplored,
        Hist::StreamDocEvents,
        Hist::StreamDocDepth,
        Hist::BatchWorkerDocs,
        Hist::SpanTypecheckNs,
        Hist::SpanVerifyLocalNs,
        Hist::SpanPerfectSchemaNs,
        Hist::SpanValidateStreamNs,
        Hist::SpanTargetCacheBuildNs,
        Hist::SpanBoxTargetCacheBuildNs,
        Hist::SpanBatchNs,
    ];

    /// The stable, dotted histogram name.
    pub fn name(self) -> &'static str {
        match self {
            Hist::SubsetDfaStates => "dfa.subset_dfa_states",
            Hist::EquivBfsExplored => "equiv.bfs_explored",
            Hist::StreamDocEvents => "stream.doc_events",
            Hist::StreamDocDepth => "stream.doc_depth",
            Hist::BatchWorkerDocs => "batch.worker_docs",
            Hist::SpanTypecheckNs => "span.typecheck_ns",
            Hist::SpanVerifyLocalNs => "span.verify_local_ns",
            Hist::SpanPerfectSchemaNs => "span.perfect_schema_ns",
            Hist::SpanValidateStreamNs => "span.validate_stream_ns",
            Hist::SpanTargetCacheBuildNs => "span.target_cache_build_ns",
            Hist::SpanBoxTargetCacheBuildNs => "span.box_target_cache_build_ns",
            Hist::SpanBatchNs => "span.batch_ns",
        }
    }
}

/// One histogram's storage: per-bucket counts plus the running sum of all
/// observed values. The observation count is *derived* from the buckets (a
/// snapshot sums them), so bucket data and count can never disagree.
pub(crate) struct HistCell {
    pub(crate) buckets: [AtomicU64; BUCKETS],
    pub(crate) sum: AtomicU64,
}

/// The process-wide registry: one cell per enum variant.
pub(crate) struct Registry {
    pub(crate) counters: [AtomicU64; Metric::ALL.len()],
    pub(crate) hists: [HistCell; Hist::ALL.len()],
}

pub(crate) fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        counters: std::array::from_fn(|_| AtomicU64::new(0)),
        hists: std::array::from_fn(|_| HistCell {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }),
    })
}

/// The bucket index of a value: 0 for 0, otherwise `⌊log2 v⌋ + 1`.
pub(crate) fn bucket_of(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// The exclusive upper bound of bucket `k` (`None` for the overflow bucket,
/// whose bound would not fit in a `u64`).
pub(crate) fn bucket_upper(k: usize) -> Option<u64> {
    if k >= BUCKETS - 1 {
        None
    } else {
        Some(1u64 << k)
    }
}

/// Adds `n` to a counter. A no-op (one relaxed load, one branch) while the
/// gate is off.
#[inline]
pub fn count(metric: Metric, n: u64) {
    if crate::enabled() {
        registry().counters[metric as usize].fetch_add(n, Ordering::Relaxed);
    }
}

/// Records one observation into a histogram. A no-op while the gate is off.
#[inline]
pub fn observe(hist: Hist, value: u64) {
    if crate::enabled() {
        let cell = &registry().hists[hist as usize];
        cell.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        cell.sum.fetch_add(value, Ordering::Relaxed);
    }
}

/// Zeroes every counter and histogram (the gate is left as it is). Used by
/// the bench harness so each target's `TELEMETRY_<name>.json` sidecar
/// reflects that target's run alone, and by tests.
pub fn reset() {
    let reg = registry();
    for c in &reg.counters {
        c.store(0, Ordering::Relaxed);
    }
    for h in &reg.hists {
        for b in &h.buckets {
            b.store(0, Ordering::Relaxed);
        }
        h.sum.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucketing_is_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper(0), Some(1));
        assert_eq!(bucket_upper(10), Some(1024));
        assert_eq!(bucket_upper(64), None);
        // Every value below a bucket's upper bound maps at or below it.
        for v in [0u64, 1, 7, 8, 100, 1 << 40] {
            if let Some(upper) = bucket_upper(bucket_of(v)) {
                assert!(v < upper, "value {v} outside its bucket");
            }
        }
    }

    #[test]
    fn names_are_unique_and_ordered_like_all() {
        let mut names: Vec<&str> = Metric::ALL.iter().map(|m| m.name()).collect();
        names.extend(Hist::ALL.iter().map(|h| h.name()));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "metric names must be unique");
        for (i, m) in Metric::ALL.iter().enumerate() {
            assert_eq!(*m as usize, i, "ALL must list variants in storage order");
        }
        for (i, h) in Hist::ALL.iter().enumerate() {
            assert_eq!(*h as usize, i, "ALL must list variants in storage order");
        }
    }

    #[test]
    fn count_and_observe_respect_the_gate() {
        let _guard = crate::test_lock();
        crate::set_enabled(false);
        reset();
        count(Metric::StreamDocs, 5);
        observe(Hist::StreamDocDepth, 9);
        let reg = registry();
        assert_eq!(reg.counters[Metric::StreamDocs as usize].load(Ordering::Relaxed), 0);
        assert_eq!(
            reg.hists[Hist::StreamDocDepth as usize].sum.load(Ordering::Relaxed),
            0
        );
        crate::set_enabled(true);
        count(Metric::StreamDocs, 5);
        observe(Hist::StreamDocDepth, 9);
        assert_eq!(reg.counters[Metric::StreamDocs as usize].load(Ordering::Relaxed), 5);
        assert_eq!(
            reg.hists[Hist::StreamDocDepth as usize].sum.load(Ordering::Relaxed),
            9
        );
        crate::set_enabled(false);
        reset();
        assert_eq!(reg.counters[Metric::StreamDocs as usize].load(Ordering::Relaxed), 0);
    }
}
