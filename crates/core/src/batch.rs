//! Batch streaming validation: many documents, one schema, all cores.
//!
//! A [`StreamValidator`] is immutable after construction, so a batch of
//! documents fans out over [`std::thread::scope`] workers that share one
//! validator (the per-specialisation DFAs are built exactly once). Work is
//! handed out through an atomic cursor so one pathological document does not
//! serialise the rest behind it, and the verdicts are returned in the input
//! order regardless of completion order.
//!
//! # Fault isolation
//!
//! Each document is validated under [`std::panic::catch_unwind`]: a panic
//! while validating one document becomes a [`SchemaError::Structural`]
//! verdict *for that document* and the rest of the batch completes normally.
//! Only a panic outside the per-document region (a broken invariant of the
//! harness itself) propagates to the caller.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use dxml_automata::limits::faults;
use dxml_automata::Budget;
use dxml_schema::{RSdtd, SchemaError, StreamValidator};
use dxml_telemetry as telemetry;

/// Validates every document of a batch against `sdtd` with one streaming
/// pass each, in parallel. `verdicts[i]` is the verdict for `documents[i]`,
/// identical to what [`StreamValidator::validate`] returns for it alone.
///
/// A panic while validating one document yields an error verdict for that
/// document only; the rest of the batch completes.
pub fn validate_batch<S: AsRef<str> + Sync>(
    sdtd: &RSdtd,
    documents: &[S],
) -> Vec<Result<(), SchemaError>> {
    validate_batch_with_budget(sdtd, documents, &Budget::unlimited())
}

/// Governed variant of [`validate_batch`]: all workers share the same budget
/// (quotas are pooled across the batch, a deadline or cancellation stops
/// every worker at its next check), and each verdict surfaces
/// [`SchemaError::BudgetExceeded`] once the budget trips. Documents
/// validated before the trip keep their real verdicts.
///
/// # Panics
///
/// Panics if a validation worker itself panicked — only possible through
/// the fault injector (`fault::arm_worker_panic`); per-document panics are
/// otherwise caught and surfaced as verdicts.
pub fn validate_batch_with_budget<S: AsRef<str> + Sync>(
    sdtd: &RSdtd,
    documents: &[S],
    budget: &Budget,
) -> Vec<Result<(), SchemaError>> {
    let _span = telemetry::span(telemetry::SpanKind::ValidateBatch);
    let validator = StreamValidator::new(sdtd);
    let workers = std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(documents.len());
    telemetry::count(telemetry::Metric::BatchRuns, 1);
    telemetry::count(telemetry::Metric::BatchWorkers, workers.max(1) as u64);
    if workers <= 1 {
        telemetry::count(telemetry::Metric::BatchDocs, documents.len() as u64);
        telemetry::observe(telemetry::Hist::BatchWorkerDocs, documents.len() as u64);
        return documents
            .iter()
            .enumerate()
            .map(|(i, d)| validate_one(&validator, i, d.as_ref(), budget))
            .collect();
    }
    // A worker's even share of the batch; anything claimed beyond it was
    // effectively stolen from a slower neighbour.
    let even_share = (documents.len() / workers) as u64;
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut verdicts = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(doc) = documents.get(i) else { break };
                        verdicts.push((i, validate_one(&validator, i, doc.as_ref(), budget)));
                    }
                    let taken = verdicts.len() as u64;
                    telemetry::count(telemetry::Metric::BatchDocs, taken);
                    telemetry::count(telemetry::Metric::BatchSteals, taken.saturating_sub(even_share));
                    telemetry::observe(telemetry::Hist::BatchWorkerDocs, taken);
                    verdicts
                })
            })
            .collect();
        let mut out: Vec<Result<(), SchemaError>> = vec![Ok(()); documents.len()];
        for handle in handles {
            // The per-document region is unwind-isolated, so a worker join
            // only fails on a harness bug — that one still propagates.
            for (i, verdict) in handle.join().expect("batch validation worker panicked") {
                out[i] = verdict;
            }
        }
        out
    })
}

/// Validates one document behind an unwind barrier: a panic (including an
/// injected one from [`faults::arm_worker_panic`]) is converted into an
/// error verdict for this document alone.
fn validate_one(
    validator: &StreamValidator,
    index: usize,
    doc: &str,
    budget: &Budget,
) -> Result<(), SchemaError> {
    catch_unwind(AssertUnwindSafe(|| {
        faults::maybe_inject_worker_panic(index);
        validator.validate_with_budget(doc, budget)
    }))
    .unwrap_or_else(|_| {
        Err(SchemaError::Structural(format!(
            "validation of document {index} panicked; verdict unavailable"
        )))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dxml_automata::RFormalism;

    fn sdtd() -> RSdtd {
        RSdtd::parse(RFormalism::Nre, "s -> a*, b\na -> c?").unwrap()
    }

    #[test]
    fn batch_agrees_with_sequential_and_preserves_order() {
        let s = sdtd();
        let docs: Vec<String> = (0..64)
            .map(|i| match i % 4 {
                0 => "<s><a><c/></a><b/></s>".to_string(),
                1 => "<s><b/><a/></s>".to_string(),
                2 => "<s><a><b/></a></s>".to_string(),
                _ => "<s><a>".to_string(),
            })
            .collect();
        let batch = validate_batch(&s, &docs);
        assert_eq!(batch.len(), docs.len());
        for (doc, verdict) in docs.iter().zip(&batch) {
            assert_eq!(verdict, &StreamValidator::new(&s).validate(doc), "doc {doc:?}");
        }
        assert!(batch[0].is_ok());
        assert!(batch[1].is_err());
    }

    #[test]
    fn empty_and_singleton_batches() {
        let s = sdtd();
        assert!(validate_batch(&s, &[] as &[&str]).is_empty());
        assert_eq!(validate_batch(&s, &["<s><b/></s>"]), vec![Ok(())]);
    }
}
