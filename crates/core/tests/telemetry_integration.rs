//! End-to-end telemetry integration: with the gate enabled, one pass of
//! design typechecking, local verification, streaming validation and batch
//! validation must light up a broad cross-section of the metric registry.
//!
//! This test owns its process (integration tests build as separate
//! binaries), so flipping the global gate here cannot interfere with the
//! library's unit tests or any other integration binary.

use dxml_core::{validate_batch, DesignProblem, DistributedDoc};
use dxml_schema::{RDtd, RSdtd, StreamValidator};
use dxml_telemetry as telemetry;

#[test]
fn enabled_engine_pass_lights_up_the_registry() {
    telemetry::set_enabled(true);
    telemetry::reset();

    // Design layer: typecheck + verify_local over the paper's Figure 3
    // design (exercises the interner, subset construction, the target
    // cache and the residual-DFA memo).
    let target = RDtd::parse(
        dxml_automata::RFormalism::Nre,
        "eurostat -> averages, nationalIndex*\n\
         averages -> (Good, index+)+\n\
         nationalIndex -> country, Good, (index | value, year)\n\
         index -> value, year",
    )
    .unwrap();
    let office = RDtd::parse(
        dxml_automata::RFormalism::Nre,
        "natResult -> nationalIndex*\n\
         nationalIndex -> country, Good, index\n\
         index -> value, year",
    )
    .unwrap();
    let problem = DesignProblem::new(target)
        .with_function("fDE", office.clone())
        .with_function("fFR", office);
    let doc = DistributedDoc::parse(
        "eurostat(averages(Good index(value year)) fDE fFR)",
        ["fDE", "fFR"],
    )
    .unwrap();
    assert!(problem.typecheck(&doc).unwrap().is_valid());
    assert!(problem.verify_local(&doc).unwrap().is_valid());
    // Repeat once: the warm call reads the cached target.
    assert!(problem.typecheck(&doc).unwrap().is_valid());
    // Perfect-schema synthesis walks the spine by context residuals.
    problem.perfect_schema(&doc, "fDE").expect("synthesis succeeds");

    // Streaming layer: one well-formed document through the one-pass
    // validator, then a small batch through the parallel driver.
    let sdtd = RSdtd::parse(dxml_automata::RFormalism::Nre, "s -> r*\nr -> a, b?").unwrap();
    let validator = StreamValidator::new(&sdtd);
    assert!(validator.validate("<s><r><a/><b/></r><r><a/></r></s>").is_ok());
    let docs: Vec<String> = (0..8).map(|_| "<s><r><a/></r></s>".to_string()).collect();
    assert!(validate_batch(&sdtd, &docs).iter().all(Result::is_ok));

    let snapshot = telemetry::Snapshot::take();
    assert!(snapshot.enabled, "snapshot must report the gate as enabled");
    let nonzero = snapshot.nonzero_metrics();
    assert!(
        nonzero >= 10,
        "one engine pass should light up at least 10 distinct metrics, got {nonzero}:\n{}",
        snapshot.render()
    );

    // Spot-check one metric per instrumented subsystem, so a dropped call
    // site fails loudly rather than just shrinking the count above.
    for metric in [
        telemetry::Metric::SymbolsInterned,
        telemetry::Metric::SubsetConstructions,
        telemetry::Metric::TargetCacheBuilds,
        telemetry::Metric::StreamDocs,
        telemetry::Metric::BatchRuns,
        telemetry::Metric::SpanEntered,
    ] {
        assert!(
            snapshot.counter(metric) > 0,
            "expected non-zero counter {}:\n{}",
            metric.name(),
            snapshot.render()
        );
    }
    for hist in [
        telemetry::Hist::StreamDocEvents,
        telemetry::Hist::SpanTypecheckNs,
        telemetry::Hist::SpanValidateStreamNs,
    ] {
        assert!(
            snapshot.histogram(hist).count > 0,
            "expected non-empty histogram {}:\n{}",
            hist.name(),
            snapshot.render()
        );
    }

    // The JSON rendering must carry the same data machine-readably.
    let json = snapshot.to_json();
    assert!(json.contains("\"enabled\": true"));
    assert!(json.contains("\"stream.docs\""));
}
