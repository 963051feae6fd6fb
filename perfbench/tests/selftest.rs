//! Self-tests of the benchmark: seeded inputs, the metric contract with
//! `BENCHMARK.json`, known-answer runs of every workload, the interner
//! staying flat after set-up, and exactly repeating traced counters.
//!
//! Runs go through the built binary, one process each: the engine's
//! telemetry registry and intern table are process-global.

use std::path::Path;
use std::process::Command;

use perfbench::gen::{design_corpus, doc_corpus, DesignCase, DocCase, VARIANTS};
use perfbench::run::{per_layer_metrics, END_TO_END, WORKLOADS};

fn design_bytes(corpus: &[DesignCase]) -> String {
    let mut out = String::new();
    for case in corpus {
        out.push_str(&case.target);
        for (f, schema) in &case.functions {
            out.push_str(f);
            out.push_str(schema);
        }
        for kernel in &case.kernels {
            out.push_str(&format!("{}{}", kernel.term, kernel.valid));
        }
        out.push_str(&case.dock);
        out.push_str(&case.perfect_accepts.join("|"));
        out.push_str(&case.perfect_rejects.join("|"));
    }
    out
}

fn doc_bytes(corpus: &[DocCase]) -> String {
    corpus
        .iter()
        .map(|d| format!("{}{}{}", d.sdtd, d.valid, d.xml))
        .collect()
}

#[test]
fn same_seed_same_inputs_other_seed_other_inputs() {
    let a = design_bytes(&design_corpus(7, VARIANTS));
    assert_eq!(
        a.as_bytes(),
        design_bytes(&design_corpus(7, VARIANTS)).as_bytes()
    );
    assert_ne!(a, design_bytes(&design_corpus(8, VARIANTS)));
    let d = doc_bytes(&doc_corpus(7));
    assert_eq!(d.as_bytes(), doc_bytes(&doc_corpus(7)).as_bytes());
    assert_ne!(d, doc_bytes(&doc_corpus(8)));
}

#[test]
fn corpora_mix_valid_and_invalid_answers() {
    let designs = design_corpus(3, VARIANTS);
    let kernels: Vec<bool> = designs
        .iter()
        .flat_map(|c| c.kernels.iter().map(|k| k.valid))
        .collect();
    let invalid = kernels.iter().filter(|v| !**v).count();
    assert!(
        invalid * 4 > kernels.len() && invalid * 4 < kernels.len() * 3,
        "{invalid} of {}",
        kernels.len()
    );
    assert_eq!(designs.iter().filter(|c| c.edtd).count() * 4, designs.len());
    let docs = doc_corpus(3);
    assert_eq!(
        docs.iter().filter(|d| !d.valid).count() * 10,
        docs.len() - docs.len() % 10
    );
}

struct RunResult {
    correct: bool,
    failed: u64,
    /// `(name, value text, unit)` in output order.
    metrics: Vec<(String, String, String)>,
}

/// Runs the binary and parses its last line, without a JSON dependency:
/// the result line has a fixed shape.
fn run(workload: &str, seed: u64, trace: bool) -> RunResult {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "selftest-{workload}-{seed}-{trace}-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "1",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .current_dir(&dir)
        .output()
        .expect("the benchmark binary runs");
    let _ = std::fs::remove_dir_all(&dir);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let line = stdout.lines().last().expect("a result line");
    let field = |key: &str| {
        let rest = &line[line.find(&format!("\"{key}\":")).expect(key) + key.len() + 3..];
        rest[..rest.find([',', '}']).expect("value end")].to_string()
    };
    let metrics_text = &line[line.find("\"metrics\":{").expect("metrics") + 11..];
    let metrics = metrics_text
        .split("},")
        .map(|entry| {
            let name = entry.split('"').nth(1).expect("metric name").to_string();
            let value = entry
                .split("\"value\":")
                .nth(1)
                .expect("value")
                .split(',')
                .next()
                .expect("value")
                .to_string();
            let unit = entry
                .split("\"unit\":\"")
                .nth(1)
                .expect("unit")
                .split('"')
                .next()
                .expect("unit")
                .to_string();
            (name, value, unit)
        })
        .collect();
    RunResult {
        correct: field("correct") == "true",
        failed: field("failed").parse().expect("failed count"),
        metrics,
    }
}

fn benchmark_json() -> String {
    std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
        .expect("BENCHMARK.json")
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit_and_no_op_fails() {
    let spec = benchmark_json();
    let (e2e, layers) = spec.split_at(spec.find("\"per_layer\"").expect("per_layer section"));
    let declared = |section: &str| section.matches("\"unit\":").count();
    assert_eq!(declared(e2e), END_TO_END.len(), "end_to_end entries");
    assert_eq!(
        declared(layers),
        per_layer_metrics().len(),
        "per_layer entries"
    );
    for w in WORKLOADS {
        assert!(
            spec.contains(&format!("\"name\": \"{w}\"")),
            "workload {w} not declared"
        );
        for (trace, section, expected) in [
            (
                false,
                e2e,
                END_TO_END
                    .iter()
                    .map(|(n, u)| (n.to_string(), *u))
                    .collect::<Vec<_>>(),
            ),
            (true, layers, per_layer_metrics()),
        ] {
            let r = run(w, 1, trace);
            assert!(
                r.correct && r.failed == 0,
                "{w} trace={trace}: correct={} failed={}",
                r.correct,
                r.failed
            );
            let emitted: Vec<(String, String)> = r
                .metrics
                .iter()
                .map(|(n, _, u)| (n.clone(), u.clone()))
                .collect();
            let wanted: Vec<(String, String)> = expected
                .iter()
                .map(|(n, u)| (n.clone(), u.to_string()))
                .collect();
            assert_eq!(emitted, wanted, "{w} trace={trace}");
            for (name, unit) in &wanted {
                let decl = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
                assert!(section.contains(&decl), "BENCHMARK.json lacks {decl}");
            }
        }
    }
}

#[test]
fn traced_counters_repeat_and_the_interner_stays_flat() {
    for w in WORKLOADS {
        let counters = |r: &RunResult| -> Vec<(String, String)> {
            r.metrics
                .iter()
                .filter(|(_, _, unit)| unit == "count" || unit == "ratio")
                .map(|(n, v, _)| (n.clone(), v.clone()))
                .collect()
        };
        let (a, b) = (run(w, 5, true), run(w, 5, true));
        assert!(a.correct && b.correct, "{w}: traced runs failed a check");
        assert_eq!(
            counters(&a),
            counters(&b),
            "{w}: counters differ between same-seed runs"
        );
        let interned = a
            .metrics
            .iter()
            .find(|(n, _, _)| n == "interner.symbols_interned")
            .expect("interner metric");
        assert_eq!(interned.1, "0", "{w}: the interner grew after set-up");
    }
}
