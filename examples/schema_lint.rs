//! Schema lint: the `dxml-analysis` diagnostic passes over the repo's
//! schema corpus, with rustc-style output.
//!
//! Two parts:
//!
//! 1. a **showcase** over a deliberately flawed design, demonstrating every
//!    diagnostic family (structural, content-model, definability advisory,
//!    design-level) — its findings never affect the exit code;
//! 2. the **corpus gate**: every schema and design the examples and bench
//!    workloads use is linted, and the process exits non-zero if any
//!    diagnostic of `error` severity survives — the CI entry point.
//!
//! ```sh
//! cargo run --example schema_lint             # rustc-style text report
//! cargo run --example schema_lint -- --json   # machine-readable findings
//! cargo run --example schema_lint -- --costs  # + static cost predictions
//! ```
//!
//! With `--json` the corpus-gate findings are emitted as one JSON document
//! (`{"entries": [...], "errors": N}`, rendered by
//! `dxml_analysis::report`) in the same machine-readable spirit as the
//! `BENCH_*`/`TELEMETRY_*` files; the showcase prose is skipped and the
//! exit-code contract is unchanged. `--costs` appends the static
//! cost-analysis summary (`dxml_analysis::cost`) for the corpus designs —
//! the state/step brackets of the cold target-cache build (determinised
//! target states, governed steps), the dominating location and the
//! recommended budget quotas — as text or, combined with `--json`, as a
//! `"costs"` array in the same document.

use std::process::ExitCode;

use dxml::analysis::report::{error_count, json_string, render_json, render_text};
use dxml::analysis::{
    analyze_box_design, analyze_design, analyze_schema, box_design_cost, design_cost,
    recommended_quotas, AnySchema, DesignCost, DEFAULT_HEADROOM,
};
use dxml::automata::{RFormalism, Regex, RSpec};
use dxml::core::{DesignProblem, DistributedDoc};
use dxml::schema::{RDtd, REdtd};
use dxml::Diagnostic;

/// A design with one of everything: an unsatisfiable element, an
/// unreachable one, a non-one-unambiguous content model, a shadowed
/// function name, a never-docked function, a schema-less call and a
/// secretly-DTD-definable EDTD target in the box variant.
fn showcase() {
    println!("== showcase: a deliberately flawed design ==");
    let mut target = RDtd::parse(
        RFormalism::Nre,
        "store -> item*, f?\n\
         item -> (sku | sku), price\n\
         loop -> loop\n\
         orphan -> price",
    )
    .expect("showcase DTD parses");
    target.add_element("f");
    let mut fschema = RDtd::new(RFormalism::Nre, "item");
    fschema.set_rule("item", RSpec::Nre(Regex::parse("sku, price").unwrap()));
    let problem = DesignProblem::new(target)
        .with_function("f", fschema.clone())
        .with_function("audit", fschema);
    let doc = DistributedDoc::parse("store(item(sku price) f ghost)", ["f", "ghost"])
        .expect("showcase document parses");
    let report = analyze_design(&problem, &doc);
    for d in &report {
        println!("{d}");
    }

    println!("\n== showcase: an EDTD that is secretly a DTD ==");
    let mut e = REdtd::new(RFormalism::Nre, "s", "s");
    e.add_specialization("x", "a");
    e.add_specialization("y", "a");
    e.set_rule("s", RSpec::Nre(Regex::parse("x y*").unwrap()));
    e.set_rule("x", RSpec::Nre(Regex::parse("b").unwrap()));
    e.set_rule("y", RSpec::Nre(Regex::parse("b").unwrap()));
    for d in analyze_schema(AnySchema::Edtd(&e)) {
        println!("{d}");
    }

    println!("\n== showcase: a predicted-exponential content model ==");
    let adversarial = dxml_bench::adversarial_dtd(10);
    for d in analyze_schema(AnySchema::Dtd(&adversarial)) {
        println!("{d}");
    }
}

/// Lints every schema and design of the example/bench corpus; returns the
/// findings per corpus entry, in corpus order.
fn corpus_findings() -> Vec<(String, Vec<Diagnostic>)> {
    let mut entries = Vec::new();

    // The Figure 3 Eurostat type driving the paper examples.
    let eurostat = dxml_bench::eurostat_figure3();
    entries.push(("eurostat (Figure 3)".to_string(), analyze_schema(AnySchema::Dtd(&eurostat))));

    // The one-c specialised target of the box-design example.
    let mut one_c = REdtd::new(RFormalism::Nre, "s", "s");
    one_c.add_specialization("ab", "a");
    one_c.add_specialization("ac", "a");
    one_c.set_rule("s", RSpec::Nre(Regex::parse("ab* ac ab*").unwrap()));
    one_c.set_rule("ab", RSpec::Nre(Regex::parse("b").unwrap()));
    one_c.set_rule("ac", RSpec::Nre(Regex::parse("c").unwrap()));
    entries.push(("one-c target (box_design)".to_string(), analyze_schema(AnySchema::Edtd(&one_c))));

    // The seeded bench families, one schema per formalism.
    for formalism in RFormalism::ALL {
        let dtd = dxml_bench::dtd_family(formalism, 12, 7);
        let entry = format!("bench dtd_family({formalism}, n=12)");
        entries.push((entry, analyze_schema(AnySchema::Dtd(&dtd))));
    }

    // The bench design workloads, both kinds.
    let (problem, doc) = dxml_bench::design_workload(12, 3, 7);
    entries.push(("bench design_workload(n=12)".to_string(), analyze_design(&problem, &doc)));
    let (problem, doc) = dxml_bench::box_workload(6);
    entries.push(("bench box_workload(n=6)".to_string(), analyze_box_design(&problem, &doc)));

    entries
}

/// The corpus designs' composed cost models, plus the adversarial family
/// as the worked example of a predicted-exponential design.
fn corpus_costs() -> Vec<(String, DesignCost)> {
    let mut out = Vec::new();
    let (problem, _) = dxml_bench::design_workload(12, 3, 7);
    out.push(("bench design_workload(n=12)".to_string(), design_cost(&problem)));
    let (problem, _) = dxml_bench::box_workload(6);
    out.push(("bench box_workload(n=6)".to_string(), box_design_cost(&problem)));
    out.push((
        "eurostat (Figure 3)".to_string(),
        design_cost(&DesignProblem::new(dxml_bench::eurostat_figure3())),
    ));
    out.push((
        "adversarial_dtd(n=10)".to_string(),
        design_cost(&DesignProblem::new(dxml_bench::adversarial_dtd(10))),
    ));
    out
}

fn render_costs_text(costs: &[(String, DesignCost)]) {
    println!("\n== static cost analysis ==");
    for (entry, cost) in costs {
        let (state_quota, step_quota) = recommended_quotas(cost, DEFAULT_HEADROOM);
        println!("{entry}:");
        println!(
            "  cold target-cache build: {} determinised target states, {} governed steps",
            cost.states, cost.steps
        );
        println!("  recommended budget: state quota {state_quota}, step quota {step_quota}");
        for (loc, sc) in cost.target.exponential() {
            println!("  predicted-exponential: {loc} — at least {} states", sc.dfa_lower_bound);
        }
        if let Some(dom) = &cost.dominant {
            println!(
                "  dominated by {} ({} of {} upper-bound states)",
                dom.location, dom.upper, dom.total_upper
            );
        }
    }
}

fn costs_json(costs: &[(String, DesignCost)]) -> String {
    let rendered: Vec<String> = costs
        .iter()
        .map(|(entry, cost)| {
            let (state_quota, step_quota) = recommended_quotas(cost, DEFAULT_HEADROOM);
            let dominant = cost.dominant.as_ref().map_or_else(
                || "null".to_string(),
                |d| json_string(&d.location),
            );
            format!(
                "    {{\"entry\":{},\"states_lower\":{},\"states_upper\":{},\
                 \"steps_lower\":{},\"steps_upper\":{},\"state_quota\":{},\
                 \"step_quota\":{},\"dominant\":{}}}",
                json_string(entry),
                cost.states.lower,
                cost.states.upper,
                cost.steps.lower,
                cost.steps.upper,
                state_quota,
                step_quota,
                dominant
            )
        })
        .collect();
    format!("[\n{}\n  ]", rendered.join(",\n"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let costs = args.iter().any(|a| a == "--costs");

    if json {
        let entries = corpus_findings();
        let errors = error_count(&entries);
        let mut doc = render_json(&entries);
        if costs {
            // Splice the costs array into the same document, keeping it a
            // single JSON value.
            let closing = doc.rfind("\n}").expect("render_json emits an object");
            let costs_part = format!(",\n  \"costs\": {}\n}}", costs_json(&corpus_costs()));
            doc.truncate(closing);
            doc.push_str(&costs_part);
        }
        println!("{doc}");
        return if errors > 0 { ExitCode::FAILURE } else { ExitCode::SUCCESS };
    }

    showcase();
    println!("\n== corpus gate ==");
    let entries = corpus_findings();
    print!("{}", render_text(&entries));
    let errors = error_count(&entries);
    if costs {
        render_costs_text(&corpus_costs());
    }
    if errors > 0 {
        println!("\nschema lint: {errors} error-severity diagnostic(s) in the corpus");
        return ExitCode::FAILURE;
    }
    println!("\nschema lint: corpus clean (no error-severity diagnostics)");
    ExitCode::SUCCESS
}
