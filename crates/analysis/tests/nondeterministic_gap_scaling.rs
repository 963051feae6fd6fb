//! A function whose forest word is the suffix-counting language
//! `(x | y)*, x, (x | y)^(k-1)`: its subset construction needs `2^k`
//! states, but every search of the kernel pass, the cold target-cache
//! build and `perfect_schema`'s context walks reads it against a
//! deterministic machine, so each searches (NFA state, machine state)
//! pairs and stays polynomial in `k`.
//!
//! Each call runs at `K = 32` under its own step quota of `QUOTA`, far
//! below the `2^K` steps of a search over NFA *state sets*, and must finish
//! under `BOUND`. A search that went exponential again trips the quota
//! instead of running for hours.

use std::time::{Duration, Instant};

use dxml_automata::{equiv, Budget, RFormalism, Regex};
use dxml_core::{DesignError, DesignProblem, DistributedDoc};
use dxml_schema::RDtd;

const K: usize = 32;

/// Far above the hundred or so steps each call spends.
const QUOTA: u64 = 10_000;

/// Far above what each call takes, even unoptimised.
const BOUND: Duration = Duration::from_secs(5);

/// `(x | y)*, x, (x | y)^(k-1)`.
fn suffix_counting(x: &str, y: &str, k: usize) -> String {
    format!("({x} | {y})*, {x}{}", format!(", ({x} | {y})").repeat(k - 1))
}

fn dtd(rules: &str) -> RDtd {
    RDtd::parse(RFormalism::Nre, rules).unwrap()
}

fn governed<R>(what: &str, f: impl FnOnce(&Budget) -> Result<R, DesignError>) -> R {
    let budget = Budget::unlimited().with_step_quota(QUOTA);
    let start = Instant::now();
    let out = f(&budget).unwrap_or_else(|e| panic!("{what}: {e}"));
    let took = start.elapsed();
    assert!(took < BOUND, "{what} took {took:?}");
    out
}

/// Whether the perfect schema lets the function return any `(a | b)*`.
fn returns_any_a_b_word(schema: &RDtd) -> bool {
    let any = Regex::parse("(a | b)*").unwrap().to_nfa();
    equiv::is_equivalent(&schema.content(schema.start()).to_nfa(), &any)
}

#[test]
fn a_suffix_counting_gap_is_decided_in_polynomial_steps() {
    let doc = DistributedDoc::parse("s(f)", ["f"]).unwrap();
    let problem = || {
        DesignProblem::new(dtd("s -> (a | b)*"))
            .with_function("f", dtd(&format!("r -> {}", suffix_counting("a", "b", K))))
    };
    assert!(governed("verify_local", |b| problem().verify_local_with_budget(&doc, b)).is_valid());
    assert!(governed("typecheck", |b| problem().typecheck_with_budget(&doc, b)).is_valid());
    let schema = governed("perfect_schema", |b| problem().perfect_schema_with_budget(&doc, "f", b));
    assert!(returns_any_a_b_word(&schema), "{schema}");
}

#[test]
fn a_suffix_counting_function_content_builds_the_cache_in_polynomial_steps() {
    let doc = DistributedDoc::parse("s(f)", ["f"]).unwrap();
    let problem = DesignProblem::new(dtd("s -> b*\nb -> (a | c)*"))
        .with_function("f", dtd(&format!("r -> b\nb -> {}", suffix_counting("a", "c", K))));
    governed("cold cache build", |b| problem.target_cache_with_budget(b).map(|_| ()));
    assert!(governed("verify_local", |b| problem.verify_local_with_budget(&doc, b)).is_valid());
    assert!(governed("typecheck", |b| problem.typecheck_with_budget(&doc, b)).is_valid());
}

#[test]
fn a_suffix_counting_prefix_context_is_walked_in_polynomial_steps() {
    let doc = DistributedDoc::parse("s(g f)", ["g", "f"]).unwrap();
    let problem = DesignProblem::new(dtd("s -> (a | b)*"))
        .with_function("g", dtd(&format!("r -> {}", suffix_counting("a", "b", K))))
        .with_function("f", dtd("r -> a*"));
    let schema = governed("perfect_schema", |b| problem.perfect_schema_with_budget(&doc, "f", b));
    assert!(returns_any_a_b_word(&schema), "{schema}");
}
