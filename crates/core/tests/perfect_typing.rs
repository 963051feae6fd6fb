//! Property tests for perfect typing (Section 6): the synthesised schema
//! must (a) typecheck and (b) be *maximal* — enlarging any of its content
//! models by a single enumerated word over the schema's element names must
//! break typechecking.

use dxml_automata::{Nfa, RFormalism, RSpec, Symbol};
use dxml_core::{DesignProblem, DistributedDoc};
use dxml_schema::RDtd;

fn dtd(rules: &str) -> RDtd {
    RDtd::parse(RFormalism::Nre, rules).unwrap()
}

/// All words over `names` of length at most `max_len`, in length-lex order.
fn words_up_to(names: &[Symbol], max_len: usize) -> Vec<Vec<Symbol>> {
    let mut out: Vec<Vec<Symbol>> = vec![Vec::new()];
    let mut frontier: Vec<Vec<Symbol>> = vec![Vec::new()];
    for _ in 0..max_len {
        let mut next = Vec::new();
        for w in &frontier {
            for n in names {
                let mut grown = w.clone();
                grown.push(*n);
                next.push(grown.clone());
                out.push(grown);
            }
        }
        frontier = next;
    }
    out
}

/// Checks the two halves of the acceptance criterion on one design:
/// the perfect schema typechecks, and growing any content model by one
/// non-accepted word (up to `per_rule` words per rule) refutes typechecking.
fn assert_perfect_and_maximal(problem: &DesignProblem, doc: &DistributedDoc, f: &str) {
    let schema = problem.perfect_schema(doc, f).expect("synthesis succeeds");

    // (a) the synthesised schema typechecks.
    let solved = problem.clone().with_function(f, schema.clone());
    assert!(
        solved.typecheck(doc).unwrap().is_valid(),
        "perfect schema for `{f}` must typecheck:\n{schema}"
    );
    assert!(solved.verify_local(doc).unwrap().is_valid());

    // (b) maximality: any single-word growth of any content model breaks it.
    let per_rule = 5usize;
    let names: Vec<Symbol> = schema
        .alphabet()
        .iter()
        .filter(|s| *s != schema.start())
        .cloned()
        .collect();
    let candidates = words_up_to(&names, 3);
    for name in schema.alphabet().iter() {
        let content = schema.content(name).to_nfa();
        let mut tested = 0usize;
        for w in &candidates {
            if tested >= per_rule {
                break;
            }
            if content.accepts(w) {
                continue;
            }
            let mut grown = schema.clone();
            grown.set_rule(*name, RSpec::Nfa(content.union(&Nfa::literal(w))));
            let enlarged = problem.clone().with_function(f, grown);
            let verdict = enlarged.typecheck(doc).unwrap();
            let rendered: Vec<&str> = w.iter().map(Symbol::as_str).collect();
            assert!(
                !verdict.is_valid(),
                "adding [{}] to the content of `{name}` must break typechecking of `{f}`",
                rendered.join(" ")
            );
            tested += 1;
        }
    }
}

#[test]
fn eurostat_perfect_schema_is_maximal() {
    // The paper's running example: the averages are kernel-local, the
    // per-country indexes dock at a single call.
    let target = dtd(
        "eurostat -> averages, nationalIndex*\n\
         averages -> (Good, index+)+\n\
         nationalIndex -> country, Good, (index | value, year)\n\
         index -> value, year",
    );
    let problem = DesignProblem::new(target);
    let doc = DistributedDoc::parse(
        "eurostat(averages(Good index(value year)) fNCP)",
        ["fNCP"],
    )
    .unwrap();
    assert_perfect_and_maximal(&problem, &doc, "fNCP");
}

#[test]
fn interleaved_docking_point_is_maximal() {
    // The docking point sits *between* kernel children, so the forest
    // language is a genuine two-sided residual.
    let problem = DesignProblem::new(dtd("s -> a, b*, a\nb -> c?"));
    let doc = DistributedDoc::parse("s(a f a)", ["f"]).unwrap();
    assert_perfect_and_maximal(&problem, &doc, "f");
}

#[test]
fn fixed_sibling_functions_shape_the_maximum() {
    let problem = DesignProblem::new(dtd("s -> (b, c)*")).with_function("g", dtd("r -> b"));
    let doc = DistributedDoc::parse("s(g f)", ["g", "f"]).unwrap();
    assert_perfect_and_maximal(&problem, &doc, "f");
}

#[test]
fn repeated_compatible_docking_points_are_maximal() {
    let problem = DesignProblem::new(dtd("s -> b*\nb -> c?"));
    let doc = DistributedDoc::parse("s(f f)", ["f"]).unwrap();
    assert_perfect_and_maximal(&problem, &doc, "f");
}

#[test]
fn repeated_interacting_docking_points_with_a_maximum_are_maximal() {
    // Two docking points under one parent whose uniform maximal language
    // ((a b)*, closed under concatenation) exists and must be found.
    let problem = DesignProblem::new(dtd("s -> (a, b)*\na -> c?"));
    let doc = DistributedDoc::parse("s(f f)", ["f"]).unwrap();
    assert_perfect_and_maximal(&problem, &doc, "f");
}

#[test]
fn independent_violation_yields_the_maximal_empty_schema() {
    // The kernel node x violates τ regardless of f: the empty forest
    // language is the unique (vacuous) solution — and still maximal, since
    // admitting even the empty forest word realises the violation.
    let problem = DesignProblem::new(dtd("s -> x, b*\nx -> a"));
    let doc = DistributedDoc::parse("s(x f)", ["f"]).unwrap();
    assert_perfect_and_maximal(&problem, &doc, "f");
}

#[test]
fn perfect_schema_of_two_functions_each_maximal() {
    let target = dtd("s -> a, b*, c*\nb -> c?");
    let problem = DesignProblem::new(target)
        .with_function("f", dtd("r -> b"))
        .with_function("g", dtd("r -> c"));
    let doc = DistributedDoc::parse("s(a f g)", ["f", "g"]).unwrap();
    // Each synthesis keeps the *other* function's declared schema fixed.
    assert_perfect_and_maximal(&problem, &doc, "f");
    assert_perfect_and_maximal(&problem, &doc, "g");
}

#[test]
fn residual_determinisations_are_memoised_per_problem() {
    // Synthesis determinises each docking parent's content model at most
    // once per problem: repeated perfect_schema calls reuse the memo.
    let problem = DesignProblem::new(dtd("s -> a, b*\nb -> c?"));
    let doc = DistributedDoc::parse("s(a f)", ["f"]).unwrap();
    let first = problem.perfect_schema(&doc, "f").unwrap();
    let after_first = problem.cache_stats();
    assert!(after_first.target_cache_built);
    assert!(
        after_first.residual_dfa_builds >= 1,
        "synthesis must go through the residual-DFA memo"
    );
    let second = problem.perfect_schema(&doc, "f").unwrap();
    let after_second = problem.cache_stats();
    assert_eq!(
        after_second.residual_dfa_builds, after_first.residual_dfa_builds,
        "a repeated synthesis must not determinise any further residual input"
    );
    assert!(
        after_second.residual_dfa_hits > after_first.residual_dfa_hits,
        "the repeated synthesis must be served from the memo"
    );
    // The memo is an optimisation only: both syntheses agree.
    let fa = first.content(first.start()).to_nfa();
    let fb = second.content(second.start()).to_nfa();
    assert!(dxml_automata::equiv::is_equivalent(&fa, &fb));
}

#[test]
fn docking_points_under_several_parents_are_maximal() {
    // `f` docks once under each of two `b` children of the root: every
    // docking parent contributes its own residual, and the maximum is
    // their intersection.
    let problem = DesignProblem::new(dtd("s -> b, b\nb -> c*, d?"));
    let doc = DistributedDoc::parse("s(b(f) b(f))", ["f"]).unwrap();
    assert_perfect_and_maximal(&problem, &doc, "f");
}

#[test]
fn docking_points_at_the_root_and_below_a_sibling_are_maximal() {
    // One docking point sits directly under the root, the other under the
    // root's `b` child: the root residual sees the `b` child as a fixed
    // valid `b`, and `b`'s own residual bounds the forests below it.
    let problem = DesignProblem::new(dtd("s -> c*, b\nb -> c, c?"));
    let doc = DistributedDoc::parse("s(f b(f))", ["f"]).unwrap();
    assert_perfect_and_maximal(&problem, &doc, "f");
}

#[test]
fn an_off_spine_violation_under_several_parents_forces_the_empty_maximum() {
    // The root's `x` child misses its required `a` whatever `f` returns,
    // so the only typing forest language is the empty one.
    let problem = DesignProblem::new(dtd("s -> b, b, x\nb -> c*\nx -> a"));
    let doc = DistributedDoc::parse("s(b(f) b(f) x)", ["f"]).unwrap();
    let perfect = problem.perfect_schema(&doc, "f").expect("synthesis succeeds");
    assert!(perfect.content(perfect.start()).to_nfa().is_empty());
    assert_perfect_and_maximal(&problem, &doc, "f");
}
