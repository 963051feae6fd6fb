//! Property tests for the box-design subsystem (Section 7).
//!
//! Brute force confirms the engine: on small universes (≤ 3 element
//! labels, kernels with box width ≤ 3) and *finite* (star-free, acyclic)
//! function schemas, every instantiation of the docking point can be
//! enumerated and materialised; the design typechecks iff every
//! materialisation validates against the target. Both `typecheck` and
//! `verify_local` must agree with that ground truth, for EDTD targets and
//! for DTD targets seen through `DesignProblem` and through their trivial
//! EDTD embedding on the box engine; the DTD-view verdicts are also
//! certified: every counterexample document is rejected by the plain DTD
//! validator, and every local counterexample word is realizable where it
//! is reported and rejected by the DTD content model.

use std::collections::BTreeMap;

use dxml_automata::{RFormalism, Regex, RSpec, Symbol};
use dxml_automata::Nfa;
use dxml_core::{
    BoxDesignProblem, DesignProblem, DistributedDoc, LocalVerdict, LocalViolation, Origin,
    TypingVerdict,
};
use dxml_schema::{RDtd, REdtd};
use dxml_tree::generate::SplitRng;
use dxml_tree::{XForest, XTree};

/// All trees derivable from a specialised name of a *star-free, acyclic*
/// schema. The generators below only produce bounded content models, so the
/// enumeration is complete; the depth bound is a safety net, not a cap.
fn trees_of(schema: &REdtd, spec: &Symbol, depth: usize) -> Vec<XTree> {
    assert!(depth > 0, "generated schemas are acyclic with depth <= 4");
    let label = schema
        .label_of(spec)
        .cloned()
        .unwrap_or(*spec);
    let words = schema.content(spec).to_nfa().enumerate_accepted(3, 64);
    assert!(words.len() < 64, "content models must stay finite");
    let mut out = Vec::new();
    for word in words {
        let mut combos: Vec<Vec<XTree>> = vec![Vec::new()];
        for child_spec in &word {
            let children = trees_of(schema, child_spec, depth - 1);
            let mut next = Vec::new();
            for combo in &combos {
                for t in &children {
                    let mut extended = combo.clone();
                    extended.push(t.clone());
                    next.push(extended);
                }
            }
            combos = next;
            assert!(combos.len() <= 256, "enumeration must stay complete");
        }
        for combo in combos {
            out.push(XTree::node(label, combo));
        }
    }
    out
}

/// Every forest the function schema can return.
fn forests_of(schema: &REdtd) -> Vec<XForest> {
    let words = schema.content(schema.start()).to_nfa().enumerate_accepted(3, 64);
    assert!(words.len() < 64, "forest content models must stay finite");
    let mut out = Vec::new();
    for word in words {
        let mut combos: Vec<XForest> = vec![Vec::new()];
        for spec in &word {
            let trees = trees_of(schema, spec, 4);
            let mut next = Vec::new();
            for combo in &combos {
                for t in &trees {
                    let mut extended = combo.clone();
                    extended.push(t.clone());
                    next.push(extended);
                }
            }
            combos = next;
            assert!(combos.len() <= 256, "enumeration must stay complete");
        }
        out.extend(combos);
    }
    out
}

/// A random EDTD target over the labels `{s, a, b}` with up to two
/// specialisations of `a` (stars allowed — the target side is not
/// enumerated).
fn random_target(rng: &mut SplitRng) -> REdtd {
    let mut e = REdtd::new(RFormalism::Nre, "s", "s");
    e.add_specialization("a1", "a");
    e.add_specialization("a2", "a");
    e.add_specialization("b1", "b");
    let roots = [
        "a1* a2 a1*",
        "(a1 | b1)*",
        "a1 a2* b1?",
        "b1? a1*",
        "(a1 b1)*",
        "a2* b1",
        "a1? a2?",
    ];
    let inner = ["", "b1", "b1?", "b1*", "b1 b1", "a2?"];
    e.set_rule("s", RSpec::Nre(Regex::parse(roots[rng.below(roots.len())]).unwrap()));
    for spec in ["a1", "a2"] {
        let src = inner[rng.below(inner.len())];
        if !src.is_empty() {
            e.set_rule(spec, RSpec::Nre(Regex::parse(src).unwrap()));
        }
    }
    e
}

/// A random *finite* function schema: forests of `a`- and `b`-trees of
/// depth ≤ 2, star-free, so every instantiation can be enumerated.
fn random_finite_schema(rng: &mut SplitRng) -> REdtd {
    let mut e = REdtd::new(RFormalism::Nre, "r", "r");
    e.add_specialization("x", "a");
    e.add_specialization("y", "b");
    let forests = ["x", "x?", "x y", "x | y", "x x", "y?"];
    let xcontents = ["", "y", "y?", "y y"];
    e.set_rule("r", RSpec::Nre(Regex::parse(forests[rng.below(forests.len())]).unwrap()));
    let xc = xcontents[rng.below(xcontents.len())];
    if !xc.is_empty() {
        e.set_rule("x", RSpec::Nre(Regex::parse(xc).unwrap()));
    }
    e
}

/// A random kernel `s(…)` with at most 3 fixed children (box width ≤ 3) and
/// exactly one docking point `f`.
fn random_kernel(rng: &mut SplitRng) -> DistributedDoc {
    let mut kernel = XTree::leaf(Symbol::new("s"));
    let fixed = rng.below(4);
    let gap_at = rng.below(fixed + 1);
    for i in 0..=fixed {
        if i == gap_at {
            kernel.add_child(0, Symbol::new("f"));
            continue;
        }
        if i >= fixed {
            break;
        }
        match rng.below(3) {
            0 => {
                kernel.add_child(0, Symbol::new("a"));
            }
            1 => {
                kernel.add_child(0, Symbol::new("b"));
            }
            _ => {
                let node = kernel.add_child(0, Symbol::new("a"));
                kernel.add_child(node, Symbol::new("b"));
            }
        }
    }
    DistributedDoc::new(kernel, ["f"]).expect("kernel invariants hold")
}

#[test]
fn box_typecheck_agrees_with_brute_force_enumeration() {
    let mut rng = SplitRng::new(0xB0C5);
    let mut valids = 0usize;
    let mut invalids = 0usize;
    for case in 0..60 {
        let target = random_target(&mut rng);
        let schema = random_finite_schema(&mut rng);
        let doc = random_kernel(&mut rng);
        let forests = forests_of(&schema);
        assert!(!forests.is_empty(), "generated schemas always return some forest");

        // Ground truth: every instantiation of the docking point must
        // validate against the target.
        let brute = forests.iter().all(|forest| {
            let mut results: BTreeMap<Symbol, XForest> = BTreeMap::new();
            results.insert(Symbol::new("f"), forest.clone());
            let materialised = doc.materialize(&results).expect("schema for f supplied");
            target.accepts(&materialised)
        });

        let problem = BoxDesignProblem::new(target).with_function("f", schema);
        let global = problem.typecheck(&doc).expect("typecheck runs");
        let local = problem.verify_local(&doc).expect("verify_local runs");
        assert_eq!(
            global.is_valid(),
            brute,
            "case {case}: typecheck disagrees with enumeration on {doc:?} \
             against {:?}",
            problem.doc_schema()
        );
        assert_eq!(
            local.is_valid(),
            brute,
            "case {case}: verify_local disagrees with enumeration on {doc:?} \
             against {:?}",
            problem.doc_schema()
        );
        // Certificate: the counterexample is an extension of the kernel,
        // and the target's plain validator rejects it.
        if let TypingVerdict::Invalid { counterexample, .. } = &global {
            assert!(
                problem.extension_nuta(&doc).expect("schemas supplied").accepts(counterexample),
                "case {case}: counterexample `{counterexample}` is not an extension of {doc:?}"
            );
            assert!(
                problem.doc_schema().validate(counterexample).is_err(),
                "case {case}: counterexample `{counterexample}` validates against {:?}",
                problem.doc_schema()
            );
        }
        if brute {
            valids += 1;
        } else {
            invalids += 1;
        }
    }
    // The generator must exercise both verdicts, otherwise the test is
    // vacuous.
    assert!(valids >= 5, "only {valids} valid cases sampled");
    assert!(invalids >= 5, "only {invalids} invalid cases sampled");
}

#[test]
fn dtd_targets_embedded_as_edtds_agree_with_design_problem() {
    // DTD targets, decided through the DTD view with certified verdicts,
    // and through the box engine on the DTDs' trivial EDTD embeddings.
    let targets = [
        "s -> a, b*\nb -> c?",
        "s -> (b, c)*",
        "s -> a*",
        "s -> a, a",
        "s -> b | a\na -> a",
        "s -> f, a\nf -> a?",
    ];
    let schemas = [
        "r -> b, b\nb -> c?",
        "r -> b?, b?\nb -> d?",
        "r -> a",
        "r -> b",
        "r -> a?, a?",
        "r -> f\nf -> a?",
    ];
    let kernels = ["s(a f)", "s(b c f)", "s(f)", "s(a f b)", "s(f a)", "s(b(c) f)"];
    let (mut valids, mut invalids) = (0usize, 0usize);
    let (mut kernel_words, mut function_words) = (0usize, 0usize);
    let cases: Vec<(&str, &str, &str)> = targets
        .iter()
        .flat_map(|t| schemas.iter().flat_map(|f| kernels.iter().map(|k| (*t, *f, *k))))
        .collect();
    for (case, (target, schema, kernel)) in cases.into_iter().enumerate() {
        let target = RDtd::parse(RFormalism::Nre, target).unwrap();
        let schema = RDtd::parse(RFormalism::Nre, schema).unwrap();
        let doc = DistributedDoc::parse(kernel, ["f"]).unwrap();
        let brute = forests_of(&schema.to_edtd()).iter().all(|forest| {
            let results = BTreeMap::from([(Symbol::new("f"), forest.clone())]);
            target.accepts(&doc.materialize(&results).expect("schema for f supplied"))
        });
        let problem = DesignProblem::new(target.clone()).with_function("f", schema.clone());
        let global = problem.typecheck(&doc).expect("typecheck runs");
        let local = problem.verify_local(&doc).expect("verify_local runs");
        assert_eq!(global.is_valid(), brute, "case {case}: typecheck on {doc:?} against {target:?}");
        assert_eq!(local.is_valid(), brute, "case {case}: verify_local on {doc:?} against {target:?}");
        let embedded = BoxDesignProblem::new(target.to_edtd()).with_function("f", schema.to_edtd());
        assert_eq!(
            embedded.typecheck(&doc).expect("box typecheck runs").is_valid(),
            brute,
            "case {case}: box typecheck on the embedding of {target:?} disagrees on {doc:?}"
        );
        assert_eq!(
            embedded.verify_local(&doc).expect("box verify_local runs").is_valid(),
            brute,
            "case {case}: box verify_local on the embedding of {target:?} disagrees on {doc:?}"
        );
        if let TypingVerdict::Invalid { counterexample, .. } = &global {
            assert!(
                target.validate(counterexample).is_err(),
                "case {case}: counterexample `{counterexample}` validates against {target:?}"
            );
        }
        if let LocalVerdict::Invalid(LocalViolation::Content { element, counterexample, origin, .. }) =
            &local
        {
            assert!(
                !target.content(element).to_nfa().accepts(counterexample),
                "case {case}: the local word under `{element}` matches the target content model"
            );
            assert!(
                realizable_words(&doc, &schema, origin, element)
                    .iter()
                    .any(|words| words.accepts(counterexample)),
                "case {case}: the local word under `{element}` is not realizable at {origin:?}"
            );
            match origin {
                Origin::Kernel { .. } => kernel_words += 1,
                Origin::Function { .. } => function_words += 1,
            }
        }
        if brute {
            valids += 1;
        } else {
            invalids += 1;
        }
    }
    assert!(valids >= 10, "only {valids} valid DTD cases");
    assert!(invalids >= 10, "only {invalids} invalid DTD cases");
    assert!(kernel_words >= 5, "only {kernel_words} kernel words certified");
    assert!(function_words >= 5, "only {function_words} function words certified");
}

/// The child-word languages realizable under `element` at `origin`, with
/// `f` declared by `schema`: one per kernel node on the origin's path, or
/// the content model of `element` in the reduced function schema.
fn realizable_words(
    doc: &DistributedDoc,
    schema: &RDtd,
    origin: &Origin,
    element: &Symbol,
) -> Vec<Nfa> {
    let reduced = schema.reduce();
    match origin {
        Origin::Function { .. } => vec![reduced.content(element).to_nfa()],
        Origin::Kernel { path } => {
            let kernel = doc.kernel();
            kernel
                .document_order()
                .into_iter()
                .filter(|&node| kernel.anc_str(node) == *path)
                .map(|node| {
                    kernel.children(node).iter().fold(Nfa::epsilon(), |words, &child| {
                        let label = kernel.label(child);
                        words.concat(&if doc.is_function(label) {
                            reduced.content(reduced.start()).to_nfa()
                        } else {
                            Nfa::symbol(*label)
                        })
                    })
                })
                .collect()
        }
    }
}

#[test]
fn box_perfect_schema_is_exact_on_enumerated_forests() {
    // Whenever synthesis succeeds on the random workloads, the schema must
    // solve the design — and be *exactly* the admissible set: since the
    // kernel has a single docking point and no sibling functions, a forest
    // is admissible iff its one materialisation validates, so we enumerate
    // small forests over the target universe and require
    //   perfect-schema membership  ⟺  materialisation validates.
    // The ⊇ direction is maximality (nothing admissible is missing), the
    // ⊆ direction is soundness (nothing inadmissible slipped in).
    use dxml_tree::term::parse_term;
    let pool: Vec<XTree> = ["a", "b", "a(b)", "a(b b)", "a(a)", "b(b)"]
        .iter()
        .map(|src| parse_term(src).unwrap())
        .collect();
    let mut probe_forests: Vec<XForest> = vec![Vec::new()];
    probe_forests.extend(pool.iter().map(|t| vec![t.clone()]));
    for t1 in &pool {
        for t2 in &pool {
            probe_forests.push(vec![t1.clone(), t2.clone()]);
        }
    }

    let mut rng = SplitRng::new(0x9E1);
    let mut synthesised = 0usize;
    let mut admitted = 0usize;
    for _ in 0..20 {
        let target = random_target(&mut rng);
        let doc = random_kernel(&mut rng);
        let problem = BoxDesignProblem::new(target);
        let Ok(perfect) = problem.perfect_schema(&doc, "f") else {
            continue;
        };
        let solved = problem.clone().with_function("f", perfect.clone());
        assert!(
            solved.typecheck(&doc).expect("typecheck runs").is_valid(),
            "synthesised schema fails its own design on {doc:?} against {:?}",
            problem.doc_schema()
        );
        assert!(solved.verify_local(&doc).expect("verify_local runs").is_valid());
        for forest in &probe_forests {
            let mut results: BTreeMap<Symbol, XForest> = BTreeMap::new();
            results.insert(Symbol::new("f"), forest.clone());
            let materialised = doc.materialize(&results).expect("schema for f supplied");
            let admissible = problem.doc_schema().accepts(&materialised);
            let in_schema =
                perfect.accepts(&XTree::node(*perfect.start(), forest.clone()));
            assert_eq!(
                in_schema,
                admissible,
                "perfect schema is not exact on forest {forest:?} for {doc:?} \
                 against {:?} (in_schema={in_schema}, admissible={admissible})",
                problem.doc_schema()
            );
            admitted += usize::from(admissible);
        }
        synthesised += 1;
    }
    assert!(synthesised >= 10, "only {synthesised} syntheses sampled");
    assert!(admitted >= 10, "only {admitted} admissible probe forests sampled");
}

#[test]
fn box_repeated_synthesis_reuses_the_target_cache() {
    // A repeated synthesis reads the same determinised target and yields an
    // equivalent schema.
    let one_c_target = {
        let mut e = REdtd::new(RFormalism::Nre, "s", "s");
        e.add_specialization("ab", "a");
        e.add_specialization("ac", "a");
        e.set_rule("s", RSpec::Nre(Regex::parse("ab* ac ab*").unwrap()));
        e.set_rule("ab", RSpec::Nre(Regex::parse("b").unwrap()));
        e.set_rule("ac", RSpec::Nre(Regex::parse("c").unwrap()));
        e
    };
    let p = BoxDesignProblem::new(one_c_target);
    let doc = DistributedDoc::parse("s(a(b) f)", ["f"]).unwrap();
    let first = p.perfect_schema(&doc, "f").unwrap();
    assert!(p.target_cache_ready());
    let duta = p.target_cache().duta() as *const _;
    let second = p.perfect_schema(&doc, "f").unwrap();
    assert!(
        std::ptr::eq(duta, p.target_cache().duta()),
        "a repeated synthesis must not re-determinise the target"
    );
    assert!(first.equivalent(&second));
}
