//! The tree route as the oracle of the Section-7 kernel pass.
//!
//! `typecheck`, `verify_local` and the confirmation inside `perfect_schema`
//! all run one kernel pass. The tree route they replaced stays as the
//! independent oracle: tree-language inclusion of the extension automaton
//! (`extension_nuta`) in the cached determinised target
//! (`uta::included_in_duta`). Over the bench workloads (`design_workload`,
//! `box_workload`, small `adversarial_dtd` designs), ill-typed variants of
//! each, and seeded random EDTD designs, every case checks that
//!
//! * the `typecheck` and `verify_local` verdicts equal the oracle's;
//! * every `Invalid` counterexample is an extension of the kernel (accepted
//!   by `extension_nuta(doc)`) and is rejected by the target's plain
//!   validator;
//! * every perfect schema, substituted for its function, passes the
//!   oracle — and no synthesis fails with `InvariantViolation`;
//! * a budget that trips part-way leaves the problem deciding the same
//!   verdict afterwards.
//!
//! `kernel_pass_matches_the_tree_oracle_on_the_corpus` runs a fixed corpus
//! in tier 1. `soak_kernel_pass_against_the_tree_oracle` is its ignored
//! sibling: it sweeps many seeds and prints the seed of every failure.
//! `make soak` runs it; `DXML_SOAK_SEED=<seed>` replays one seed.

use std::fmt::Write as _;

use dxml_automata::limits::faults;
use dxml_automata::{RFormalism, RSpec, Regex, Symbol};
use dxml_bench::{adversarial_dtd, box_workload, design_workload, elem, TreeOracle};
use dxml_core::{
    BoxDesignProblem, BoxVerdict, BoxViolation, DesignError, DesignProblem, DistributedDoc, Origin,
    TypingVerdict,
};
use dxml_schema::{RDtd, REdtd};
use dxml_tree::generate::SplitRng;
use dxml_tree::XTree;

/// The two engine views the corpus drives.
trait Engine: TreeOracle + Sized {
    fn verdict(&self, doc: &DistributedDoc) -> Result<TypingVerdict, DesignError>;
    /// `typecheck` under a budget that trips after `steps` steps.
    fn verdict_within(
        &self,
        doc: &DistributedDoc,
        steps: u64,
    ) -> Result<TypingVerdict, DesignError>;
    fn local_valid(&self, doc: &DistributedDoc) -> bool;
    /// Whether the target's plain validator rejects `tree`.
    fn rejects(&self, tree: &XTree) -> bool;
    /// The problem with `f`'s schema replaced by its perfect schema.
    fn solved(&self, doc: &DistributedDoc, f: Symbol) -> Result<Self, DesignError>;
}

/// Both views have the same method names, so one body serves both.
macro_rules! engine {
    ($problem:ty) => {
        impl Engine for $problem {
            fn verdict(&self, doc: &DistributedDoc) -> Result<TypingVerdict, DesignError> {
                self.typecheck(doc)
            }
            fn verdict_within(
                &self,
                doc: &DistributedDoc,
                steps: u64,
            ) -> Result<TypingVerdict, DesignError> {
                self.typecheck_with_budget(doc, &faults::budget_tripping_after(steps))
            }
            fn local_valid(&self, doc: &DistributedDoc) -> bool {
                self.verify_local(doc).expect("schemas supplied").is_valid()
            }
            fn rejects(&self, tree: &XTree) -> bool {
                self.doc_schema().validate(tree).is_err()
            }
            fn solved(&self, doc: &DistributedDoc, f: Symbol) -> Result<Self, DesignError> {
                let perfect = self.perfect_schema(doc, f)?;
                Ok(self.clone().with_function(f, perfect))
            }
        }
    };
}

engine!(DesignProblem);
engine!(BoxDesignProblem);

/// One corpus design.
enum Design {
    Dtd(DesignProblem),
    Box(BoxDesignProblem),
}

struct Case {
    name: String,
    design: Design,
    doc: DistributedDoc,
}

impl Case {
    fn dtd(name: String, problem: DesignProblem, doc: DistributedDoc) -> Case {
        Case {
            name,
            design: Design::Dtd(problem),
            doc,
        }
    }
    fn boxed(name: String, problem: BoxDesignProblem, doc: DistributedDoc) -> Case {
        Case {
            name,
            design: Design::Box(problem),
            doc,
        }
    }
}

/// What the checked cases exercised, so the corpus test can prove it is
/// not vacuous.
#[derive(Default)]
struct Tally {
    valid: usize,
    function_faults: usize,
    kernel_unknowns: usize,
    kernel_contents: usize,
    perfect: usize,
    /// `Invalid` verdicts, and the nodes of their counterexamples in all:
    /// a change that moves witnesses moves the total.
    counterexamples: usize,
    counterexample_nodes: usize,
}

impl Tally {
    fn add(&mut self, other: &Tally) {
        self.valid += other.valid;
        self.function_faults += other.function_faults;
        self.kernel_unknowns += other.kernel_unknowns;
        self.kernel_contents += other.kernel_contents;
        self.perfect += other.perfect;
        self.counterexamples += other.counterexamples;
        self.counterexample_nodes += other.counterexample_nodes;
    }
}

/// Runs every check on one engine view of a case.
fn check_engine(
    engine: &impl Engine,
    doc: &DistributedDoc,
    tally: &mut Tally,
) -> Result<(), String> {
    let oracle = engine.tree_oracle(doc);
    let verdict = engine
        .verdict(doc)
        .map_err(|e| format!("typecheck failed: {e}"))?;
    if verdict.is_valid() != oracle.is_ok() {
        return Err(format!(
            "typecheck says {verdict:?}, the tree oracle {oracle:?}"
        ));
    }
    if engine.local_valid(doc) != oracle.is_ok() {
        return Err(format!(
            "verify_local disagrees with the tree oracle ({oracle:?})"
        ));
    }
    if let TypingVerdict::Invalid { counterexample, .. } = &verdict {
        if !engine.extension(doc).accepts(counterexample) {
            return Err(format!(
                "counterexample `{counterexample}` is not an extension of the kernel"
            ));
        }
        if !engine.rejects(counterexample) {
            return Err(format!(
                "counterexample `{counterexample}` validates against the target"
            ));
        }
        tally.counterexamples += 1;
        tally.counterexample_nodes += counterexample.size();
    }
    // A budget that trips part-way either trips or decides the same, and
    // the problem decides the same afterwards.
    for steps in [1, 7, 40] {
        match engine.verdict_within(doc, steps) {
            Err(DesignError::BudgetExceeded { .. }) => {}
            Ok(tripped) if tripped.is_valid() == verdict.is_valid() => {}
            other => return Err(format!("a {steps}-step budget gave {other:?}")),
        }
    }
    let again = engine
        .verdict(doc)
        .map_err(|e| format!("typecheck after a trip failed: {e}"))?;
    if again.is_valid() != verdict.is_valid() {
        return Err("typecheck changed its verdict after a budget trip".into());
    }
    for f in doc.called_functions() {
        match engine.solved(doc, f) {
            Ok(solved) => {
                if let Err(witness) = solved.tree_oracle(doc) {
                    return Err(format!(
                        "the perfect schema of `{f}` fails the tree oracle: `{witness}`"
                    ));
                }
                tally.perfect += 1;
            }
            Err(
                DesignError::NoMaximalSchema { .. }
                | DesignError::SynthesisUnsupported { .. }
                | DesignError::FunctionNotCalled { .. },
            ) => {}
            Err(other) => return Err(format!("perfect_schema of `{f}` failed: {other}")),
        }
    }
    Ok(())
}

/// Checks one case through every engine view it has, tallying what the
/// box engine's kernel pass reported.
fn check(case: &Case) -> Result<Tally, String> {
    let mut tally = Tally::default();
    let boxed = match &case.design {
        Design::Dtd(problem) => {
            check_engine(problem, &case.doc, &mut tally)?;
            BoxDesignProblem::from(problem)
        }
        Design::Box(problem) => problem.clone(),
    };
    check_engine(&boxed, &case.doc, &mut tally)?;
    match boxed.verify_local(&case.doc).expect("schemas supplied") {
        BoxVerdict::Valid => tally.valid += 1,
        BoxVerdict::Invalid(BoxViolation::UnknownElement {
            origin: Origin::Kernel { .. },
            ..
        }) => {
            tally.kernel_unknowns += 1;
        }
        BoxVerdict::Invalid(BoxViolation::Content {
            origin: Origin::Kernel { .. },
            ..
        }) => {
            tally.kernel_contents += 1;
        }
        BoxVerdict::Invalid(_) => tally.function_faults += 1,
    }
    Ok(tally)
}

/// `doc` with one more leaf child `label` under the first node labelled
/// `under` (document order).
fn with_leaf(doc: &DistributedDoc, under: Symbol, label: Symbol) -> DistributedDoc {
    let mut kernel = doc.kernel().clone();
    let parent = kernel.nodes_labelled(&under)[0];
    kernel.add_child(parent, label);
    DistributedDoc::new(kernel, doc.functions().iter().copied()).expect("kernel invariants hold")
}

/// `design_workload(n, fns, seed)` and four ill-typed variants: a function
/// whose forests start with the start element (a root content violation
/// through the docking points), a function realizing an unknown element, a
/// function returning bare `e1` leaves, and kernels with an unknown or
/// misplaced element.
fn design_cases(n: usize, fns: usize, seed: u64, out: &mut Vec<Case>) {
    let tag = format!("design_workload({n}, {fns}, {seed})");
    let (problem, doc) = design_workload(n, fns, seed);
    let f0 = Symbol::new("f0");
    let declared = problem
        .fun_schema(&f0)
        .expect("workload declares f0")
        .clone();
    let mut variant = |what: &str, edit: &dyn Fn(&mut RDtd)| {
        let mut schema = declared.clone();
        edit(&mut schema);
        let broken = problem.clone().with_function(f0, schema);
        out.push(Case::dtd(format!("{tag} {what}"), broken, doc.clone()));
    };
    variant("root-start forests", &|s| {
        s.set_rule("r", RSpec::Nre(Regex::sym(elem(0)).plus()));
        s.set_rule(elem(0), RSpec::Nre(Regex::Epsilon));
    });
    variant("unknown element", &|s| {
        s.set_rule("r", RSpec::Nre(Regex::sym(elem(1)).star()));
        s.set_rule(elem(1), RSpec::Nre(Regex::sym("zz").star()));
    });
    variant("leaf e1 forests", &|s| {
        s.set_rule(
            "r",
            RSpec::Nre(Regex::concat(vec![
                Regex::sym(elem(1)),
                Regex::sym(elem(1)).star(),
            ])),
        );
        s.set_rule(elem(1), RSpec::Nre(Regex::Epsilon));
    });
    let kernel = doc.kernel();
    let deep = kernel
        .leaves()
        .into_iter()
        .map(|n| *kernel.label(n))
        .find(|l| !doc.is_function(l));
    let deep = deep.expect("the kernel's e1 subtree has a leaf");
    out.push(Case::dtd(
        format!("{tag} kernel zz"),
        problem.clone(),
        with_leaf(&doc, elem(0), Symbol::new("zz")),
    ));
    let misplaced = with_leaf(&doc, deep, elem(0));
    out.push(Case::dtd(
        format!("{tag} deep e0"),
        problem.clone(),
        misplaced,
    ));
    out.push(Case::dtd(tag, problem, doc));
}

/// `box_workload(n)` and ill-typed variants: a function one tree short,
/// forests of any length, and trees typed one position off.
fn box_cases(n: usize, out: &mut Vec<Case>) {
    let (problem, doc) = box_workload(n);
    let f = Symbol::new("f");
    let short = box_workload(n.saturating_sub(1).max(2))
        .0
        .fun_schema(&f)
        .expect("declared")
        .clone();
    let n = n.max(2);
    let mut starred = REdtd::new(RFormalism::Nre, "r", "r");
    let mut shifted = REdtd::new(RFormalism::Nre, "r", "r");
    let (mut any, mut off) = (Vec::new(), Vec::new());
    for i in n / 2..n {
        let spec = Symbol::new(format!("y{i}"));
        for schema in [&mut starred, &mut shifted] {
            schema.add_specialization(spec, "a");
        }
        starred.set_rule(spec, RSpec::Nre(Regex::sym(elem(i))));
        shifted.set_rule(spec, RSpec::Nre(Regex::sym(elem((i + 1) % n))));
        any.push(Regex::Sym(spec));
        off.push(Regex::Sym(spec));
    }
    starred.set_rule("r", RSpec::Nre(Regex::alt(any).star()));
    shifted.set_rule("r", RSpec::Nre(Regex::concat(off)));
    let tag = format!("box_workload({n})");
    for (what, schema) in [("short", short), ("starred", starred), ("shifted", shifted)] {
        let broken = problem.clone().with_function(f, schema);
        out.push(Case::boxed(format!("{tag} {what}"), broken, doc.clone()));
    }
    out.push(Case::boxed(tag, problem, doc));
}

/// Designs over `adversarial_dtd(n)`: the suffix-counting root content
/// with docking points of forests over `a`, `b`.
fn adversarial_cases(n: usize, out: &mut Vec<Case>) {
    let window = (1..n).map(|_| "(a | b)").collect::<Vec<_>>();
    let exact = std::iter::once("a")
        .chain(window.iter().copied())
        .collect::<Vec<_>>()
        .join(", ");
    let forests = ["(a | b)*", "a*", "(a, b)*", exact.as_str()];
    let kernels = ["s(f)", "s(a f)", "s(f b)", "s(b f a)", "s(f g)"];
    for forest in forests {
        let schema =
            RDtd::parse(RFormalism::Nre, &format!("r -> {forest}")).expect("forest parses");
        let problem = DesignProblem::new(adversarial_dtd(n))
            .with_function("f", schema.clone())
            .with_function("g", schema);
        for kernel in kernels {
            let doc = DistributedDoc::parse(kernel, ["f", "g"]).expect("kernel parses");
            out.push(Case::dtd(
                format!("adversarial_dtd({n}) {kernel} f,g -> {forest}"),
                problem.clone(),
                doc,
            ));
        }
    }
}

/// A seeded random EDTD design: a target over `s`, `a`, `b` with two
/// specialisations of `a`, one or two functions with star-carrying
/// schemas, and a kernel of depth ≤ 3 with up to three docking points.
fn random_case(seed: u64) -> Case {
    let mut rng = SplitRng::new(seed ^ 0x0D1F_F0AC);
    let mut target = REdtd::new(RFormalism::Nre, "s", "s");
    target.add_specialization("a1", "a");
    target.add_specialization("a2", "a");
    target.add_specialization("b1", "b");
    let roots = [
        "a1* a2 a1*",
        "(a1 | b1)*",
        "a1 a2* b1?",
        "b1? a1*",
        "(a1 b1)*",
        "a2* b1",
        "a1? a2?",
    ];
    let inner = ["", "b1", "b1?", "b1*", "b1 b1", "a2?", "a1*"];
    let rule = |src: &str| RSpec::Nre(Regex::parse(src).expect("generated regex parses"));
    let root = *rng.pick(&roots);
    target.set_rule("s", rule(root));
    for spec in ["a1", "a2"] {
        let src = *rng.pick(&inner);
        if !src.is_empty() {
            target.set_rule(spec, rule(src));
        }
    }
    let mut problem = BoxDesignProblem::new(target);
    let functions = ["f", "g"];
    let forests = ["x*", "x y?", "(x | y)*", "x x", "y*", "x? y x?", ""];
    let contents = ["", "y", "y?", "y*", "x?", "y y"];
    for f in functions {
        let mut schema = REdtd::new(RFormalism::Nre, "r", "r");
        schema.add_specialization("x", "a");
        schema.add_specialization("y", "b");
        let forest = *rng.pick(&forests);
        if !forest.is_empty() {
            schema.set_rule("r", rule(forest));
        }
        for spec in ["x", "y"] {
            let content = *rng.pick(&contents);
            if !content.is_empty() {
                schema.set_rule(spec, rule(content));
            }
        }
        problem.add_function(f, schema);
    }
    let mut kernel = XTree::leaf(Symbol::new("s"));
    let mut open = vec![(0usize, 0usize)];
    let mut docks = 0;
    while let Some((parent, depth)) = open.pop() {
        for _ in 0..rng.below(4) {
            let pick = rng.below(6);
            if pick < 2 && docks < 3 {
                kernel.add_child(parent, Symbol::new(functions[pick]));
                docks += 1;
            } else if depth < 2 {
                let label = if rng.chance(2, 3) { "a" } else { "b" };
                let child = kernel.add_child(parent, Symbol::new(label));
                open.push((child, depth + 1));
            }
        }
    }
    if docks == 0 {
        kernel.add_child(0, Symbol::new("f"));
    }
    let doc = DistributedDoc::new(kernel, functions).expect("kernel invariants hold");
    Case::boxed(format!("random design {seed}"), problem, doc)
}

/// Every case of one soak seed: a random design, plus a design-workload
/// family member with its variants.
fn seed_cases(seed: u64) -> Vec<Case> {
    let mut out = vec![random_case(seed)];
    let n = 3 + (seed % 4) as usize;
    design_cases(n, 1 + (seed % 3) as usize, seed, &mut out);
    out
}

fn run(cases: &[Case]) -> (Tally, Vec<String>) {
    let mut tally = Tally::default();
    let mut failures = Vec::new();
    for case in cases {
        match check(case) {
            Ok(t) => tally.add(&t),
            Err(e) => failures.push(format!("{}: {e}", case.name)),
        }
    }
    (tally, failures)
}

#[test]
fn kernel_pass_matches_the_tree_oracle_on_the_corpus() {
    let mut cases = Vec::new();
    for (n, fns, seed) in [(4, 1, 1), (6, 2, 7), (8, 3, 11), (5, 2, 13)] {
        design_cases(n, fns, seed, &mut cases);
    }
    for n in [2, 3, 4, 6] {
        box_cases(n, &mut cases);
    }
    for n in [2, 3] {
        adversarial_cases(n, &mut cases);
    }
    cases.extend((0..40).map(random_case));
    let (tally, failures) = run(&cases);
    assert!(
        failures.is_empty(),
        "{} of {} cases failed:\n{}",
        failures.len(),
        cases.len(),
        failures.join("\n")
    );
    // The corpus exercises every kind of refutation and synthesis.
    assert!(tally.valid >= 10, "only {} valid cases", tally.valid);
    assert!(
        tally.function_faults >= 5,
        "only {} function faults",
        tally.function_faults
    );
    assert!(
        tally.kernel_unknowns >= 3,
        "only {} kernel unknowns",
        tally.kernel_unknowns
    );
    assert!(
        tally.kernel_contents >= 20,
        "only {} kernel content violations",
        tally.kernel_contents
    );
    assert!(
        tally.perfect >= 40,
        "only {} perfect schemas confirmed",
        tally.perfect
    );
}

/// How many seeds the soak sweeps.
const SOAK_SEEDS: u64 = 2000;

#[test]
#[ignore = "soak: many seeds, run by `make soak`"]
fn soak_kernel_pass_against_the_tree_oracle() {
    let replay = std::env::var("DXML_SOAK_SEED").ok().and_then(|v| v.parse::<u64>().ok());
    let seeds: Vec<u64> = match replay {
        Some(seed) => vec![seed],
        None => (0..SOAK_SEEDS).collect(),
    };
    let mut report = String::new();
    let mut tally = Tally::default();
    for &seed in &seeds {
        let (t, failures) = run(&seed_cases(seed));
        tally.add(&t);
        for failure in failures {
            let _ = writeln!(report, "seed {seed}: {failure}");
        }
    }
    println!(
        "soak: {} seeds, {} valid, {} function faults, {} kernel unknowns, {} kernel content \
         violations, {} perfect schemas, {} counterexamples of {} nodes in all",
        seeds.len(),
        tally.valid,
        tally.function_faults,
        tally.kernel_unknowns,
        tally.kernel_contents,
        tally.perfect,
        tally.counterexamples,
        tally.counterexample_nodes
    );
    assert!(
        report.is_empty(),
        "soak failures (replay with DXML_SOAK_SEED=<seed>):\n{report}"
    );
}
