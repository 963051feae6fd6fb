//! Deterministic benchmark workloads and a dependency-free timing harness.
//!
//! The workload generators produce *seeded* families of schemas, documents
//! and design problems of controlled size `n`, so every bench run measures
//! the same inputs. The harness ([`fn@bench`]) is a minimal warmup +
//! median-of-iterations timer: the workspace builds offline, so the bench
//! targets are plain `fn main()` programs (`harness = false`) rather than
//! criterion benches; the reporting format is criterion-inspired.
//!
//! Each bench target drives a [`Session`], which collects the results and
//! writes a machine-readable `BENCH_<name>.json` timing file on
//! [`Session::finish`], plus a `TELEMETRY_<name>.json` sidecar
//! snapshotting the engine's [`dxml_telemetry`] counters and histograms
//! for the run. Environment variables controlling the harness:
//!
//! * `DXML_BENCH_SMOKE=1` — run every case for a single iteration (the
//!   `make bench-smoke` CI entry point: exercises the real code paths and
//!   assertions without the timing cost);
//! * `DXML_BENCH_DIR=<dir>` — where to write the JSON files (default: the
//!   current directory);
//! * `DXML_TELEMETRY=1` — enable telemetry collection so the sidecars
//!   carry real data (`make bench-smoke` sets it; timing runs leave it
//!   unset so the gated medians measure the disabled path).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::{Duration, Instant};

use dxml_analysis::report::json_string;
use dxml_automata::{RFormalism, Regex, RSpec, Symbol};
use dxml_core::{BoxDesignProblem, DesignProblem, DistributedDoc};
use dxml_schema::{RDtd, REdtd};
use dxml_tree::generate::SplitRng;
use dxml_tree::uta::{self, Duta};
use dxml_tree::{Nuta, XTree};

// ----------------------------------------------------------------------
// Workloads
// ----------------------------------------------------------------------

/// Element name `e<i>` of a generated family.
pub fn elem(i: usize) -> Symbol {
    Symbol::new(format!("e{i}"))
}

/// A seeded chain-like DTD with `n` element names `e0…e(n-1)` and varied
/// deterministic content models (`eN` is always leaf-only, so the language
/// is never empty). The same `(n, seed)` always yields the same DTD, and
/// every content model is one-unambiguous, so the family is usable for all
/// four formalisms `R`.
///
/// # Panics
///
/// Panics if `n` is zero.
pub fn dtd_family(formalism: RFormalism, n: usize, seed: u64) -> RDtd {
    assert!(n >= 1, "need at least one element");
    let mut rng = SplitRng::new(seed ^ (n as u64).wrapping_mul(0x9E37_79B9));
    let mut dtd = RDtd::new(formalism, elem(0));
    for i in 0..n.saturating_sub(1) {
        let a = Regex::sym(elem(i + 1));
        let distinct = i + 2 < n;
        let b = Regex::sym(elem(if distinct { i + 2 } else { i + 1 }));
        // Shapes whose symbols are pairwise distinct are always
        // deterministic; near the end of the chain (where `b` would collide
        // with `a`) fall back to single-symbol shapes.
        let re = match rng.below(4) {
            0 if distinct => Regex::concat(vec![a, b.opt()]),
            1 => a.star(),
            2 if distinct => Regex::concat(vec![a.plus(), b.star()]),
            3 if distinct => Regex::alt(vec![a, b]),
            _ => a.opt(),
        };
        let spec = RSpec::from_regex(formalism, re).expect("generated content models are dREs");
        dtd.set_rule(elem(i), spec);
    }
    dtd
}

/// A valid document of the `(n, seed)` DTD family: its sample tree
/// ([`RDtd::sample_tree`], the start's witness in the inhabitation
/// fixpoint's pair DAG; deterministic).
///
/// # Panics
///
/// Never in practice: family languages are non-empty by construction.
pub fn doc_for(dtd: &RDtd) -> XTree {
    dtd.sample_tree().expect("family languages are non-empty")
}

/// A design problem over the `(n, seed)` family: the target is the family
/// DTD itself; `fns` function symbols `f0…` each return forests of `e1`-trees
/// (the content of the start symbol's first child), which keeps well-typed
/// and ill-typed variants one rule-tweak apart.
///
/// # Panics
///
/// Never in practice: the generated kernel and schemas satisfy every
/// constructor invariant by construction.
pub fn design_workload(n: usize, fns: usize, seed: u64) -> (DesignProblem, DistributedDoc) {
    let target = dtd_family(RFormalism::Nre, n.max(3), seed);
    // The family rules seen from `e1`: a schema for the subtrees the
    // functions return and for the kernel's own fixed `e1` subtree.
    let mut e1_schema = RDtd::new(RFormalism::Nre, elem(1));
    for (name, content) in target.rules() {
        if name != target.start() {
            e1_schema.set_rule(*name, content.clone());
        }
    }
    // Kernel: the start element with one complete `e1` subtree followed by
    // one docking point per function.
    let mut kernel = XTree::leaf(elem(0));
    let fun_names: Vec<Symbol> = (0..fns).map(|i| Symbol::new(format!("f{i}"))).collect();
    let e1_tree = e1_schema.sample_tree().expect("family languages are non-empty");
    kernel.graft(0, &e1_tree);
    for f in &fun_names {
        kernel.add_child(0, *f);
    }
    let mut problem = DesignProblem::new({
        // Target start content: e1 followed by any number of e1 — accepts
        // whatever the functions contribute as e1-forests.
        let mut t = target.clone();
        t.set_rule(elem(0), RSpec::Nre(Regex::sym(elem(1)).plus()));
        t
    });
    for f in &fun_names {
        // Each function returns documents r(e1*) over the same family rules.
        let mut schema = RDtd::new(RFormalism::Nre, "r");
        schema.set_rule("r", RSpec::Nre(Regex::sym(elem(1)).star()));
        for (name, content) in e1_schema.rules() {
            schema.set_rule(*name, content.clone());
        }
        problem.add_function(*f, schema);
    }
    let doc = DistributedDoc::new(kernel, fun_names).expect("kernel invariants hold");
    (problem, doc)
}

/// A genuinely specialised (non-DTD-definable) EDTD target of size `n`:
/// the root requires its `a`-children to be typed `x1 x2 … xn`, where the
/// specialisation `xi` of `a` demands a single `bi` leaf. No DTD can
/// distinguish the positions, since every child carries the same label `a`.
///
/// # Panics
///
/// Panics if `n` is zero.
pub fn box_target(n: usize) -> REdtd {
    assert!(n >= 1, "need at least one specialisation");
    let mut target = REdtd::new(RFormalism::Nre, "s", "s");
    let mut root = Vec::with_capacity(n);
    for i in 0..n {
        let spec = Symbol::new(format!("x{i}"));
        target.add_specialization(spec, "a");
        target.set_rule(spec, RSpec::Nre(Regex::sym(elem(i))));
        root.push(Regex::Sym(spec));
    }
    target.set_rule("s", RSpec::Nre(Regex::concat(root)));
    target
}

/// A box-design workload of size `n`: the [`box_target`] with a kernel
/// storing the first `n/2` children `a(e<i>)` locally and docking the rest
/// at a single call `f`, whose EDTD schema supplies exactly the missing
/// specialised trees — so the design typechecks, and the perfect schema of
/// `f` is non-trivial but unique.
///
/// # Panics
///
/// Never in practice: the generated kernel satisfies every constructor
/// invariant by construction.
pub fn box_workload(n: usize) -> (BoxDesignProblem, DistributedDoc) {
    let n = n.max(2);
    let split = n / 2;
    let mut kernel = XTree::leaf(Symbol::new("s"));
    for i in 0..split {
        let a = kernel.add_child(0, Symbol::new("a"));
        kernel.add_child(a, elem(i));
    }
    kernel.add_child(0, Symbol::new("f"));
    let mut schema = REdtd::new(RFormalism::Nre, "r", "r");
    let mut forest = Vec::with_capacity(n - split);
    for i in split..n {
        let spec = Symbol::new(format!("y{i}"));
        schema.add_specialization(spec, "a");
        schema.set_rule(spec, RSpec::Nre(Regex::sym(elem(i))));
        forest.push(Regex::Sym(spec));
    }
    schema.set_rule("r", RSpec::Nre(Regex::concat(forest)));
    let problem = BoxDesignProblem::new(box_target(n)).with_function("f", schema);
    let doc = DistributedDoc::new(kernel, ["f"]).expect("kernel invariants hold");
    (problem, doc)
}

/// The tree-route oracle of typing verification, for both views of the
/// design engine: tree-language inclusion of the extension automaton
/// (`extension_nuta`) in the cached determinised target
/// ([`uta::included_in_duta`]). The engine decides by its kernel pass; the
/// bench contracts and the oracle differential check it against this.
pub trait TreeOracle {
    /// The automaton of every extension of `doc`.
    ///
    /// # Panics
    ///
    /// If a function `doc` calls has no declared schema.
    fn extension(&self, doc: &DistributedDoc) -> Nuta;

    /// The cached determinised target.
    fn target(&self) -> &Duta;

    /// `Ok` iff every extension of `doc` validates against the target;
    /// otherwise an extension that does not.
    fn tree_oracle(&self, doc: &DistributedDoc) -> Result<(), XTree> {
        uta::included_in_duta(&self.extension(doc), self.target())
    }
}

/// Both views expose the tree route under the same method names.
macro_rules! tree_oracle {
    ($problem:ty) => {
        impl TreeOracle for $problem {
            fn extension(&self, doc: &DistributedDoc) -> Nuta {
                self.extension_nuta(doc).expect("every called function has a schema")
            }

            fn target(&self) -> &Duta {
                self.target_cache().duta()
            }
        }
    };
}

tree_oracle!(DesignProblem);
tree_oracle!(BoxDesignProblem);

/// The paper's Figure 3 Eurostat type, as a dRE-DTD — the realistic
/// fixed-shape corpus member shared by the `schema_lint` example and the
/// cost-calibration suite.
///
/// # Panics
///
/// Never in practice: the embedded W3C DTD text always parses.
pub fn eurostat_figure3() -> RDtd {
    RDtd::parse_w3c(
        RFormalism::Dre,
        r#"<!ELEMENT eurostat (averages, nationalIndex*)>
           <!ELEMENT averages (Good, index+)+>
           <!ELEMENT nationalIndex (country, Good, (index | (value, year)))>
           <!ELEMENT index (value, year)>
           <!ELEMENT country (#PCDATA)>
           <!ELEMENT Good (#PCDATA)>
           <!ELEMENT value (#PCDATA)>
           <!ELEMENT year (#PCDATA)>"#,
    )
    .expect("Figure 3 parses as a dRE-DTD")
}

/// The adversarial suffix-counting family as a DTD: the start element's
/// content model is `(a|b)* a (a|b)^{n-1}`, whose minimal DFA — and hence
/// subset construction — needs at least `2^n` states. The shortest
/// accepted child word `a b^{n-1}` exercises every rule, so
/// [`RDtd::sample_tree`] yields a covering document: the workload the
/// fuzz smoke-test uses to prove a `DX014`-flagged schema really trips
/// its zero-headroom recommended budget.
///
/// # Panics
///
/// Panics if `n` is zero.
pub fn adversarial_dtd(n: usize) -> RDtd {
    assert!(n >= 1, "the window needs at least the pivot");
    let ab = || Regex::alt(vec![Regex::sym("a"), Regex::sym("b")]);
    let mut parts = vec![ab().star(), Regex::sym("a")];
    parts.extend((1..n).map(|_| ab()));
    let mut dtd = RDtd::new(RFormalism::Nre, "s");
    dtd.set_rule("s", RSpec::Nre(Regex::concat(parts)));
    dtd.add_element("a");
    dtd.add_element("b");
    dtd
}

// ----------------------------------------------------------------------
// Timing harness
// ----------------------------------------------------------------------

/// The timing result of one benchmark case.
#[derive(Clone, Debug)]
pub struct BenchResult {
    /// Case label, e.g. `typecheck/n=16`.
    pub name: String,
    /// Number of timed iterations.
    pub iters: u32,
    /// Median per-iteration time.
    pub median: Duration,
    /// Mean per-iteration time.
    pub mean: Duration,
}

impl BenchResult {
    /// One-line report in a criterion-like format.
    pub fn report(&self) -> String {
        format!(
            "{:<40} time: [median {:>12?}  mean {:>12?}]  ({} iters)",
            self.name, self.median, self.mean, self.iters
        )
    }
}

/// Whether the harness runs in smoke mode (`DXML_BENCH_SMOKE` set): every
/// case is clamped to a single iteration, so CI exercises the real bench
/// code paths and their assertions without the timing cost.
pub fn smoke() -> bool {
    std::env::var_os("DXML_BENCH_SMOKE").is_some_and(|v| !v.is_empty() && v != "0")
}

/// Times `f` (after a warmup run) over `iters` iterations and prints a
/// one-line report. The closure's result is returned from the last iteration
/// to keep the work observable (and the call un-elided). In smoke mode
/// ([`smoke`]) the iteration count is clamped to 1.
///
/// # Panics
///
/// Panics if `iters` is zero.
pub fn bench<R>(name: &str, iters: u32, mut f: impl FnMut() -> R) -> BenchResult {
    assert!(iters > 0);
    let iters = if smoke() { 1 } else { iters };
    let _warmup = std::hint::black_box(f());
    let mut samples: Vec<Duration> = Vec::with_capacity(iters as usize);
    for _ in 0..iters {
        let t0 = Instant::now();
        let out = f();
        samples.push(t0.elapsed());
        std::hint::black_box(out);
    }
    samples.sort();
    let median = samples[samples.len() / 2];
    let mean = samples.iter().sum::<Duration>() / iters;
    let result = BenchResult { name: name.to_string(), iters, median, mean };
    println!("{}", result.report());
    result
}

/// Prints a section header for a bench program.
pub fn section(title: &str) {
    println!("\n== {title} ==");
}

// ----------------------------------------------------------------------
// Sessions: result collection + machine-readable timing files
// ----------------------------------------------------------------------

/// A bench run that collects every [`BenchResult`] and writes a
/// machine-readable `BENCH_<name>.json` file on [`Session::finish`],
/// together with a `TELEMETRY_<name>.json` sidecar snapshotting the
/// process-global [`dxml_telemetry`] registry. The sidecar carries real
/// data only when collection is on (`DXML_TELEMETRY=1`, as `make
/// bench-smoke` sets it); in timing runs it stays all-zero so the gated
/// medians measure the disabled path.
pub struct Session {
    name: String,
    results: Vec<BenchResult>,
}

impl Session {
    /// Starts a session for the bench target `name` (the file stem of the
    /// emitted `BENCH_<name>.json`). Zeroes the telemetry registry so the
    /// sidecar reflects this target's run alone (each bench target is its
    /// own process).
    pub fn new(name: &str) -> Session {
        dxml_telemetry::reset();
        Session { name: name.to_string(), results: Vec::new() }
    }

    /// Runs one case through [`fn@bench`] and records the result.
    pub fn bench<R>(&mut self, name: &str, iters: u32, f: impl FnMut() -> R) -> BenchResult {
        let result = bench(name, iters, f);
        self.results.push(result.clone());
        result
    }

    /// The results recorded so far.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Renders all recorded results as a JSON document.
    pub fn to_json(&self) -> String {
        let cases: Vec<String> = self
            .results
            .iter()
            .map(|r| {
                format!(
                    r#"    {{"name":{},"iters":{},"median_ns":{},"mean_ns":{}}}"#,
                    json_string(&r.name),
                    r.iters,
                    r.median.as_nanos(),
                    r.mean.as_nanos()
                )
            })
            .collect();
        format!(
            "{{\n  \"bench\": {},\n  \"smoke\": {},\n  \"results\": [\n{}\n  ]\n}}\n",
            json_string(&self.name),
            smoke(),
            cases.join(",\n")
        )
    }

    /// Writes `BENCH_<name>.json` into `DXML_BENCH_DIR` (default `.`) and
    /// prints where it went.
    pub fn finish(self) {
        let dir = std::env::var("DXML_BENCH_DIR").unwrap_or_else(|_| ".".into());
        self.write_to(std::path::Path::new(&dir));
    }

    /// Writes `BENCH_<name>.json` and the `TELEMETRY_<name>.json` sidecar
    /// into `dir` (created if missing).
    ///
    /// # Panics
    ///
    /// Panics when the output directory or either file cannot be written.
    pub fn write_to(self, dir: &std::path::Path) {
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| panic!("cannot create bench output dir {}: {e}", dir.display()));
        let path = dir.join(format!("BENCH_{}.json", self.name));
        std::fs::write(&path, self.to_json())
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        let sidecar = dir.join(format!("TELEMETRY_{}.json", self.name));
        std::fs::write(&sidecar, dxml_telemetry::Snapshot::take().to_json())
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", sidecar.display()));
        println!("\ntimings written to {} (telemetry sidecar alongside)", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dtd_family_is_deterministic_and_nonempty() {
        for n in [1, 2, 5, 12] {
            let a = dtd_family(RFormalism::Nre, n, 7);
            let b = dtd_family(RFormalism::Nre, n, 7);
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "n={n} not deterministic");
            assert!(!a.language_is_empty(), "n={n} family is empty");
            assert!(a.accepts(&doc_for(&a)), "n={n} sample invalid");
            assert_eq!(a.alphabet().len(), n);
        }
        let c = dtd_family(RFormalism::Nre, 5, 8);
        let d = dtd_family(RFormalism::Nre, 5, 9);
        assert_ne!(format!("{c:?}"), format!("{d:?}"), "seed has no effect");
    }

    #[test]
    fn dtd_family_supports_all_formalisms() {
        for f in RFormalism::ALL {
            let dtd = dtd_family(f, 6, 3);
            assert_eq!(dtd.formalism(), f);
            assert!(!dtd.language_is_empty());
        }
    }

    #[test]
    fn design_workload_typechecks() {
        let (problem, doc) = design_workload(5, 2, 11);
        assert_eq!(doc.num_calls(), 2);
        assert!(problem.typecheck(&doc).unwrap().is_valid());
        assert!(problem.verify_local(&doc).unwrap().is_valid());
    }

    #[test]
    fn box_workload_typechecks_and_synthesises() {
        let (problem, doc) = box_workload(6);
        assert_eq!(doc.num_calls(), 1);
        assert!(problem.typecheck(&doc).unwrap().is_valid());
        assert!(problem.verify_local(&doc).unwrap().is_valid());
        let perfect = problem.perfect_schema(&doc, "f").unwrap();
        let solved = problem.clone().with_function("f", perfect);
        assert!(solved.typecheck(&doc).unwrap().is_valid());
        // The target is genuinely specialised: two specialisations of `a`.
        assert!(box_target(4).specializations_of(&Symbol::new("a")).len() >= 2);
    }

    #[test]
    fn harness_reports_sane_numbers() {
        let r = bench("noop", 16, || 1 + 1);
        assert!(r.iters == 16 || (smoke() && r.iters == 1));
        assert!(r.mean >= r.median / 64);
        assert!(!r.report().is_empty());
    }

    #[test]
    fn session_renders_machine_readable_json() {
        let mut s = Session::new("unit");
        s.bench("case/a", 4, || 1 + 1);
        s.bench("case/\"quoted\"", 4, || 2 + 2);
        assert_eq!(s.results().len(), 2);
        let json = s.to_json();
        assert!(json.contains("\"bench\": \"unit\""));
        assert!(json.contains("\"name\":\"case/a\""));
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("\"median_ns\":"));
        // Brackets balance — the cheap well-formedness check available
        // without a JSON parser in the dependency-free build.
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                json.matches(open).count(),
                json.matches(close).count(),
                "unbalanced {open}{close}"
            );
        }
    }

    #[test]
    fn session_writes_the_timing_file() {
        // Exercised via `write_to` rather than `finish`: mutating the
        // process environment (`DXML_BENCH_DIR`) would race with sibling
        // tests reading it on other threads.
        let dir = std::env::temp_dir().join("dxml_bench_test");
        let mut s = Session::new("unit_file");
        s.bench("case", 2, || ());
        s.write_to(&dir);
        let path = dir.join("BENCH_unit_file.json");
        let written = std::fs::read_to_string(&path).unwrap();
        assert!(written.contains("\"bench\": \"unit_file\""));
        std::fs::remove_file(path).unwrap();
        // The telemetry sidecar rides along, valid JSON with every metric
        // name present (all-zero here — collection is off in unit tests).
        let sidecar = dir.join("TELEMETRY_unit_file.json");
        let telemetry = std::fs::read_to_string(&sidecar).unwrap();
        assert!(telemetry.contains("\"counters\""));
        assert!(telemetry.contains("\"stream.docs\""));
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                telemetry.matches(open).count(),
                telemetry.matches(close).count(),
                "unbalanced {open}{close} in telemetry sidecar"
            );
        }
        std::fs::remove_file(sidecar).unwrap();
    }
}
