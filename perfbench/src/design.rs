//! The two design workloads.
//!
//! * `design_cold` — a schema registry admitting new designs: every op
//!   parses the target, the function schemas and the kernel, builds a
//!   fresh problem, asks the cost model for a budget and runs local
//!   verification, typing verification and perfect-schema synthesis under
//!   it. Nearly all of its time goes to target determinisation, subset
//!   construction, product BFS and perfect-typing residuals.
//! * `recheck_warm` — re-verification against a registry compiled during
//!   set-up: every op parses a kernel variant of one registered problem
//!   and runs local and typing verification against the warm caches. It
//!   uses the same layers the opposite way, so work moved from calls into
//!   cache builds shows as a gain here and a loss on `design_cold`.

use dxml_analysis::{recommend_box_budget, recommend_budget};
use dxml_automata::{RFormalism, RSpec};
use dxml_core::{BoxDesignProblem, DesignProblem, DistributedDoc, TypingVerdict};
use dxml_schema::{RDtd, REdtd};
use dxml_tree::term::parse_forest;
use dxml_tree::XTree;

use crate::gen::{self, DesignCase, Rng};
use crate::run::Workload;
use crate::trace::{Tracer, ROOT};

/// A compiled design problem of either kind.
pub enum Problem {
    /// A DTD target.
    Dtd(DesignProblem),
    /// An EDTD target.
    Box(BoxDesignProblem),
}

/// A synthesised perfect schema of either kind.
pub enum Perfect {
    /// From a DTD target.
    Dtd(RDtd),
    /// From an EDTD target.
    Box(REdtd),
}

/// What one op returns, checked against the known answers after timing.
pub struct Done {
    case: usize,
    kernel: usize,
    local_valid: bool,
    typing: TypingVerdict,
    perfect: Option<Perfect>,
    /// The problem built by a `design_cold` op (dropped after the check).
    fresh: Option<Problem>,
}

/// Builds an EDTD from `name : label -> content` lines through the
/// `REdtd` builder: the engine has no EDTD text syntax, so only the
/// content models are parsed.
pub fn parse_edtd(text: &str) -> Result<REdtd, String> {
    let mut edtd: Option<REdtd> = None;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let (lhs, rhs) = line
            .split_once("->")
            .ok_or_else(|| format!("no `->` in `{line}`"))?;
        let (name, label) = lhs
            .split_once(':')
            .ok_or_else(|| format!("no `:` in `{line}`"))?;
        let (name, label) = (name.trim(), label.trim());
        let content = RSpec::parse(RFormalism::Nre, rhs.trim()).map_err(|e| e.to_string())?;
        let edtd = edtd.get_or_insert_with(|| REdtd::new(RFormalism::Nre, name, label));
        edtd.add_specialization(name, label);
        edtd.set_rule(name, content);
    }
    edtd.ok_or_else(|| "no rules".to_string())
}

fn compile(case: &DesignCase, tr: &Tracer) -> Result<Problem, String> {
    if case.edtd {
        let (target, funs) = tr.span("schema.syntax", || -> Result<_, String> {
            let funs: Vec<(&str, REdtd)> = case
                .functions
                .iter()
                .map(|(f, text)| Ok((f.as_str(), parse_edtd(text)?)))
                .collect::<Result<_, String>>()?;
            Ok((parse_edtd(&case.target)?, funs))
        })?;
        let mut problem = BoxDesignProblem::new(target);
        for (f, schema) in funs {
            problem.add_function(f, schema);
        }
        Ok(Problem::Box(problem))
    } else {
        let (target, funs) = tr.span("schema.syntax", || -> Result<_, String> {
            let parse = |text: &str| RDtd::parse(RFormalism::Nre, text).map_err(|e| e.to_string());
            let funs: Vec<(&str, RDtd)> = case
                .functions
                .iter()
                .map(|(f, text)| Ok((f.as_str(), parse(text)?)))
                .collect::<Result<_, String>>()?;
            Ok((parse(&case.target)?, funs))
        })?;
        let mut problem = DesignProblem::new(target);
        for (f, schema) in funs {
            problem.add_function(f, schema);
        }
        Ok(Problem::Dtd(problem))
    }
}

fn parse_kernel(case: &DesignCase, kernel: usize, tr: &Tracer) -> Result<DistributedDoc, String> {
    tr.span("tree.term", || {
        DistributedDoc::parse(
            &case.kernels[kernel].term,
            case.functions.iter().map(|(f, _)| f.as_str()),
        )
    })
    .map_err(|e| e.to_string())
}

/// `design_cold` and `recheck_warm` over one seeded design corpus.
pub struct Designs {
    corpus: Vec<DesignCase>,
    warm: bool,
    seed: u64,
    registry: Vec<Problem>,
    order: Vec<usize>,
    rng: Rng,
}

impl Designs {
    /// The workload for `seed`; `warm` selects `recheck_warm`.
    pub fn new(seed: u64, warm: bool) -> Designs {
        let corpus = gen::design_corpus(seed, if warm { gen::VARIANTS } else { 0 });
        let mut rng = Rng::new(seed, 3);
        let mut order: Vec<usize> = (0..corpus.len()).collect();
        rng.shuffle(&mut order);
        Designs {
            corpus,
            warm,
            seed,
            registry: Vec::new(),
            order,
            rng,
        }
    }

    fn cold_op(&self, case_ix: usize, tr: &Tracer) -> Result<Done, String> {
        let case = &self.corpus[case_ix];
        let problem = compile(case, tr)?;
        let doc = parse_kernel(case, 0, tr)?;
        let e = |err: dxml_core::DesignError| err.to_string();
        let (local_valid, typing, perfect) = match &problem {
            Problem::Dtd(p) => {
                let budget = tr.span("analysis.cost", || recommend_budget(p));
                tr.span("core.design.target_cache", || {
                    p.target_cache_with_budget(&budget).map(|_| ())
                })
                .map_err(e)?;
                let local = tr.span("core.design.verify_local", || {
                    p.verify_local_with_budget(&doc, &budget)
                });
                tr.span("core.design.extension_nuta", || p.extension_nuta(&doc))
                    .map_err(e)?;
                let typing = tr.span("core.design.typecheck", || {
                    p.typecheck_with_budget(&doc, &budget)
                });
                let perfect = tr.span("core.perfect", || {
                    p.perfect_schema_with_budget(&doc, case.dock.as_str(), &budget)
                });
                (
                    local.map_err(e)?.is_valid(),
                    typing.map_err(e)?,
                    Perfect::Dtd(perfect.map_err(e)?),
                )
            }
            Problem::Box(p) => {
                let budget = tr.span("analysis.cost", || recommend_box_budget(p));
                tr.span("core.boxes.target_cache", || {
                    p.target_cache_with_budget(&budget).map(|_| ())
                })
                .map_err(e)?;
                let local = tr.span("core.boxes.verify_local", || {
                    p.verify_local_with_budget(&doc, &budget)
                });
                let typing = tr.span("core.boxes.typecheck", || {
                    p.typecheck_with_budget(&doc, &budget)
                });
                let perfect = tr.span("core.boxes.perfect_schema", || {
                    p.perfect_schema_with_budget(&doc, case.dock.as_str(), &budget)
                });
                (
                    local.map_err(e)?.is_valid(),
                    typing.map_err(e)?,
                    Perfect::Box(perfect.map_err(e)?),
                )
            }
        };
        Ok(Done {
            case: case_ix,
            kernel: 0,
            local_valid,
            typing,
            perfect: Some(perfect),
            fresh: Some(problem),
        })
    }

    fn warm_op(&self, case_ix: usize, kernel: usize, tr: &Tracer) -> Result<Done, String> {
        let case = &self.corpus[case_ix];
        let doc = parse_kernel(case, kernel, tr)?;
        let e = |err: dxml_core::DesignError| err.to_string();
        let (local_valid, typing) = match &self.registry[case_ix] {
            Problem::Dtd(p) => {
                tr.span("core.design.extension_nuta", || p.extension_nuta(&doc))
                    .map_err(e)?;
                let local = tr
                    .span("core.design.verify_local", || p.verify_local(&doc))
                    .map_err(e)?;
                let typing = tr
                    .span("core.design.typecheck", || p.typecheck(&doc))
                    .map_err(e)?;
                (local.is_valid(), typing)
            }
            Problem::Box(p) => {
                let local = tr
                    .span("core.boxes.verify_local", || p.verify_local(&doc))
                    .map_err(e)?;
                let typing = tr
                    .span("core.boxes.typecheck", || p.typecheck(&doc))
                    .map_err(e)?;
                (local.is_valid(), typing)
            }
        };
        Ok(Done {
            case: case_ix,
            kernel,
            local_valid,
            typing,
            perfect: None,
            fresh: None,
        })
    }
}

impl Workload for Designs {
    type Done = Done;

    fn setup(&mut self, tr: &Tracer) -> Result<(), String> {
        self.rng = Rng::new(self.seed, 4);
        if !self.warm {
            // One pass over the corpus: it interns every name the timed
            // ops will use (the intern table is global and append-only).
            for case_ix in 0..self.corpus.len() {
                let done = self.cold_op(case_ix, tr)?;
                self.check(done)?;
            }
            return Ok(());
        }
        self.registry = self
            .corpus
            .iter()
            .map(|case| compile(case, tr))
            .collect::<Result<_, _>>()?;
        for problem in &self.registry {
            match problem {
                Problem::Dtd(p) => {
                    tr.span("core.design.target_cache", || p.target_cache());
                }
                Problem::Box(p) => {
                    tr.span("core.boxes.target_cache", || p.target_cache());
                }
            }
        }
        for case_ix in 0..self.corpus.len() {
            for kernel in 0..self.corpus[case_ix].kernels.len() {
                let done = self.warm_op(case_ix, kernel, tr)?;
                self.check(done)?;
            }
        }
        Ok(())
    }

    fn op(&mut self, i: u64, tr: &Tracer) -> Result<Done, String> {
        let case_ix = self.order[i as usize % self.order.len()];
        if !self.warm {
            return tr.span(ROOT, || self.cold_op(case_ix, tr));
        }
        // The variant is drawn per op: a fixed cycle through more variants
        // than the FIFO memo holds would never hit it.
        let kernel = self.rng.below(self.corpus[case_ix].kernels.len());
        tr.span(ROOT, || self.warm_op(case_ix, kernel, tr))
    }

    fn check(&self, done: Done) -> Result<(), String> {
        let case = &self.corpus[done.case];
        let kernel = &case.kernels[done.kernel];
        let expected = kernel.valid;
        if done.local_valid != expected {
            return Err(format!(
                "verify_local said valid={} of `{}`, expected {expected}",
                done.local_valid, kernel.term
            ));
        }
        if done.typing.is_valid() != expected {
            return Err(format!(
                "typecheck said valid={} of `{}`, expected {expected}",
                done.typing.is_valid(),
                kernel.term
            ));
        }
        let problem = done
            .fresh
            .as_ref()
            .unwrap_or_else(|| &self.registry[done.case]);
        if let TypingVerdict::Invalid { counterexample, .. } = &done.typing {
            let rejected = match problem {
                Problem::Dtd(p) => p.doc_schema().validate(counterexample).is_err(),
                Problem::Box(p) => p.doc_schema().validate(counterexample).is_err(),
            };
            if !rejected {
                return Err(format!(
                    "counterexample `{counterexample}` validates against the target"
                ));
            }
        }
        if let Some(perfect) = &done.perfect {
            let forests = case.perfect_accepts.iter().map(|f| (f, true));
            for (forest, want) in forests.chain(case.perfect_rejects.iter().map(|f| (f, false))) {
                let forest = parse_forest(forest).map_err(|e| e.to_string())?;
                let got = match perfect {
                    Perfect::Dtd(s) => s.accepts(&XTree::node(*s.start(), forest)),
                    Perfect::Box(s) => s.accepts(&XTree::node(*s.start(), forest)),
                };
                if got != want {
                    return Err(format!(
                        "perfect schema of {} accepts={got} a forest it should not",
                        case.dock
                    ));
                }
            }
        }
        Ok(())
    }

    fn counting_ops(&self) -> u64 {
        self.corpus.len() as u64 * if self.warm { 2 } else { 1 }
    }
}
