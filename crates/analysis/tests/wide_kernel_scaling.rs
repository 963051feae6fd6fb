//! A kernel node with many children: the extension automaton and the
//! kernel pass build each child word in place ([`Nfa::append`]) instead of
//! copying the growing prefix once per child, which made both quadratic.
//! Each call on the design `s(a f a f … a f)` (`s -> a*`, `f` returning one
//! `a`) at `WIDTH` children must finish under `BOUND`, unoptimised too.
//!
//! Refuting the odd-length variant `s(a f … a f a)` against `s -> (a, a)*`
//! spreads the counterexample's child word over the children by reading
//! the refutation's run once: each letter goes to the child whose piece of
//! the child word holds the state its move enters. No table of split
//! points is kept, so it stays under `BOUND` too.
//!
//! With `f` returning `a+`, every docking point is a gap with a loop. The
//! kernel pass and `perfect_schema`'s context walks search (child-word
//! state, machine state) pairs, never child-word state sets, so they stay
//! linear in the width too.
//!
//! [`Nfa::append`]: dxml_automata::Nfa::append

use std::time::{Duration, Instant};

use dxml_automata::{RFormalism, Symbol};
use dxml_core::{DesignProblem, DistributedDoc};
use dxml_schema::RDtd;

const WIDTH: usize = 16_000;

/// Above what each call takes unoptimised (the extension automaton about
/// 0.1 s, each kernel pass under 1 s), and under a tenth of the 41–47 s
/// each took unoptimised when every child copied the growing child word.
const BOUND: Duration = Duration::from_millis(3_500);

fn timed<R>(what: &str, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let out = f();
    let took = start.elapsed();
    assert!(took < BOUND, "{what} took {took:?}");
    out
}

#[test]
fn a_wide_kernel_node_is_decided_without_copying_child_words() {
    let target = RDtd::parse(RFormalism::Nre, "s -> a*").unwrap();
    let forest = RDtd::parse(RFormalism::Nre, "r -> a").unwrap();
    let problem = DesignProblem::new(target).with_function("f", forest);
    let children = vec!["a f"; WIDTH / 2].join(" ");
    let doc = DistributedDoc::parse(&format!("s({children})"), ["f"]).unwrap();

    let extension = timed("extension_nuta", || problem.extension_nuta(&doc)).unwrap();
    // One state per kernel element, plus `f$r` and `f$a`.
    assert_eq!(extension.states().len(), WIDTH / 2 + 3);
    assert!(timed("verify_local", || problem.verify_local(&doc)).unwrap().is_valid());
    assert!(timed("typecheck", || problem.typecheck(&doc)).unwrap().is_valid());
}

#[test]
fn a_refuted_wide_kernel_node_splits_its_counterexample_per_child() {
    let target = RDtd::parse(RFormalism::Nre, "s -> (a, a)*").unwrap();
    let forest = RDtd::parse(RFormalism::Nre, "r -> a").unwrap();
    let problem = DesignProblem::new(target).with_function("f", forest);
    let children = vec!["a f"; WIDTH / 2].join(" ");
    let doc = DistributedDoc::parse(&format!("s({children} a)"), ["f"]).unwrap();

    assert!(!timed("verify_local", || problem.verify_local(&doc)).unwrap().is_valid());
    assert!(!timed("typecheck", || problem.typecheck(&doc)).unwrap().is_valid());
}

#[test]
fn a_wide_kernel_node_with_looping_gaps_is_decided_in_linear_time() {
    let target = RDtd::parse(RFormalism::Nre, "s -> a*").unwrap();
    let forest = RDtd::parse(RFormalism::Nre, "r -> a+").unwrap();
    let problem = DesignProblem::new(target).with_function("f", forest);
    let children = vec!["a f"; WIDTH / 2].join(" ");
    let doc = DistributedDoc::parse(&format!("s({children})"), ["f"]).unwrap();

    assert!(timed("verify_local", || problem.verify_local(&doc)).unwrap().is_valid());
    assert!(timed("typecheck", || problem.typecheck(&doc)).unwrap().is_valid());
    let schema = timed("perfect_schema", || problem.perfect_schema(&doc, "f")).unwrap();
    assert!(schema.content(schema.start()).to_nfa().accepts(&[Symbol::new("a"); 3]));
}
