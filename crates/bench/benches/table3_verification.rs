//! Table 3 (verification column): typing verification of distributed
//! documents — `typecheck` (the kernel pass plus a counterexample document)
//! and `verify_local` (the same pass, reporting a box) — over the seeded
//! design workload of growing size, on well-typed designs and on ill-typed
//! variants both must refute. Before timing, every case's verdict is
//! checked, untimed, against the tree-route oracle: inclusion of
//! `extension_nuta` in the cached target.

use dxml_automata::{Regex, RSpec};
use dxml_bench::{Session, TreeOracle, design_workload, elem, section};

fn main() {
    let mut session = Session::new("table3_verification");
    section("table3: typing verification, growing schema size n");
    for n in [4usize, 8, 16, 32] {
        let (problem, doc) = design_workload(n, 2, 11);
        assert!(problem.tree_oracle(&doc).is_ok());
        session.bench(&format!("typecheck/n={n}"), 10, || {
            assert!(problem.typecheck(&doc).unwrap().is_valid());
        });
        session.bench(&format!("verify_local/n={n}"), 10, || {
            assert!(problem.verify_local(&doc).unwrap().is_valid());
        });
    }

    section("table3: typing verification, growing number of calls");
    for fns in [1usize, 2, 4, 8] {
        let (problem, doc) = design_workload(8, fns, 13);
        assert!(problem.tree_oracle(&doc).is_ok());
        session.bench(&format!("typecheck/fns={fns}"), 10, || {
            assert!(problem.typecheck(&doc).unwrap().is_valid());
        });
        session.bench(&format!("verify_local/fns={fns}"), 10, || {
            assert!(problem.verify_local(&doc).unwrap().is_valid());
        });
    }

    section("table3: refuting ill-typed designs, growing schema size n");
    for n in [4usize, 8, 16, 32] {
        let (mut problem, doc) = design_workload(n, 2, 11);
        // Break one function schema: its forests may start with the start
        // element itself, which the target content model forbids.
        let f = doc.called_functions().into_iter().next().expect("workload has calls");
        let mut broken = problem.fun_schema(&f).expect("workload declares all schemas").clone();
        broken.set_rule("r", RSpec::Nre(Regex::sym(elem(0)).plus()));
        broken.set_rule(elem(0), RSpec::Nre(Regex::Epsilon));
        problem.add_function(f, broken);
        assert!(problem.tree_oracle(&doc).is_err());
        session.bench(&format!("typecheck_refute/n={n}"), 10, || {
            assert!(!problem.typecheck(&doc).unwrap().is_valid());
        });
        session.bench(&format!("verify_local_refute/n={n}"), 10, || {
            assert!(!problem.verify_local(&doc).unwrap().is_valid());
        });
    }

    session.finish();
}
