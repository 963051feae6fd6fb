//! Table 4 (perfect typing, Section 6): perfect-schema synthesis on the
//! seeded design workload, and the effect of the cached determinised
//! target on repeated typechecking.
//!
//! Besides timing, this target *asserts* the caching contract: repeated
//! `typecheck` calls on the same problem reuse the very same determinised
//! target (pointer identity), and a warm call is never slower than a cold
//! one that has to determinise from scratch.

use dxml_bench::{design_workload, section, smoke, Session};
use dxml_core::DesignProblem;

fn main() {
    let mut session = Session::new("table4_perfect");

    section("table4: perfect-schema synthesis, growing schema size n");
    for n in [4usize, 8, 16] {
        let (problem, doc) = design_workload(n, 2, 11);
        let f = doc.called_functions().into_iter().next().expect("workload has calls");
        // The synthesised schema must solve the design it was derived from.
        let schema = problem.perfect_schema(&doc, f).expect("synthesis succeeds");
        let solved = problem.clone().with_function(f, schema);
        assert!(solved.typecheck(&doc).expect("typecheck runs").is_valid());
        session.bench(&format!("perfect_schema/n={n}"), 5, || {
            problem.perfect_schema(&doc, f).expect("synthesis succeeds").size()
        });
    }

    section("table4: cold vs warm typecheck (cached determinised target)");
    for n in [4usize, 8, 16] {
        let (problem, doc) = design_workload(n, 2, 11);
        let cold = session.bench(&format!("typecheck_cold/n={n}"), 5, || {
            // A fresh problem per iteration: the OnceLock target cache is
            // empty every time, so each call re-determinises.
            let mut fresh = DesignProblem::new(problem.doc_schema().clone());
            for (g, schema) in problem.fun_schemas() {
                fresh.add_function(*g, schema.clone());
            }
            assert!(fresh.typecheck(&doc).unwrap().is_valid());
        });
        assert!(problem.typecheck(&doc).unwrap().is_valid());
        assert!(problem.target_cache_ready(), "first typecheck must populate the cache");
        let before = problem.target_cache().duta() as *const _;
        let warm = session.bench(&format!("typecheck_warm/n={n}"), 5, || {
            assert!(problem.typecheck(&doc).unwrap().is_valid());
        });
        let after = problem.target_cache().duta() as *const _;
        assert!(
            std::ptr::eq(before, after),
            "repeated typecheck must not re-determinise the target (n={n})"
        );
        // With the cache in place the warm path skips the determinisation
        // entirely; at the largest size the difference must be visible.
        if n == 16 && !smoke() {
            assert!(
                warm.median <= cold.median,
                "warm typecheck ({:?}) slower than cold ({:?}) at n={n}: target \
                 determinisation is being repeated",
                warm.median,
                cold.median
            );
        }
    }

    session.finish();
}
