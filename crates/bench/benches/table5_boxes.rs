//! Table 5 (box versions of the design problems, Section 7): typing
//! verification and perfect-schema synthesis against genuinely specialised
//! R-EDTD targets, on the seeded box workload.
//!
//! Besides timing, this target *asserts* the subsystem's contracts: the
//! kernel pass (`typecheck` and `verify_local`) agrees with the tree-route
//! oracle — inclusion of `extension_nuta` in the cached target, untimed —
//! on every size, repeated decisions reuse the cached determinised
//! specialised target and the per-function gap languages (pointer
//! identity), and the warm path is never slower than the cold path that
//! has to re-determinise.

use dxml_automata::Symbol;
use dxml_bench::{box_workload, section, smoke, Session, TreeOracle};
use dxml_core::BoxDesignProblem;

fn main() {
    let mut session = Session::new("table5_boxes");

    section("table5: box typing verification, growing target size n");
    for n in [4usize, 8, 16] {
        let (problem, doc) = box_workload(n);
        // Contract: the kernel pass agrees with the tree oracle (the
        // workload is valid by construction).
        assert!(problem.tree_oracle(&doc).is_ok());
        assert!(problem.typecheck(&doc).expect("typecheck runs").is_valid());
        assert!(problem.verify_local(&doc).expect("verify_local runs").is_valid());
        session.bench(&format!("box_typecheck/n={n}"), 5, || {
            assert!(problem.typecheck(&doc).unwrap().is_valid());
        });
        session.bench(&format!("box_verify_local/n={n}"), 5, || {
            assert!(problem.verify_local(&doc).unwrap().is_valid());
        });
        // An ill-typed variant: drop the function schema's last tree, so
        // the root word comes up one specialisation short.
        let (short_problem, short_doc) = box_workload(n);
        let broken = BoxDesignProblem::new(short_problem.doc_schema().clone())
            .with_function("f", box_workload(n.saturating_sub(1).max(2)).0.fun_schemas()[&Symbol::new("f")].clone());
        assert!(broken.tree_oracle(&short_doc).is_err());
        assert!(!broken.typecheck(&short_doc).expect("typecheck runs").is_valid());
        assert!(!broken.verify_local(&short_doc).expect("verify_local runs").is_valid());
        session.bench(&format!("box_refute/n={n}"), 5, || {
            assert!(!broken.verify_local(&short_doc).unwrap().is_valid());
        });
    }

    section("table5: perfect EDTD-schema synthesis, growing target size n");
    for n in [4usize, 8, 16] {
        let (problem, doc) = box_workload(n);
        let schema = problem.perfect_schema(&doc, "f").expect("synthesis succeeds");
        let solved = problem.clone().with_function("f", schema);
        assert!(solved.tree_oracle(&doc).is_ok());
        assert!(solved.typecheck(&doc).expect("typecheck runs").is_valid());
        session.bench(&format!("box_perfect_schema/n={n}"), 5, || {
            problem.perfect_schema(&doc, "f").expect("synthesis succeeds").size()
        });
    }

    section("table5: cold vs warm decisions (cached specialised target)");
    for n in [4usize, 8, 16] {
        let (problem, doc) = box_workload(n);
        let cold = session.bench(&format!("box_typecheck_cold/n={n}"), 5, || {
            // A fresh problem per iteration: the OnceLock cache is empty
            // every time, so each call re-determinises the target and
            // re-images the gap languages.
            let mut fresh = BoxDesignProblem::new(problem.doc_schema().clone());
            for (g, schema) in problem.fun_schemas() {
                fresh.add_function(*g, schema.clone());
            }
            assert!(fresh.typecheck(&doc).unwrap().is_valid());
        });
        assert!(problem.typecheck(&doc).unwrap().is_valid());
        assert!(problem.target_cache_ready(), "first decision must populate the cache");
        let duta_before = problem.target_cache().duta() as *const _;
        let gaps_before =
            problem.target_cache().forest_states(&Symbol::new("f")).unwrap() as *const _;
        let warm = session.bench(&format!("box_typecheck_warm/n={n}"), 5, || {
            assert!(problem.typecheck(&doc).unwrap().is_valid());
            assert!(problem.verify_local(&doc).unwrap().is_valid());
        });
        assert!(
            std::ptr::eq(duta_before, problem.target_cache().duta() as *const _),
            "repeated decisions must not re-determinise the specialised target (n={n})"
        );
        assert!(
            std::ptr::eq(
                gaps_before,
                problem.target_cache().forest_states(&Symbol::new("f")).unwrap() as *const _
            ),
            "repeated decisions must not re-image the gap languages (n={n})"
        );
        if n == 16 && !smoke() {
            assert!(
                warm.median <= cold.median.saturating_mul(2),
                "warm box decisions ({:?}) are grossly slower than cold ({:?}) at n={n}",
                warm.median,
                cold.median
            );
        }
    }

    session.finish();
}
