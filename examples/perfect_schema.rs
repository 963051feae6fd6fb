//! Perfect typing (Section 6) on the paper's Eurostat NCPI scenario:
//! synthesise the *most permissive* schema a national statistics office may
//! publish under, instead of merely checking a declared one.
//!
//! ```sh
//! cargo run --release --example perfect_schema
//! ```

use dxml::automata::{RFormalism, Symbol};
use dxml::core::{DesignProblem, DistributedDoc};
use dxml::schema::RDtd;

fn main() {
    // The global type τ of Figure 3 and the distributed kernel of Figure 4:
    // the European averages live in the kernel, the per-country indexes
    // dock at the call `fNCP`.
    let target = RDtd::parse(
        RFormalism::Nre,
        "eurostat -> averages, nationalIndex*\n\
         averages -> (Good, index+)+\n\
         nationalIndex -> country, Good, (index | value, year)\n\
         index -> value, year",
    )
    .expect("the Figure 3 DTD parses");
    let doc = DistributedDoc::parse(
        "eurostat(averages(Good index(value year)) fNCP)",
        ["fNCP"],
    )
    .unwrap();
    let problem = DesignProblem::new(target);

    println!("kernel document: {doc}");
    println!("\nsynthesising the perfect schema for `fNCP` …");
    let perfect = problem.perfect_schema(&doc, "fNCP").expect("synthesis succeeds");
    println!("{perfect}");

    // The design typechecks with the synthesised schema …
    let solved = problem.clone().with_function("fNCP", perfect.clone());
    assert!(solved.typecheck(&doc).unwrap().is_valid());
    println!("the design typechecks with the synthesised schema");

    // … and the schema is the most permissive one: any declared office
    // schema the design typechecks with is subsumed by it. The old-format
    // office of the paper (nested `index` elements) is one such schema.
    let office = RDtd::parse(
        RFormalism::Nre,
        "natResult -> nationalIndex*\n\
         nationalIndex -> country, Good, index\n\
         index -> value, year",
    )
    .unwrap();
    let office_forest = office.content(office.start()).to_nfa();
    let perfect_forest = perfect.content(perfect.start()).to_nfa();
    assert!(dxml::automata::equiv::included(&office_forest, &perfect_forest).is_ok());
    println!("the declared office schema is a sub-schema of the perfect one");

    // The perfect schema is strictly wider: it also admits the newer
    // `value, year` format the declared office schema forbids.
    let new_format = perfect.content(&Symbol::new("nationalIndex")).to_nfa();
    let w: Vec<Symbol> = ["country", "Good", "value", "year"].map(Symbol::new).into();
    assert!(new_format.accepts(&w));
    assert!(!office.content(&Symbol::new("nationalIndex")).to_nfa().accepts(&w));
    println!("…and it additionally admits the `value, year` national-index format");

    // Maximality, demonstrated on one word: admitting a lone `country`
    // forest entry breaks the design.
    let mut too_wide = perfect.clone();
    let forest = perfect.content(perfect.start()).to_nfa();
    too_wide.set_rule(
        *perfect.start(),
        dxml::automata::RSpec::nfa(
            forest.union(&dxml::automata::Nfa::symbol("country")),
        ),
    );
    let broken = problem.with_function("fNCP", too_wide);
    match broken.typecheck(&doc).unwrap() {
        dxml::core::TypingVerdict::Invalid { counterexample, violation } => {
            println!("\nenlarging the forest language by [country] breaks typing:");
            println!("  counterexample extension: {counterexample}");
            println!("  violation: {violation}");
        }
        dxml::core::TypingVerdict::Valid => unreachable!("the enlarged schema must fail"),
    }
}
