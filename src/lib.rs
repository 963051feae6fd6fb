//! Umbrella crate for the *Distributed XML Design* workspace.
//!
//! Re-exports the workspace layers under one roof so that examples and
//! downstream users can write `use dxml::…`:
//!
//! * [`automata`] — regular string languages (NFAs, DFAs, nRE/dRE).
//! * [`tree`] — unranked trees and unranked tree automata.
//! * [`schema`] — R-DTDs, R-SDTDs and R-EDTDs.
//! * [`core`] — distributed documents, design problems and typing
//!   verification.
//! * [`analysis`] — static analysis: exact DTD/SDTD-definability decision
//!   procedures (Lemmas 3.12 and 3.5) and the `DXnnn` diagnostic passes
//!   over schemas and designs.
//! * [`telemetry`] — zero-dependency counters, histograms and span tracing
//!   over the whole engine (off by default; `DXML_TELEMETRY=1` enables).
//!
//! The engine's worst-case-exponential loops are governed by a [`Budget`]
//! (step/state/node quotas, a depth limit, a wall-clock deadline,
//! cooperative cancellation via a [`CancelHandle`]); a trip surfaces as a
//! typed `BudgetExceeded` error and leaves every cache rebuildable — see
//! `dxml_automata::limits`. A procedure with one entry point takes the
//! budget in its signature; a `*_with_budget` name is the governed half of
//! a pair whose plain half runs unlimited. Schema comparison (string and
//! tree inclusion and equivalence) runs unlimited.

#![forbid(unsafe_code)]

pub use dxml_analysis as analysis;
pub use dxml_automata as automata;
pub use dxml_core as core;
pub use dxml_schema as schema;
pub use dxml_telemetry as telemetry;
pub use dxml_tree as tree;

// The working set of the design layer, re-exported at the crate root so
// downstream code can `use dxml::{DesignProblem, BoxDesignProblem, …}`.
pub use dxml_analysis::{
    analyze_box_design, analyze_design, analyze_schema, box_design_cost, design_cost,
    dtd_definable, recommend_box_budget, recommend_budget, recommend_budget_with_headroom,
    sdtd_definable, AnySchema, Bounds, DesignCost, Diagnostic, Severity, SuffixCounting,
};
pub use dxml_automata::{BoxLang, Budget, CancelHandle};
pub use dxml_core::{BoxDesignProblem, BoxVerdict, DesignProblem, DistributedDoc, TypingVerdict};
pub use dxml_schema::{RDtd, REdtd, RSdtd};
