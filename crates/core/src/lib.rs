//! Distributed XML design: distributed documents and typing verification.
//!
//! This crate is the paper's centerpiece layer (Sections 3–5 of *Distributed
//! XML Design*, Abiteboul, Gottlob, Manna, PODS '09), built on the string
//! automata of `dxml-automata`, the trees and tree automata of `dxml-tree`
//! and the schema languages of `dxml-schema`:
//!
//! * [`DistributedDoc`] — a kernel document whose leaves may be typed
//!   function calls (docking points), with snapshot materialisation;
//! * [`BoxDesignProblem`] — the design engine (Section 7): a target
//!   R-EDTD plus an R-EDTD per function, with typing verification by
//!   tree-automaton inclusion, local verification reduced to string
//!   problems over the determinised specialised alphabet whose constant
//!   parts are kernel boxes `B(fn)`, and perfect typing by context
//!   residuals confirmed against the cached target;
//! * [`DesignProblem`] — the DTD-typed view over the same engine: a DTD
//!   target plus a DTD per function, embedded as trivial EDTDs, with
//!   [`DesignProblem::typecheck`] (counterexample documents),
//!   [`DesignProblem::verify_local`] (counterexample words) and
//!   [`DesignProblem::perfect_schema`] (perfect typing, Section 6: the
//!   most permissive function schema for which the design still
//!   typechecks, returned as a DTD);
//! * [`validate_batch`] — a batch front end fanning one-pass streaming
//!   SDTD validation of many documents over all cores, with per-document
//!   panic isolation.
//!
//! Every decision procedure has a governed `*_with_budget` variant
//! ([`DesignProblem::typecheck_with_budget`],
//! [`BoxDesignProblem::perfect_schema_with_budget`],
//! [`validate_batch_with_budget`], …) taking a
//! [`Budget`](dxml_automata::Budget): step/state/node quotas, a depth
//! limit, a wall-clock deadline and cooperative cancellation, surfacing
//! [`DesignError::BudgetExceeded`] without poisoning the problem's caches.
//!
//! The problem-derived artefacts (determinised tree automaton, per-function
//! gap languages, determinised Moore machines) are computed once per
//! problem and shared by all decision procedures — see
//! [`boxes::BoxTargetCache`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod boxes;
pub mod design;
pub mod doc;
pub mod error;
pub mod perfect;

pub use batch::{validate_batch, validate_batch_with_budget};
pub use boxes::{BoxDesignProblem, BoxTargetCache, BoxVerdict, BoxViolation};
pub use design::{DesignProblem, LocalVerdict, LocalViolation, Origin, TypingVerdict};
pub use doc::DistributedDoc;
pub use error::DesignError;
