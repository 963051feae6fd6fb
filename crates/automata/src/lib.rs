//! Regular string languages substrate for distributed XML design.
//!
//! This crate implements the string-language machinery of Section 2.1.2 of
//! *Distributed XML Design* (Abiteboul, Gottlob, Manna):
//!
//! * [`Symbol`] / [`Alphabet`] — interned element names and function symbols;
//! * [`Nfa`] — nondeterministic finite automata, ε-free by construction,
//!   together with the boolean/rational operations the paper uses (`·`, `∪`,
//!   `∩`, `−`, complement) and decision procedures (emptiness, universality,
//!   membership, inclusion, equivalence);
//! * [`Dfa`] — deterministic automata, subset construction, minimisation;
//! * [`Regex`] — (possibly nondeterministic) regular expressions `nRE`, with a
//!   parser for the textual syntax used throughout the paper and the Glushkov
//!   (position) construction, which compiles every expression to an [`Nfa`];
//! * [`dre`] — deterministic (one-unambiguous) regular expressions: the
//!   Brüggemann-Klein/Wood determinism test on expressions and the
//!   orbit-property decision procedure on minimal DFAs (`one-unamb[R]`,
//!   Definition 2 of the paper);
//! * [`quotient`] — existential quotients and the universal two-sided
//!   residual of regular languages, the string-level building block of the
//!   perfect-typing construction of Section 6;
//! * [`BoxLang`] — "boxes" `Σ1…Σn` (cartesian-product languages), used by the
//!   box versions of the design problems in Section 7;
//! * [`RSpec`] — a content model in any of the four formalisms
//!   (`nFA`, `dFA`, `nRE`, `dRE`) behind a uniform API, mirroring the paper's
//!   parameter `R`;
//! * [`limits`] — resource governance: the clonable [`Budget`] handle
//!   (step/state/node quotas, depth limits, wall-clock deadlines,
//!   cooperative cancellation) threaded through the engine's
//!   worst-case-exponential loops, plus the deterministic fault-injection
//!   harness in [`limits::faults`];
//! * [`StateSet`] — fixed-width dense bitset state sets, the frontier
//!   representation of every subset construction and membership loop in the
//!   workspace.
//!
//! The crate is self-contained (no third-party dependencies) and forms the
//! bottom layer of the workspace: trees, schemas and the design algorithms are
//! all built on top of it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod boxes;
pub mod dfa;
pub mod dre;
pub mod equiv;
pub mod error;
pub mod hash;
pub mod limits;
pub mod nfa;
pub mod quotient;
pub mod regex;
pub mod rspec;
pub mod stateset;
pub mod symbol;

pub use boxes::BoxLang;
pub use dfa::Dfa;
pub use equiv::{equivalent, included, Counterexample};
pub use error::AutomataError;
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use limits::{Budget, CancelHandle, Resource};
pub use nfa::{Nfa, NfaMetrics, ProductMove, ProductPair};
pub use regex::Regex;
pub use rspec::{RFormalism, RSpec};
pub use stateset::StateSet;
pub use symbol::{Alphabet, Symbol};
