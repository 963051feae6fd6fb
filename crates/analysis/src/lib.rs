//! Static analysis for distributed XML designs.
//!
//! Two layers on top of the schema and design crates:
//!
//! 1. **Decision procedures** ([`definability`]) — exact tests for the
//!    definability hierarchy of Section 3 of *Distributed XML Design*:
//!    [`dtd_definable`] (Lemma 3.12) and [`sdtd_definable`] (Lemma 3.5)
//!    decide whether the language of an [`REdtd`] can be captured by a
//!    plain [`RDtd`] or a single-type [`RSdtd`], and return the witness
//!    schema when it can.
//! 2. **Diagnostics engine** ([`rules`] and [`design`]) — an
//!    [`analyze_schema`] / [`analyze_design`] pass producing rustc-style
//!    [`Diagnostic`]s: dead schema parts, non-deterministic content models,
//!    design-level pitfalls and definability *advisories* whose suggestion
//!    is the downgraded schema (a single-type schema unlocks streaming
//!    validation with `StreamValidator`; a DTD is a local target, on which
//!    schema synthesis handles multi-parent docking).
//!
//! # Diagnostic codes
//!
//! | Code    | Severity | Meaning |
//! |---------|----------|---------|
//! | `DX001` | error    | the schema's language is empty (the start name is unsatisfiable) |
//! | `DX002` | warning  | unreachable element name / specialisation (occurs in no tree of the language) |
//! | `DX003` | warning  | unproductive element name / specialisation (no finite tree satisfies it) |
//! | `DX004` | warning  | empty content model (the rule accepts no child word at all) |
//! | `DX005` | warning  | content model is not one-unambiguous (not a dRE in the W3C sense) |
//! | `DX006` | info     | the EDTD is SDTD-definable — the suggested single-type schema enables top-down/streaming validation |
//! | `DX007` | info     | the EDTD/SDTD is DTD-definable — the suggested DTD is a local target (one typing per label), on which schema synthesis also handles functions docking under several parents |
//! | `DX008` | error    | vacuous design: the target schema has an empty language |
//! | `DX009` | warning  | a function name shadows an element name of the target schema |
//! | `DX010` | warning  | a function has a schema but is never called by the document |
//! | `DX011` | error    | a called function has no schema (typechecking will fail) |
//! | `DX012` | warning  | a function docks under several distinct parents of a non-local target (labels with several typings): box synthesis will refuse with `SynthesisUnsupported` |
//! | `DX013` | warning  | a function schema has an empty language (every call site is unsatisfiable) |
//! | `DX014` | warning  | predicted-exponential content model: a suffix-counting shape forces `2^n` subset states (witness family attached) |
//! | `DX015` | info     | budget advisory: the predicted states and steps of the cold target-cache build, and the recommended step/state quotas for running this design governed ([`cost::recommend_budget`]) |
//! | `DX016` | info     | the predicted cost is dominated by one named content model / docking point |
//!
//! `error`-severity diagnostics mean the schema or design cannot work as
//! written; `warning`s are latent defects; `info`s are advisories with a
//! concrete improvement attached as [`Diagnostic::suggestion`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

pub mod cost;
pub mod definability;
pub mod design;
pub mod report;
pub mod rules;

pub use cost::{
    box_design_cost, budget_from_cost, content_model_cost, design_cost, dtd_cost, edtd_cost,
    recommend_box_budget, recommend_box_budget_with_headroom, recommend_budget,
    recommend_budget_with_headroom, recommended_quotas, suffix_counting, Bounds, ContentModelCost,
    DesignCost, Dominant, SchemaCost, SuffixCounting, ATTENTION_THRESHOLD, DEFAULT_HEADROOM,
    EXPONENTIAL_THRESHOLD,
};
pub use definability::{dtd_candidate, dtd_definable, sdtd_candidate, sdtd_definable};
pub use design::{analyze_box_design, analyze_design};
pub use report::{error_count, render_json, render_text};
pub use rules::{
    ambiguity_witness, analyze_dtd, analyze_edtd, analyze_schema, analyze_sdtd, AmbiguityWitness,
    AnySchema,
};

#[cfg(doc)]
use dxml_schema::{RDtd, REdtd, RSdtd};

/// How bad a [`Diagnostic`] is. The derived order ranks `Error` first, so
/// sorting a report ascending puts the most severe findings on top.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Severity {
    /// The schema or design cannot work as written.
    Error,
    /// A latent defect: dead rules, non-deterministic content models, …
    Warning,
    /// An advisory with a concrete improvement attached.
    Info,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Info => "info",
        };
        write!(f, "{name}")
    }
}

/// One finding of the analysis passes.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Diagnostic {
    /// Stable code (`DX001`…), see the crate-level table.
    pub code: &'static str,
    /// How bad it is.
    pub severity: Severity,
    /// Where it was found, e.g. `element `a`` or `function `f``.
    pub location: String,
    /// What is wrong.
    pub message: String,
    /// A concrete improvement, when the analysis can compute one (for the
    /// definability advisories: the downgraded schema itself).
    pub suggestion: Option<String>,
}

impl Diagnostic {
    /// Builds a diagnostic without a suggestion.
    pub fn new(
        code: &'static str,
        severity: Severity,
        location: impl Into<String>,
        message: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic {
            code,
            severity,
            location: location.into(),
            message: message.into(),
            suggestion: None,
        }
    }

    /// Attaches a suggestion.
    #[must_use]
    pub fn with_suggestion(mut self, suggestion: impl Into<String>) -> Diagnostic {
        self.suggestion = Some(suggestion.into());
        self
    }
}

impl fmt::Display for Diagnostic {
    /// Renders in the rustc report style:
    ///
    /// ```text
    /// warning[DX002]: element `b` is unreachable from the start symbol
    ///   --> element `b`
    ///   = help: remove the element or reference it from a reachable content model
    /// ```
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.code, self.message)?;
        write!(f, "\n  --> {}", self.location)?;
        if let Some(s) = &self.suggestion {
            for (i, line) in s.lines().enumerate() {
                if i == 0 {
                    write!(f, "\n  = help: {line}")?;
                } else {
                    write!(f, "\n          {line}")?;
                }
            }
        }
        Ok(())
    }
}

/// Sorts a report for presentation: most severe first, then by code, then
/// by location — a deterministic order independent of rule evaluation order.
pub fn sort_report(diagnostics: &mut [Diagnostic]) {
    diagnostics
        .sort_by(|a, b| (a.severity, a.code, &a.location).cmp(&(b.severity, b.code, &b.location)));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_errors_first() {
        assert!(Severity::Error < Severity::Warning);
        assert!(Severity::Warning < Severity::Info);
    }

    #[test]
    fn display_is_rustc_style() {
        let d = Diagnostic::new("DX002", Severity::Warning, "element `b`", "element `b` is dead")
            .with_suggestion("remove it\nor reference it");
        let s = d.to_string();
        assert!(s.starts_with("warning[DX002]: element `b` is dead"), "{s}");
        assert!(s.contains("--> element `b`"), "{s}");
        assert!(s.contains("= help: remove it"), "{s}");
        assert!(s.contains("          or reference it"), "{s}");
    }

    #[test]
    fn sort_report_is_severity_then_code_then_location() {
        let mut r = vec![
            Diagnostic::new("DX010", Severity::Warning, "b", "x"),
            Diagnostic::new("DX006", Severity::Info, "a", "x"),
            Diagnostic::new("DX010", Severity::Warning, "a", "x"),
            Diagnostic::new("DX001", Severity::Error, "z", "x"),
        ];
        sort_report(&mut r);
        let order: Vec<(&str, &str)> =
            r.iter().map(|d| (d.code, d.location.as_str())).collect();
        assert_eq!(
            order,
            vec![("DX001", "z"), ("DX010", "a"), ("DX010", "b"), ("DX006", "a")]
        );
    }
}
