//! Distributed documents: kernels with typed function calls at the leaves.
//!
//! Section 2.3 of the paper models a distributed document as a *kernel*
//! `T`: an XML tree some of whose leaves are **docking points** labelled with
//! function symbols `f ∈ Σf`. Calling `f` returns a document `t`; the call
//! node is replaced by the forest of trees directly connected to the root of
//! `t`. The fully materialised document `ext_T(t1…tn)` is the *extension* of
//! the kernel.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use dxml_automata::Symbol;
use dxml_tree::term::parse_term;
use dxml_tree::{NodeId, XForest, XTree};

use crate::error::DesignError;

/// A kernel document together with the set of function symbols that label its
/// docking points.
///
/// Invariants (checked at construction): function symbols occur only at
/// leaves, and the root is not a function call.
#[derive(Clone, PartialEq, Eq)]
pub struct DistributedDoc {
    kernel: XTree,
    functions: BTreeSet<Symbol>,
}

impl DistributedDoc {
    /// Wraps a kernel tree, declaring which symbols are function calls.
    pub fn new<I, S>(kernel: XTree, functions: I) -> Result<DistributedDoc, DesignError>
    where
        I: IntoIterator<Item = S>,
        S: Into<Symbol>,
    {
        let functions: BTreeSet<Symbol> = functions.into_iter().map(Into::into).collect();
        if functions.contains(kernel.root_label()) {
            return Err(DesignError::RootIsFunction { function: *kernel.root_label() });
        }
        for node in kernel.document_order() {
            if functions.contains(kernel.label(node)) && !kernel.is_leaf(node) {
                return Err(DesignError::FunctionNotLeaf { function: *kernel.label(node) });
            }
        }
        Ok(DistributedDoc { kernel, functions })
    }

    /// Parses a kernel from the paper's term notation
    /// (`s(a f1 b(f2))`) and declares the function symbols.
    pub fn parse<I, S>(term: &str, functions: I) -> Result<DistributedDoc, DesignError>
    where
        I: IntoIterator<Item = S>,
        S: Into<Symbol>,
    {
        DistributedDoc::new(parse_term(term)?, functions)
    }

    /// The kernel tree (function calls included as leaves).
    pub fn kernel(&self) -> &XTree {
        &self.kernel
    }

    /// The declared function symbols `Σf`.
    pub fn functions(&self) -> &BTreeSet<Symbol> {
        &self.functions
    }

    /// Whether a symbol is a declared function.
    pub fn is_function(&self, sym: &Symbol) -> bool {
        self.functions.contains(sym)
    }

    /// The docking points (function-call nodes), in document order.
    pub fn function_nodes(&self) -> Vec<NodeId> {
        self.kernel
            .document_order()
            .into_iter()
            .filter(|&n| self.functions.contains(self.kernel.label(n)))
            .collect()
    }

    /// The function symbols that actually occur in the kernel.
    pub fn called_functions(&self) -> BTreeSet<Symbol> {
        self.function_nodes()
            .into_iter()
            .map(|n| *self.kernel.label(n))
            .collect()
    }

    /// Number of docking points.
    pub fn num_calls(&self) -> usize {
        self.function_nodes().len()
    }

    /// The extension of the kernel under the given call results: every
    /// docking point labelled `f` is replaced by the forest of trees directly
    /// connected to the root of `results[f]` (Section 2.3). All occurrences
    /// of the same function symbol receive the same result — a *snapshot*
    /// materialisation.
    pub fn materialize(&self, results: &BTreeMap<Symbol, XForest>) -> Result<XTree, DesignError> {
        for f in self.called_functions() {
            if !results.contains_key(&f) {
                return Err(DesignError::MissingFunctionResult { function: f });
            }
        }
        Ok(self
            .kernel
            .replace_with_forest(|l| self.functions.contains(l), |l| results[l].clone()))
    }
}

impl fmt::Debug for DistributedDoc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let funs: Vec<&str> = self.functions.iter().map(Symbol::as_str).collect();
        write!(f, "{} with functions {{{}}}", self.kernel, funs.join(", "))
    }
}

impl fmt::Display for DistributedDoc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.kernel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dxml_tree::term::parse_forest;

    #[test]
    fn construction_invariants() {
        assert!(DistributedDoc::parse("s(a f1 b(f2))", ["f1", "f2"]).is_ok());
        assert!(matches!(
            DistributedDoc::parse("f1(a)", ["f1"]),
            Err(DesignError::RootIsFunction { .. })
        ));
        assert!(matches!(
            DistributedDoc::parse("s(f1(a))", ["f1"]),
            Err(DesignError::FunctionNotLeaf { .. })
        ));
        assert!(DistributedDoc::parse("s((", ["f1"]).is_err());
    }

    #[test]
    fn call_accessors() {
        let doc = DistributedDoc::parse("s(a f1 b(f2) f1)", ["f1", "f2", "funused"]).unwrap();
        assert_eq!(doc.num_calls(), 3);
        assert_eq!(doc.called_functions().len(), 2);
        assert!(doc.is_function(&Symbol::new("funused")));
        let plain = DistributedDoc::parse("s(a b)", ["f1"]).unwrap();
        assert_eq!(plain.num_calls(), 0);
    }

    #[test]
    fn materialisation_matches_paper_example() {
        // Section 2.3: T0 = s(a f1 b(f2)), f1 ↦ s1(c(d d)), f2 ↦ s2(d(e f)).
        let doc = DistributedDoc::parse("s(a f1 b(f2))", ["f1", "f2"]).unwrap();
        let mut results = BTreeMap::new();
        results.insert(Symbol::new("f1"), parse_forest("c(d d)").unwrap());
        results.insert(Symbol::new("f2"), parse_forest("d(e f)").unwrap());
        let ext = doc.materialize(&results).unwrap();
        assert_eq!(ext, parse_term("s(a c(d d) b(d(e f)))").unwrap());

        let missing = BTreeMap::new();
        assert!(matches!(
            doc.materialize(&missing),
            Err(DesignError::MissingFunctionResult { .. })
        ));
    }
}
