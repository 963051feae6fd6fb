//! `R-SDTD`s — single-type extended DTDs (Definition 6), the paper's
//! abstraction of W3C XML Schema.
//!
//! An `R-SDTD` is an `R-EDTD` with the *single-type* restriction: in each
//! content model, no two distinct specialisations `ã, ã'` of the same element
//! name occur. The restriction makes typing deterministic: the specialised
//! name of a node is a function of its label and its parent's specialised
//! name, so validation proceeds top-down in a single pass
//! ([`RSdtd::validate`]) instead of via the nondeterministic bottom-up run of
//! general EDTDs.

use std::collections::BTreeMap;
use std::fmt;

use dxml_automata::{Nfa, RFormalism, RSpec, Symbol};
use dxml_tree::{Nuta, XTree};

use crate::edtd::REdtd;
use crate::error::SchemaError;

/// An `R-SDTD`: an [`REdtd`] satisfying the single-type restriction.
#[derive(Clone)]
pub struct RSdtd {
    edtd: REdtd,
}

impl RSdtd {
    /// Wraps an EDTD, verifying the single-type restriction.
    pub fn from_edtd(edtd: REdtd) -> Result<RSdtd, SchemaError> {
        for (name, content) in edtd.rules() {
            let mut seen: BTreeMap<Symbol, Symbol> = BTreeMap::new();
            for spec in content.alphabet().iter() {
                let label = edtd.label_of(spec).cloned().unwrap_or(*spec);
                if let Some(other) = seen.get(&label) {
                    if other != spec {
                        return Err(SchemaError::Structural(format!(
                            "single-type violation in the content of `{name}`: both `{other}` \
                             and `{spec}` specialise element `{label}`"
                        )));
                    }
                }
                seen.insert(label, *spec);
            }
        }
        Ok(RSdtd { edtd })
    }

    /// Parses the compact rule syntax where left-hand sides are specialised
    /// names written `a~i` (as produced by [`Symbol::specialize`]); a plain
    /// name is its own specialisation. The first rule names the start.
    ///
    /// ```text
    /// s -> natA~1, natB~2*
    /// natA~1 -> country
    /// natB~2 -> country, year
    /// ```
    pub fn parse(formalism: RFormalism, input: &str) -> Result<RSdtd, SchemaError> {
        let mut edtd: Option<REdtd> = None;
        for (lineno, raw) in input.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || crate::syntax::is_comment(line) {
                continue;
            }
            let (lhs, rhs) = line.split_once("->").ok_or_else(|| SchemaError::Parse {
                line: lineno + 1,
                message: format!("expected `name -> content`, got `{line}`"),
            })?;
            let lhs = Symbol::new(lhs.trim());
            let content = RSpec::parse(formalism, rhs.trim()).map_err(|e| SchemaError::Parse {
                line: lineno + 1,
                message: format!("bad content model: {e}"),
            })?;
            let edtd = edtd.get_or_insert_with(|| {
                REdtd::new(formalism, lhs, lhs.base_name())
            });
            edtd.add_specialization(lhs, lhs.base_name());
            for sym in content.alphabet().iter() {
                edtd.add_specialization(*sym, sym.base_name());
            }
            edtd.set_rule(lhs, content);
        }
        let edtd = edtd.ok_or(SchemaError::Parse { line: 1, message: "no rules found".into() })?;
        RSdtd::from_edtd(edtd)
    }

    /// The underlying EDTD.
    pub fn as_edtd(&self) -> &REdtd {
        &self.edtd
    }

    /// Converts into the underlying EDTD.
    pub fn to_edtd(&self) -> REdtd {
        self.edtd.clone()
    }

    /// The content-model formalism `R`.
    pub fn formalism(&self) -> RFormalism {
        self.edtd.formalism()
    }

    /// The start name.
    pub fn start(&self) -> &Symbol {
        self.edtd.start()
    }

    /// A size measure (see [`REdtd::size`]).
    pub fn size(&self) -> usize {
        self.edtd.size()
    }

    /// The automaton semantics (see [`REdtd::to_nuta`]).
    pub fn to_nuta(&self) -> Nuta {
        self.edtd.to_nuta()
    }

    /// Top-down single-pass validation, exploiting the single-type property:
    /// the specialised name of each node is determined by its label and its
    /// parent's specialised name. Returns the first violation in document
    /// order.
    pub fn validate(&self, tree: &XTree) -> Result<(), SchemaError> {
        let start = self.edtd.start();
        let root_label = self.edtd.label_of(start).cloned().unwrap_or(*start);
        if tree.root_label() != &root_label {
            return Err(SchemaError::RootMismatch {
                expected: root_label,
                found: *tree.root_label(),
            });
        }
        // types[node] = the unique specialised name assignable to the node.
        // The per-specialisation compiled content model and child map
        // (child label → the unique specialisation in the content model)
        // are loop-invariant; build them once per specialisation, not once
        // per node.
        let mut types: Vec<Symbol> = vec![*start; tree.size()];
        let mut maps: BTreeMap<Symbol, (&RSpec, Nfa, BTreeMap<Symbol, Symbol>)> = BTreeMap::new();
        for node in tree.document_order() {
            let spec = types[node];
            let (content, compiled, by_label) = maps.entry(spec).or_insert_with(|| {
                let content = self.edtd.content(&spec);
                let mut by_label: BTreeMap<Symbol, Symbol> = BTreeMap::new();
                for sym in content.alphabet().iter() {
                    let label = self.edtd.label_of(sym).cloned().unwrap_or(*sym);
                    by_label.insert(label, *sym);
                }
                (content, content.to_nfa(), by_label)
            });
            let mut child_word: Vec<Symbol> = Vec::with_capacity(tree.children(node).len());
            for &child in tree.children(node) {
                let label = tree.label(child);
                match by_label.get(label) {
                    Some(child_spec) => {
                        types[child] = *child_spec;
                        child_word.push(*child_spec);
                    }
                    None => {
                        return Err(SchemaError::InvalidContent {
                            path: tree.anc_str(node),
                            children: tree.child_str(node),
                            expected: format!("{content}"),
                        });
                    }
                }
            }
            if !compiled.accepts(&child_word) {
                return Err(SchemaError::InvalidContent {
                    path: tree.anc_str(node),
                    children: tree.child_str(node),
                    expected: format!("{content}"),
                });
            }
        }
        Ok(())
    }

    /// Whether the tree belongs to the language.
    pub fn accepts(&self, tree: &XTree) -> bool {
        self.validate(tree).is_ok()
    }

    /// A tree in the language, if any.
    pub fn sample_tree(&self) -> Option<XTree> {
        self.edtd.sample_tree()
    }

    /// Language equivalence with another SDTD.
    pub fn equivalent(&self, other: &RSdtd) -> bool {
        self.edtd.equivalent(&other.edtd)
    }
}

impl fmt::Debug for RSdtd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "single-type {:?}", self.edtd)
    }
}

impl fmt::Display for RSdtd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dxml_automata::Regex;
    use dxml_tree::term::parse_term;

    /// Paper-style SDTD: under the root, `nat` elements have one shape; under
    /// `archive`, `nat` elements have another — allowed because the two
    /// specialisations occur in *different* content models.
    fn sdtd() -> RSdtd {
        RSdtd::parse(
            RFormalism::Nre,
            "s -> nat~1*, archive?\n\
             archive -> nat~2*\n\
             nat~1 -> country, year\n\
             nat~2 -> country",
        )
        .unwrap()
    }

    #[test]
    fn context_dependent_shapes() {
        let s = sdtd();
        assert!(s.accepts(&parse_term("s(nat(country year) archive(nat(country)))").unwrap()));
        assert!(s.accepts(&parse_term("s").unwrap()));
        // A top-level nat must have the `nat~1` shape.
        assert!(!s.accepts(&parse_term("s(nat(country))").unwrap()));
        // An archived nat must have the `nat~2` shape.
        assert!(!s.accepts(&parse_term("s(archive(nat(country year)))").unwrap()));
    }

    #[test]
    fn validate_reports_paths() {
        let s = sdtd();
        match s.validate(&parse_term("s(nat(country))").unwrap()) {
            Err(SchemaError::InvalidContent { path, .. }) => {
                assert_eq!(path.last().unwrap().as_str(), "nat");
            }
            other => panic!("expected InvalidContent, got {other:?}"),
        }
        assert!(matches!(
            s.validate(&parse_term("t").unwrap()),
            Err(SchemaError::RootMismatch { .. })
        ));
        // Unknown child label.
        assert!(s.validate(&parse_term("s(mystery)").unwrap()).is_err());
    }

    #[test]
    fn top_down_validation_agrees_with_automaton() {
        let s = sdtd();
        let nuta = s.to_nuta();
        for src in [
            "s",
            "s(nat(country year))",
            "s(nat(country year) archive)",
            "s(archive(nat(country) nat(country)))",
            "s(nat(country))",
            "s(archive(nat(country year)))",
            "s(nat(country year) nat(country year) archive(nat(country)))",
            "nat(country)",
        ] {
            let t = parse_term(src).unwrap();
            assert_eq!(s.accepts(&t), nuta.accepts(&t), "tree {src}");
        }
    }

    #[test]
    fn compact_syntax_reads_hash_names_as_rules() {
        let s = RSdtd::parse(RFormalism::Nre, "# c\n#\ns -> #x*\n#x -> a?").unwrap();
        assert!(s.accepts(&parse_term("s(#x(a))").unwrap()));
        assert!(!s.accepts(&parse_term("s(#x(a a))").unwrap()));
    }

    #[test]
    fn single_type_violation_is_rejected() {
        let mut e = REdtd::new(RFormalism::Nre, "s", "s");
        e.add_specialization("a1", "a");
        e.add_specialization("a2", "a");
        e.set_rule("s", RSpec::Nre(Regex::parse("a1, a2").unwrap()));
        assert!(matches!(RSdtd::from_edtd(e), Err(SchemaError::Structural(_))));

        // The same two specialisations in different content models are fine.
        let mut ok = REdtd::new(RFormalism::Nre, "s", "s");
        ok.add_specialization("a1", "a");
        ok.add_specialization("a2", "a");
        ok.set_rule("s", RSpec::Nre(Regex::parse("a1, b").unwrap()));
        ok.set_rule("b", RSpec::Nre(Regex::parse("a2").unwrap()));
        assert!(RSdtd::from_edtd(ok).is_ok());
    }

    #[test]
    fn every_dtd_is_an_sdtd() {
        let dtd = crate::RDtd::parse(RFormalism::Nre, "s -> a*, b\na -> c?").unwrap();
        let sdtd = RSdtd::from_edtd(dtd.to_edtd()).unwrap();
        let t = parse_term("s(a(c) a b)").unwrap();
        assert!(sdtd.accepts(&t) && dtd.accepts(&t));
        let bad = parse_term("s(b a)").unwrap();
        assert!(!sdtd.accepts(&bad) && !dtd.accepts(&bad));
    }
}
