//! `R-DTD`s — the paper's abstraction of W3C Document Type Definitions
//! (Definition 3).
//!
//! An `R-DTD` is a triple `⟨Σ, π, s⟩`: an alphabet of element names, a
//! function `π` mapping each element name to a content model (an `R`-type
//! over `Σ`) and a start symbol. A tree belongs to the language iff its root
//! is labelled `s` and, for every node `x`, `child-str(x) ∈ [π(lab(x))]`.
//!
//! The module implements validation, the vertical automaton `dual(τ)`
//! (Definition 4), the *bound-state* marking and the *reduced* property
//! (Definition 5), language emptiness, equivalence (Proposition 4.1) and
//! conversion to [`REdtd`]. The bound names are the inhabited states of the
//! DTD's tree automaton, read off the pairs of [`uta::run_pairs`] against
//! no target; the reduction is the EDTD one ([`REdtd::reduce`]). The closure
//! characterisation of Lemma 3.12 (closure under subtree substitution) is
//! *decided* — not sampled — by `dxml-analysis::dtd_definable`, with the
//! brute-force closure search living in that crate's property tests.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use dxml_automata::{Alphabet, Budget, Dfa, FxHashMap, Nfa, RFormalism, RSpec, Regex, Symbol};
use dxml_tree::{uta, Nuta, XTree};

use crate::edtd::REdtd;
use crate::error::SchemaError;
use crate::syntax;

/// The content model `{ε}` of every leaf-only name, shared by
/// [`RDtd::content`] and [`REdtd::content`].
pub(crate) static LEAF_CONTENT: RSpec = RSpec::Nre(Regex::Epsilon);

/// An `R-DTD` `⟨Σ, π, s⟩` (Definition 3).
#[derive(Clone)]
pub struct RDtd {
    formalism: RFormalism,
    alphabet: Alphabet,
    start: Symbol,
    /// Content models. Element names without an entry are leaf-only
    /// (content `{ε}`), matching the paper's convention ("if no rule is given
    /// for a label, nodes with this label are assumed to be solely leaves").
    rules: BTreeMap<Symbol, RSpec>,
}

impl RDtd {
    /// Creates a DTD with the given start symbol and no other element names.
    pub fn new(formalism: RFormalism, start: impl Into<Symbol>) -> RDtd {
        let start = start.into();
        let mut alphabet = Alphabet::new();
        alphabet.insert(start);
        RDtd { formalism, alphabet, start, rules: BTreeMap::new() }
    }

    /// Parses a DTD from the compact rule syntax used throughout the paper
    /// (Figure 4):
    ///
    /// ```text
    /// eurostat -> averages, nationalIndex*
    /// nationalIndex -> country, Good, (index | value, year)
    /// index -> value, year
    /// ```
    ///
    /// The left-hand side of the first rule is the start symbol; names that
    /// appear only on right-hand sides are leaf-only elements.
    pub fn parse(formalism: RFormalism, input: &str) -> Result<RDtd, SchemaError> {
        syntax::parse_dtd(formalism, input)
    }

    /// Parses the `<!ELEMENT …>` subset of the W3C DTD syntax (Figure 3).
    pub fn parse_w3c(formalism: RFormalism, input: &str) -> Result<RDtd, SchemaError> {
        syntax::parse_w3c_dtd(formalism, input)
    }

    /// Registers an element name without giving it a content model
    /// (leaf-only element).
    pub fn add_element(&mut self, name: impl Into<Symbol>) {
        self.alphabet.insert(name.into());
    }

    /// Sets the content model of an element name; the name and every symbol
    /// of the content model are added to the alphabet.
    pub fn set_rule(&mut self, name: impl Into<Symbol>, content: RSpec) {
        let name = name.into();
        self.alphabet.insert(name);
        for sym in content.alphabet().iter() {
            self.alphabet.insert(*sym);
        }
        self.rules.insert(name, content);
    }

    /// The content-model formalism `R`.
    pub fn formalism(&self) -> RFormalism {
        self.formalism
    }

    /// The element names `Σ`.
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// The start symbol `s`.
    pub fn start(&self) -> &Symbol {
        &self.start
    }

    /// The content model `π(name)`; leaf-only elements share one `{ε}`.
    pub fn content(&self, name: &Symbol) -> &RSpec {
        self.rules.get(name).unwrap_or(&LEAF_CONTENT)
    }

    /// Whether the element has an explicit content rule.
    pub fn has_rule(&self, name: &Symbol) -> bool {
        self.rules.contains_key(name)
    }

    /// Iterates over the explicit rules.
    pub fn rules(&self) -> impl Iterator<Item = (&Symbol, &RSpec)> {
        self.rules.iter()
    }

    /// A size measure: number of element names plus the sizes of all content
    /// models (used for the `typeT(τn)` size measurements of Table 2).
    pub fn size(&self) -> usize {
        self.alphabet.len() + self.rules.values().map(RSpec::size).sum::<usize>()
    }

    // ------------------------------------------------------------------
    // Validation
    // ------------------------------------------------------------------

    /// Validates a tree, returning the first violation found (in document
    /// order). Each label's content model is compiled at most once per
    /// call.
    pub fn validate(&self, tree: &XTree) -> Result<(), SchemaError> {
        if tree.root_label() != &self.start {
            return Err(SchemaError::RootMismatch {
                expected: self.start,
                found: *tree.root_label(),
            });
        }
        let mut compiled: FxHashMap<Symbol, Nfa> = FxHashMap::default();
        for node in tree.document_order() {
            let label = tree.label(node);
            if !self.alphabet.contains(label) {
                return Err(SchemaError::UnknownElement { label: *label });
            }
            let children = tree.child_str(node);
            let content = compiled.entry(*label).or_insert_with(|| self.content(label).to_nfa());
            if !content.accepts(&children) {
                return Err(SchemaError::InvalidContent {
                    path: tree.anc_str(node),
                    children,
                    expected: format!("{}", self.content(label)),
                });
            }
        }
        Ok(())
    }

    /// Whether the tree belongs to `[τ]`.
    pub fn accepts(&self, tree: &XTree) -> bool {
        self.validate(tree).is_ok()
    }

    // ------------------------------------------------------------------
    // dual(τ), bound states, reduction (Definitions 4 and 5)
    // ------------------------------------------------------------------

    /// The vertical automaton `dual(τ)` (Definition 4): a DFA over `Σ` whose
    /// language is the set of root-to-leaf label paths of trees in `[τ]`
    /// (when `τ` is reduced). State `0` is the fresh initial state `q0`;
    /// state `i+1` is `q_a` for the `i`-th element name in sorted order.
    pub fn dual(&self) -> Dfa {
        let names: Vec<Symbol> = self.alphabet.to_vec();
        let index: BTreeMap<&Symbol, usize> = names.iter().enumerate().map(|(i, n)| (n, i + 1)).collect();
        let mut dfa = Dfa::new(names.len() + 1, 0);
        dfa.set_transition(0, self.start, index[&self.start]);
        for a in &names {
            let content = self.content(a);
            for b in content.alphabet().iter() {
                if let Some(&bi) = index.get(b) {
                    dfa.set_transition(index[a], *b, bi);
                }
            }
            if content.accepts_epsilon() {
                dfa.set_final(index[a]);
            }
        }
        dfa
    }

    /// The *bound* element names: the fixpoint marking of Definition 5.
    /// An element name is bound if its content model contains some word over
    /// bound names (in particular, if it contains ε): exactly the inhabited
    /// states of [`RDtd::to_nuta`], one pair each of [`uta::run_pairs`]
    /// against no target.
    ///
    /// # Panics
    ///
    /// Never in practice: the unlimited budget cannot trip.
    pub fn bound_names(&self) -> BTreeSet<Symbol> {
        let pairs = uta::run_pairs(&self.to_nuta(), None, &Budget::unlimited())
            .expect("the unlimited budget never trips");
        pairs.iter().map(|p| p.name).collect()
    }

    /// The element names reachable from the start symbol in `dual(τ)`.
    pub fn reachable_names(&self) -> BTreeSet<Symbol> {
        let mut reach = BTreeSet::from([self.start]);
        let mut stack = vec![self.start];
        while let Some(a) = stack.pop() {
            // Leaf-only names ({ε} content) mention nothing; look the rule
            // up by reference instead of cloning the content model.
            let content = match self.rules.get(&a) {
                Some(c) => c,
                None => continue,
            };
            for b in content.alphabet().iter() {
                if self.alphabet.contains(b) && reach.insert(*b) {
                    stack.push(*b);
                }
            }
        }
        reach
    }

    /// Whether the DTD is *reduced* (Definition 5): every element name is
    /// reachable, every element name is bound, and the language is non-empty.
    pub fn is_reduced(&self) -> bool {
        let bound = self.bound_names();
        let reachable = self.reachable_names();
        self.alphabet.iter().all(|a| bound.contains(a) && reachable.contains(a))
            && bound.contains(&self.start)
    }

    /// The reduction of the DTD, [`REdtd::reduce`] of [`RDtd::to_edtd`]:
    /// keeps the bound element names reachable from the start through
    /// content models restricted to bound names, and restricts those
    /// content models to them. The result describes the same tree
    /// language and is reduced unless that language is empty; then only
    /// the start is kept, with an unsatisfiable content model.
    pub fn reduce(&self) -> RDtd {
        let reduced = self.to_edtd().reduce();
        let mut out = RDtd::new(self.formalism, self.start);
        out.alphabet = reduced.specialized_names();
        out.rules = reduced.rules().map(|(a, content)| (*a, content.clone())).collect();
        out
    }

    /// Whether `[τ]` is empty (no valid tree exists).
    pub fn language_is_empty(&self) -> bool {
        !self.bound_names().contains(&self.start)
    }

    /// A tree in `[τ]`, if any.
    pub fn sample_tree(&self) -> Option<XTree> {
        self.to_nuta().sample_tree()
    }

    // ------------------------------------------------------------------
    // Equivalence & conversions
    // ------------------------------------------------------------------

    /// Language equivalence with another DTD, using Proposition 4.1: two
    /// *reduced* DTDs are equivalent iff they have the same start symbol, the
    /// same element names and pairwise equivalent content models.
    pub fn equivalent(&self, other: &RDtd) -> bool {
        let a = self.reduce();
        let b = other.reduce();
        let (a_empty, b_empty) = (a.language_is_empty(), b.language_is_empty());
        if a_empty || b_empty {
            return a_empty == b_empty;
        }
        if a.start != b.start || a.alphabet != b.alphabet {
            return false;
        }
        // Named binding (not a tail expression) so the iterator borrowing
        // `a.alphabet` is dropped before the locals it borrows from (E0597).
        let same_contents = a.alphabet.iter().all(|name| {
            dxml_automata::equiv::is_equivalent(&a.content(name).to_nfa(), &b.content(name).to_nfa())
        });
        same_contents
    }

    /// Converts to an [`REdtd`] where every element name is its own (unique)
    /// specialisation.
    pub fn to_edtd(&self) -> REdtd {
        // The alphabet holds the start and every symbol of every rule, so
        // it is the whole of `µ`.
        let mu = self.alphabet.iter().map(|a| (*a, *a)).collect();
        REdtd::from_parts(self.formalism, self.start, mu, self.rules.clone())
    }

    /// Converts to an unranked tree automaton.
    pub fn to_nuta(&self) -> Nuta {
        self.to_edtd().to_nuta()
    }

    /// Language equivalence via tree automata (works for non-reduced inputs
    /// as well); returns a distinguishing tree on failure.
    pub fn equivalent_witness(&self, other: &RDtd) -> Result<(), (XTree, bool)> {
        dxml_tree::uta::equivalent(&self.to_nuta(), &other.to_nuta())
    }

}

impl fmt::Debug for RDtd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}-DTD with start `{}`:", self.formalism, self.start)?;
        for (a, c) in &self.rules {
            writeln!(f, "  {a} -> {c}")?;
        }
        Ok(())
    }
}

impl fmt::Display for RDtd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dxml_tree::term::parse_term;

    /// The DTD τ of Figure 3 (the Eurostat NCPI global type).
    fn eurostat_dtd() -> RDtd {
        RDtd::parse(
            RFormalism::Nre,
            "eurostat -> averages, nationalIndex*\n\
             averages -> (Good, index+)+\n\
             nationalIndex -> country, Good, (index | value, year)\n\
             index -> value, year",
        )
        .unwrap()
    }

    #[test]
    fn validation_of_figure_2_document() {
        let dtd = eurostat_dtd();
        let doc = parse_term(
            "eurostat(averages(Good index(value year) index(value year)) \
             nationalIndex(country Good index(value year)) \
             nationalIndex(country Good value year))",
        )
        .unwrap();
        assert!(dtd.accepts(&doc));
        // Wrong format: nationalIndex with both index and value.
        let bad = parse_term("eurostat(averages(Good index(value year)) nationalIndex(country Good index(value year) value))").unwrap();
        assert!(!dtd.accepts(&bad));
        // Missing averages.
        assert!(!dtd.accepts(&parse_term("eurostat").unwrap()));
        // Wrong root.
        assert!(matches!(
            dtd.validate(&parse_term("averages(Good index(value year))").unwrap()),
            Err(SchemaError::RootMismatch { .. })
        ));
    }

    #[test]
    fn validation_error_reports_path() {
        let dtd = eurostat_dtd();
        let bad = parse_term("eurostat(averages(Good index(value)))").unwrap();
        match dtd.validate(&bad) {
            Err(SchemaError::InvalidContent { path, children, .. }) => {
                assert_eq!(path.last().unwrap().as_str(), "index");
                assert_eq!(children, vec![Symbol::new("value")]);
            }
            other => panic!("expected InvalidContent, got {other:?}"),
        }
    }

    #[test]
    fn unknown_element_detection() {
        let dtd = eurostat_dtd();
        let bad = parse_term("eurostat(averages(Good index(value year)) mystery)").unwrap();
        assert!(matches!(dtd.validate(&bad), Err(SchemaError::InvalidContent { .. }) | Err(SchemaError::UnknownElement { .. })));
    }

    #[test]
    fn dual_automaton_vertical_language() {
        let dtd = eurostat_dtd();
        let dual = dtd.dual();
        let path = |s: &str| -> Vec<Symbol> { s.split_whitespace().map(Symbol::new).collect() };
        assert!(dual.accepts(&path("eurostat averages Good")));
        assert!(dual.accepts(&path("eurostat nationalIndex index value")));
        assert!(!dual.accepts(&path("eurostat Good")));
        assert!(!dual.accepts(&path("averages Good")));
        // dual accepts only paths ending at ε-admitting elements
        assert!(!dual.accepts(&path("eurostat averages")));
    }

    #[test]
    fn reduced_property_and_reduction() {
        let dtd = eurostat_dtd();
        assert!(dtd.is_reduced());
        assert!(!dtd.language_is_empty());

        // τ1 = ⟨{s1,c}, π1, s1⟩ with π1(s1)=c*, π1(c)=ε (end of §2.2.1) is reduced.
        let t1 = RDtd::parse(RFormalism::Dre, "s1 -> c*").unwrap();
        assert!(t1.is_reduced());

        // A DTD with an unsatisfiable element (a -> a) is not reduced.
        let bad = RDtd::parse(RFormalism::Nre, "s -> a | b\na -> a").unwrap();
        assert!(!bad.is_reduced());
        assert!(!bad.language_is_empty());
        let red = bad.reduce();
        assert!(red.is_reduced());
        // The reduced DTD no longer mentions `a` …
        assert!(!red.alphabet().contains(&Symbol::new("a")));
        // … and describes the same language.
        assert!(bad.equivalent_witness(&red).is_ok());

        // A DTD whose start is unsatisfiable has an empty language.
        let empty = RDtd::parse(RFormalism::Nre, "s -> s").unwrap();
        assert!(empty.language_is_empty());
        assert_eq!(empty.sample_tree(), None);
    }

    #[test]
    fn reduction_drops_names_reachable_only_through_unbound_ones() {
        // `x` is bound, but only the unbound `y` mentions it.
        let dtd = RDtd::parse(RFormalism::Nre, "s -> a | y\ny -> y, x").unwrap();
        let red = dtd.reduce();
        assert!(red.is_reduced(), "{red}");
        assert_eq!(red.alphabet().to_vec(), vec![Symbol::new("a"), Symbol::new("s")]);
        let plain = RDtd::parse(RFormalism::Nre, "s -> a").unwrap();
        assert!(dtd.equivalent(&plain));
        assert!(dtd.equivalent_witness(&plain).is_ok());
    }

    #[test]
    fn equivalence_by_content_models() {
        let a = RDtd::parse(RFormalism::Nre, "s -> a*, b\na -> c | d").unwrap();
        let b = RDtd::parse(RFormalism::Nre, "s -> a*, a*, b\na -> d | c").unwrap();
        assert!(a.equivalent(&b));
        assert!(a.equivalent_witness(&b).is_ok());
        let c = RDtd::parse(RFormalism::Nre, "s -> a+, b\na -> c | d").unwrap();
        assert!(!a.equivalent(&c));
        let (tree, in_first) = a.equivalent_witness(&c).unwrap_err();
        assert!(in_first);
        assert!(a.accepts(&tree) && !c.accepts(&tree));
    }

    #[test]
    fn equivalence_handles_unreduced_inputs() {
        // Same language, but `b` mentions a junk element that can never occur.
        let a = RDtd::parse(RFormalism::Nre, "s -> a*").unwrap();
        let b = RDtd::parse(RFormalism::Nre, "s -> a* | junk, junk\njunk -> junk").unwrap();
        assert!(a.equivalent(&b));
        assert!(a.equivalent_witness(&b).is_ok());
    }

    #[test]
    fn sample_tree_is_valid() {
        let dtd = eurostat_dtd();
        let sample = dtd.sample_tree().expect("non-empty language");
        assert!(dtd.accepts(&sample));
    }

    #[test]
    fn to_edtd_preserves_language() {
        let dtd = eurostat_dtd();
        let edtd = dtd.to_edtd();
        let doc = parse_term(
            "eurostat(averages(Good index(value year)) nationalIndex(country Good value year))",
        )
        .unwrap();
        assert!(edtd.accepts(&doc));
        assert!(dxml_tree::uta::is_equivalent(&dtd.to_nuta(), &edtd.to_nuta()));
    }

    #[test]
    fn w3c_syntax_matches_compact_syntax() {
        let w3c = RDtd::parse_w3c(
            RFormalism::Nre,
            r#"<!ELEMENT eurostat (averages, nationalIndex*)>
               <!ELEMENT averages (Good, index+)+>
               <!ELEMENT nationalIndex (country, Good, (index | (value, year)))>
               <!ELEMENT index (value, year)>
               <!ELEMENT country (#PCDATA)>
               <!ELEMENT Good (#PCDATA)>
               <!ELEMENT value (#PCDATA)>
               <!ELEMENT year (#PCDATA)>"#,
        )
        .unwrap();
        let compact = eurostat_dtd();
        assert!(w3c.equivalent(&compact));
    }
}
