//! `R-EDTD`s — extended DTDs (Definition 7), the paper's abstraction of
//! Relax NG and of full unranked regular tree languages.
//!
//! An `R-EDTD` is a tuple `⟨Σ, Σ', d, s⟩`: an alphabet `Σ` of element names,
//! an alphabet `Σ'` of *specialised* names with an erasing morphism
//! `µ : Σ' → Σ` (we write `ã` for a specialisation of `a`), an `R-DTD`-style
//! rule set `d` over `Σ'` and a start name `s ∈ Σ'`. A tree over `Σ` belongs
//! to the language iff it is the `µ`-image of a tree over `Σ'` valid under
//! the rules — which makes `R-EDTD`s exactly the unranked regular tree
//! languages, operationally an [`Nuta`] whose states are the specialised
//! names.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

use dxml_automata::{Alphabet, Budget, Nfa, RFormalism, RSpec, Symbol};
use dxml_tree::uta::Duta;
use dxml_tree::{uta, Nuta, XTree};

use crate::dtd::LEAF_CONTENT;
use crate::error::SchemaError;

/// An `R-EDTD` `⟨Σ, Σ', d, s⟩` (Definition 7).
#[derive(Clone)]
pub struct REdtd {
    formalism: RFormalism,
    /// The start name `s ∈ Σ'`.
    start: Symbol,
    /// The morphism `µ : Σ' → Σ` (specialised name → element name).
    mu: BTreeMap<Symbol, Symbol>,
    /// Content models over `Σ'`; specialised names without an entry are
    /// leaf-only (content `{ε}`).
    rules: BTreeMap<Symbol, RSpec>,
}

impl REdtd {
    /// Creates an EDTD whose start is the specialised name `start` with
    /// `µ(start) = start_label`.
    pub fn new(
        formalism: RFormalism,
        start: impl Into<Symbol>,
        start_label: impl Into<Symbol>,
    ) -> REdtd {
        let start = start.into();
        let mut mu = BTreeMap::new();
        mu.insert(start, start_label.into());
        REdtd { formalism, start, mu, rules: BTreeMap::new() }
    }

    /// An EDTD from its parts; `mu` must map the start and every symbol
    /// of every rule.
    pub(crate) fn from_parts(
        formalism: RFormalism,
        start: Symbol,
        mu: BTreeMap<Symbol, Symbol>,
        rules: BTreeMap<Symbol, RSpec>,
    ) -> REdtd {
        REdtd { formalism, start, mu, rules }
    }

    /// Registers a specialised name with its underlying element name
    /// (`µ(specialized) = label`). Idempotent; re-registering with a
    /// different label replaces the mapping.
    pub fn add_specialization(&mut self, specialized: impl Into<Symbol>, label: impl Into<Symbol>) {
        self.mu.insert(specialized.into(), label.into());
    }

    /// Sets the content model of a specialised name. The content model reads
    /// specialised names; any of its symbols not yet registered defaults to
    /// its own label (`µ(ã) = ã`), which makes plain-DTD rule sets work
    /// unchanged.
    pub fn set_rule(&mut self, specialized: impl Into<Symbol>, content: RSpec) {
        let name = specialized.into();
        self.mu.entry(name).or_insert_with(|| name);
        for sym in content.alphabet().iter() {
            self.mu.entry(*sym).or_insert_with(|| *sym);
        }
        self.rules.insert(name, content);
    }

    /// The content-model formalism `R`.
    pub fn formalism(&self) -> RFormalism {
        self.formalism
    }

    /// The start name `s ∈ Σ'`.
    pub fn start(&self) -> &Symbol {
        &self.start
    }

    /// `µ(name)`, if the specialised name is registered.
    pub fn label_of(&self, specialized: &Symbol) -> Option<&Symbol> {
        self.mu.get(specialized)
    }

    /// The specialised names `Σ'`.
    pub fn specialized_names(&self) -> Alphabet {
        self.mu.keys().cloned().collect()
    }

    /// The element names `Σ` (the image of `µ`).
    pub fn labels(&self) -> Alphabet {
        self.mu.values().cloned().collect()
    }

    /// The specialised names mapped to `label`, in sorted order.
    pub fn specializations_of(&self, label: &Symbol) -> Vec<Symbol> {
        self.mu
            .iter()
            .filter(|(_, l)| *l == label)
            .map(|(s, _)| *s)
            .collect()
    }

    /// The content model of a specialised name; unregistered or leaf-only
    /// names share one `{ε}`.
    pub fn content(&self, specialized: &Symbol) -> &RSpec {
        self.rules.get(specialized).unwrap_or(&LEAF_CONTENT)
    }

    /// The explicit content rule of a specialised name (`None` for
    /// leaf-only names, whose [`REdtd::content`] is the shared `{ε}`).
    pub fn rule(&self, specialized: &Symbol) -> Option<&RSpec> {
        self.rules.get(specialized)
    }

    /// Iterates over the explicit rules.
    pub fn rules(&self) -> impl Iterator<Item = (&Symbol, &RSpec)> {
        self.rules.iter()
    }

    /// A size measure: number of specialised names plus the sizes of all
    /// content models.
    pub fn size(&self) -> usize {
        self.mu.len() + self.rules.values().map(RSpec::size).sum::<usize>()
    }

    // ------------------------------------------------------------------
    // Semantics via unranked tree automata
    // ------------------------------------------------------------------

    /// The EDTD as a nondeterministic unranked tree automaton: states are the
    /// specialised names, `Δ(ã, µ(ã))` is the content model of `ã`, and the
    /// start name is the only final state.
    pub fn to_nuta(&self) -> Nuta {
        let mut a = Nuta::new();
        for (spec, label) in &self.mu {
            let content = match self.rules.get(spec) {
                Some(rule) => rule.to_nfa(),
                None => Nfa::epsilon(),
            };
            a.set_rule(*spec, *label, content);
        }
        a.set_final(self.start);
        a
    }

    /// Whether the tree (over `Σ`) belongs to the language.
    pub fn accepts(&self, tree: &XTree) -> bool {
        self.to_nuta().accepts(tree)
    }

    /// Validates a tree, explaining the rejection: unlike [`REdtd::accepts`]
    /// this reports *where* the typing breaks down — the first node (in
    /// document order) that admits no specialised type although all of its
    /// children do, or a root whose admissible types miss the start name.
    pub fn validate(&self, tree: &XTree) -> Result<(), SchemaError> {
        let nuta = self.to_nuta();
        let possible = nuta.run(tree);
        if possible[tree.root()].contains(&self.start) {
            return Ok(());
        }
        if let Some(expected) = self.label_of(&self.start) {
            if tree.root_label() != expected {
                return Err(SchemaError::RootMismatch {
                    expected: *expected,
                    found: *tree.root_label(),
                });
            }
        }
        let labels = self.labels();
        for node in tree.document_order() {
            if !possible[node].is_empty() {
                continue;
            }
            if tree.children(node).iter().any(|&c| possible[c].is_empty()) {
                continue; // blame the deepest untypable descendant instead
            }
            let label = tree.label(node);
            if !labels.contains(label) {
                return Err(SchemaError::UnknownElement { label: *label });
            }
            let expected: Vec<String> = self
                .specializations_of(label)
                .iter()
                .map(|s| format!("{s} -> {}", self.content(s)))
                .collect();
            return Err(SchemaError::InvalidContent {
                path: tree.anc_str(node),
                children: tree.child_str(node),
                expected: expected.join("  |  "),
            });
        }
        // Every node is typable, but the root types miss the start name.
        let admitted: Vec<String> =
            possible[tree.root()].iter().map(ToString::to_string).collect();
        Err(SchemaError::Structural(format!(
            "the root admits specialised types [{}] but not the start `{}`",
            admitted.join(", "),
            self.start
        )))
    }

    /// Whether the language is empty.
    pub fn language_is_empty(&self) -> bool {
        self.to_nuta().is_empty()
    }

    /// A tree in the language, if any.
    pub fn sample_tree(&self) -> Option<XTree> {
        self.to_nuta().sample_tree()
    }

    /// The reduction (Definition 5, lifted to specialised names): keeps the
    /// *inhabited* names (those some tree can be typed with — one pair each
    /// of [`uta::run_pairs`] against no target) that are reachable from the
    /// start through content models restricted to inhabited names and
    /// trimmed, and gives each kept rule that restricted, trimmed content.
    /// Trimming leaves exactly the names of some realizable content word,
    /// so every kept name types a node of some tree of the language, which
    /// is unchanged. An empty language keeps only the start, with the empty
    /// content model.
    ///
    /// The one reduction behind [`crate::RDtd::reduce`] and the
    /// definability candidates.
    ///
    /// # Panics
    ///
    /// Never in practice: the unlimited budget cannot trip, and `µ` maps
    /// the start and every symbol of every rule.
    pub fn reduce(&self) -> REdtd {
        let pairs = uta::run_pairs(&self.to_nuta(), None, &Budget::unlimited())
            .expect("the unlimited budget never trips");
        let inhabited: BTreeSet<Symbol> = pairs.iter().map(|p| p.name).collect();
        let mut out = REdtd::new(self.formalism, self.start, self.mu[&self.start]);
        if !inhabited.contains(&self.start) {
            out.rules.insert(self.start, RSpec::nfa(Nfa::empty()));
            return out;
        }
        let mut queue = VecDeque::from([self.start]);
        while let Some(name) = queue.pop_front() {
            let Some(rule) = self.rules.get(&name) else { continue };
            let content = rule.to_nfa().filter_symbols(|s| inhabited.contains(s)).trim();
            for child in content.alphabet().iter() {
                if let Entry::Vacant(slot) = out.mu.entry(*child) {
                    slot.insert(self.mu[child]);
                    queue.push_back(*child);
                }
            }
            out.rules.insert(name, RSpec::nfa(content));
        }
        out
    }

    /// Language equivalence with another EDTD (`equiv[S]`, Theorem 4.7).
    pub fn equivalent(&self, other: &REdtd) -> bool {
        uta::is_equivalent(&self.to_nuta(), &other.to_nuta())
    }

    /// Language equivalence with a distinguishing tree on failure
    /// (`true` = the tree belongs to `self` only).
    pub fn equivalent_witness(&self, other: &REdtd) -> Result<(), (XTree, bool)> {
        uta::equivalent(&self.to_nuta(), &other.to_nuta())
    }

    /// Language inclusion in another EDTD, with a counterexample tree on
    /// failure.
    pub fn included_in(&self, other: &REdtd) -> Result<(), XTree> {
        uta::included(&self.to_nuta(), &other.to_nuta())
    }

    // ------------------------------------------------------------------
    // Normal form (Lemma 4.10)
    // ------------------------------------------------------------------

    /// Whether the EDTD is in the *normal form* of Lemma 4.10: distinct
    /// specialised names (of the same label) have pairwise disjoint tree
    /// languages, so every tree admits at most one typing. The start name is
    /// exempt — [`REdtd::normalize`] may introduce a start that aliases the
    /// union of several root types, which cannot be avoided with a single
    /// start symbol.
    ///
    /// Operationally: every reachable subset state of the determinised
    /// specialised target contains at most one non-start name.
    pub fn is_normal(&self) -> bool {
        let duta = self.to_nuta().determinize(&self.labels());
        duta.subsets()
            .iter()
            .all(|s| s.iter().filter(|q| **q != self.start).count() <= 1)
    }

    /// The normal form of the EDTD (Lemma 4.10): an equivalent EDTD whose
    /// specialised names are the inhabited `(label, subset state)` pairs of
    /// the *determinised* specialised target reachable from its start, so
    /// that every tree has exactly one typing (up to the start alias). The
    /// construction is the tree-automaton analogue of the subset
    /// construction and can be exponential, exactly as the lemma announces.
    ///
    /// The name of the pair `(a, i)` is `a~i` ([`Symbol::specialize`]); when
    /// several root types are accepting, a fresh start `a~start` aliases
    /// their union (it occurs in no content model).
    pub fn normalize(&self) -> REdtd {
        let duta = self.to_nuta().determinize(&self.labels());
        let root = self.label_of(&self.start).copied().unwrap_or(self.start);
        let accepting: Vec<usize> = duta
            .inhabited_label_states()
            .remove(&root)
            .unwrap_or_default()
            .into_iter()
            .filter(|&i| duta.is_final(i))
            .collect();
        // Start: the unique accepting pair if there is one; otherwise a
        // fresh alias for the union of the accepting pairs (possibly none —
        // the empty language keeps an unsatisfiable start).
        let start = match accepting.as_slice() {
            [i] => root.specialize(*i),
            _ => Symbol::new(format!("{root}~start")),
        };
        let content = duta.content_dfa(&root, |i| duta.is_final(i)).to_nfa();
        REdtd::from_duta(&duta, start, root, &content)
    }

    /// The R-EDTD over the inhabited `(label, subset state)` pairs of a
    /// determinised automaton, starting from `start` (labelled
    /// `start_label`) with the content `start_content` over `duta`'s
    /// letters ([`Duta::letter`]). Every letter is expanded to the pairs
    /// carrying its subset state, and every pair `(a, i)` reachable from
    /// the start gets the name `a~i` ([`Symbol::specialize`]) and, as its
    /// rule, the expanded content language [`Duta::content_nfa`]`(i, a)`.
    ///
    /// The one builder behind the normal form ([`REdtd::normalize`]) and
    /// the perfect schemas of EDTD design problems.
    ///
    /// # Panics
    ///
    /// If `start_content` reads a symbol that is not a letter of `duta`.
    pub fn from_duta(
        duta: &Duta,
        start: impl Into<Symbol>,
        start_label: impl Into<Symbol>,
        start_content: &Nfa,
    ) -> REdtd {
        let mut slots: BTreeMap<Symbol, BTreeSet<Symbol>> = BTreeMap::new();
        let mut pairs: BTreeMap<Symbol, (Symbol, usize)> = BTreeMap::new();
        for (label, states) in duta.inhabited_label_states() {
            for i in states {
                let name = label.specialize(i);
                slots.entry(duta.letter(i)).or_default().insert(name);
                pairs.insert(name, (label, i));
            }
        }
        // `trim` keeps the start state, loops included, even when the
        // language is empty; an empty content must not pull in any name.
        let expand = |content: &Nfa| {
            if content.is_empty() {
                Nfa::empty()
            } else {
                content.trim().expand_symbols(&slots)
            }
        };
        let start = start.into();
        let mut out = REdtd::new(RFormalism::Nfa, start, start_label);
        let mut seen = BTreeSet::from([start]);
        let mut queue = VecDeque::from([(start, expand(start_content))]);
        while let Some((name, content)) = queue.pop_front() {
            for next in content.alphabet().iter() {
                if seen.insert(*next) {
                    let (label, i) = pairs[next];
                    out.add_specialization(*next, label);
                    queue.push_back((*next, expand(&duta.content_nfa(i, &label))));
                }
            }
            out.set_rule(name, RSpec::nfa(content));
        }
        out
    }
}

impl fmt::Debug for REdtd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}-EDTD with start `{}`:", self.formalism, self.start)?;
        for (spec, label) in &self.mu {
            if spec == label {
                writeln!(f, "  {spec} -> {}", self.content(spec))?;
            } else {
                writeln!(f, "  {spec} [µ={label}] -> {}", self.content(spec))?;
            }
        }
        Ok(())
    }
}

impl fmt::Display for REdtd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dxml_automata::Regex;
    use dxml_tree::term::parse_term;

    /// The classic non-DTD-definable language: `s(a(b)* a(c) a(b)*)` —
    /// exactly one of the `a` children contains `c`, the others contain `b`.
    fn one_c_edtd() -> REdtd {
        let mut e = REdtd::new(RFormalism::Nre, "s", "s");
        e.add_specialization("ab", "a");
        e.add_specialization("ac", "a");
        e.set_rule("s", RSpec::Nre(Regex::parse("ab* ac ab*").unwrap()));
        e.set_rule("ab", RSpec::Nre(Regex::parse("b").unwrap()));
        e.set_rule("ac", RSpec::Nre(Regex::parse("c").unwrap()));
        e
    }

    #[test]
    fn specialisation_distinguishes_contexts() {
        let e = one_c_edtd();
        assert!(e.accepts(&parse_term("s(a(c))").unwrap()));
        assert!(e.accepts(&parse_term("s(a(b) a(c) a(b))").unwrap()));
        assert!(!e.accepts(&parse_term("s(a(b))").unwrap()));
        assert!(!e.accepts(&parse_term("s(a(c) a(c))").unwrap()));
        assert_eq!(e.specializations_of(&Symbol::new("a")).len(), 2);
        assert_eq!(e.label_of(&Symbol::new("ab")), Some(&Symbol::new("a")));
    }

    #[test]
    fn sample_and_emptiness() {
        let e = one_c_edtd();
        assert!(!e.language_is_empty());
        let t = e.sample_tree().unwrap();
        assert!(e.accepts(&t));

        let mut empty = REdtd::new(RFormalism::Nre, "s", "s");
        empty.set_rule("s", RSpec::Nre(Regex::sym("s")));
        assert!(empty.language_is_empty());
        assert_eq!(empty.sample_tree(), None);
    }

    #[test]
    fn equivalence_and_inclusion() {
        let e = one_c_edtd();
        // Same language written with the specialisations swapped.
        let mut f = REdtd::new(RFormalism::Nre, "s", "s");
        f.add_specialization("x", "a");
        f.add_specialization("y", "a");
        f.set_rule("s", RSpec::Nre(Regex::parse("y* x y*").unwrap()));
        f.set_rule("x", RSpec::Nre(Regex::parse("c").unwrap()));
        f.set_rule("y", RSpec::Nre(Regex::parse("b").unwrap()));
        assert!(e.equivalent(&f));
        assert!(e.equivalent_witness(&f).is_ok());

        // A superset: any number of c-children.
        let mut g = REdtd::new(RFormalism::Nre, "s", "s");
        g.add_specialization("ab", "a");
        g.add_specialization("ac", "a");
        g.set_rule("s", RSpec::Nre(Regex::parse("(ab | ac)*").unwrap()));
        g.set_rule("ab", RSpec::Nre(Regex::parse("b").unwrap()));
        g.set_rule("ac", RSpec::Nre(Regex::parse("c").unwrap()));
        assert!(e.included_in(&g).is_ok());
        let witness = g.included_in(&e).unwrap_err();
        assert!(g.accepts(&witness) && !e.accepts(&witness));
        assert!(!g.equivalent(&e));
    }

    #[test]
    fn size_is_positive() {
        assert!(one_c_edtd().size() > 5);
    }

    #[test]
    fn validate_explains_rejections() {
        let e = one_c_edtd();
        assert!(e.validate(&parse_term("s(a(b) a(c))").unwrap()).is_ok());
        // Wrong root label.
        assert!(matches!(
            e.validate(&parse_term("t(a(c))").unwrap()),
            Err(SchemaError::RootMismatch { .. })
        ));
        // An `a` whose content matches no specialisation.
        match e.validate(&parse_term("s(a(b c) a(c))").unwrap()) {
            Err(SchemaError::InvalidContent { path, children, expected }) => {
                assert_eq!(path.last().unwrap().as_str(), "a");
                assert_eq!(children.len(), 2);
                assert!(expected.contains("ab") && expected.contains("ac"), "{expected}");
            }
            other => panic!("expected InvalidContent, got {other:?}"),
        }
        // Unknown element.
        assert!(matches!(
            e.validate(&parse_term("s(a(c) zz)").unwrap()),
            Err(SchemaError::UnknownElement { .. })
        ));
        // Every node typable but the root word matches no start content:
        // two c-specialisations.
        match e.validate(&parse_term("s(a(c) a(c))").unwrap()) {
            Err(SchemaError::InvalidContent { path, .. }) => {
                assert_eq!(path, vec![Symbol::new("s")]);
            }
            other => panic!("expected InvalidContent at the root, got {other:?}"),
        }
    }

    #[test]
    fn normalization_preserves_the_language() {
        for e in [one_c_edtd(), {
            // A deliberately ambiguous EDTD: x and y overlap on b-leaves.
            let mut e = REdtd::new(RFormalism::Nre, "s", "s");
            e.add_specialization("x", "a");
            e.add_specialization("y", "a");
            e.set_rule("s", RSpec::Nre(Regex::parse("x y").unwrap()));
            e.set_rule("x", RSpec::Nre(Regex::parse("b*").unwrap()));
            e.set_rule("y", RSpec::Nre(Regex::parse("b | c").unwrap()));
            e
        }] {
            let n = e.normalize();
            assert!(e.equivalent(&n), "normalisation changed the language of {e}");
            assert!(n.is_normal(), "normal form is not normal: {n}");
        }
        // The ambiguous EDTD is not normal to begin with.
        let e = {
            let mut e = REdtd::new(RFormalism::Nre, "s", "s");
            e.add_specialization("x", "a");
            e.add_specialization("y", "a");
            e.set_rule("s", RSpec::Nre(Regex::parse("x y").unwrap()));
            e.set_rule("x", RSpec::Nre(Regex::parse("b*").unwrap()));
            e.set_rule("y", RSpec::Nre(Regex::parse("b | c").unwrap()));
            e
        };
        assert!(!e.is_normal());
    }

    /// The specialised names reachable from the start through content
    /// models.
    fn reachable_names(e: &REdtd) -> BTreeSet<Symbol> {
        let mut seen = BTreeSet::from([*e.start()]);
        let mut stack = vec![*e.start()];
        while let Some(name) = stack.pop() {
            for next in e.content(&name).alphabet().iter() {
                if seen.insert(*next) {
                    stack.push(*next);
                }
            }
        }
        seen
    }

    #[test]
    fn normalization_emits_only_reachable_pairs() {
        // Eight inhabited pairs, but the untypable leaves `#s0`, `#s1`, `a`
        // and `s` (the empty subset) occur in no tree of the language: the
        // normal form keeps `s`'s accepting pair and the three leaf pairs.
        let mut target = REdtd::new(RFormalism::Nre, "s", "s");
        target.set_rule("s", RSpec::Nre(Regex::parse("#s0 #s1* a?").unwrap()));
        let n = target.normalize();
        assert!(target.equivalent(&n), "{n}");
        assert!(n.is_normal(), "{n}");
        assert_eq!(n.specialized_names().len(), 4, "{n}");
        let mut nested = target.clone();
        nested.set_rule("#s1", RSpec::Nre(Regex::parse("#q0?").unwrap()));
        for e in [target, nested, one_c_edtd()] {
            let n = e.normalize();
            assert!(e.equivalent(&n), "{n}");
            assert_eq!(reachable_names(&n), n.specialized_names().iter().copied().collect(), "{n}");
        }
    }

    #[test]
    fn normalization_of_empty_and_dtd_like_languages() {
        // Empty language: the normal form is empty too.
        let mut empty = REdtd::new(RFormalism::Nre, "s", "s");
        empty.set_rule("s", RSpec::Nre(Regex::sym("s")));
        let n = empty.normalize();
        assert!(n.language_is_empty());
        assert_eq!(n.specialized_names().len(), 1, "only the unsatisfiable start: {n}");
        // A trivial (DTD-like) EDTD stays equivalent and normal.
        let mut plain = REdtd::new(RFormalism::Nre, "s", "s");
        plain.set_rule("s", RSpec::Nre(Regex::parse("a*").unwrap()));
        let np = plain.normalize();
        assert!(plain.equivalent(&np));
        assert!(np.is_normal());
        assert!(np.accepts(&parse_term("s(a a)").unwrap()));
    }
}
