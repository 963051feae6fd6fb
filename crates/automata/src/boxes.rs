//! Boxes: cartesian products of symbol sets (Section 2.1.2).
//!
//! A *box* of width `n` over `Σ` is a language of the form `Σ1 Σ2 … Σn` with
//! `Σi ⊆ Σ`: every word of length exactly `n` whose `i`-th symbol belongs to
//! `Σi`. Boxes appear in the paper as the "kernel boxes" `B(fn)` used to
//! reduce the R-EDTD design problems on trees to design problems on strings
//! whose constant parts are boxes rather than single words (Section 7,
//! Definition 21).
//!
//! Besides the box datatype itself (membership, concatenation, enumeration
//! and [`BoxLang::to_nfa`]), this module provides the one automaton
//! operation the Section-7 reduction needs: [`Nfa::expand_symbols`], the
//! slot substitution `σ(a) ⊆ Σ'` applied to every transition. It turns a
//! word automaton over constant symbols into one over *boxes* of specialised
//! names (the inverse-morphism step of the reduction from R-EDTD tree
//! problems to string problems).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::nfa::Nfa;
use crate::symbol::{Alphabet, Symbol, Word};

/// A box `Σ1 Σ2 … Σn`: a finite regular language that is a cartesian product
/// of symbol sets.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct BoxLang {
    slots: Vec<BTreeSet<Symbol>>,
}

impl BoxLang {
    /// The empty-width box, whose language is `{ε}`.
    pub fn epsilon() -> Self {
        BoxLang { slots: Vec::new() }
    }

    /// Builds a box from the given slots. A slot with an empty symbol set
    /// makes the whole language empty.
    pub fn new(slots: Vec<BTreeSet<Symbol>>) -> Self {
        BoxLang { slots }
    }

    /// Appends a slot.
    pub fn push_slot<I, S>(&mut self, symbols: I)
    where
        I: IntoIterator<Item = S>,
        S: Into<Symbol>,
    {
        self.slots.push(symbols.into_iter().map(Into::into).collect());
    }

    /// The width `n` of the box.
    pub fn width(&self) -> usize {
        self.slots.len()
    }

    /// The slots of the box.
    pub fn slots(&self) -> &[BTreeSet<Symbol>] {
        &self.slots
    }

    /// Whether the language of the box is empty (some slot has no symbols).
    pub fn is_empty_language(&self) -> bool {
        self.slots.iter().any(BTreeSet::is_empty)
    }

    /// Whether `word` belongs to the box.
    pub fn contains(&self, word: &[Symbol]) -> bool {
        word.len() == self.slots.len()
            && word.iter().zip(&self.slots).all(|(s, slot)| slot.contains(s))
    }

    /// Concatenation of two boxes.
    pub fn concat(&self, other: &BoxLang) -> BoxLang {
        let mut slots = self.slots.clone();
        slots.extend(other.slots.iter().cloned());
        BoxLang { slots }
    }

    /// The union of all symbols appearing in some slot.
    pub fn alphabet(&self) -> Alphabet {
        self.slots.iter().flatten().cloned().collect()
    }

    /// Converts the box to an [`Nfa`] (a chain of `any_of` transitions).
    pub fn to_nfa(&self) -> Nfa {
        if self.is_empty_language() {
            return Nfa::empty();
        }
        let mut nfa = Nfa::new(self.slots.len() + 1, 0);
        for (i, slot) in self.slots.iter().enumerate() {
            for sym in slot {
                nfa.add_transition(i, *sym, i + 1);
            }
        }
        nfa.set_final(self.slots.len());
        nfa
    }

    /// Enumerates the words of the box in lexicographic slot order, up to
    /// `limit` words.
    pub fn enumerate(&self, limit: usize) -> Vec<Word> {
        if self.is_empty_language() {
            return Vec::new();
        }
        let mut words: Vec<Word> = vec![Vec::new()];
        for slot in &self.slots {
            let mut next = Vec::new();
            'outer: for w in &words {
                for sym in slot {
                    let mut w2 = w.clone();
                    w2.push(*sym);
                    next.push(w2);
                    if next.len() >= limit {
                        break 'outer;
                    }
                }
            }
            words = next;
        }
        words
    }
}

impl Nfa {
    /// Substitutes every transition symbol by a *slot* (a set of symbols):
    /// the language becomes `{ b1…bn : a1…an ∈ [self], bi ∈ slots(ai) }`.
    ///
    /// This is the inverse-morphism step of the Section-7 reduction: a
    /// content model over element names turns into an automaton over the
    /// specialised names (or determinised subset states) each element can
    /// stand for. Symbols mapped to an empty slot lose their transitions —
    /// words using them become unrealizable.
    pub fn expand_symbols(&self, slots: &BTreeMap<Symbol, BTreeSet<Symbol>>) -> Nfa {
        let mut out = Nfa::new(self.num_states(), self.start());
        for (q, sym, t) in self.transitions() {
            match slots.get(sym) {
                Some(slot) => {
                    for b in slot {
                        out.add_transition(q, *b, t);
                    }
                }
                None => out.add_transition(q, *sym, t),
            }
        }
        for &f in self.finals() {
            out.set_final(f);
        }
        out
    }
}

impl fmt::Display for BoxLang {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, slot) in self.slots.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            if slot.len() == 1 {
                write!(f, "{}", slot.iter().next().unwrap())?;
            } else {
                let names: Vec<String> = slot.iter().map(ToString::to_string).collect();
                write!(f, "{{{}}}", names.join(","))?;
            }
        }
        if self.slots.is_empty() {
            write!(f, "ε")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::word_chars;

    fn sample_box() -> BoxLang {
        let mut b = BoxLang::epsilon();
        b.push_slot(["a", "b"]);
        b.push_slot(["c"]);
        b.push_slot(["a", "d"]);
        b
    }

    #[test]
    fn membership_and_counts() {
        let b = sample_box();
        assert_eq!(b.width(), 3);
        assert_eq!(b.enumerate(100).len(), 4);
        assert!(b.contains(&word_chars("aca")));
        assert!(b.contains(&word_chars("bcd")));
        assert!(!b.contains(&word_chars("acc")));
        assert!(!b.contains(&word_chars("ac")));
        assert!(!b.is_empty_language());
    }

    #[test]
    fn nfa_agrees_with_membership() {
        let b = sample_box();
        let nfa = b.to_nfa();
        for w in b.enumerate(100) {
            assert!(nfa.accepts(&w));
        }
        assert!(!nfa.accepts(&word_chars("acc")));
        assert_eq!(nfa.enumerate_accepted(3, 100).len(), 4);
    }

    #[test]
    fn empty_slot_empties_language() {
        let mut b = sample_box();
        b.push_slot(Vec::<Symbol>::new());
        assert!(b.is_empty_language());
        assert!(b.to_nfa().is_empty());
        assert_eq!(b.enumerate(10), Vec::<Word>::new());
    }

    #[test]
    fn from_word_and_concat() {
        let w = word_chars("ab");
        let b = BoxLang::new(w.iter().map(|s| BTreeSet::from([*s])).collect());
        assert!(b.contains(&w));
        assert_eq!(b.enumerate(100), vec![w]);
        let b2 = b.concat(&sample_box());
        assert_eq!(b2.width(), 5);
        assert!(b2.contains(&word_chars("abaca")));
    }

    #[test]
    fn epsilon_box() {
        let b = BoxLang::epsilon();
        assert!(b.contains(&[]));
        assert!(!b.contains(&word_chars("a")));
        assert!(b.to_nfa().accepts(&[]));
        assert_eq!(format!("{b}"), "ε");
    }

    #[test]
    fn display_format() {
        let b = sample_box();
        assert_eq!(format!("{b}"), "{a,b} c {a,d}");
    }

    #[test]
    fn expand_symbols_substitutes_slots() {
        use std::collections::BTreeMap;
        // a b → ({a1,a2}) ({b1}); `c` has no mapping and passes through.
        let lang = Nfa::literal(&word_chars("ab")).union(&Nfa::symbol("c"));
        let mut slots: BTreeMap<Symbol, BTreeSet<Symbol>> = BTreeMap::new();
        slots.insert(Symbol::new("a"), BTreeSet::from([Symbol::new("a1"), Symbol::new("a2")]));
        slots.insert(Symbol::new("b"), BTreeSet::from([Symbol::new("b1")]));
        let expanded = lang.expand_symbols(&slots);
        for w in [["a1", "b1"], ["a2", "b1"]] {
            let w: Vec<Symbol> = w.iter().map(Symbol::new).collect();
            assert!(expanded.accepts(&w), "word {w:?}");
        }
        assert!(expanded.accepts(&[Symbol::new("c")]));
        assert!(!expanded.accepts(&word_chars("ab")));
        // Empty slots kill the words using them.
        slots.insert(Symbol::new("b"), BTreeSet::new());
        let dead = lang.expand_symbols(&slots);
        assert!(!dead.accepts(&[Symbol::new("a1"), Symbol::new("b1")]));
        assert!(dead.accepts(&[Symbol::new("c")]));
    }
}
