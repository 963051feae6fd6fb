//! Content-model specifications in the four formalisms of the paper.
//!
//! Throughout the paper, `R` ranges over **nFA**, **dFA**, **nRE** and
//! **dRE**, the four mechanisms used to describe the regular languages
//! serving as content models of DTDs/SDTDs/EDTDs. [`RSpec`] packages a
//! content model in any of these formalisms behind a uniform API so that the
//! schema types can be parameterised by [`RFormalism`] exactly as the paper's
//! `R-DTD` / `R-SDTD` / `R-EDTD` are.

use std::fmt;

use crate::dfa::Dfa;
use crate::dre;
use crate::equiv;
use crate::error::AutomataError;
use crate::nfa::Nfa;
use crate::regex::Regex;
use crate::symbol::{Alphabet, Symbol, Word};

/// The formalism used to describe content models: the paper's parameter `R`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum RFormalism {
    /// Nondeterministic finite automata.
    Nfa,
    /// Deterministic finite automata.
    Dfa,
    /// (Possibly nondeterministic) regular expressions.
    Nre,
    /// Deterministic (one-unambiguous) regular expressions.
    Dre,
}

impl RFormalism {
    /// All four formalisms, in the order used by the paper's tables.
    pub const ALL: [RFormalism; 4] = [RFormalism::Nfa, RFormalism::Nre, RFormalism::Dfa, RFormalism::Dre];

    /// Whether the formalism is deterministic (dFA or dRE).
    pub fn is_deterministic(self) -> bool {
        matches!(self, RFormalism::Dfa | RFormalism::Dre)
    }

    /// Whether the formalism is expression-based (nRE or dRE).
    pub fn is_expression(self) -> bool {
        matches!(self, RFormalism::Nre | RFormalism::Dre)
    }
}

impl fmt::Display for RFormalism {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            RFormalism::Nfa => "nFA",
            RFormalism::Dfa => "dFA",
            RFormalism::Nre => "nRE",
            RFormalism::Dre => "dRE",
        };
        write!(f, "{name}")
    }
}

/// A content model (an `R-type` in the paper's terminology): a regular
/// language given in one of the four formalisms.
#[derive(Clone, Debug)]
pub enum RSpec {
    /// A language given by a nondeterministic automaton. Boxed, like
    /// [`RSpec::Dfa`], so that an `RSpec` stays the size of a regular
    /// expression plus a tag (40 bytes) instead of an inline automaton:
    /// every slot of a schema's rule map pays for the largest variant.
    /// Build one with [`RSpec::nfa`].
    Nfa(Box<Nfa>),
    /// A language given by a deterministic automaton, boxed for the same
    /// reason as [`RSpec::Nfa`]. Build one with [`RSpec::dfa`].
    Dfa(Box<Dfa>),
    /// A language given by a (possibly nondeterministic) regular expression.
    Nre(Regex),
    /// A language given by a deterministic regular expression.
    Dre(Regex),
}

impl RSpec {
    /// Wraps a regular expression as a `dRE` content model, verifying
    /// one-unambiguity of the expression.
    pub fn dre(re: Regex) -> Result<RSpec, AutomataError> {
        if dre::one_unambiguous_expr(&re) {
            Ok(RSpec::Dre(re))
        } else {
            Err(AutomataError::NotDeterministic(re.to_string()))
        }
    }

    /// Wraps an NFA as an `nFA` content model.
    pub fn nfa(nfa: Nfa) -> RSpec {
        RSpec::Nfa(Box::new(nfa))
    }

    /// Wraps a DFA as a `dFA` content model.
    pub fn dfa(dfa: Dfa) -> RSpec {
        RSpec::Dfa(Box::new(dfa))
    }

    /// Parses a content model from the DTD-style identifier syntax
    /// ([`Regex::parse`]) in the requested formalism. For `dRE` the
    /// expression must be deterministic; for the automaton formalisms the
    /// expression is translated.
    pub fn parse(formalism: RFormalism, input: &str) -> Result<RSpec, AutomataError> {
        let re = Regex::parse(input)?;
        RSpec::from_regex(formalism, re)
    }

    /// Parses a content model from the character syntax
    /// ([`Regex::parse_chars`]) in the requested formalism.
    pub fn parse_chars(formalism: RFormalism, input: &str) -> Result<RSpec, AutomataError> {
        let re = Regex::parse_chars(input)?;
        RSpec::from_regex(formalism, re)
    }

    /// Converts a regular expression into the requested formalism.
    pub fn from_regex(formalism: RFormalism, re: Regex) -> Result<RSpec, AutomataError> {
        Ok(match formalism {
            RFormalism::Nre => RSpec::Nre(re),
            RFormalism::Dre => return RSpec::dre(re),
            RFormalism::Nfa => RSpec::nfa(re.to_nfa()),
            RFormalism::Dfa => RSpec::dfa(Dfa::from_nfa(&re.to_nfa())),
        })
    }

    /// The formalism this content model is expressed in.
    pub fn formalism(&self) -> RFormalism {
        match self {
            RSpec::Nfa(_) => RFormalism::Nfa,
            RSpec::Dfa(_) => RFormalism::Dfa,
            RSpec::Nre(_) => RFormalism::Nre,
            RSpec::Dre(_) => RFormalism::Dre,
        }
    }

    /// The language as an [`Nfa`] (the internal lingua franca).
    pub fn to_nfa(&self) -> Nfa {
        match self {
            RSpec::Nfa(a) => Nfa::clone(a),
            RSpec::Dfa(d) => d.to_nfa(),
            RSpec::Nre(r) | RSpec::Dre(r) => r.to_nfa(),
        }
    }

    /// Whether the content model accepts `word`.
    pub fn accepts(&self, word: &[Symbol]) -> bool {
        match self {
            RSpec::Nfa(a) => a.accepts(word),
            RSpec::Dfa(d) => d.accepts(word),
            RSpec::Nre(r) | RSpec::Dre(r) => r.accepts(word),
        }
    }

    /// Whether the language is empty.
    pub fn is_empty_language(&self) -> bool {
        self.to_nfa().is_empty()
    }

    /// Whether ε belongs to the language.
    pub fn accepts_epsilon(&self) -> bool {
        self.accepts(&[])
    }

    /// The set of symbols appearing in the specification.
    pub fn alphabet(&self) -> Alphabet {
        match self {
            RSpec::Nfa(a) => a.alphabet(),
            RSpec::Dfa(d) => d.alphabet(),
            RSpec::Nre(r) | RSpec::Dre(r) => r.alphabet(),
        }
    }

    /// A size measure (number of states or expression nodes), used in the
    /// `typeT(τn)` size experiments of Table 2.
    pub fn size(&self) -> usize {
        match self {
            RSpec::Nfa(a) => a.num_states() + a.num_transitions(),
            RSpec::Dfa(d) => d.num_states() + d.transitions().count(),
            RSpec::Nre(r) | RSpec::Dre(r) => r.size(),
        }
    }

    /// Language equivalence with another content model.
    pub fn equivalent(&self, other: &RSpec) -> bool {
        equiv::is_equivalent(&self.to_nfa(), &other.to_nfa())
    }

    /// Language inclusion in another content model.
    pub fn included_in(&self, other: &RSpec) -> bool {
        equiv::is_included(&self.to_nfa(), &other.to_nfa())
    }

    /// Whether the language of this content model is *expressible* in the
    /// target formalism. Every regular language is expressible as an nFA, dFA
    /// or nRE; only one-unambiguous languages are expressible as dREs
    /// (Proposition 3.6).
    pub fn expressible_in(&self, formalism: RFormalism) -> bool {
        match formalism {
            RFormalism::Nfa | RFormalism::Dfa | RFormalism::Nre => true,
            RFormalism::Dre => dre::one_unambiguous_language(&self.to_nfa()),
        }
    }

    /// Converts to the requested formalism if possible; fails only for dRE
    /// targets when the language is not one-unambiguous. Note that the
    /// conversion to dRE yields an automaton-backed specification whose
    /// *language* is one-unambiguous rather than a syntactic expression —
    /// constructing an actual expression can incur the exponential blow-up of
    /// Proposition 3.6(3) and is not needed by the design algorithms.
    pub fn convert_to(&self, formalism: RFormalism) -> Result<RSpec, AutomataError> {
        match formalism {
            RFormalism::Nfa => Ok(RSpec::nfa(self.to_nfa())),
            RFormalism::Dfa => Ok(RSpec::dfa(Dfa::from_nfa(&self.to_nfa()).minimize())),
            RFormalism::Nre => Ok(self.clone_as_nre()),
            RFormalism::Dre => {
                if self.expressible_in(RFormalism::Dre) {
                    Ok(RSpec::dfa(Dfa::from_nfa(&self.to_nfa()).minimize()))
                } else {
                    Err(AutomataError::NotDeterministic(format!("{self}")))
                }
            }
        }
    }

    fn clone_as_nre(&self) -> RSpec {
        match self {
            RSpec::Nre(r) | RSpec::Dre(r) => RSpec::Nre(r.clone()),
            other => RSpec::nfa(other.to_nfa()),
        }
    }

    /// Some word accepted by this content model (shortest), if any.
    pub fn sample_word(&self) -> Option<Word> {
        self.to_nfa().shortest_accepted()
    }
}

impl fmt::Display for RSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RSpec::Nre(r) | RSpec::Dre(r) => write!(f, "{r}"),
            RSpec::Nfa(a) => write!(f, "<nFA with {} states>", a.num_states()),
            RSpec::Dfa(d) => write!(f, "<dFA with {} states>", d.num_states()),
        }
    }
}

impl PartialEq for RSpec {
    /// Content models compare by *language*, which is what every use in the
    /// design algorithms needs.
    fn eq(&self, other: &Self) -> bool {
        self.equivalent(other)
    }
}

impl Eq for RSpec {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::word_chars;

    #[test]
    fn formalism_properties() {
        assert!(RFormalism::Dfa.is_deterministic());
        assert!(RFormalism::Dre.is_deterministic());
        assert!(!RFormalism::Nfa.is_deterministic());
        assert!(RFormalism::Nre.is_expression());
        assert!(!RFormalism::Dfa.is_expression());
        assert_eq!(RFormalism::ALL.len(), 4);
        assert_eq!(format!("{}", RFormalism::Dre), "dRE");
    }

    #[test]
    fn parse_in_each_formalism() {
        for f in RFormalism::ALL {
            let spec = RSpec::parse_chars(f, "a*bc*").unwrap();
            assert_eq!(spec.formalism(), f);
            assert!(spec.accepts(&word_chars("aabcc")));
            assert!(!spec.accepts(&word_chars("ca")));
        }
    }

    #[test]
    fn dre_rejects_nondeterministic_expressions() {
        assert!(RSpec::parse_chars(RFormalism::Dre, "(a|b)*a").is_err());
        assert!(RSpec::parse_chars(RFormalism::Nre, "(a|b)*a").is_ok());
    }

    #[test]
    fn language_equality_and_inclusion() {
        let a = RSpec::parse_chars(RFormalism::Nre, "a*bc*c*").unwrap();
        let b = RSpec::parse_chars(RFormalism::Dfa, "a*bc*").unwrap();
        assert!(a.equivalent(&b));
        assert_eq!(a, b);
        let c = RSpec::parse_chars(RFormalism::Nfa, "a*b").unwrap();
        assert!(c.included_in(&a));
        assert!(!a.included_in(&c));
    }

    #[test]
    fn expressibility_in_dre() {
        let ends_with_a = RSpec::parse_chars(RFormalism::Nre, "(a|b)*a").unwrap();
        assert!(ends_with_a.expressible_in(RFormalism::Dre));
        let second_to_last = RSpec::parse_chars(RFormalism::Nre, "(a|b)*a(a|b)").unwrap();
        assert!(!second_to_last.expressible_in(RFormalism::Dre));
        assert!(second_to_last.convert_to(RFormalism::Dre).is_err());
        assert!(second_to_last.convert_to(RFormalism::Dfa).is_ok());
    }

    #[test]
    fn automaton_variants_are_boxed() {
        // Every slot of a schema's rule map is one `RSpec`; an inline
        // automaton variant would triple it.
        assert!(std::mem::size_of::<RSpec>() <= 48, "{}", std::mem::size_of::<RSpec>());
    }

    #[test]
    fn size_and_samples() {
        let spec = RSpec::parse_chars(RFormalism::Nre, "(ab)+").unwrap();
        assert!(spec.size() >= 3);
        assert_eq!(spec.sample_word(), Some(word_chars("ab")));
        assert!(!spec.is_empty_language());
        assert!(!spec.accepts_epsilon());
        let eps = RSpec::parse_chars(RFormalism::Nre, "a*").unwrap();
        assert!(eps.accepts_epsilon());
    }
}
