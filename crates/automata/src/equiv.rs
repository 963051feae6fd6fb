//! Inclusion and equivalence of regular string languages, with
//! counter-example extraction.
//!
//! These are the `equiv[R]` oracles of Definition 1, used pervasively by the
//! design algorithms: local typings are verified by checking `w(τn) ≡ τ`
//! (Theorem 5.3), consistency reduces to equivalence of schemas
//! (Theorems 3.10/3.13), and so on. The implementation determinises both
//! automata and searches the product for a distinguishing state pair, which
//! also yields a shortest distinguishing word — invaluable in error messages
//! and tests.

use std::collections::VecDeque;

use dxml_telemetry as telemetry;

use crate::dfa::Dfa;
use crate::error::AutomataError;
use crate::hash::{FxHashMap, FxHashSet};
use crate::limits::Budget;
use crate::nfa::Nfa;
use crate::symbol::{Alphabet, Symbol, Word};

/// A word witnessing that two languages differ.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counterexample {
    /// The distinguishing word.
    pub word: Word,
    /// `true` if the word belongs to the *first* language only, `false` if it
    /// belongs to the second only.
    pub in_first: bool,
}

impl Counterexample {
    /// Renders the word with a separator, for error messages.
    pub fn describe(&self) -> String {
        let w: Vec<String> = self.word.iter().map(ToString::to_string).collect();
        let side = if self.in_first { "first" } else { "second" };
        format!("word [{}] belongs to the {side} language only", w.join(" "))
    }
}

/// Checks `[a] ⊆ [b]`; on failure returns a shortest word in `[a] − [b]`.
///
/// # Panics
///
/// Never in practice: the unlimited budget cannot trip.
pub fn included(a: &Nfa, b: &Nfa) -> Result<(), Counterexample> {
    included_with_budget(a, b, &Budget::unlimited())
        .expect("the unlimited budget never trips")
}

/// Governed variant of [`included`]. The outer `Result` reports resource
/// governance (`BudgetExceeded`); the inner one is the inclusion verdict.
pub fn included_with_budget(
    a: &Nfa,
    b: &Nfa,
    budget: &Budget,
) -> Result<Result<(), Counterexample>, AutomataError> {
    budget.check_interrupts()?;
    let alphabet = a.alphabet().union(&b.alphabet());
    let da = Dfa::from_nfa_with_budget(a, budget)?.complete(&alphabet);
    let db = Dfa::from_nfa_with_budget(b, budget)?.complete(&alphabet);
    Ok(
        if let Some(word) = distinguishing_word(&da, &db, &alphabet, |fa, fb| fa && !fb, budget)? {
            Err(Counterexample { word, in_first: true })
        } else {
            Ok(())
        },
    )
}

/// Checks `[a] = [b]`; on failure returns a shortest distinguishing word
/// together with the side it belongs to.
///
/// # Panics
///
/// Never in practice: the unlimited budget cannot trip.
pub fn equivalent(a: &Nfa, b: &Nfa) -> Result<(), Counterexample> {
    equivalent_with_budget(a, b, &Budget::unlimited())
        .expect("the unlimited budget never trips")
}

/// Governed variant of [`equivalent`]. The outer `Result` reports resource
/// governance (`BudgetExceeded`); the inner one is the equivalence verdict.
pub fn equivalent_with_budget(
    a: &Nfa,
    b: &Nfa,
    budget: &Budget,
) -> Result<Result<(), Counterexample>, AutomataError> {
    budget.check_interrupts()?;
    let alphabet = a.alphabet().union(&b.alphabet());
    let da = Dfa::from_nfa_with_budget(a, budget)?.complete(&alphabet);
    let db = Dfa::from_nfa_with_budget(b, budget)?.complete(&alphabet);
    Ok(
        if let Some(word) = distinguishing_word(&da, &db, &alphabet, |fa, fb| fa != fb, budget)? {
            let in_first = a.accepts(&word);
            Err(Counterexample { word, in_first })
        } else {
            Ok(())
        },
    )
}

/// Convenience boolean wrappers.
pub fn is_included(a: &Nfa, b: &Nfa) -> bool {
    included(a, b).is_ok()
}

/// Whether `[a] = [b]`.
pub fn is_equivalent(a: &Nfa, b: &Nfa) -> bool {
    equivalent(a, b).is_ok()
}

/// Checks `[a] ∩ [b] = ∅`; on failure returns a shortest common word.
pub fn disjoint(a: &Nfa, b: &Nfa) -> Result<(), Word> {
    match a.intersect(b).shortest_accepted() {
        None => Ok(()),
        Some(w) => Err(w),
    }
}

/// Back-pointers of the product BFS: state pair → (predecessor pair, symbol).
type ParentMap = FxHashMap<(usize, usize), ((usize, usize), Symbol)>;

/// Breadth-first search over the synchronous product of two *complete* DFAs,
/// returning a shortest word leading to a state pair whose acceptance flags
/// satisfy `bad`.
fn distinguishing_word(
    a: &Dfa,
    b: &Dfa,
    alphabet: &Alphabet,
    bad: impl Fn(bool, bool) -> bool,
    budget: &Budget,
) -> Result<Option<Word>, AutomataError> {
    // Resolve each symbol against both local indices once; the BFS then
    // moves on integer ids only. Scanning in text order keeps the witness
    // lexicographically least among the shortest.
    let ids: Vec<(Symbol, u32, u32)> = alphabet
        .iter()
        .filter_map(|&s| {
            // Both DFAs are complete over `alphabet`, so a missing id only
            // arises for symbols outside both alphabets — those never move
            // the product.
            Some((s, a.sym_id(&s)?, b.sym_id(&s)?))
        })
        .collect();
    let start = (a.start(), b.start());
    let mut parent: ParentMap = ParentMap::default();
    let mut seen: FxHashSet<(usize, usize)> = FxHashSet::from_iter([start]);
    let mut queue = VecDeque::from([start]);
    let reconstruct = |end: (usize, usize), parent: &ParentMap| {
        let mut word = Vec::new();
        let mut cur = end;
        while let Some(&(prev, sym)) = parent.get(&cur) {
            word.push(sym);
            cur = prev;
        }
        word.reverse();
        word
    };
    // Telemetry tallies are kept local and flushed once on exit, keeping
    // the BFS loop free of atomic traffic.
    let mut popped: u64 = 0;
    let mut edges: u64 = 0;
    let mut witness = Ok(None);
    while let Some((p, q)) = queue.pop_front() {
        popped += 1;
        if let Err(trip) = budget.step() {
            witness = Err(trip);
            break;
        }
        if bad(a.is_final(p), b.is_final(q)) {
            witness = Ok(Some(reconstruct((p, q), &parent)));
            break;
        }
        for &(sym, sa, sb) in &ids {
            edges += 1;
            let (tp, tq) = match (a.delta_local(p, sa), b.delta_local(q, sb)) {
                (Some(tp), Some(tq)) => (tp, tq),
                _ => continue,
            };
            if seen.insert((tp, tq)) {
                parent.insert((tp, tq), ((p, q), sym));
                queue.push_back((tp, tq));
            }
        }
    }
    telemetry::count(telemetry::Metric::EquivBfsRuns, 1);
    telemetry::count(telemetry::Metric::EquivBfsStates, popped);
    telemetry::count(telemetry::Metric::EquivBfsTransitions, edges);
    telemetry::observe(telemetry::Hist::EquivBfsExplored, popped);
    witness
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regex::Regex;
    use crate::symbol::word_chars;

    fn re(s: &str) -> Nfa {
        Regex::parse_chars(s).unwrap().to_nfa()
    }

    #[test]
    fn equivalence_of_equal_languages() {
        // a*bc*c* ≡ a*a*bc* ≡ a*bc* (Example 2 of the paper)
        assert!(is_equivalent(&re("a*bc*c*"), &re("a*a*bc*")));
        assert!(is_equivalent(&re("a*bc*c*"), &re("a*bc*")));
        assert!(is_equivalent(&re("(ab)*"), &re("(ab)*(ab)*")));
    }

    #[test]
    fn inequivalence_gives_counterexample() {
        let err = equivalent(&re("a*b"), &re("a+b")).unwrap_err();
        assert_eq!(err.word, word_chars("b"));
        assert!(err.in_first);
        let err2 = equivalent(&re("ab"), &re("ab|ba")).unwrap_err();
        assert_eq!(err2.word, word_chars("ba"));
        assert!(!err2.in_first);
    }

    #[test]
    fn inclusion_and_witness() {
        assert!(is_included(&re("(ab)+"), &re("(ab)*")));
        assert!(!is_included(&re("(ab)*"), &re("(ab)+")));
        let err = included(&re("(ab)*"), &re("(ab)+")).unwrap_err();
        assert!(err.word.is_empty());
    }

    #[test]
    fn disjointness() {
        assert!(disjoint(&re("a+"), &re("b+")).is_ok());
        let w = disjoint(&re("a*b"), &re("ab*")).unwrap_err();
        assert_eq!(w, word_chars("ab"));
    }

    #[test]
    fn empty_language_edge_cases() {
        assert!(is_included(&Nfa::empty(), &re("a")));
        assert!(!is_included(&re("a"), &Nfa::empty()));
        assert!(is_equivalent(&Nfa::empty(), &Nfa::empty()));
        assert!(!is_equivalent(&Nfa::epsilon(), &re("a*")));
    }
}
