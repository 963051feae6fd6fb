//! Quotients and residuals of regular languages.
//!
//! These are the string-level building blocks of the *perfect automaton*
//! construction of Section 6: the most permissive content model a function
//! may use at a docking point is a residual of the target content model by
//! the languages realizable to its left and right.
//!
//! Two operations are provided on a determinised subject language [`Dfa`]:
//!
//! * [`Dfa::universal_context_residual`] — the *universal* two-sided
//!   residual `{ w : ∀u ∈ P, ∀v ∈ S, u·w·v ∈ L }`, which is exactly the set
//!   of words a docking point may contribute when the words to its left and
//!   right range over `P` and `S` and the whole child word must stay in `L`;
//! * [`Dfa::uniform_context_residual`] — the same with one word `w`
//!   substituted into every gap of a longer context sequence, for a function
//!   that docks several times under the same parent.
//!
//! Their context walks, "which states of the subject can some word of this
//! context reach?", are pair searches of the context automaton against the
//! subject ([`Nfa::product_search`]), polynomial in the context however
//! nondeterministic it is; only the residual's own set simulation runs over
//! sets of the subject's states.
//!
//! Both are effective: the result is an automaton over the union of the
//! involved alphabets. In particular, when `P` (or `S`) is the empty
//! language the universal residual is vacuously `Σ*` over that union — the
//! caller decides what to intersect it with.
//!
//! The subject is a [`Dfa`] because perfect-schema synthesis already holds
//! one: the determinised target's content machine of the docking parent
//! (`Duta::content_dfa` in `dxml-tree`), so nothing is determinised here.
//! Both operations charge the caller's [`Budget`]; unlimited callers pass
//! [`Budget::unlimited`].

use std::collections::VecDeque;

use crate::dfa::Dfa;
use crate::error::AutomataError;
use crate::hash::FxHashMap;
use crate::limits::Budget;
use crate::nfa::{Nfa, ProductMove, StateId};
use crate::stateset::StateSet;

impl Dfa {
    /// The universal two-sided residual
    /// `{ w : ∀u ∈ [prefixes], ∀v ∈ [suffixes], u·w·v ∈ [self] }`.
    ///
    /// This is the *perfect* content language of a docking point: the words
    /// it may contribute so that **every** combination with realizable left
    /// and right contexts stays inside the target content model. When
    /// `[prefixes]` (or `[suffixes]`) is empty the constraint is vacuous and
    /// the result is `Σ*` over the union of the three alphabets. Partial
    /// transition functions are fine — completion over the union of the
    /// alphabets happens here.
    ///
    /// The set-simulation and the context reachability walks charge
    /// `budget` and abort with [`AutomataError::BudgetExceeded`] when it
    /// trips.
    ///
    /// # Panics
    ///
    /// Only on a broken internal invariant (a completed DFA missing an
    /// alphabet symbol).
    pub fn universal_context_residual(
        &self,
        prefixes: &Nfa,
        suffixes: &Nfa,
        budget: &Budget,
    ) -> Result<Nfa, AutomataError> {
        budget.check_interrupts()?;
        let sigma = self
            .alphabet()
            .union(&prefixes.alphabet())
            .union(&suffixes.alphabet());
        let d = self.complete(&sigma);
        let ids = d.resolve_alphabet(&sigma);
        // States the target DFA can be in after reading any realizable
        // prefix. `w` must be good from *all* of them simultaneously.
        let entry = states_reachable_via_from(&d, d.start(), prefixes, budget)?;
        // States from which every realizable suffix still accepts.
        let safe = states_where_all_suffixes_accept(&d, suffixes, budget)?;
        // Deterministic set-simulation: track the set of states the entry
        // set evolves into; accept iff it is entirely safe. The empty entry
        // set (no realizable prefix) is vacuously safe, yielding Σ*.
        let n = d.num_states();
        let mut sets: Vec<StateSet> = vec![entry.clone()];
        let mut index: FxHashMap<StateSet, usize> = FxHashMap::default();
        index.insert(entry, 0);
        let mut out = Nfa::new(1, 0);
        let mut queue = VecDeque::from([0usize]);
        budget.grow_states(1)?;
        while let Some(id) = queue.pop_front() {
            if sets[id].iter().all(|q| safe.contains(q)) {
                out.set_final(id);
            }
            for &(sym, sid) in &ids {
                budget.step()?;
                let sid = sid.expect("completed DFA mentions every alphabet symbol");
                let next = StateSet::from_iter(
                    n,
                    sets[id].iter().filter_map(|q| d.delta_local(q, sid)),
                );
                let next_id = match index.get(&next) {
                    Some(&i) => i,
                    None => {
                        budget.grow_states(1)?;
                        let i = out.add_state();
                        sets.push(next.clone());
                        index.insert(next, i);
                        queue.push_back(i);
                        i
                    }
                };
                out.add_transition(id, sym, next_id);
            }
        }
        Ok(out.trim())
    }

    /// The **uniform** context residual: the words `w` such that
    /// substituting *the same* `w` into every gap of the context sequence
    /// stays in `[self]` —
    ///
    /// ```text
    /// { w : ∀u₀∈[C₀], …, ∀uₘ∈[Cₘ],  u₀·w·u₁·w·⋯·w·uₘ ∈ [self] }
    /// ```
    ///
    /// for `contexts = [C₀, …, Cₘ]` (so `w` occurs `m = contexts.len()-1`
    /// times; with two contexts this coincides with
    /// [`Dfa::universal_context_residual`]). This is the exact set of
    /// forest words a function may return when it docks *several* times
    /// under the same parent: every docking point receives a forest with
    /// the same root-word language, and every valid forest language is a
    /// subset of this one.
    ///
    /// The construction tracks the state *transformation* `δ_w : Q → Q`
    /// that `w` induces on the completed DFA (the words with equal
    /// transformations are indistinguishable, so the result is regular); the
    /// reachable transformation monoid is at most `|Q|^|Q|` but stays tiny
    /// for the content-model DFAs this is used on.
    ///
    /// The transformation-monoid enumeration and the context reachability
    /// walks charge `budget` and abort with
    /// [`AutomataError::BudgetExceeded`] when it trips.
    ///
    /// # Panics
    ///
    /// Panics if `contexts` has fewer than two entries (no gap to fill).
    pub fn uniform_context_residual(
        &self,
        contexts: &[Nfa],
        budget: &Budget,
    ) -> Result<Nfa, AutomataError> {
        assert!(contexts.len() >= 2, "uniform_context_residual needs at least two contexts");
        budget.check_interrupts()?;
        let mut sigma = self.alphabet();
        for c in contexts {
            sigma = sigma.union(&c.alphabet());
        }
        let d = self.complete(&sigma);
        let ids = d.resolve_alphabet(&sigma);
        let n = d.num_states();
        // Per inner context: the set-valued reachability map
        // q ↦ {δ*(q, u) : u ∈ [Cᵢ]} (the last context acts as a suffix
        // filter instead).
        let mut inner: Vec<Vec<StateSet>> = Vec::with_capacity(contexts.len() - 1);
        for c in &contexts[..contexts.len() - 1] {
            let mut maps = Vec::with_capacity(n);
            for q in 0..n {
                maps.push(states_reachable_via_from(&d, q, c, budget)?);
            }
            inner.push(maps);
        }
        // After the final `w`, every possible state must accept under *all*
        // words of the last context.
        let safe = states_where_all_suffixes_accept(&d, &contexts[contexts.len() - 1], budget)?;
        let accepts = |t: &[StateId]| -> bool {
            // Propagate the set of possible states through u₀ w u₁ w ⋯ w,
            // alternating context reachability and the transformation `t`.
            let mut possible: StateSet = inner[0][d.start()].clone();
            for r in inner.iter().skip(1) {
                let mut next = StateSet::empty(n);
                for q in &possible {
                    next.union_with(&r[t[q]]);
                }
                possible = next;
            }
            possible.iter().map(|q| t[q]).all(|q| safe.contains(q))
        };
        // Enumerate the reachable transformation monoid.
        let identity: Vec<StateId> = (0..n).collect();
        let mut trans: Vec<Vec<StateId>> = vec![identity.clone()];
        let mut index: FxHashMap<Vec<StateId>, usize> = FxHashMap::default();
        index.insert(identity, 0);
        let mut out = Nfa::new(1, 0);
        let mut queue = VecDeque::from([0usize]);
        budget.grow_states(1)?;
        while let Some(id) = queue.pop_front() {
            if accepts(&trans[id]) {
                out.set_final(id);
            }
            for &(sym, sid) in &ids {
                budget.step()?;
                let sid = sid.expect("completed DFA mentions every alphabet symbol");
                let next: Vec<StateId> = trans[id]
                    .iter()
                    .map(|&q| d.delta_local(q, sid).expect("completed DFA is total"))
                    .collect();
                let next_id = match index.get(&next) {
                    Some(&i) => i,
                    None => {
                        budget.grow_states(1)?;
                        let i = out.add_state();
                        trans.push(next.clone());
                        index.insert(next, i);
                        queue.push_back(i);
                        i
                    }
                };
                out.add_transition(id, sym, next_id);
            }
        }
        Ok(out.trim())
    }
}

/// The set `{ δ*(q, u) : u ∈ [lang] }` of states of `d` reachable by
/// reading some word of `[lang]` from the state `q`: the machine states of
/// the final pairs of `lang`'s pair search against `d`
/// ([`Nfa::product_search`], one budget step per group). A symbol `d`
/// cannot read stops the word.
fn states_reachable_via_from(d: &Dfa, q: StateId, lang: &Nfa, budget: &Budget) -> Result<StateSet, AutomataError> {
    let step = |t: StateId, dsid: Option<u32>| d.delta_local(t, dsid?);
    let pairs = lang.product_search(q, &context_moves(d, lang), step, budget)?;
    Ok(StateSet::from_iter(d.num_states(), pairs.iter().filter(|p| lang.is_final(p.state)).map(|p| p.config)))
}

/// The set of states `q` of `d` such that **every** word of `[suffixes]`
/// read from `q` ends in an accepting state (missing transitions count as
/// rejection). States outside the set admit some suffix that rejects.
fn states_where_all_suffixes_accept(
    d: &Dfa,
    suffixes: &Nfa,
    budget: &Budget,
) -> Result<StateSet, AutomataError> {
    let mut out = StateSet::empty(d.num_states());
    for q in 0..d.num_states() {
        if !suffix_rejects_somewhere(d, q, suffixes, budget)? {
            out.insert(q);
        }
    }
    Ok(out)
}

/// Whether some word of `[suffixes]` read from `q` fails to accept in `d`:
/// some final pair of `suffixes`' pair search against `d`
/// ([`Nfa::product_search`], one budget step per group) holds a rejecting
/// or dead (`None`) machine state.
fn suffix_rejects_somewhere(
    d: &Dfa,
    q: StateId,
    suffixes: &Nfa,
    budget: &Budget,
) -> Result<bool, AutomataError> {
    let step =
        |t: Option<StateId>, dsid: Option<u32>| Some(t.zip(dsid).and_then(|(t, sid)| d.delta_local(t, sid)));
    let pairs = suffixes.product_search(Some(q), &context_moves(d, suffixes), step, budget)?;
    Ok(pairs.iter().any(|p| suffixes.is_final(p.state) && !p.config.is_some_and(|t| d.is_final(t))))
}

/// The moves of a context automaton's pair search against `d`: every
/// symbol of `lang`, read by `d` through its local id, or `None` if `d`
/// never reads it (a missing transition: the walks stop there, or count it
/// as rejection).
fn context_moves(d: &Dfa, lang: &Nfa) -> Vec<ProductMove<Option<u32>>> {
    lang.alphabet().iter().filter_map(|s| Some((lang.sym_id(s)?, d.sym_id(s), 0))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equiv::is_equivalent;
    use crate::regex::Regex;
    use crate::symbol::word_chars;

    fn re(s: &str) -> Nfa {
        Regex::parse_chars(s).unwrap().to_nfa()
    }

    fn dfa(s: &str) -> Dfa {
        Dfa::from_nfa(&re(s))
    }

    fn universal(l: &Dfa, prefixes: &Nfa, suffixes: &Nfa) -> Nfa {
        l.universal_context_residual(prefixes, suffixes, &Budget::unlimited()).unwrap()
    }

    fn uniform(l: &Dfa, contexts: &[Nfa]) -> Nfa {
        l.uniform_context_residual(contexts, &Budget::unlimited()).unwrap()
    }

    #[test]
    fn universal_residual_single_contexts() {
        // {w : a·w ∈ a b*} = b*
        let r = universal(&dfa("ab*"), &re("a"), &Nfa::epsilon());
        assert!(is_equivalent(&r, &re("b*")));
        // {w : a·w·c ∈ a b* c} = b*
        let r2 = universal(&dfa("ab*c"), &re("a"), &re("c"));
        assert!(is_equivalent(&r2, &re("b*")));
    }

    #[test]
    fn universal_residual_quantifies_over_all_contexts() {
        // L = aa | bb, prefix ranges over {a}: w must satisfy a·w ∈ L, so
        // w = a only.
        let r = universal(&dfa("aa + bb"), &re("a"), &Nfa::epsilon());
        assert!(is_equivalent(&r, &re("a")));
        // Prefix ranges over {a, b}: no w works for both.
        let r2 = universal(&dfa("aa + bb"), &re("a + b"), &Nfa::epsilon());
        assert!(r2.is_empty());
        // L = a*, prefix a*, suffix a*: every a-word works, nothing else.
        let r3 = universal(&dfa("a*"), &re("a*"), &re("a*"));
        assert!(is_equivalent(&r3, &re("a*")));
        assert!(!r3.accepts(&word_chars("b")));
    }

    #[test]
    fn universal_residual_is_vacuous_on_empty_contexts() {
        // No realizable prefix: every word (over the combined alphabet)
        // qualifies, including words outside the target language.
        let r = universal(&dfa("ab"), &Nfa::empty(), &Nfa::epsilon());
        assert!(r.accepts(&word_chars("ab")));
        assert!(r.accepts(&word_chars("ba")));
        assert!(r.accepts(&[]));
    }

    #[test]
    fn uniform_residual_single_gap_matches_universal() {
        for (l, pre, suf) in [("ab*c", "a", "c"), ("(ab)*", "a + ab", "ε"), ("aa + bb", "a + b", "ε")] {
            let l = dfa(l);
            let (p, s) = (re(pre), re(suf));
            let uni = uniform(&l, &[p.clone(), s.clone()]);
            let fre = universal(&l, &p, &s);
            assert!(is_equivalent(&uni, &fre), "L={l:?}");
        }
    }

    #[test]
    fn uniform_residual_substitutes_the_same_word_everywhere() {
        let eps = || Nfa::epsilon();
        // {w : w·w ∈ {aa, bb}} = {a, b}: each singleton works on its own.
        let u = uniform(&dfa("aa + bb"), &[eps(), eps(), eps()]);
        assert!(u.accepts(&word_chars("a")));
        assert!(u.accepts(&word_chars("b")));
        assert!(!u.accepts(&[]));
        assert!(!u.accepts(&word_chars("ab")));
        // {w : w·w ∈ {a}} = ∅ (a single `a` cannot split evenly).
        assert!(uniform(&dfa("a"), &[eps(), eps(), eps()]).is_empty());
        // {w : w·w ∈ (ab)*} = (ab)*.
        let sq = uniform(&dfa("(ab)*"), &[eps(), eps(), eps()]);
        assert!(is_equivalent(&sq, &re("(ab)*")));
        // Inner contexts are quantified universally too:
        // {w : ∀v∈{b,bb}: w·v·w ∈ a b+ a} = {a}.
        let mid = uniform(&dfa("ab+a"), &[eps(), re("b + bb"), eps()]);
        assert!(is_equivalent(&mid, &re("a")));
    }

    #[test]
    fn universal_residual_differs_from_existential_quotient() {
        // L = ab + bc: the existential quotient by (a|b) is {b, c} — each
        // word completes *some* prefix — but the universal residual demands
        // that w work after *both* a and b: empty.
        let l = re("ab + bc");
        assert!(l.accepts(&word_chars("ab")));
        assert!(l.accepts(&word_chars("bc")));
        let univ = universal(&Dfa::from_nfa(&l), &re("a + b"), &Nfa::epsilon());
        assert!(univ.is_empty());
    }
}
