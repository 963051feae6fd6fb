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
//! Both are effective: the result is an automaton over the union of the
//! involved alphabets. In particular, when `P` (or `S`) is the empty
//! language the universal residual is vacuously `Σ*` over that union — the
//! caller decides what to intersect it with.
//!
//! The subject is a [`Dfa`] because the synthesis loops take thousands of
//! residuals of the *same* language by varying contexts: they determinise
//! once ([`Dfa::from_nfa`]) and re-enter here. Each operation has a governed
//! `*_with_budget` twin.

use std::collections::VecDeque;

use crate::dfa::Dfa;
use crate::error::AutomataError;
use crate::hash::{FxHashMap, FxHashSet};
use crate::limits::Budget;
use crate::nfa::{Nfa, StateId};
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
    /// # Panics
    ///
    /// Never in practice: the unlimited budget cannot trip.
    pub fn universal_context_residual(&self, prefixes: &Nfa, suffixes: &Nfa) -> Nfa {
        self.universal_context_residual_with_budget(prefixes, suffixes, &Budget::unlimited())
            .expect("the unlimited budget never trips")
    }

    /// Governed variant of [`Dfa::universal_context_residual`]: the
    /// set-simulation and the context reachability walks charge the budget
    /// and abort with [`AutomataError::BudgetExceeded`] when it trips.
    ///
    /// # Panics
    ///
    /// Only on a broken internal invariant (a completed DFA missing an
    /// alphabet symbol).
    pub fn universal_context_residual_with_budget(
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
        let entry = states_reachable_via(&d, prefixes, budget)?;
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
    /// # Panics
    ///
    /// Panics if `contexts` has fewer than two entries (no gap to fill).
    pub fn uniform_context_residual(&self, contexts: &[Nfa]) -> Nfa {
        self.uniform_context_residual_with_budget(contexts, &Budget::unlimited())
            .expect("the unlimited budget never trips")
    }

    /// Governed variant of [`Dfa::uniform_context_residual`]: the
    /// transformation-monoid enumeration and the context reachability walks
    /// charge the budget and abort with [`AutomataError::BudgetExceeded`]
    /// when it trips.
    ///
    /// # Panics
    ///
    /// Panics if `contexts` has fewer than two entries (no gap to fill).
    pub fn uniform_context_residual_with_budget(
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

/// The set `{ δ*(q₀, u) : u ∈ [prefixes] }` of states of `d` reachable by
/// reading some word of `[prefixes]` from the start state.
fn states_reachable_via(
    d: &Dfa,
    prefixes: &Nfa,
    budget: &Budget,
) -> Result<StateSet, AutomataError> {
    states_reachable_via_from(d, d.start(), prefixes, budget)
}

/// The set `{ δ*(q, u) : u ∈ [lang] }` of states of `d` reachable by
/// reading some word of `[lang]` from the state `q`.
fn states_reachable_via_from(
    d: &Dfa,
    q: StateId,
    prefixes: &Nfa,
    budget: &Budget,
) -> Result<StateSet, AutomataError> {
    // The product only moves on symbols both machines know; resolve the
    // local ids of the shared alphabet once.
    let ids = shared_ids(d, prefixes);
    let p_finals = prefixes.finals_set();
    let p0 = prefixes.start_closure();
    let start = (p0, q);
    let mut seen: FxHashSet<(StateSet, StateId)> = FxHashSet::from_iter([start.clone()]);
    let mut queue = VecDeque::from([start]);
    let mut out = StateSet::empty(d.num_states());
    while let Some((pset, q)) = queue.pop_front() {
        budget.step()?;
        if pset.intersects(&p_finals) {
            out.insert(q);
        }
        for &(dsid, psid) in &ids {
            let pnext = prefixes.step_local(&pset, psid);
            if pnext.is_empty() {
                continue;
            }
            let qnext = match d.delta_local(q, dsid) {
                Some(t) => t,
                None => continue,
            };
            let state = (pnext, qnext);
            if seen.insert(state.clone()) {
                queue.push_back(state);
            }
        }
    }
    Ok(out)
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

/// Whether some word of `[suffixes]` read from `q` fails to accept in `d`.
fn suffix_rejects_somewhere(
    d: &Dfa,
    q: StateId,
    suffixes: &Nfa,
    budget: &Budget,
) -> Result<bool, AutomataError> {
    // Unlike the reachability walks, a suffix symbol *unknown* to `d` must
    // still be explored: a missing transition counts as rejection, so the
    // id list covers the whole suffix alphabet with an optional `d` side.
    let ids: Vec<(Option<u32>, u32)> = suffixes
        .alphabet()
        .iter()
        .filter_map(|s| Some((d.sym_id(s), suffixes.sym_id(s)?)))
        .collect();
    let s_finals = suffixes.finals_set();
    let s0 = suffixes.start_closure();
    let start = (s0, Some(q));
    let mut seen: FxHashSet<(StateSet, Option<StateId>)> = FxHashSet::from_iter([start.clone()]);
    let mut queue = VecDeque::from([start]);
    while let Some((sset, dq)) = queue.pop_front() {
        budget.step()?;
        let suffix_ends_here = sset.intersects(&s_finals);
        let accepts = dq.is_some_and(|t| d.is_final(t));
        if suffix_ends_here && !accepts {
            return Ok(true);
        }
        for &(dsid, ssid) in &ids {
            let snext = suffixes.step_local(&sset, ssid);
            if snext.is_empty() {
                continue;
            }
            let dnext = dq.and_then(|t| dsid.and_then(|sid| d.delta_local(t, sid)));
            let state = (snext, dnext);
            if seen.insert(state.clone()) {
                queue.push_back(state);
            }
        }
    }
    Ok(false)
}

/// The `(dfa local id, nfa local id)` pairs of the symbols both automata
/// mention. In the reachability walk above, symbols missing from either side
/// never fire (either the context cannot produce them or the subject DFA is
/// partial there and the walk stops anyway), so restricting to the shared
/// alphabet is exact.
fn shared_ids(d: &Dfa, other: &Nfa) -> Vec<(u32, u32)> {
    d.alphabet()
        .union(&other.alphabet())
        .iter()
        .filter_map(|s| Some((d.sym_id(s)?, other.sym_id(s)?)))
        .collect()
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

    #[test]
    fn universal_residual_single_contexts() {
        // {w : a·w ∈ a b*} = b*
        let r = dfa("ab*").universal_context_residual(&re("a"), &Nfa::epsilon());
        assert!(is_equivalent(&r, &re("b*")));
        // {w : a·w·c ∈ a b* c} = b*
        let r2 = dfa("ab*c").universal_context_residual(&re("a"), &re("c"));
        assert!(is_equivalent(&r2, &re("b*")));
    }

    #[test]
    fn universal_residual_quantifies_over_all_contexts() {
        // L = aa | bb, prefix ranges over {a}: w must satisfy a·w ∈ L, so
        // w = a only.
        let r = dfa("aa + bb").universal_context_residual(&re("a"), &Nfa::epsilon());
        assert!(is_equivalent(&r, &re("a")));
        // Prefix ranges over {a, b}: no w works for both.
        let r2 = dfa("aa + bb").universal_context_residual(&re("a + b"), &Nfa::epsilon());
        assert!(r2.is_empty());
        // L = a*, prefix a*, suffix a*: every a-word works, nothing else.
        let r3 = dfa("a*").universal_context_residual(&re("a*"), &re("a*"));
        assert!(is_equivalent(&r3, &re("a*")));
        assert!(!r3.accepts(&word_chars("b")));
    }

    #[test]
    fn universal_residual_is_vacuous_on_empty_contexts() {
        // No realizable prefix: every word (over the combined alphabet)
        // qualifies, including words outside the target language.
        let r = dfa("ab").universal_context_residual(&Nfa::empty(), &Nfa::epsilon());
        assert!(r.accepts(&word_chars("ab")));
        assert!(r.accepts(&word_chars("ba")));
        assert!(r.accepts(&[]));
    }

    #[test]
    fn uniform_residual_single_gap_matches_universal() {
        for (l, pre, suf) in [("ab*c", "a", "c"), ("(ab)*", "a + ab", "ε"), ("aa + bb", "a + b", "ε")] {
            let l = dfa(l);
            let (p, s) = (re(pre), re(suf));
            let uni = l.uniform_context_residual(&[p.clone(), s.clone()]);
            let fre = l.universal_context_residual(&p, &s);
            assert!(is_equivalent(&uni, &fre), "L={l:?}");
        }
    }

    #[test]
    fn uniform_residual_substitutes_the_same_word_everywhere() {
        let eps = || Nfa::epsilon();
        // {w : w·w ∈ {aa, bb}} = {a, b}: each singleton works on its own.
        let u = dfa("aa + bb").uniform_context_residual(&[eps(), eps(), eps()]);
        assert!(u.accepts(&word_chars("a")));
        assert!(u.accepts(&word_chars("b")));
        assert!(!u.accepts(&[]));
        assert!(!u.accepts(&word_chars("ab")));
        // {w : w·w ∈ {a}} = ∅ (a single `a` cannot split evenly).
        assert!(dfa("a").uniform_context_residual(&[eps(), eps(), eps()]).is_empty());
        // {w : w·w ∈ (ab)*} = (ab)*.
        let sq = dfa("(ab)*").uniform_context_residual(&[eps(), eps(), eps()]);
        assert!(is_equivalent(&sq, &re("(ab)*")));
        // Inner contexts are quantified universally too:
        // {w : ∀v∈{b,bb}: w·v·w ∈ a b+ a} = {a}.
        let mid = dfa("ab+a").uniform_context_residual(&[eps(), re("b + bb"), eps()]);
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
        let univ = Dfa::from_nfa(&l).universal_context_residual(&re("a + b"), &Nfa::epsilon());
        assert!(univ.is_empty());
    }
}
