//! Seeded property-style tests over random small NFAs (no third-party
//! dependencies): determinisation/minimisation preserve membership, the
//! boolean/rational operations satisfy their algebraic laws on all words up
//! to length 5, and the context residuals agree with brute force.

use dxml_automata::equiv::{included, is_equivalent, is_included};
use dxml_automata::{Alphabet, Budget, Dfa, Nfa, Symbol};

/// The xorshift64* generator used across the workspace for reproducibility.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(if seed == 0 { 0x9E3779B97F4A7C15 } else { seed })
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    fn chance(&mut self, num: usize, den: usize) -> bool {
        self.below(den) < num
    }
}

fn sigma() -> Vec<Symbol> {
    vec![Symbol::new("a"), Symbol::new("b")]
}

/// A random NFA with up to 5 states over {a, b}, with ~2 transitions per
/// state, a sprinkling of ε-transitions and ~2 final states.
fn random_nfa(rng: &mut Rng) -> Nfa {
    let n = 1 + rng.below(5);
    let mut nfa = Nfa::new(n, rng.below(n));
    let sigma = sigma();
    for q in 0..n {
        for sym in &sigma {
            if rng.chance(2, 3) {
                nfa.add_transition(q, *sym, rng.below(n));
            }
        }
        if rng.chance(1, 5) {
            nfa.add_epsilon(q, rng.below(n));
        }
        if rng.chance(2, 5) {
            nfa.set_final(q);
        }
    }
    nfa
}

/// All words over {a, b} of length ≤ `max_len` (63 words for 5).
fn all_words_up_to(max_len: usize) -> Vec<Vec<Symbol>> {
    let sigma = sigma();
    let mut words: Vec<Vec<Symbol>> = vec![Vec::new()];
    let mut frontier: Vec<Vec<Symbol>> = vec![Vec::new()];
    for _ in 0..max_len {
        let mut next = Vec::new();
        for w in &frontier {
            for s in &sigma {
                let mut w2 = w.clone();
                w2.push(*s);
                next.push(w2);
            }
        }
        words.extend(next.iter().cloned());
        frontier = next;
    }
    words
}

#[test]
fn determinize_then_minimize_preserves_membership() {
    let words = all_words_up_to(5);
    let mut rng = Rng::new(2009);
    for case in 0..60 {
        let nfa = random_nfa(&mut rng);
        let dfa = Dfa::from_nfa(&nfa);
        let min = dfa.minimize();
        for w in &words {
            let expected = nfa.accepts(w);
            assert_eq!(dfa.accepts(w), expected, "case {case}: determinize changed membership");
            assert_eq!(min.accepts(w), expected, "case {case}: minimize changed membership");
        }
        // Minimisation never grows the automaton.
        assert!(min.num_states() <= dfa.complete(&dfa.alphabet()).num_states() + 1);
    }
}

#[test]
fn inclusion_in_union_always_holds() {
    let mut rng = Rng::new(42);
    for case in 0..60 {
        let a = random_nfa(&mut rng);
        let b = random_nfa(&mut rng);
        let union = a.union(&b);
        assert!(is_included(&a, &union), "case {case}: a ⊈ a ∪ b");
        assert!(is_included(&b, &union), "case {case}: b ⊈ a ∪ b");
        // And the intersection is included in both components.
        let inter = a.intersect(&b);
        assert!(is_included(&inter, &a), "case {case}: a ∩ b ⊈ a");
        assert!(is_included(&inter, &b), "case {case}: a ∩ b ⊈ b");
    }
}

#[test]
fn inclusion_counterexamples_are_genuine() {
    let mut rng = Rng::new(7);
    let mut refuted = 0;
    for _ in 0..80 {
        let a = random_nfa(&mut rng);
        let b = random_nfa(&mut rng);
        match included(&a, &b) {
            Ok(()) => {
                // Verified against brute-force enumeration up to length 5.
                for w in all_words_up_to(5) {
                    assert!(!a.accepts(&w) || b.accepts(&w), "inclusion verdict wrong on short word");
                }
            }
            Err(ce) => {
                refuted += 1;
                assert!(a.accepts(&ce.word) && !b.accepts(&ce.word), "bogus counterexample");
                assert!(ce.in_first);
            }
        }
    }
    assert!(refuted > 0, "the random family should refute some inclusions");
}

#[test]
fn complement_laws() {
    let alphabet = Alphabet::from_chars("ab");
    let words = all_words_up_to(5);
    let mut rng = Rng::new(1234);
    for case in 0..40 {
        let a = random_nfa(&mut rng);
        let comp = a.complement(&alphabet);
        for w in &words {
            assert_eq!(a.accepts(w), !comp.accepts(w), "case {case}: complement flipped wrong");
        }
        // a ∪ ā is universal, a ∩ ā is empty.
        assert!(a.union(&comp).is_universal(&alphabet), "case {case}");
        assert!(a.intersect(&comp).is_empty(), "case {case}");
        // Double complement is the identity (as a language).
        assert!(is_equivalent(&comp.complement(&alphabet), &a), "case {case}");
    }
}

#[test]
fn eps_free_and_trim_preserve_language() {
    let words = all_words_up_to(5);
    let mut rng = Rng::new(99);
    for case in 0..60 {
        let a = random_nfa(&mut rng);
        let ef = a.eps_free();
        assert!(!ef.has_epsilon());
        let t = a.trim();
        for w in &words {
            assert_eq!(a.accepts(w), ef.accepts(w), "case {case}: eps_free changed membership");
            assert_eq!(a.accepts(w), t.accepts(w), "case {case}: trim changed membership");
        }
    }
}

#[test]
fn shortest_accepted_is_shortest() {
    let mut rng = Rng::new(5);
    for case in 0..60 {
        let a = random_nfa(&mut rng);
        match a.shortest_accepted() {
            None => assert!(a.is_empty(), "case {case}: no witness but non-empty"),
            Some(w) => {
                assert!(a.accepts(&w), "case {case}: witness rejected");
                for shorter in all_words_up_to(5).iter().filter(|v| v.len() < w.len()) {
                    assert!(
                        w.len() > 5 || !a.accepts(shorter),
                        "case {case}: shorter accepted word exists"
                    );
                }
            }
        }
    }
}

/// A random finite context: the union of 0–3 random literal words of length
/// ≤ 2 over {a, b} (zero words is the empty language), returned with its
/// words for the brute-force side.
fn random_context(rng: &mut Rng) -> (Nfa, Vec<Vec<Symbol>>) {
    let sigma = sigma();
    let words: Vec<Vec<Symbol>> = (0..rng.below(4))
        .map(|_| (0..rng.below(3)).map(|_| sigma[rng.below(2)]).collect())
        .collect();
    let nfa = words.iter().fold(Nfa::empty(), |acc, w| acc.union(&Nfa::literal(w)));
    (nfa, words)
}

/// Whether `lang` accepts `u₀·w·u₁·w·⋯·w·uₘ` for every choice of
/// `uᵢ ∈ contexts[i]` (vacuously true when some context has no word).
fn every_filling_accepted(lang: &Nfa, contexts: &[Vec<Vec<Symbol>>], w: &[Symbol]) -> bool {
    let mut fillings: Vec<Vec<Symbol>> = vec![Vec::new()];
    for (i, context) in contexts.iter().enumerate() {
        let gap = if i == 0 { &[][..] } else { w };
        fillings = fillings
            .iter()
            .flat_map(|p| context.iter().map(move |u| [p.as_slice(), gap, u].concat()))
            .collect();
    }
    fillings.iter().all(|x| lang.accepts(x))
}

#[test]
fn context_residuals_match_brute_force() {
    let words = all_words_up_to(4);
    let mut rng = Rng::new(2026);
    for case in 0..80 {
        let lang = random_nfa(&mut rng);
        let d = Dfa::from_nfa(&lang);
        // Two contexts exercise the universal residual; two to four the
        // uniform one (`w` substituted into one to three gaps).
        let num_contexts = 2 + rng.below(3);
        let (nfas, finite): (Vec<Nfa>, Vec<Vec<Vec<Symbol>>>) =
            (0..num_contexts).map(|_| random_context(&mut rng)).unzip();
        // Both residuals live over the union of the involved alphabets; a
        // word using any other symbol is never in them.
        let pair = d.alphabet().union(&nfas[0].alphabet()).union(&nfas[1].alphabet());
        let all = nfas[2..].iter().fold(pair.clone(), |acc, c| acc.union(&c.alphabet()));
        let unlimited = Budget::unlimited();
        let uniform = d.uniform_context_residual_with_budget(&nfas, &unlimited).unwrap();
        let universal =
            d.universal_context_residual_with_budget(&nfas[0], &nfas[1], &unlimited).unwrap();
        for w in &words {
            let over = |sigma: &Alphabet| w.iter().all(|s| sigma.contains(s));
            assert_eq!(
                uniform.accepts(w),
                over(&all) && every_filling_accepted(&lang, &finite, w),
                "case {case}: uniform residual wrong on {w:?} (contexts {finite:?})"
            );
            assert_eq!(
                universal.accepts(w),
                over(&pair) && every_filling_accepted(&lang, &finite[..2], w),
                "case {case}: universal residual wrong on {w:?} (contexts {finite:?})"
            );
        }
    }
}
