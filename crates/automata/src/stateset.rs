//! Dense state sets for the decision-procedure hot paths.
//!
//! Every set-shaped loop of the crate — the subset construction, the
//! residuals' set simulation, the equivalence BFS, the box-slot stepping and
//! (through the tree crate) the `Duta` membership frontiers — carries sets
//! of states of a *fixed, known universe* `0..n`. The seed represented them
//! as `BTreeSet<usize>`, which allocates a tree node per state per step;
//! [`StateSet`] replaces that with a **fixed-width bitset**:
//!
//! * universes of up to [`INLINE_STATES`] states (the tiny content-model
//!   automata that dominate the workloads) live **inline** in two `u64`
//!   words — cloning or stepping such a set allocates nothing at all, which
//!   is the small-automaton fallback role a sorted small-vec would play,
//!   with O(1) membership and branch-free unions on top;
//! * larger universes use one heap `Box<[u64]>` of `⌈n/64⌉` words — still a
//!   single allocation per set instead of one per element.
//!
//! Iteration ([`StateSet::iter`]) is always in **ascending state order**,
//! exactly like `BTreeSet<usize>` iteration, so every construction that
//! derives numbering, witness words or rendered output from set iteration
//! is byte-for-byte unchanged (pinned by the differential property tests in
//! `tests/stateset_props.rs`).
//!
//! Sets are only meaningfully comparable within one universe; `Eq`/`Hash`
//! include the universe so sets of different automata never alias in keyed
//! containers. The cardinality is maintained incrementally, making
//! [`StateSet::len`]/[`StateSet::is_empty`] O(1).

use std::fmt;
use std::hash::{Hash, Hasher};

/// Number of inline words; universes of at most `64 * INLINE_WORDS` states
/// need no heap allocation.
const INLINE_WORDS: usize = 2;

/// The largest universe stored inline (without heap allocation).
pub const INLINE_STATES: usize = 64 * INLINE_WORDS;

/// A set of automaton states drawn from the fixed universe `0..universe()`.
///
/// See the [module docs](self) for the representation contract. The
/// universe is fixed at construction; inserting a state `>= universe()` is
/// a logic error (checked by a debug assertion, out of the release hot
/// path).
#[derive(Clone)]
pub struct StateSet {
    universe: u32,
    len: u32,
    words: Words,
}

#[derive(Clone)]
enum Words {
    Inline([u64; INLINE_WORDS]),
    Heap(Box<[u64]>),
}

impl StateSet {
    /// The empty set over the universe `0..universe`.
    ///
    /// # Panics
    ///
    /// Panics if `universe` exceeds `u32::MAX` states.
    pub fn empty(universe: usize) -> StateSet {
        let universe = u32::try_from(universe).expect("state universe exceeds u32");
        let words = if universe as usize <= INLINE_STATES {
            Words::Inline([0; INLINE_WORDS])
        } else {
            Words::Heap(vec![0u64; (universe as usize).div_ceil(64)].into_boxed_slice())
        };
        StateSet { universe, len: 0, words }
    }

    /// The singleton `{state}` over `0..universe`.
    pub fn singleton(universe: usize, state: usize) -> StateSet {
        let mut set = StateSet::empty(universe);
        set.insert(state);
        set
    }

    /// Collects an iterator of states into a set over `0..universe`.
    pub fn from_iter(universe: usize, states: impl IntoIterator<Item = usize>) -> StateSet {
        let mut set = StateSet::empty(universe);
        for q in states {
            set.insert(q);
        }
        set
    }

    /// The universe size the set was created with.
    pub fn universe(&self) -> usize {
        self.universe as usize
    }

    /// Number of states in the set (O(1): maintained incrementally).
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the set is empty (O(1)).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn words(&self) -> &[u64] {
        match &self.words {
            Words::Inline(w) => w,
            Words::Heap(w) => w,
        }
    }

    fn words_mut(&mut self) -> &mut [u64] {
        match &mut self.words {
            Words::Inline(w) => w,
            Words::Heap(w) => w,
        }
    }

    /// Inserts `state`; returns `true` if it was not already present.
    #[inline]
    pub fn insert(&mut self, state: usize) -> bool {
        debug_assert!(state < self.universe as usize, "state {state} outside universe {}", self.universe);
        let word = &mut self.words_mut()[state >> 6];
        let bit = 1u64 << (state & 63);
        let fresh = *word & bit == 0;
        *word |= bit;
        self.len += u32::from(fresh);
        fresh
    }

    /// Whether `state` belongs to the set.
    #[inline]
    pub fn contains(&self, state: usize) -> bool {
        debug_assert!(state < self.universe as usize, "state {state} outside universe {}", self.universe);
        self.words()[state >> 6] & (1u64 << (state & 63)) != 0
    }

    /// Removes every state from the set (keeping the universe).
    pub fn clear(&mut self) {
        self.words_mut().fill(0);
        self.len = 0;
    }

    /// In-place union: `self ∪= other`.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ — sets of different automata are
    /// never unioned.
    pub fn union_with(&mut self, other: &StateSet) {
        assert_eq!(self.universe, other.universe, "union of sets over different universes");
        let mut len = 0u32;
        for (w, o) in self.words_mut().iter_mut().zip(other.words()) {
            *w |= o;
            len += w.count_ones();
        }
        self.len = len;
    }

    /// Whether the two sets share no state.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn is_disjoint(&self, other: &StateSet) -> bool {
        assert_eq!(self.universe, other.universe, "comparing sets over different universes");
        self.words().iter().zip(other.words()).all(|(a, b)| a & b == 0)
    }

    /// Whether the two sets share at least one state (`!is_disjoint`).
    pub fn intersects(&self, other: &StateSet) -> bool {
        !self.is_disjoint(other)
    }

    /// Iterates over the states in **ascending order** (the iteration
    /// contract every canonical numbering and witness construction relies
    /// on — identical to `BTreeSet<usize>` iteration).
    pub fn iter(&self) -> Iter<'_> {
        let words = self.words();
        Iter { words, index: 0, current: words.first().copied().unwrap_or(0) }
    }
}

/// Ascending iterator over the states of a [`StateSet`].
pub struct Iter<'a> {
    words: &'a [u64],
    index: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.index += 1;
            self.current = *self.words.get(self.index)?;
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some((self.index << 6) | bit)
    }
}

impl<'a> IntoIterator for &'a StateSet {
    type Item = usize;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl PartialEq for StateSet {
    fn eq(&self, other: &Self) -> bool {
        self.universe == other.universe && self.words() == other.words()
    }
}

impl Eq for StateSet {}

impl Hash for StateSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u32(self.universe);
        for w in self.words() {
            state.write_u64(*w);
        }
    }
}

impl PartialOrd for StateSet {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for StateSet {
    /// A total order for deterministic containers: by universe, then by the
    /// word image. Not the lexicographic order of element sequences —
    /// nothing in the crate derives output from relative set order.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.universe
            .cmp(&other.universe)
            .then_with(|| self.words().cmp(other.words()))
    }
}

impl fmt::Debug for StateSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// A deterministic xorshift for the differential cases.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }
    }

    #[test]
    fn insert_contains_len_roundtrip() {
        for universe in [1usize, 7, 63, 64, 65, 128, 129, 500] {
            let mut set = StateSet::empty(universe);
            let mut reference = BTreeSet::new();
            let mut rng = Rng(universe as u64 + 1);
            for _ in 0..universe * 2 {
                let q = (rng.next() % universe as u64) as usize;
                assert_eq!(set.insert(q), reference.insert(q), "insert {q} (u={universe})");
                assert_eq!(set.len(), reference.len());
            }
            for q in 0..universe {
                assert_eq!(set.contains(q), reference.contains(&q), "contains {q}");
            }
            // Ascending iteration mirrors BTreeSet exactly.
            let got: Vec<usize> = set.iter().collect();
            let want: Vec<usize> = reference.iter().copied().collect();
            assert_eq!(got, want, "iteration order (u={universe})");
            set.clear();
            assert!(set.is_empty());
            assert_eq!(set.iter().count(), 0);
        }
    }

    #[test]
    fn union_and_disjointness_match_reference() {
        for universe in [3usize, 64, 130] {
            let mut rng = Rng(0x5eed + universe as u64);
            for _ in 0..20 {
                let mk = |rng: &mut Rng| {
                    let mut s = StateSet::empty(universe);
                    let mut r = BTreeSet::new();
                    for _ in 0..universe / 2 {
                        let q = (rng.next() % universe as u64) as usize;
                        s.insert(q);
                        r.insert(q);
                    }
                    (s, r)
                };
                let (mut a, mut ra) = mk(&mut rng);
                let (b, rb) = mk(&mut rng);
                assert_eq!(a.is_disjoint(&b), ra.is_disjoint(&rb));
                assert_eq!(a.intersects(&b), !ra.is_disjoint(&rb));
                a.union_with(&b);
                ra.extend(rb.iter().copied());
                assert_eq!(a.len(), ra.len());
                assert_eq!(a.iter().collect::<Vec<_>>(), ra.iter().copied().collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn equality_and_hashing_are_universe_aware() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |s: &StateSet| {
            let mut hasher = DefaultHasher::new();
            s.hash(&mut hasher);
            hasher.finish()
        };
        let a = StateSet::from_iter(10, [1, 3, 7]);
        let b = StateSet::from_iter(10, [3, 7, 1]);
        assert_eq!(a, b);
        assert_eq!(h(&a), h(&b));
        // Same bits, different universe: distinct keys.
        let c = StateSet::from_iter(200, [1, 3, 7]);
        assert_ne!(a, c);
        assert_ne!(a.cmp(&c), std::cmp::Ordering::Equal, "total order distinguishes universes");
        let mut d = b.clone();
        d.insert(0);
        assert_ne!(a, d);
    }

    #[test]
    fn singleton_and_empty() {
        let s = StateSet::singleton(70, 65);
        assert_eq!(s.len(), 1);
        assert!(s.contains(65));
        assert!(!s.contains(64));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![65]);
        assert_eq!(s.universe(), 70);
        assert!(StateSet::empty(1).is_empty());
        assert_eq!(format!("{:?}", StateSet::from_iter(5, [0, 2])), "{0, 2}");
    }
}
