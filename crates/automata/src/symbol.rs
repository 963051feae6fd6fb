//! Symbols (element names, specialised element names and function names) and
//! alphabets.
//!
//! The paper works with two alphabets: `Σ` of element names and `Σf` of
//! function symbols (Section 2.3). Both are represented here by [`Symbol`],
//! a **copyable `u32` id into a global intern table**. Distinguishing element
//! names from function names is the responsibility of the higher layers (the
//! kernel document knows which leaves are docking points).
//!
//! # Interning
//!
//! Every distinct string is interned exactly once, process-wide, in a
//! lock-sharded table ([`Symbol::new`] hashes the text, takes one shard
//! mutex, and allocates an id on first sight). Consequences the rest of the
//! workspace relies on:
//!
//! * **Equality is an integer compare.** Two `Symbol`s built from the same
//!   text always carry the same id, so `==`, and `Hash` (which hashes the
//!   id), are O(1) and never touch the string.
//! * **Ordering and `Debug`/`Display` are by text**, exactly as in the
//!   string-keyed representation this replaced: `BTreeMap`/`BTreeSet`
//!   iteration order, sorted alphabets and rendered words are unchanged.
//! * **Specialisation links are cached.** `a.specialize(i)` (the paper's
//!   `ã_i`, spelled `a~i`) and [`Symbol::base_name`] resolve through cached
//!   id→id links instead of re-scanning and re-hashing strings.
//! * The table is **append-only and leaked**: symbols live for the process
//!   lifetime (the workload universe of element/function names is small and
//!   bounded; this is what makes `as_str` borrows `'static`-backed and
//!   `Symbol` `Copy`). Consequently a long-lived process must not intern an
//!   unbounded stream of *distinct untrusted* names — memory grows with the
//!   number of distinct strings ever seen, and the table caps out at
//!   [`Symbol::MAX_SYMBOLS`] (2²⁴) symbols. Reaching the cap is a **typed
//!   error** through [`Symbol::try_new`] — the constructor every parser
//!   uses, so untrusted schema/document names can reject but never abort
//!   the process — and a panic only through the infallible [`Symbol::new`]
//!   (programmatic, bounded name universes). A service validating
//!   arbitrary user schemas at scale still wants an epoch/session-scoped
//!   interner (tracked in ROADMAP's performance levers).
//! * **Lock poisoning is recovered.** The tables are append-only, so a
//!   thread that panics mid-intern can never leave torn data; the locks
//!   recover the guard from `PoisonError` and later symbol creation keeps
//!   working (pinned by the panicking-interleaving stress tests).
//!
//! One caveat: because `Hash` hashes the id while `str` hashes its bytes, a
//! `Borrow<str>` impl would silently break hashed-container lookups keyed by
//! a raw `&str` — so `Symbol` deliberately does **not** implement it.
//! Interning the key first costs a hash plus one shard lock even on a hit,
//! and adds untrusted text to the table on a miss; code that resolves many
//! raw names against a fixed set of symbols builds its own table from their
//! text instead, as stream validation does with its per-schema name table
//! (`dxml_schema::StreamValidator`). Every comparison-based need is covered
//! by `as_str`.

use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::error::AutomataError;

mod intern {
    //! The global, lock-sharded intern table.
    //!
    //! Writes (first sight of a string) go through a per-shard mutex; reads
    //! (`resolve`/`base_of`, which back `Symbol::as_str` and every `Ord`
    //! comparison) are **lock-free**: ids index into fixed-size leaked
    //! chunks whose slots are published once through `OnceLock` — a read is
    //! two acquire loads, never an RMW, so concurrent readers share no
    //! cache-line writes.

    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError, TryLockError};

    use dxml_telemetry::{count, Metric};

    use crate::hash::{fx_hash_str, FxHashMap};

    /// Number of lookup shards (a power of two; the shard is picked from the
    /// text hash, so unrelated symbols rarely contend on the same mutex).
    const SHARDS: usize = 16;

    /// log2 of the chunk size: ids `k·4096 .. (k+1)·4096` live in chunk `k`.
    const CHUNK_BITS: usize = 12;
    const CHUNK_SIZE: usize = 1 << CHUNK_BITS;
    const CHUNK_MASK: usize = CHUNK_SIZE - 1;
    /// Maximum number of chunks.
    const MAX_CHUNKS: usize = 1 << 12;

    /// Hard capacity of the table: 2²⁴ distinct symbols — far beyond any
    /// element-name universe. Exceeding it is a *typed error*
    /// ([`try_intern`]), surfaced through `Symbol::try_new` on the parser
    /// paths, so untrusted schema/document names can never abort the
    /// process; the infallible [`intern`] panics instead.
    pub(super) const MAX_SYMBOLS: usize = MAX_CHUNKS << CHUNK_BITS;

    /// The table is at capacity; no new symbol can be interned.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(super) struct InternerFull;

    /// One interned symbol: its text (leaked, hence `'static`) and the id of
    /// its base name (`base == own id` for unspecialised names).
    struct Record {
        text: &'static str,
        base: u32,
    }

    /// A chunk of the id → record table: each slot is written exactly once
    /// (by the thread that allocated the id, under its shard lock) and read
    /// lock-free ever after.
    type Chunk = Box<[OnceLock<Record>]>;

    pub(super) struct Interner {
        /// text → id, sharded by text hash. Only taken on [`intern`].
        shards: [Mutex<FxHashMap<&'static str, u32>>; SHARDS],
        /// The next unallocated id (incremented under a shard lock).
        next_id: AtomicU32,
        /// id → record, in append-only leaked chunks (see [`Chunk`]).
        chunks: [OnceLock<Chunk>; MAX_CHUNKS],
        /// `(base id, index) → specialised id` links, so `specialize` skips
        /// the format-and-rehash path after the first call.
        spec: Mutex<FxHashMap<(u32, usize), u32>>,
    }

    fn global() -> &'static Interner {
        static INTERNER: OnceLock<Interner> = OnceLock::new();
        INTERNER.get_or_init(|| Interner {
            shards: std::array::from_fn(|_| Mutex::new(FxHashMap::default())),
            next_id: AtomicU32::new(0),
            chunks: std::array::from_fn(|_| OnceLock::new()),
            spec: Mutex::new(FxHashMap::default()),
        })
    }

    /// The record of an interned id (lock-free: two acquire loads).
    fn record(id: u32) -> &'static Record {
        let interner = global();
        let chunk = interner.chunks[id as usize >> CHUNK_BITS]
            .get()
            .expect("interned id precedes its chunk");
        chunk[id as usize & CHUNK_MASK].get().expect("interned id precedes its record")
    }

    /// Recovers the guard from a poisoned lock: every table here is
    /// **append-only** (the maps only gain entries, records are published
    /// through `OnceLock`), so a thread that panicked while holding a lock
    /// can never have left torn data behind — later threads may safely keep
    /// interning instead of propagating the poison and wedging all symbol
    /// creation for the rest of the process.
    fn recover<'a, T>(
        result: Result<MutexGuard<'a, T>, PoisonError<MutexGuard<'a, T>>>,
    ) -> MutexGuard<'a, T> {
        result.unwrap_or_else(PoisonError::into_inner)
    }

    /// Takes an interner lock, counting `interner.shard_contention` when a
    /// `try_lock` probe finds it already held. Poison is recovered exactly
    /// as in [`recover`] — see there for why that is sound.
    fn lock_counted<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
        match mutex.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
            Err(TryLockError::WouldBlock) => {
                count(Metric::InternShardContention, 1);
                recover(mutex.lock())
            }
        }
    }

    /// Interns `text`, returning its stable process-wide id, or
    /// [`InternerFull`] once the [`MAX_SYMBOLS`] cap is reached.
    pub(super) fn try_intern(text: &str) -> Result<u32, InternerFull> {
        let interner = global();
        let shard = &interner.shards[(fx_hash_str(text) as usize) % SHARDS];
        if let Some(&id) = lock_counted(shard).get(text) {
            return Ok(id);
        }
        // Miss: resolve the base id *outside* any lock (the base may hash to
        // this very shard), then re-check under the shard lock — a racing
        // thread may have interned the text in the meantime.
        let base = match text.rfind('~') {
            Some(idx) => Some(try_intern(&text[..idx])?),
            None => None,
        };
        let mut lookup = lock_counted(shard);
        if let Some(&id) = lookup.get(text) {
            return Ok(id);
        }
        // Allocate the id with a capacity-checked CAS loop: the counter
        // saturates at the cap instead of wrapping, so a flood of distinct
        // untrusted names keeps failing cleanly forever.
        let id = interner
            .next_id
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |id| {
                ((id as usize) < MAX_SYMBOLS).then_some(id + 1)
            })
            .map_err(|_| InternerFull)?;
        let leaked: &'static str = Box::leak(text.to_owned().into_boxed_str());
        count(Metric::SymbolsInterned, 1);
        // Leaked text plus the id→record slot and the lookup-map entry.
        count(
            Metric::InternTableBytes,
            (leaked.len()
                + std::mem::size_of::<OnceLock<Record>>()
                + std::mem::size_of::<(&str, u32)>()) as u64,
        );
        let chunk = interner.chunks[id as usize >> CHUNK_BITS]
            .get_or_init(|| (0..CHUNK_SIZE).map(|_| OnceLock::new()).collect());
        let slot_is_fresh = chunk[id as usize & CHUNK_MASK]
            .set(Record { text: leaked, base: base.unwrap_or(id) })
            .is_ok();
        assert!(slot_is_fresh, "freshly allocated intern id was already populated");
        lookup.insert(leaked, id);
        Ok(id)
    }

    /// Interns `text`, returning its stable process-wide id.
    ///
    /// # Panics
    ///
    /// Panics when the table is at capacity — for the programmatic call
    /// sites that construct bounded name universes. Parser paths use
    /// [`try_intern`] through `Symbol::try_new` instead.
    pub(super) fn intern(text: &str) -> u32 {
        try_intern(text)
            .unwrap_or_else(|_| panic!("interner overflow: {MAX_SYMBOLS} distinct symbols reached"))
    }

    /// The text of an interned id.
    pub(super) fn resolve(id: u32) -> &'static str {
        record(id).text
    }

    /// The base-name id of an interned id (`id` itself when unspecialised).
    pub(super) fn base_of(id: u32) -> u32 {
        record(id).base
    }

    /// The id of `base~index`, through the specialisation link cache.
    pub(super) fn specialize(base: u32, index: usize) -> u32 {
        let interner = global();
        let mut spec = lock_counted(&interner.spec);
        if let Some(&id) = spec.get(&(base, index)) {
            return id;
        }
        let id = intern(&format!("{}~{}", resolve(base), index));
        spec.insert((base, index), id);
        id
    }

    /// Poisons every mutex of the global interner (each via a thread that
    /// unwinds while holding the lock), for the recovery tests. The threads
    /// unwind through [`std::panic::resume_unwind`], which bypasses the
    /// panic hook — no global state is touched and no noise reaches the
    /// test output, while the mutexes still observe a panicking holder.
    #[cfg(test)]
    pub(super) fn poison_all_locks_for_tests() {
        for i in 0..SHARDS {
            let _ = std::thread::spawn(move || {
                let _guard = recover(global().shards[i].lock());
                std::panic::resume_unwind(Box::new("poisoning interner shard for tests"));
            })
            .join();
        }
        let _ = std::thread::spawn(|| {
            let _guard = recover(global().spec.lock());
            std::panic::resume_unwind(Box::new("poisoning interner spec cache for tests"));
        })
        .join();
    }
}

/// An interned, copyable symbol (an element name such as `eurostat`, a
/// specialised element name such as `natIndA`, or a function name such as
/// `f1`): a dense `u32` id into the global intern table.
///
/// Symbols are **ordered, `Debug`-printed and `Display`ed by their textual
/// content** — two `Symbol`s built from the same string are interchangeable,
/// and sorted containers iterate in text order exactly as with a string-keyed
/// representation. Equality and `Hash` go through the id (equal ids ⇔ equal
/// texts), which is what makes `Symbol` keys cheap in the automata hot paths.
/// See the [module docs](self) for the interning contract.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Symbol(u32);

impl Symbol {
    /// Hard capacity of the process-wide intern table (2²⁴ distinct
    /// symbols). [`Symbol::try_new`] reports reaching it as a typed error;
    /// [`Symbol::new`] panics.
    pub const MAX_SYMBOLS: usize = intern::MAX_SYMBOLS;

    /// Creates a symbol from anything string-like (interning the text on
    /// first sight, process-wide).
    ///
    /// # Panics
    ///
    /// Panics if the intern table is at [`Symbol::MAX_SYMBOLS`] capacity.
    /// Appropriate for programmatic call sites whose name universe is
    /// bounded by construction; anything fed from *untrusted input* (the
    /// schema/document parsers) goes through [`Symbol::try_new`] so a flood
    /// of distinct names surfaces as an error instead of aborting the
    /// process.
    pub fn new(name: impl AsRef<str>) -> Self {
        Symbol(intern::intern(name.as_ref()))
    }

    /// Fallible twin of [`Symbol::new`]: returns
    /// [`AutomataError::SymbolTableFull`] instead of panicking when the
    /// global intern table is at capacity. The entry point of every parser
    /// path.
    pub fn try_new(name: impl AsRef<str>) -> Result<Self, AutomataError> {
        intern::try_intern(name.as_ref())
            .map(Symbol)
            .map_err(|_| AutomataError::SymbolTableFull { limit: intern::MAX_SYMBOLS })
    }

    /// The textual content of the symbol.
    pub fn as_str(&self) -> &str {
        intern::resolve(self.0)
    }

    /// The dense intern id of the symbol. Stable for the process lifetime;
    /// equal ids ⇔ equal texts. Hot paths use it to build per-automaton
    /// symbol indices instead of hashing strings.
    pub fn id(self) -> u32 {
        self.0
    }

    /// Creates a "specialised" copy of this symbol, in the sense of R-SDTDs /
    /// R-EDTDs: `a.specialize(3)` is the symbol `a~3`.
    ///
    /// The tilde separator mirrors the paper's notation `ã_i` and is chosen so
    /// that specialised names never collide with ordinary element names
    /// produced by the parsers (which reject `~`). Resolved through a cached
    /// `(base id, index) → id` link, so repeated specialisation never
    /// re-formats the string.
    pub fn specialize(&self, index: usize) -> Symbol {
        Symbol(intern::specialize(self.0, index))
    }

    /// If this symbol is a specialised name (`a~i`), returns the underlying
    /// element name `a`; otherwise returns a copy of the symbol itself.
    /// Resolved through the cached id→base link computed when the symbol was
    /// interned (no string scan).
    pub fn base_name(&self) -> Symbol {
        Symbol(intern::base_of(self.0))
    }

    /// Whether the symbol is a specialised name (contains a `~`).
    pub fn is_specialized(&self) -> bool {
        intern::base_of(self.0) != self.0
    }
}

impl PartialOrd for Symbol {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Symbol {
    fn cmp(&self, other: &Self) -> Ordering {
        // Identical ids are the common case in sorted containers; only
        // distinct symbols pay for the text comparison.
        if self.0 == other.0 {
            Ordering::Equal
        } else {
            self.as_str().cmp(other.as_str())
        }
    }
}

impl Hash for Symbol {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u32(self.0);
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Self {
        Symbol::new(s)
    }
}

impl From<String> for Symbol {
    fn from(s: String) -> Self {
        Symbol::new(s)
    }
}

impl From<char> for Symbol {
    fn from(c: char) -> Self {
        Symbol::new(c.to_string())
    }
}

/// A finite alphabet: an ordered set of [`Symbol`]s.
///
/// Alphabets are needed wherever a complement is taken (the complement of a
/// language is only meaningful relative to an alphabet), and to describe the
/// element names of a schema. Iteration is in text order.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct Alphabet {
    symbols: BTreeSet<Symbol>,
}

impl Alphabet {
    /// Creates an empty alphabet.
    pub fn new() -> Self {
        Alphabet::default()
    }

    /// Creates an alphabet from an iterator of symbols.
    ///
    /// Unlike the `FromIterator` impl (which requires `Symbol` items), this
    /// inherent constructor accepts anything convertible into a symbol —
    /// hence the deliberate name collision.
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter<I, S>(iter: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<Symbol>,
    {
        Alphabet {
            symbols: iter.into_iter().map(Into::into).collect(),
        }
    }

    /// Creates an alphabet containing one single-character symbol per
    /// character of `chars` (convenient for the paper's compact examples).
    pub fn from_chars(chars: &str) -> Self {
        Alphabet::from_iter(chars.chars().map(Symbol::from))
    }

    /// Inserts a symbol; returns `true` if it was not already present.
    pub fn insert(&mut self, sym: impl Into<Symbol>) -> bool {
        self.symbols.insert(sym.into())
    }

    /// Whether the alphabet contains `sym`.
    pub fn contains(&self, sym: &Symbol) -> bool {
        self.symbols.contains(sym)
    }

    /// Number of symbols.
    pub fn len(&self) -> usize {
        self.symbols.len()
    }

    /// Whether the alphabet is empty.
    pub fn is_empty(&self) -> bool {
        self.symbols.is_empty()
    }

    /// Iterates over the symbols in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = &Symbol> {
        self.symbols.iter()
    }

    /// Union of two alphabets.
    pub fn union(&self, other: &Alphabet) -> Alphabet {
        Alphabet {
            symbols: self.symbols.union(&other.symbols).cloned().collect(),
        }
    }

    /// Removes a symbol; returns `true` if it was present.
    pub fn remove(&mut self, sym: &Symbol) -> bool {
        self.symbols.remove(sym)
    }

    /// The symbols as a vector (sorted).
    pub fn to_vec(&self) -> Vec<Symbol> {
        self.symbols.iter().cloned().collect()
    }
}

impl IntoIterator for Alphabet {
    type Item = Symbol;
    type IntoIter = std::collections::btree_set::IntoIter<Symbol>;

    fn into_iter(self) -> Self::IntoIter {
        self.symbols.into_iter()
    }
}

impl<'a> IntoIterator for &'a Alphabet {
    type Item = &'a Symbol;
    type IntoIter = std::collections::btree_set::Iter<'a, Symbol>;

    fn into_iter(self) -> Self::IntoIter {
        self.symbols.iter()
    }
}

impl FromIterator<Symbol> for Alphabet {
    fn from_iter<T: IntoIterator<Item = Symbol>>(iter: T) -> Self {
        Alphabet {
            symbols: iter.into_iter().collect(),
        }
    }
}

/// A word over an alphabet: a sequence of symbols.
///
/// Provided as a convenience alias; the crate's functions accept `&[Symbol]`.
pub type Word = Vec<Symbol>;

/// Builds a word from a whitespace-separated list of symbol names
/// (`word("a b c")`), or from adjacent single characters if the string
/// contains no whitespace and only single-character names are wanted
/// (use [`word_chars`] for that).
pub fn word(s: &str) -> Word {
    s.split_whitespace().map(Symbol::new).collect()
}

/// Builds a word of single-character symbols from a compact string:
/// `word_chars("abba")` is the word `a·b·b·a`.
pub fn word_chars(s: &str) -> Word {
    s.chars().filter(|c| !c.is_whitespace()).map(Symbol::from).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symbol_roundtrip_and_ordering() {
        let a = Symbol::new("a");
        let b = Symbol::new("b");
        assert!(a < b);
        assert_eq!(a.as_str(), "a");
        assert_eq!(a, Symbol::from("a"));
        assert_eq!(format!("{a}"), "a");
    }

    #[test]
    fn interning_is_stable_and_copy() {
        let a1 = Symbol::new("interning_is_stable");
        let a2 = Symbol::new(String::from("interning_is_stable"));
        assert_eq!(a1.id(), a2.id());
        // Copy semantics: both copies resolve to the same backing text.
        let copy = a1;
        assert!(std::ptr::eq(copy.as_str(), a2.as_str()));
    }

    #[test]
    fn specialization_roundtrip() {
        let a = Symbol::new("nationalIndex");
        let a1 = a.specialize(1);
        assert_eq!(a1.as_str(), "nationalIndex~1");
        assert!(a1.is_specialized());
        assert!(!a.is_specialized());
        assert_eq!(a1.base_name(), a);
        assert_eq!(a.base_name(), a);
        // The cached link and the textual route agree.
        assert_eq!(a1, Symbol::new("nationalIndex~1"));
        // Nested specialisation peels one layer at a time.
        let a12 = a1.specialize(2);
        assert_eq!(a12.as_str(), "nationalIndex~1~2");
        assert_eq!(a12.base_name(), a1);
    }

    #[test]
    fn alphabet_operations() {
        let mut sigma = Alphabet::from_chars("ab");
        assert_eq!(sigma.len(), 2);
        assert!(sigma.contains(&Symbol::new("a")));
        assert!(!sigma.contains(&Symbol::new("c")));
        assert!(sigma.insert("c"));
        assert!(!sigma.insert("c"));
        assert_eq!(sigma.len(), 3);
        let other = Alphabet::from_iter(["c", "d"]);
        let u = sigma.union(&other);
        assert_eq!(u.len(), 4);
    }

    #[test]
    fn try_new_matches_new_and_types_the_capacity_error() {
        let a = Symbol::try_new("try_new_probe").expect("table is nowhere near capacity");
        assert_eq!(a, Symbol::new("try_new_probe"));
        assert_eq!(a.id(), Symbol::new("try_new_probe").id());
        // The cap is the documented 2²⁴ and renders as a typed error, not a
        // panic (actually filling the table would leak gigabytes, so the
        // boundary itself is pinned by the saturating counter logic).
        assert_eq!(Symbol::MAX_SYMBOLS, 1 << 24);
        let err = AutomataError::SymbolTableFull { limit: Symbol::MAX_SYMBOLS };
        assert!(err.to_string().contains("intern table is full"), "{err}");
    }

    #[test]
    fn interner_survives_poisoned_locks() {
        // Poison every mutex of the global interner (a thread panics while
        // holding each lock); the append-only tables are never torn, so
        // symbol creation must keep working for the rest of the process.
        intern::poison_all_locks_for_tests();
        let s = Symbol::new("post_poison_probe");
        assert_eq!(s.as_str(), "post_poison_probe");
        assert_eq!(Symbol::try_new("post_poison_probe").unwrap(), s);
        // The specialisation cache lock recovered too.
        let sp = s.specialize(3);
        assert_eq!(sp.as_str(), "post_poison_probe~3");
        assert_eq!(sp.base_name(), s);
    }

    #[test]
    fn word_builders() {
        assert_eq!(word("a b a"), vec![Symbol::new("a"), Symbol::new("b"), Symbol::new("a")]);
        assert_eq!(word_chars("aba"), word("a b a"));
        assert_eq!(word("averages nationalIndex").len(), 2);
    }
}
