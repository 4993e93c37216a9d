//! String interning.
//!
//! Every RDF term (subject, predicate, object) and every URL that flows
//! through the system is interned exactly once into a [`Symbol`] — a compact
//! `u32` handle. Slices, fact tables, and indexes then operate on `Copy`
//! integers instead of heap strings, which is what makes the slice-hierarchy
//! construction of MIDASalg cheap enough to run over millions of facts.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// A compact handle to an interned string.
///
/// Symbols are only meaningful relative to the [`Interner`] that produced
/// them; comparing symbols from different interners is a logic error (but not
/// memory-unsafe). Symbols order by insertion index, *not* lexicographically.
/// The `repr(transparent)` layout is load-bearing: snapshot columns
/// reinterpret `[u32]` bytes as `[Symbol]` zero-copy (see `crate::column`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(transparent)]
pub struct Symbol(u32);

impl Symbol {
    /// The raw index of this symbol in its interner.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a symbol from a raw index.
    ///
    /// Only indices previously returned by [`Symbol::index`] for the same
    /// interner are valid; resolving a fabricated symbol panics.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        Symbol(u32::try_from(index).expect("interner overflow: more than u32::MAX symbols"))
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// An append-only string interner.
///
/// Interning requires `&mut self`; resolving is `&self` and returns a
/// borrowed `&str`. For cross-thread use wrap it in a [`SharedInterner`].
///
/// Strings live back to back in one arena (`text`), so interning a new
/// term appends bytes instead of allocating, and a six-figure term table
/// costs one buffer rather than one heap block per term. The lookup table
/// maps the 64-bit [`term_hash`] of a string to its symbol instead of
/// keying on an owned copy of the string. Distinct strings that collide on
/// the full 64-bit hash are parked in `overflow` and found by linear scan
/// — that list stays empty in practice, but correctness never depends on
/// it. A caller that already hashed a term (a parse worker building its
/// chunk dictionary) hands the hash over with [`Interner::intern_hashed`].
///
/// The lookup table is also *lazy*: [`Interner::from_dump`] installs a
/// pre-deduplicated string table without indexing it, and the map is
/// synced on the first subsequent [`Interner::intern`]. A snapshot warm
/// run that only ever *resolves* symbols (discovery, reporting) never pays
/// for hashing and inserting hundreds of thousands of terms it will not
/// look up; runs that do intern afterwards (gold labels in eval) pay once,
/// on first use.
#[derive(Debug)]
pub struct Interner {
    map: HashMap<u64, Symbol, BuildHasherDefault<PreHashed>>,
    overflow: Vec<Symbol>,
    /// Every interned string, back to back, in symbol order.
    text: String,
    /// String `i` is `text[bounds[i]..bounds[i + 1]]`; `bounds[0]` is 0,
    /// so there is one more bound than there are strings.
    bounds: Vec<usize>,
    /// How many strings are indexed in `map`/`overflow`.
    synced: usize,
}

/// The interner's 64-bit string hash: eight bytes per multiply round, then
/// a full avalanche, so its low bits (the bucket) and high bits (the
/// control byte) are both usable as they come. Deterministic across runs
/// and platforms.
pub fn term_hash(s: &str) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let bytes = s.as_bytes();
    let mut h = (bytes.len() as u64).wrapping_mul(K);
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let mut word = [0u8; 8];
        word.copy_from_slice(w);
        h = (h ^ u64::from_le_bytes(word))
            .wrapping_mul(K)
            .rotate_left(31);
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let word = tail
            .iter()
            .rev()
            .fold(0u64, |w, &b| (w << 8) | u64::from(b));
        h = (h ^ word).wrapping_mul(K).rotate_left(31);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// A `Hasher` for keys that already are [`term_hash`] values: it passes
/// the one `u64` it is fed through unchanged.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct PreHashed(u64);

impl Hasher for PreHashed {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only `write_u64` is expected; fold anything else in FNV-style so
        // the hasher stays correct if used for another key type.
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    #[inline]
    fn write_u64(&mut self, h: u64) {
        self.0 = h;
    }
}

impl Default for Interner {
    fn default() -> Self {
        Interner {
            map: HashMap::default(),
            overflow: Vec::new(),
            text: String::new(),
            bounds: vec![0],
            synced: 0,
        }
    }
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an interner with capacity for `n` distinct strings.
    pub fn with_capacity(n: usize) -> Self {
        let mut bounds = Vec::with_capacity(n + 1);
        bounds.push(0);
        Interner {
            map: HashMap::with_capacity_and_hasher(n, Default::default()),
            bounds,
            ..Self::default()
        }
    }

    /// Adopts a dump of distinct strings, assigning symbol `i` to the
    /// `i`-th string — the inverse of [`Interner::iter`]. The strings are
    /// copied into the arena in one pass; the lookup map is *not* built
    /// here, it is synced lazily by the first `intern` call.
    ///
    /// The caller asserts the strings are distinct (snapshot dumps are, by
    /// construction: they are written from an interner). Duplicates are
    /// caught by a `debug_assert` when the map eventually syncs; in release
    /// builds a duplicate would resolve correctly but re-intern to the
    /// first occurrence.
    pub fn from_dump(strings: &[&str]) -> Self {
        let mut text = String::with_capacity(strings.iter().map(|s| s.len()).sum());
        let mut bounds = Vec::with_capacity(strings.len() + 1);
        bounds.push(0);
        for s in strings {
            text.push_str(s);
            bounds.push(text.len());
        }
        Interner {
            text,
            bounds,
            ..Self::default()
        }
    }

    #[inline]
    fn string(&self, i: usize) -> &str {
        &self.text[self.bounds[i]..self.bounds[i + 1]]
    }

    /// Indexes any strings appended since the last sync (no-op when the
    /// map is current).
    fn sync(&mut self) {
        if self.synced == self.len() {
            return;
        }
        self.map.reserve(self.len() - self.synced);
        for i in self.synced..self.len() {
            let sym = Symbol::from_index(i);
            let h = term_hash(self.string(i));
            if let Some(&first) = self.map.get(&h) {
                debug_assert_ne!(
                    self.string(first.index()),
                    self.string(i),
                    "duplicate string in interner dump at index {i}"
                );
                self.overflow.push(sym);
            } else {
                self.map.insert(h, sym);
            }
        }
        self.synced = self.len();
    }

    /// Interns `s`, returning its (stable) symbol.
    pub fn intern(&mut self, s: &str) -> Symbol {
        self.intern_hashed(s, term_hash(s))
    }

    /// Interns `s` whose [`term_hash`] the caller already computed.
    pub fn intern_hashed(&mut self, s: &str, h: u64) -> Symbol {
        debug_assert_eq!(h, term_hash(s), "stale hash for {s:?}");
        self.sync();
        let collided = match self.map.get(&h) {
            Some(&first) if self.string(first.index()) == s => return first,
            Some(_) => match self.find_in_overflow(s) {
                Some(sym) => return sym,
                None => true,
            },
            None => false,
        };
        let sym = Symbol::from_index(self.len());
        self.text.push_str(s);
        self.bounds.push(self.text.len());
        if collided {
            self.overflow.push(sym);
        } else {
            self.map.insert(h, sym);
        }
        self.synced = self.len();
        sym
    }

    fn find_in_overflow(&self, s: &str) -> Option<Symbol> {
        self.overflow
            .iter()
            .copied()
            .find(|sym| self.string(sym.index()) == s)
    }

    /// Returns the symbol for `s` if it was interned before.
    ///
    /// Works on an unsynced interner too: the indexed prefix is consulted
    /// through the map, the (normally empty) unsynced tail by linear scan.
    pub fn get(&self, s: &str) -> Option<Symbol> {
        let mapped = self
            .map
            .get(&term_hash(s))
            .copied()
            .filter(|sym| self.string(sym.index()) == s)
            .or_else(|| self.find_in_overflow(s));
        mapped.or_else(|| {
            (self.synced..self.len())
                .find(|&i| self.string(i) == s)
                .map(Symbol::from_index)
        })
    }

    /// Resolves a symbol back to its string.
    ///
    /// # Panics
    /// Panics if `sym` was not produced by this interner.
    #[inline]
    pub fn resolve(&self, sym: Symbol) -> &str {
        self.string(sym.index())
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over `(Symbol, &str)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &str)> {
        (0..self.len()).map(|i| (Symbol::from_index(i), self.string(i)))
    }
}

/// A clonable, thread-safe interner handle.
///
/// The multi-source framework shards work across threads; all shards intern
/// into the same table so that symbols remain comparable across sources.
#[derive(Debug, Clone, Default)]
pub struct SharedInterner(Arc<RwLock<Interner>>);

impl SharedInterner {
    /// Creates an empty shared interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wraps an existing interner.
    pub fn from_interner(inner: Interner) -> Self {
        SharedInterner(Arc::new(RwLock::new(inner)))
    }

    /// Shared access. An [`Interner`] update appends a string before it
    /// indexes it, and lookups also scan the unindexed tail, so a holder
    /// that panicked mid-update leaves a usable table: poisoning is
    /// recovered from.
    fn read(&self) -> RwLockReadGuard<'_, Interner> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Exclusive access, recovering from poisoning as [`Self::read`] does.
    fn write(&self) -> RwLockWriteGuard<'_, Interner> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Interns `s` (takes a read lock first for the common already-interned
    /// case, upgrading to a write lock only on a miss).
    pub fn intern(&self, s: &str) -> Symbol {
        if let Some(sym) = self.read().get(s) {
            return sym;
        }
        self.write().intern(s)
    }

    /// Returns the symbol for `s` if present.
    pub fn get(&self, s: &str) -> Option<Symbol> {
        self.read().get(s)
    }

    /// Resolves `sym` to an owned string.
    pub fn resolve(&self, sym: Symbol) -> String {
        self.read().resolve(sym).to_owned()
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.read().len()
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.read().is_empty()
    }

    /// Runs `f` with a shared reference to the underlying interner.
    pub fn with<R>(&self, f: impl FnOnce(&Interner) -> R) -> R {
        f(&self.read())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut i = Interner::with_capacity(4);
        assert!(i.is_empty());
        let a = i.intern("NASA");
        let b = i.intern("NASA");
        assert_eq!(a, b);
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn resolve_round_trips() {
        let mut i = Interner::new();
        let words = ["rocket_family", "space_program", "", "ünïcodé ✓"];
        let syms: Vec<Symbol> = words.iter().map(|w| i.intern(w)).collect();
        for (w, s) in words.iter().zip(&syms) {
            assert_eq!(i.resolve(*s), *w);
        }
    }

    #[test]
    fn symbols_are_dense_and_ordered_by_insertion() {
        let mut i = Interner::new();
        let a = i.intern("a");
        let c = i.intern("c");
        let b = i.intern("b");
        assert_eq!(a.index(), 0);
        assert_eq!(c.index(), 1);
        assert_eq!(b.index(), 2);
        assert!(a < c && c < b, "symbol order is insertion order");
    }

    #[test]
    fn term_hash_separates_zero_padded_tails() {
        // The last partial word is zero-padded; the length seed keeps a
        // trailing NUL from hashing like its absence.
        assert_ne!(term_hash("a"), term_hash("a\0"));
        assert_ne!(term_hash(""), term_hash("\0"));
        assert_ne!(term_hash("abcdefgh"), term_hash("abcdefgh\0"));
        let mut i = Interner::new();
        let (a, a0) = (i.intern("a"), i.intern("a\0"));
        assert_ne!(a, a0);
        assert_eq!(i.resolve(a0), "a\0");
    }

    #[test]
    fn from_dump_resolves_and_reinterns_lazily() {
        let mut i = Interner::from_dump(&["x", "", "ünï ✓"]);
        assert_eq!(i.len(), 3);
        assert_eq!(i.resolve(Symbol::from_index(2)), "ünï ✓");
        assert_eq!(i.get(""), Some(Symbol::from_index(1)), "unsynced lookup");
        assert_eq!(i.intern("x"), Symbol::from_index(0));
        assert_eq!(i.intern("new"), Symbol::from_index(3));
        assert_eq!(i.intern_hashed("y", term_hash("y")), Symbol::from_index(4));
    }

    #[test]
    fn get_does_not_intern() {
        let mut i = Interner::new();
        assert_eq!(i.get("x"), None);
        let s = i.intern("x");
        assert_eq!(i.get("x"), Some(s));
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn iter_yields_insertion_order() {
        let mut i = Interner::new();
        i.intern("one");
        i.intern("two");
        let collected: Vec<&str> = i.iter().map(|(_, s)| s).collect();
        assert_eq!(collected, vec!["one", "two"]);
    }

    #[test]
    fn shared_interner_is_consistent_across_clones() {
        let shared = SharedInterner::new();
        let s1 = shared.intern("golf");
        let clone = shared.clone();
        let s2 = clone.intern("golf");
        assert_eq!(s1, s2);
        assert_eq!(shared.resolve(s1), "golf");
        assert_eq!(shared.len(), 1);
    }

    #[test]
    fn shared_interner_recovers_from_a_poisoned_lock() {
        let shared = SharedInterner::new();
        let before = shared.intern("before");
        let holder = shared.clone();
        let died = std::thread::spawn(move || {
            let _guard = holder.write();
            panic!("holder dies with the write lock held");
        })
        .join();
        assert!(died.is_err());
        assert!(
            shared.0.is_poisoned(),
            "the holder's panic poisoned the lock"
        );
        assert_eq!(shared.get("before"), Some(before));
        let after = shared.intern("after");
        assert_eq!(shared.resolve(after), "after");
        assert_eq!(shared.intern("before"), before);
        assert_eq!(shared.len(), 2);
        assert_eq!(shared.with(|i| i.iter().count()), 2);
    }

    #[test]
    fn shared_interner_concurrent_interning_agrees() {
        let shared = SharedInterner::new();
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let sh = shared.clone();
                std::thread::spawn(move || {
                    (0..100)
                        .map(|k| sh.intern(&format!("key-{}", (k + t) % 50)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(shared.len(), 50);
    }
}
