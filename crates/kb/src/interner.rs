//! String interning.
//!
//! Every RDF term (subject, predicate, object) and every URL that flows
//! through the system is interned exactly once into a [`Symbol`] — a compact
//! `u32` handle. Slices, fact tables, and indexes then operate on `Copy`
//! integers instead of heap strings, which is what makes the slice-hierarchy
//! construction of MIDASalg cheap enough to run over millions of facts.

use crate::fnv::FnvHashMap;
use std::fmt;
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
/// The lookup table maps the 64-bit FNV-1a hash of a string to its symbol
/// instead of keying on an owned copy of the string. Each distinct term is
/// therefore heap-allocated exactly once (in `strings`), which matters on
/// the snapshot warm path where a six-figure term table is re-interned in
/// one burst. Distinct strings that collide on the full 64-bit hash are
/// parked in `overflow` and found by linear scan — with FNV-1a over short
/// terms that list stays empty in practice, but correctness never depends
/// on that.
///
/// The lookup table is also *lazy*: [`Interner::from_dump`] installs a
/// pre-deduplicated string table without indexing it, and the map is
/// synced on the first subsequent [`Interner::intern`]. A snapshot warm
/// run that only ever *resolves* symbols (discovery, reporting) never pays
/// for hashing and inserting hundreds of thousands of terms it will not
/// look up; runs that do intern afterwards (gold labels in eval) pay once,
/// on first use.
#[derive(Debug, Default)]
pub struct Interner {
    map: FnvHashMap<u64, Symbol>,
    overflow: Vec<Symbol>,
    strings: Vec<Box<str>>,
    /// How many of `strings` are indexed in `map`/`overflow`.
    synced: usize,
}

fn hash_str(s: &str) -> u64 {
    use std::hash::Hasher;
    let mut h = crate::fnv::FnvHasher::default();
    h.write(s.as_bytes());
    h.finish()
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an interner with capacity for `n` distinct strings.
    pub fn with_capacity(n: usize) -> Self {
        Interner {
            map: FnvHashMap::with_capacity_and_hasher(n, Default::default()),
            overflow: Vec::new(),
            strings: Vec::with_capacity(n),
            synced: 0,
        }
    }

    /// Adopts a dump of distinct strings, assigning symbol `i` to the
    /// `i`-th string — the inverse of [`Interner::iter`]. The lookup map is
    /// *not* built here; it is synced lazily by the first `intern` call.
    ///
    /// The caller asserts the strings are distinct (snapshot dumps are, by
    /// construction: they are written from an interner). Duplicates are
    /// caught by a `debug_assert` when the map eventually syncs; in release
    /// builds a duplicate would resolve correctly but re-intern to the
    /// first occurrence.
    pub fn from_dump(strings: Vec<Box<str>>) -> Self {
        Interner {
            map: FnvHashMap::default(),
            overflow: Vec::new(),
            strings,
            synced: 0,
        }
    }

    /// Indexes any strings appended since the last sync (no-op when the
    /// map is current).
    fn sync(&mut self) {
        if self.synced == self.strings.len() {
            return;
        }
        self.map.reserve(self.strings.len() - self.synced);
        for i in self.synced..self.strings.len() {
            let sym = Symbol::from_index(i);
            let h = hash_str(&self.strings[i]);
            match self.map.entry(h) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    debug_assert_ne!(
                        &*self.strings[e.get().index()],
                        &*self.strings[i],
                        "duplicate string in interner dump at index {i}"
                    );
                    self.overflow.push(sym);
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(sym);
                }
            }
        }
        self.synced = self.strings.len();
    }

    /// Interns `s`, returning its (stable) symbol.
    pub fn intern(&mut self, s: &str) -> Symbol {
        self.sync();
        let h = hash_str(s);
        match self.map.entry(h) {
            std::collections::hash_map::Entry::Occupied(e) => {
                let first = *e.get();
                if &*self.strings[first.index()] == s {
                    return first;
                }
                if let Some(sym) = self.find_in_overflow(s) {
                    return sym;
                }
                let sym = Symbol::from_index(self.strings.len());
                self.strings.push(s.into());
                self.overflow.push(sym);
                self.synced = self.strings.len();
                sym
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                let sym = Symbol::from_index(self.strings.len());
                self.strings.push(s.into());
                e.insert(sym);
                self.synced = self.strings.len();
                sym
            }
        }
    }

    fn find_in_overflow(&self, s: &str) -> Option<Symbol> {
        self.overflow
            .iter()
            .copied()
            .find(|sym| &*self.strings[sym.index()] == s)
    }

    /// Returns the symbol for `s` if it was interned before.
    ///
    /// Works on an unsynced interner too: the indexed prefix is consulted
    /// through the map, the (normally empty) unsynced tail by linear scan.
    pub fn get(&self, s: &str) -> Option<Symbol> {
        let mapped = self
            .map
            .get(&hash_str(s))
            .copied()
            .filter(|sym| &*self.strings[sym.index()] == s)
            .or_else(|| self.find_in_overflow(s));
        mapped.or_else(|| {
            self.strings[self.synced..]
                .iter()
                .position(|t| &**t == s)
                .map(|i| Symbol::from_index(self.synced + i))
        })
    }

    /// Resolves a symbol back to its string.
    ///
    /// # Panics
    /// Panics if `sym` was not produced by this interner.
    pub fn resolve(&self, sym: Symbol) -> &str {
        &self.strings[sym.index()]
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Iterates over `(Symbol, &str)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &str)> {
        self.strings
            .iter()
            .enumerate()
            .map(|(i, s)| (Symbol::from_index(i), s.as_ref()))
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
        let mut i = Interner::new();
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
