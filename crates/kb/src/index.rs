//! Triple permutation indexes.
//!
//! A [`TripleIndex`] stores each fact in three `BTreeSet` permutations —
//! SPO, POS, and OSP — so that every access pattern MIDAS needs is a
//! contiguous range scan:
//!
//! * *all facts of an entity* → SPO prefix scan on `s`,
//! * *all entities with property `(p, o)`* → POS prefix scan on `(p, o)`,
//! * *all values of a predicate* → POS prefix scan on `p`,
//! * *all facts mentioning an object* → OSP prefix scan on `o`.

use crate::fact::Fact;
use crate::interner::Symbol;
use std::collections::BTreeSet;
use std::ops::Bound;

/// Smallest possible symbol, used as an inclusive range start.
fn sym_min() -> Symbol {
    Symbol::from_index(0)
}

/// Largest possible symbol, used as an inclusive range end.
fn sym_max() -> Symbol {
    Symbol::from_index(u32::MAX as usize)
}

/// A three-permutation triple index.
#[derive(Debug, Default, Clone)]
pub struct TripleIndex {
    spo: BTreeSet<(Symbol, Symbol, Symbol)>,
    pos: BTreeSet<(Symbol, Symbol, Symbol)>,
    osp: BTreeSet<(Symbol, Symbol, Symbol)>,
}

impl TripleIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the index from `facts` in bulk: each permutation is sorted
    /// once and its tree built bottom-up (`BTreeSet`'s `FromIterator`), with
    /// densely packed nodes, instead of by one insert per fact. Duplicates
    /// collapse; the input order does not matter.
    pub fn from_facts(facts: &[Fact]) -> Self {
        TripleIndex {
            spo: facts
                .iter()
                .map(|f| (f.subject, f.predicate, f.object))
                .collect(),
            pos: facts
                .iter()
                .map(|f| (f.predicate, f.object, f.subject))
                .collect(),
            osp: facts
                .iter()
                .map(|f| (f.object, f.subject, f.predicate))
                .collect(),
        }
    }

    /// Inserts a fact; returns `true` if it was not present before.
    pub fn insert(&mut self, f: Fact) -> bool {
        let fresh = self.spo.insert((f.subject, f.predicate, f.object));
        if fresh {
            self.pos.insert((f.predicate, f.object, f.subject));
            self.osp.insert((f.object, f.subject, f.predicate));
        }
        fresh
    }

    /// Removes a fact; returns `true` if it was present.
    pub fn remove(&mut self, f: &Fact) -> bool {
        let had = self.spo.remove(&(f.subject, f.predicate, f.object));
        if had {
            self.pos.remove(&(f.predicate, f.object, f.subject));
            self.osp.remove(&(f.object, f.subject, f.predicate));
        }
        had
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, f: &Fact) -> bool {
        self.spo.contains(&(f.subject, f.predicate, f.object))
    }

    /// Number of distinct facts.
    pub fn len(&self) -> usize {
        self.spo.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.spo.is_empty()
    }

    /// Iterates all facts in SPO order.
    pub fn iter(&self) -> impl Iterator<Item = Fact> + '_ {
        self.spo.iter().map(|&(s, p, o)| Fact::new(s, p, o))
    }

    /// All facts whose subject is `s`.
    pub fn facts_for_subject(&self, s: Symbol) -> impl Iterator<Item = Fact> + '_ {
        self.spo
            .range((
                Bound::Included((s, sym_min(), sym_min())),
                Bound::Included((s, sym_max(), sym_max())),
            ))
            .map(|&(s, p, o)| Fact::new(s, p, o))
    }

    /// All facts whose predicate is `p`, in `(object, subject)` order.
    pub fn facts_for_predicate(&self, p: Symbol) -> impl Iterator<Item = Fact> + '_ {
        self.pos
            .range((
                Bound::Included((p, sym_min(), sym_min())),
                Bound::Included((p, sym_max(), sym_max())),
            ))
            .map(|&(p, o, s)| Fact::new(s, p, o))
    }

    /// All subjects that carry property `(p, o)` — the extent of a MIDAS
    /// property (Definition 4).
    pub fn subjects_with_property(
        &self,
        p: Symbol,
        o: Symbol,
    ) -> impl Iterator<Item = Symbol> + '_ {
        self.pos
            .range((
                Bound::Included((p, o, sym_min())),
                Bound::Included((p, o, sym_max())),
            ))
            .map(|&(_, _, s)| s)
    }

    /// All facts whose object is `o`.
    pub fn facts_for_object(&self, o: Symbol) -> impl Iterator<Item = Fact> + '_ {
        self.osp
            .range((
                Bound::Included((o, sym_min(), sym_min())),
                Bound::Included((o, sym_max(), sym_max())),
            ))
            .map(|&(o, s, p)| Fact::new(s, p, o))
    }

    /// Distinct subjects, in symbol order.
    pub fn subjects(&self) -> Vec<Symbol> {
        let mut out = Vec::new();
        let mut last: Option<Symbol> = None;
        for &(s, _, _) in &self.spo {
            if last != Some(s) {
                out.push(s);
                last = Some(s);
            }
        }
        out
    }

    /// Distinct predicates, in symbol order.
    pub fn predicates(&self) -> Vec<Symbol> {
        let mut out = Vec::new();
        let mut last: Option<Symbol> = None;
        for &(p, _, _) in &self.pos {
            if last != Some(p) {
                out.push(p);
                last = Some(p);
            }
        }
        out
    }

    /// Number of distinct `(subject, predicate)` pairs — the `m` of the
    /// paper's Proposition 15 complexity bound.
    pub fn distinct_subject_predicate_pairs(&self) -> usize {
        let mut count = 0;
        let mut last: Option<(Symbol, Symbol)> = None;
        for &(s, p, _) in &self.spo {
            if last != Some((s, p)) {
                count += 1;
                last = Some((s, p));
            }
        }
        count
    }
}

impl FromIterator<Fact> for TripleIndex {
    fn from_iter<I: IntoIterator<Item = Fact>>(iter: I) -> Self {
        let mut idx = TripleIndex::new();
        for f in iter {
            idx.insert(f);
        }
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interner::Interner;

    fn sample() -> (Interner, TripleIndex) {
        let mut t = Interner::new();
        let rows = [
            ("mercury", "category", "space_program"),
            ("mercury", "started", "1959"),
            ("mercury", "sponsor", "NASA"),
            ("gemini", "category", "space_program"),
            ("gemini", "sponsor", "NASA"),
            ("atlas", "category", "rocket_family"),
            ("atlas", "sponsor", "NASA"),
            ("atlas", "started", "1957"),
        ];
        let idx = rows
            .iter()
            .map(|(s, p, o)| Fact::intern(&mut t, s, p, o))
            .collect();
        (t, idx)
    }

    #[test]
    fn insert_is_set_semantics() {
        let (mut t, mut idx) = sample();
        let dup = Fact::intern(&mut t, "mercury", "sponsor", "NASA");
        assert!(!idx.insert(dup));
        assert_eq!(idx.len(), 8);
    }

    #[test]
    fn remove_clears_all_permutations() {
        let (mut t, mut idx) = sample();
        let f = Fact::intern(&mut t, "atlas", "started", "1957");
        assert!(idx.remove(&f));
        assert!(!idx.contains(&f));
        assert!(!idx.remove(&f));
        assert!(idx.facts_for_subject(f.subject).all(|g| g != f));
        assert!(idx.facts_for_predicate(f.predicate).all(|g| g != f));
        assert!(idx.facts_for_object(f.object).all(|g| g != f));
    }

    #[test]
    fn subject_scan_returns_exactly_entity_facts() {
        let (mut t, idx) = sample();
        let mercury = t.intern("mercury");
        let facts: Vec<Fact> = idx.facts_for_subject(mercury).collect();
        assert_eq!(facts.len(), 3);
        assert!(facts.iter().all(|f| f.subject == mercury));
    }

    #[test]
    fn property_extent_matches_definition_4() {
        let (mut t, idx) = sample();
        let category = t.intern("category");
        let space = t.intern("space_program");
        let subs: Vec<Symbol> = idx.subjects_with_property(category, space).collect();
        assert_eq!(subs.len(), 2);
        let names: Vec<&str> = subs.iter().map(|&s| t.resolve(s)).collect();
        assert!(names.contains(&"mercury") && names.contains(&"gemini"));
    }

    #[test]
    fn predicate_scan_covers_all_sources() {
        let (mut t, idx) = sample();
        let sponsor = t.intern("sponsor");
        assert_eq!(idx.facts_for_predicate(sponsor).count(), 3);
    }

    #[test]
    fn object_scan_finds_all_mentions() {
        let (mut t, idx) = sample();
        let nasa = t.intern("NASA");
        assert_eq!(idx.facts_for_object(nasa).count(), 3);
    }

    #[test]
    fn distinct_enumerations() {
        let (_, idx) = sample();
        assert_eq!(idx.subjects().len(), 3);
        assert_eq!(idx.predicates().len(), 3);
        assert_eq!(idx.distinct_subject_predicate_pairs(), 8);
    }

    #[test]
    fn iter_is_sorted_spo() {
        let (_, idx) = sample();
        let facts: Vec<Fact> = idx.iter().collect();
        let mut sorted = facts.clone();
        sorted.sort();
        assert_eq!(facts, sorted);
    }

    #[test]
    fn empty_index_behaviour() {
        let idx = TripleIndex::new();
        assert!(idx.is_empty());
        assert_eq!(idx.len(), 0);
        assert_eq!(idx.subjects().len(), 0);
        assert_eq!(idx.predicates().len(), 0);
        assert_eq!(idx.distinct_subject_predicate_pairs(), 0);
    }
}
