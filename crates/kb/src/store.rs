//! The knowledge base.
//!
//! [`KnowledgeBase`] is the "existing knowledge base `E`" of the paper's
//! problem definition (Definition 8). MIDAS only ever asks it membership
//! questions (`is this extracted fact new?`) and loads facts into it, so the
//! store is one ordered fact set. [`Fact`] orders by `(subject, predicate,
//! object)`, so iteration is in SPO order.

use crate::fact::Fact;
use std::collections::BTreeSet;

/// A set of RDF facts, iterated in SPO order.
#[derive(Debug, Default, Clone)]
pub struct KnowledgeBase {
    facts: BTreeSet<Fact>,
}

impl KnowledgeBase {
    /// Creates an empty knowledge base (the "creation" scenario of the
    /// paper, used for the ReVerb/NELL experiments).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a knowledge base from `facts` in bulk: the facts are sorted
    /// once and the tree built bottom-up (`BTreeSet`'s `FromIterator`), with
    /// densely packed nodes, instead of by one insert per fact. Duplicates
    /// collapse; the input order does not matter.
    pub fn from_facts(facts: &[Fact]) -> Self {
        KnowledgeBase {
            facts: facts.iter().copied().collect(),
        }
    }

    /// Inserts a fact; returns `true` if it was new.
    pub fn insert(&mut self, f: Fact) -> bool {
        self.facts.insert(f)
    }

    /// Bulk-inserts facts; returns how many were new.
    pub fn extend(&mut self, facts: impl IntoIterator<Item = Fact>) -> usize {
        facts.into_iter().filter(|&f| self.facts.insert(f)).count()
    }

    /// Whether the knowledge base already contains `f`.
    #[inline]
    pub fn contains(&self, f: &Fact) -> bool {
        self.facts.contains(f)
    }

    /// Whether `f` is *new* with respect to this knowledge base — the
    /// predicate at the heart of the gain function `G(S) = |∪S \ E|`.
    #[inline]
    pub fn is_new(&self, f: &Fact) -> bool {
        !self.facts.contains(f)
    }

    /// Counts how many of `facts` are absent from the knowledge base.
    pub fn count_new<'a>(&self, facts: impl IntoIterator<Item = &'a Fact>) -> usize {
        facts.into_iter().filter(|f| self.is_new(f)).count()
    }

    /// Number of stored facts.
    pub fn len(&self) -> usize {
        self.facts.len()
    }

    /// Whether the knowledge base holds no facts.
    pub fn is_empty(&self) -> bool {
        self.facts.is_empty()
    }

    /// Iterates all facts in SPO order.
    pub fn iter(&self) -> impl Iterator<Item = Fact> + '_ {
        self.facts.iter().copied()
    }
}

impl FromIterator<Fact> for KnowledgeBase {
    fn from_iter<I: IntoIterator<Item = Fact>>(iter: I) -> Self {
        KnowledgeBase {
            facts: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interner::Interner;

    fn sample() -> (Interner, KnowledgeBase) {
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
        let kb = rows
            .iter()
            .map(|(s, p, o)| Fact::intern(&mut t, s, p, o))
            .collect();
        (t, kb)
    }

    #[test]
    fn new_fact_detection_drives_gain() {
        let mut t = Interner::new();
        let known = Fact::intern(&mut t, "mercury", "sponsor", "NASA");
        let unknown = Fact::intern(&mut t, "atlas", "sponsor", "NASA");
        let kb: KnowledgeBase = [known].into_iter().collect();
        assert!(!kb.is_new(&known));
        assert!(kb.is_new(&unknown));
        assert_eq!(kb.count_new([&known, &unknown]), 1);
    }

    #[test]
    fn extend_reports_only_fresh_inserts() {
        let mut t = Interner::new();
        let a = Fact::intern(&mut t, "a", "p", "1");
        let b = Fact::intern(&mut t, "b", "p", "2");
        let mut kb = KnowledgeBase::new();
        assert_eq!(kb.extend([a, b, a]), 2);
        assert_eq!(kb.len(), 2);
        assert_eq!(kb.extend([a]), 0);
    }

    #[test]
    fn empty_kb_treats_everything_as_new() {
        let mut t = Interner::new();
        let f = Fact::intern(&mut t, "x", "y", "z");
        let kb = KnowledgeBase::new();
        assert!(kb.is_empty());
        assert!(kb.is_new(&f));
    }

    #[test]
    fn insert_is_set_semantics() {
        let (mut t, mut kb) = sample();
        let dup = Fact::intern(&mut t, "mercury", "sponsor", "NASA");
        assert!(!kb.insert(dup));
        assert_eq!(kb.len(), 8);
    }

    #[test]
    fn iter_is_sorted_spo() {
        let (_, kb) = sample();
        let facts: Vec<Fact> = kb.iter().collect();
        let mut sorted = facts.clone();
        sorted.sort_by_key(|f| (f.subject, f.predicate, f.object));
        assert_eq!(facts, sorted);
    }

    #[test]
    fn bulk_build_matches_inserts() {
        let mut t = Interner::new();
        let facts: Vec<Fact> = (0..40)
            .map(|i| {
                Fact::intern(
                    &mut t,
                    &format!("s{}", (i * 7) % 13),
                    &format!("p{}", i % 3),
                    &format!("o{}", (i * 5) % 11),
                )
            })
            .collect();
        let mut inserted = KnowledgeBase::new();
        for &f in facts.iter().rev() {
            inserted.insert(f);
        }
        let bulk = KnowledgeBase::from_facts(&facts);
        assert_eq!(bulk.len(), inserted.len());
        assert!(bulk.iter().eq(inserted.iter()));
        assert!(facts.iter().all(|f| bulk.contains(f)));
        let collected: KnowledgeBase = facts.iter().rev().copied().collect();
        assert!(collected.iter().eq(bulk.iter()));
    }
}
