//! The knowledge base.
//!
//! [`KnowledgeBase`] is the "existing knowledge base `E`" of the paper's
//! problem definition (Definition 8). MIDAS only ever asks it membership
//! questions (`is this extracted fact new?`) and loads facts into it, so the
//! store is a thin, well-indexed wrapper over [`TripleIndex`].

use crate::fact::Fact;
use crate::index::TripleIndex;
use crate::interner::Symbol;
use crate::stats::DatasetStats;

/// A set of RDF facts with permutation indexes.
#[derive(Debug, Default, Clone)]
pub struct KnowledgeBase {
    index: TripleIndex,
}

impl KnowledgeBase {
    /// Creates an empty knowledge base (the "creation" scenario of the
    /// paper, used for the ReVerb/NELL experiments).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a knowledge base from `facts` in bulk (see
    /// [`TripleIndex::from_facts`]). Duplicates collapse.
    pub fn from_facts(facts: &[Fact]) -> Self {
        KnowledgeBase {
            index: TripleIndex::from_facts(facts),
        }
    }

    /// Inserts a fact; returns `true` if it was new.
    pub fn insert(&mut self, f: Fact) -> bool {
        self.index.insert(f)
    }

    /// Bulk-inserts facts; returns how many were new.
    pub fn extend(&mut self, facts: impl IntoIterator<Item = Fact>) -> usize {
        facts.into_iter().filter(|&f| self.index.insert(f)).count()
    }

    /// Removes a fact; returns `true` if it was present.
    pub fn remove(&mut self, f: &Fact) -> bool {
        self.index.remove(f)
    }

    /// Whether the knowledge base already contains `f`.
    #[inline]
    pub fn contains(&self, f: &Fact) -> bool {
        self.index.contains(f)
    }

    /// Whether `f` is *new* with respect to this knowledge base — the
    /// predicate at the heart of the gain function `G(S) = |∪S \ E|`.
    #[inline]
    pub fn is_new(&self, f: &Fact) -> bool {
        !self.index.contains(f)
    }

    /// Counts how many of `facts` are absent from the knowledge base.
    pub fn count_new<'a>(&self, facts: impl IntoIterator<Item = &'a Fact>) -> usize {
        facts.into_iter().filter(|f| self.is_new(f)).count()
    }

    /// Number of stored facts.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the knowledge base holds no facts.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Iterates all facts in SPO order.
    pub fn iter(&self) -> impl Iterator<Item = Fact> + '_ {
        self.index.iter()
    }

    /// All facts about entity `s`.
    pub fn facts_for_subject(&self, s: Symbol) -> impl Iterator<Item = Fact> + '_ {
        self.index.facts_for_subject(s)
    }

    /// Read access to the underlying permutation indexes.
    pub fn index(&self) -> &TripleIndex {
        &self.index
    }

    /// Distinct predicates stored.
    pub fn predicates(&self) -> Vec<Symbol> {
        self.index.predicates()
    }

    /// Distinct subjects stored.
    pub fn subjects(&self) -> Vec<Symbol> {
        self.index.subjects()
    }

    /// Dataset-level statistics of the stored facts (no URL information at
    /// this layer; see `midas_extract::Corpus::stats` for the Figure 7 rows).
    pub fn stats(&self) -> DatasetStats {
        DatasetStats {
            num_facts: self.len(),
            num_predicates: self.index.predicates().len(),
            num_subjects: self.index.subjects().len(),
            num_urls: 0,
        }
    }
}

impl FromIterator<Fact> for KnowledgeBase {
    fn from_iter<I: IntoIterator<Item = Fact>>(iter: I) -> Self {
        let facts: Vec<Fact> = iter.into_iter().collect();
        KnowledgeBase::from_facts(&facts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interner::Interner;

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
        for &f in &facts {
            assert!(bulk.contains(&f));
            assert!(bulk
                .index()
                .facts_for_predicate(f.predicate)
                .eq(inserted.index().facts_for_predicate(f.predicate)));
            assert!(bulk
                .index()
                .facts_for_object(f.object)
                .eq(inserted.index().facts_for_object(f.object)));
        }
    }

    #[test]
    fn remove_round_trips() {
        let mut t = Interner::new();
        let f = Fact::intern(&mut t, "x", "y", "z");
        let mut kb = KnowledgeBase::new();
        kb.insert(f);
        assert!(kb.remove(&f));
        assert!(kb.is_new(&f));
        assert!(!kb.remove(&f));
    }

    #[test]
    fn stats_reflect_contents() {
        let mut t = Interner::new();
        let kb: KnowledgeBase = [
            Fact::intern(&mut t, "a", "p", "1"),
            Fact::intern(&mut t, "a", "q", "2"),
            Fact::intern(&mut t, "b", "p", "1"),
        ]
        .into_iter()
        .collect();
        let s = kb.stats();
        assert_eq!(s.num_facts, 3);
        assert_eq!(s.num_predicates, 2);
        assert_eq!(s.num_subjects, 2);
    }
}
