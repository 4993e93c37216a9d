//! Per-source working sets.

use std::borrow::Borrow;

use midas_kb::{Column, Fact};
use midas_weburl::SourceUrl;

/// The deduplicated facts `T_W` extracted from one web source `W`.
///
/// Facts are held in a [`Column`], so a working set loaded from a corpus
/// snapshot borrows its facts directly from the memory-mapped file; cloning
/// such a column only bumps a reference count.
#[derive(Debug, Clone)]
pub struct SourceFacts {
    /// The source URL (at any granularity).
    pub url: SourceUrl,
    /// Distinct facts extracted from this source, sorted by `(s, p, o)`.
    pub facts: Column<Fact>,
}

impl SourceFacts {
    /// Builds a source working set, deduplicating facts.
    pub fn new(url: SourceUrl, mut facts: Vec<Fact>) -> Self {
        facts.sort_unstable();
        facts.dedup();
        SourceFacts {
            url,
            facts: facts.into(),
        }
    }

    /// Wraps an already-sorted, already-deduplicated fact column.
    ///
    /// Used by the snapshot loader, where the invariant was established when
    /// the column was written. Debug builds re-check it.
    pub fn from_sorted_column(url: SourceUrl, facts: Column<Fact>) -> Self {
        debug_assert!(facts.windows(2).all(|w| w[0] < w[1]));
        SourceFacts { url, facts }
    }

    /// `|T_W|` — the crawling-cost driver of Definition 9.
    pub fn len(&self) -> usize {
        self.facts.len()
    }

    /// Whether no facts were extracted.
    pub fn is_empty(&self) -> bool {
        self.facts.is_empty()
    }

    /// Merges several children working sets into their parent's: the
    /// sorted, deduplicated union of their facts. Children may be owned or
    /// borrowed; the union is gathered into one buffer sized up front.
    pub fn merge<S: Borrow<SourceFacts>>(
        url: SourceUrl,
        children: impl IntoIterator<Item = S>,
    ) -> Self {
        let children: Vec<S> = children.into_iter().collect();
        let total: usize = children.iter().map(|c| c.borrow().len()).sum();
        let mut facts = Vec::with_capacity(total);
        for c in &children {
            facts.extend_from_slice(&c.borrow().facts);
        }
        // The buffer is one sorted run per child; the stable sort merges
        // runs instead of re-sorting them (facts are totally ordered, so
        // the result equals an unstable sort's).
        facts.sort();
        facts.dedup();
        SourceFacts {
            url,
            facts: facts.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use midas_kb::Interner;

    #[test]
    fn new_deduplicates_and_sorts() {
        let mut t = Interner::new();
        let a = Fact::intern(&mut t, "a", "p", "1");
        let b = Fact::intern(&mut t, "b", "p", "2");
        let src = SourceFacts::new(
            SourceUrl::parse("http://x.com/page").unwrap(),
            vec![b, a, b, a],
        );
        assert_eq!(src.len(), 2);
        assert_eq!(&src.facts[..], &[a, b]);
    }

    #[test]
    fn merge_unions_children() {
        let mut t = Interner::new();
        let a = Fact::intern(&mut t, "a", "p", "1");
        let b = Fact::intern(&mut t, "b", "p", "2");
        let u = |s: &str| SourceUrl::parse(s).unwrap();
        let c1 = SourceFacts::new(u("http://x.com/d/1"), vec![a]);
        let c2 = SourceFacts::new(u("http://x.com/d/2"), vec![a, b]);
        let parent = SourceFacts::merge(u("http://x.com/d"), [c1, c2]);
        assert_eq!(parent.len(), 2);
        assert!(!parent.is_empty());
    }

    #[test]
    fn from_sorted_column_round_trips() {
        let mut t = Interner::new();
        let a = Fact::intern(&mut t, "a", "p", "1");
        let b = Fact::intern(&mut t, "b", "p", "2");
        let src = SourceFacts::from_sorted_column(
            SourceUrl::parse("http://x.com/page").unwrap(),
            vec![a, b].into(),
        );
        assert_eq!(src.len(), 2);
    }
}
