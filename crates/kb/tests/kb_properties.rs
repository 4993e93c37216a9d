//! Property-based tests of the knowledge-base substrate.

use midas_kb::{ConjunctiveQuery, Fact, Interner, KnowledgeBase};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// TSV IO round-trips arbitrary (printable) terms.
fn tsv_rows_round_trip(rows: &[(String, String, String)]) -> TestCaseResult {
    let mut terms = Interner::new();
    let facts: Vec<Fact> = rows
        .iter()
        .map(|(s, p, o)| Fact::intern(&mut terms, s, p, o))
        .collect();
    let mut buf = Vec::new();
    midas_kb::io::write_tsv(&mut buf, &terms, facts.iter().copied()).unwrap();
    let mut terms2 = Interner::new();
    let back = midas_kb::io::read_tsv(&buf[..], &mut terms2).unwrap();
    prop_assert_eq!(back.len(), facts.len());
    for (a, b) in facts.iter().zip(&back) {
        prop_assert_eq!(terms.resolve(a.subject), terms2.resolve(b.subject));
        prop_assert_eq!(terms.resolve(a.predicate), terms2.resolve(b.predicate));
        prop_assert_eq!(terms.resolve(a.object), terms2.resolve(b.object));
    }
    Ok(())
}

proptest! {
    /// Interning any set of strings round-trips and is injective.
    #[test]
    fn interner_round_trip(words in proptest::collection::vec(".{0,24}", 0..60)) {
        let mut interner = Interner::new();
        let syms: Vec<_> = words.iter().map(|w| interner.intern(w)).collect();
        for (w, &s) in words.iter().zip(&syms) {
            prop_assert_eq!(interner.resolve(s), w.as_str());
        }
        // Distinct strings get distinct symbols.
        let distinct_words: BTreeSet<&str> = words.iter().map(String::as_str).collect();
        let distinct_syms: BTreeSet<_> = syms.iter().copied().collect();
        prop_assert_eq!(distinct_words.len(), distinct_syms.len());
        prop_assert_eq!(interner.len(), distinct_words.len());
    }

    /// The three permutation indexes always agree with a reference set.
    #[test]
    fn index_permutations_agree(triples in proptest::collection::vec(any::<(u8, u8, u8)>(), 0..150)) {
        let mut terms = Interner::new();
        let mut kb = KnowledgeBase::new();
        let mut reference: BTreeSet<Fact> = BTreeSet::new();
        for &(s, p, o) in &triples {
            let f = Fact::intern(&mut terms, &format!("s{}", s % 16), &format!("p{}", p % 8), &format!("o{}", o % 16));
            kb.insert(f);
            reference.insert(f);
        }
        prop_assert_eq!(kb.len(), reference.len());
        // Subject scans cover exactly the reference facts.
        let via_subjects: BTreeSet<Fact> = kb
            .subjects()
            .into_iter()
            .flat_map(|s| kb.facts_for_subject(s).collect::<Vec<_>>())
            .collect();
        prop_assert_eq!(&via_subjects, &reference);
        // Predicate scans too.
        let via_preds: BTreeSet<Fact> = kb
            .predicates()
            .into_iter()
            .flat_map(|p| kb.index().facts_for_predicate(p).collect::<Vec<_>>())
            .collect();
        prop_assert_eq!(&via_preds, &reference);
    }

    /// Conjunctive queries match a naive per-entity filter.
    #[test]
    fn query_matches_naive_filter(triples in proptest::collection::vec(any::<(u8, u8, u8)>(), 1..120), qp in 0u8..8, qo in 0u8..16) {
        let mut terms = Interner::new();
        let mut kb = KnowledgeBase::new();
        for &(s, p, o) in &triples {
            kb.insert(Fact::intern(&mut terms, &format!("s{}", s % 16), &format!("p{}", p % 8), &format!("o{}", o % 16)));
        }
        let pred = terms.intern(&format!("p{}", qp % 8));
        let val = terms.intern(&format!("o{}", qo % 16));
        let q = ConjunctiveQuery::new().with_property(pred, val);
        let fast: BTreeSet<_> = q.select(&kb).into_iter().collect();
        let slow: BTreeSet<_> = kb
            .subjects()
            .into_iter()
            .filter(|&s| {
                kb.facts_for_subject(s)
                    .any(|f| f.predicate == pred && f.object == val)
            })
            .collect();
        prop_assert_eq!(fast, slow);
    }

    /// See [`tsv_rows_round_trip`].
    #[test]
    fn tsv_round_trip(rows in proptest::collection::vec(("[ -~]{1,12}", "[ -~]{1,12}", "[ -~]{1,12}"), 0..40)) {
        tsv_rows_round_trip(&rows)?;
    }
}

/// A failing input recorded by an earlier proptest run, re-run through the
/// TSV round-trip property. The in-repo proptest shim only generates fresh
/// cases, so recorded inputs are pinned here as plain tests.
#[test]
fn recorded_regression_rows() {
    let rows = [("#".to_owned(), "a".to_owned(), " ".to_owned())];
    if let Err(e) = tsv_rows_round_trip(&rows) {
        panic!("{e}");
    }
}
