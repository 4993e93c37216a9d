//! Property-based tests of the knowledge-base substrate.

use midas_kb::{Fact, Interner, KnowledgeBase};
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

    /// The knowledge base answers every question the engine asks exactly
    /// as a reference `BTreeSet<Fact>` does: bulk loads from unordered
    /// input with duplicates, single and batch inserts, membership and
    /// new-fact counts, size, and SPO iteration order.
    #[test]
    fn kb_matches_reference_set(
        loaded in proptest::collection::vec(any::<(u8, u8, u8)>(), 0..150),
        added in proptest::collection::vec(any::<(u8, u8, u8)>(), 0..60),
        probes in proptest::collection::vec(any::<(u8, u8, u8)>(), 0..40),
    ) {
        let mut terms = Interner::new();
        let mut facts = |rows: &[(u8, u8, u8)]| -> Vec<Fact> {
            rows.iter()
                .map(|&(s, p, o)| Fact::intern(&mut terms, &format!("s{}", s % 16), &format!("p{}", p % 8), &format!("o{}", o % 16)))
                .collect()
        };
        let (loaded, added, probes) = (facts(&loaded), facts(&added), facts(&probes));

        let mut kb = KnowledgeBase::from_facts(&loaded);
        let mut reference: BTreeSet<Fact> = loaded.iter().copied().collect();
        prop_assert_eq!(kb.len(), reference.len());
        let (one_by_one, batch) = added.split_at(added.len() / 2);
        for &f in one_by_one {
            prop_assert_eq!(kb.insert(f), reference.insert(f));
        }
        let fresh = batch.iter().filter(|&&f| reference.insert(f)).count();
        prop_assert_eq!(kb.extend(batch.iter().copied()), fresh);

        prop_assert_eq!(kb.len(), reference.len());
        prop_assert_eq!(kb.is_empty(), reference.is_empty());
        prop_assert!(kb.iter().eq(reference.iter().copied()));
        for f in &probes {
            prop_assert_eq!(kb.contains(f), reference.contains(f));
            prop_assert_eq!(kb.is_new(f), !reference.contains(f));
        }
        let absent = probes.iter().filter(|f| !reference.contains(f)).count();
        prop_assert_eq!(kb.count_new(&probes), absent);

        // Rebuilding from the contents reversed and doubled, in bulk or
        // by collecting, lands on the same set.
        let shuffled: Vec<Fact> = reference.iter().rev().chain(&reference).copied().collect();
        prop_assert!(KnowledgeBase::from_facts(&shuffled).iter().eq(kb.iter()));
        let collected: KnowledgeBase = shuffled.into_iter().collect();
        prop_assert!(collected.iter().eq(kb.iter()));
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
