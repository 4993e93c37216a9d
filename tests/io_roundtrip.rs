//! Integration: persistence round-trips across the kb, extract and core crates.

use midas::extract::synthetic::{generate, SyntheticConfig};
use midas::kb::io::{read_tsv, write_tsv};
use midas::prelude::*;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A generated corpus survives a TSV round-trip with identical slice
/// discovery results.
#[test]
fn tsv_round_trip_preserves_discovery() {
    let ds = generate(&SyntheticConfig::new(1_500, 20, 5, 2));
    let src = &ds.sources[0];

    let mut buf = Vec::new();
    write_tsv(&mut buf, &ds.terms, src.facts.iter().copied()).unwrap();

    let mut terms2 = Interner::new();
    let facts2 = read_tsv(&buf[..], &mut terms2).unwrap();
    assert_eq!(facts2.len(), src.facts.len());

    // Rebuild the KB in the new symbol space.
    let mut kb2 = KnowledgeBase::new();
    for f in ds.kb.iter() {
        kb2.insert(Fact::intern(
            &mut terms2,
            ds.terms.resolve(f.subject),
            ds.terms.resolve(f.predicate),
            ds.terms.resolve(f.object),
        ));
    }
    let src2 = SourceFacts::new(src.url.clone(), facts2);

    let alg = MidasAlg::new(MidasConfig::default());
    let s1 = alg.run(src, &ds.kb);
    let s2 = alg.run(&src2, &kb2);
    assert_eq!(s1.len(), s2.len());
    for (a, b) in s1.iter().zip(&s2) {
        assert_eq!(a.entities.len(), b.entities.len());
        assert_eq!(a.num_new_facts, b.num_new_facts);
        assert!((a.profit - b.profit).abs() < 1e-9);
    }
}

/// Terms with every awkward character survive a TSV round-trip.
#[test]
fn awkward_terms_survive_tsv() {
    let mut terms = Interner::new();
    let nasty = [
        ("tab\there", "new\nline", "back\\slash"),
        ("<angles>", "percent%25", "dot ."),
        ("ünïcode ✓", "emoji 🚀", "mixed\t<%\n>"),
    ];
    let facts: Vec<Fact> = nasty
        .iter()
        .map(|&(s, p, o)| Fact::intern(&mut terms, s, p, o))
        .collect();

    let mut buf = Vec::new();
    write_tsv(&mut buf, &terms, facts.iter().copied()).unwrap();
    let mut t2 = Interner::new();
    let back = read_tsv(&buf[..], &mut t2).unwrap();
    assert_eq!(back.len(), facts.len());
    for (orig, round) in facts.iter().zip(&back) {
        assert_eq!(terms.resolve(orig.subject), t2.resolve(round.subject));
        assert_eq!(terms.resolve(orig.predicate), t2.resolve(round.predicate));
        assert_eq!(terms.resolve(orig.object), t2.resolve(round.object));
    }
}

/// A scratch snapshot path unique to this process and call.
fn scratch_snapshot() -> std::path::PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "midas-io-roundtrip-{}-{}.snap",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Corpus snapshots round-trip arbitrary knowledge bases, non-ASCII
    /// terms included.
    #[test]
    fn corpus_snapshot_round_trips_kb(triples in proptest::collection::vec(any::<(u8, u8, u8)>(), 0..100)) {
        let mut terms = Interner::new();
        let mut kb = KnowledgeBase::new();
        for &(s, p, o) in &triples {
            kb.insert(Fact::intern(&mut terms, &format!("س{s}"), &format!("p{p}"), &format!("✓{o}")));
        }
        let path = scratch_snapshot();
        midas::core::snapshot::save_corpus(&path, 9, &terms, &[], &kb, &[]).unwrap();
        let loaded = midas::core::snapshot::load_corpus(&path, 9);
        std::fs::remove_file(&path).ok();
        let corpus = loaded.unwrap();
        prop_assert_eq!(corpus.kb.len(), kb.len());
        for f in kb.iter() {
            let f2 = Fact::new(
                corpus.terms.get(terms.resolve(f.subject)).unwrap(),
                corpus.terms.get(terms.resolve(f.predicate)).unwrap(),
                corpus.terms.get(terms.resolve(f.object)).unwrap(),
            );
            prop_assert!(corpus.kb.contains(&f2));
        }
    }
}
