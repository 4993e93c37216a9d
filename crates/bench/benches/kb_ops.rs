//! Microbench: knowledge-base substrate operations — insert, membership
//! and conjunctive queries.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use midas_kb::{ConjunctiveQuery, Fact, Interner, KnowledgeBase};

fn build(n: usize) -> (Interner, KnowledgeBase, Vec<Fact>) {
    let mut terms = Interner::new();
    let mut facts = Vec::with_capacity(n);
    for i in 0..n {
        facts.push(Fact::intern(
            &mut terms,
            &format!("entity_{}", i % (n / 4).max(1)),
            &format!("pred_{}", i % 13),
            &format!("value_{}", i % 97),
        ));
    }
    let kb: KnowledgeBase = facts.iter().copied().collect();
    (terms, kb, facts)
}

fn bench_kb(c: &mut Criterion) {
    let (mut terms, kb, facts) = build(50_000);

    c.bench_function("kb/insert_50k", |b| {
        b.iter(|| {
            let mut fresh = KnowledgeBase::new();
            fresh.extend(facts.iter().copied());
            black_box(fresh.len())
        })
    });

    c.bench_function("kb/contains_hot", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for f in facts.iter().take(10_000) {
                if kb.contains(black_box(f)) {
                    hits += 1;
                }
            }
            hits
        })
    });

    let pred = terms.intern("pred_3");
    let value = terms.intern("value_42");
    c.bench_function("kb/conjunctive_query", |b| {
        let q = ConjunctiveQuery::new().with_property(pred, value);
        b.iter(|| black_box(q.count(&kb)))
    });
}

criterion_group!(benches, bench_kb);
criterion_main!(benches);
