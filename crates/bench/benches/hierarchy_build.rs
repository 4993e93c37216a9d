//! Microbench: slice-hierarchy construction (§III-A step 1) as the source
//! grows — the dominant cost of MIDASalg (Proposition 15: O(m·|P|)).
//!
//! The `hierarchy_build_seed` group runs the same construction through the
//! seed-era reference port (`midas_bench::seed_reference`) so the extent
//! engine's speedup is measurable inside one binary.
//!
//! `dense_page` builds one page shaped like the dense benchmark corpus:
//! 250 entities with five nested low-cardinality properties and one unique
//! serial each, so seeding and the closed-set walk dominate.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use midas_bench::seed_reference::{SeedHierarchy, SeedLists};
use midas_core::{FactTable, MidasConfig, ProfitCtx, SliceHierarchy, SourceFacts};
use midas_extract::synthetic::{generate, SyntheticConfig};
use midas_kb::{Fact, Interner, KnowledgeBase};
use midas_weburl::SourceUrl;

fn bench_hierarchy(c: &mut Criterion) {
    midas_bench::install_metrics_hook();
    let mut group = c.benchmark_group("hierarchy_build");
    group.sample_size(20);
    for &n in &[5_000usize, 20_000, 50_000] {
        let ds = generate(&SyntheticConfig::new(n, 20, 10, 42));
        let cfg = MidasConfig::default();
        let table = FactTable::build(&ds.sources[0], &ds.kb);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let ctx = ProfitCtx::new(&table, cfg.cost);
                SliceHierarchy::build(&table, &ctx, &cfg).len()
            })
        });
    }
    group.finish();
}

/// One dense page: `kind` and `site` are shared by all 250 entities,
/// `group`, `band` and `tier` nest (`e % 4`, `e % 8`, `e % 16`), and
/// `serial` is unique.
fn dense_page() -> FactTable {
    let mut terms = Interner::new();
    let mut facts = Vec::new();
    for e in 0..250 {
        let name = format!("e{e}");
        for (pred, value) in [
            ("kind", "vertical0".to_owned()),
            ("site", "dir0".to_owned()),
            ("group", format!("g{}", e % 4)),
            ("band", format!("b{}", e % 8)),
            ("tier", format!("t{}", e % 16)),
            ("serial", format!("s{e}")),
        ] {
            facts.push(Fact::intern(&mut terms, &name, pred, &value));
        }
    }
    let url = SourceUrl::parse("http://domain0.example.org/dir/page0.html").expect("page url");
    FactTable::build(&SourceFacts::new(url, facts), &KnowledgeBase::new())
}

fn bench_dense_page(c: &mut Criterion) {
    let table = dense_page();
    let cfg = MidasConfig::default();
    c.bench_function("hierarchy_build/dense_page", |b| {
        b.iter(|| {
            let ctx = ProfitCtx::new(&table, cfg.cost);
            SliceHierarchy::build(&table, &ctx, &cfg).len()
        })
    });
}

fn bench_hierarchy_seed(c: &mut Criterion) {
    let mut group = c.benchmark_group("hierarchy_build_seed");
    group.sample_size(10);
    for &n in &[5_000usize, 20_000, 50_000] {
        let ds = generate(&SyntheticConfig::new(n, 20, 10, 42));
        let cfg = MidasConfig::default();
        let table = FactTable::build(&ds.sources[0], &ds.kb);
        let lists = SeedLists::from_table(&table);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let ctx = ProfitCtx::new(&table, cfg.cost);
                SeedHierarchy::build(&table, &lists, &ctx, &cfg).len()
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_hierarchy,
    bench_dense_page,
    bench_hierarchy_seed
);
criterion_main!(benches);
