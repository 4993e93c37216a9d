//! Profit unions, warm patches and copy-on-write out of a snapshot mapping
//! allocate their own buffers. These tests check them against independent
//! results on shapes the unit tests do not reach: a table of many bitmap
//! words, a delta that dirties every node at once, and a table that
//! borrows from a snapshot.
use midas_core::fixtures::skyrocket;
use midas_core::SourceFacts;
use midas_core::{
    load_corpus, save_corpus, EntityId, ExtentSet, FactTable, MidasConfig, ProfitCtx,
    SliceHierarchy,
};
use midas_kb::{Fact, Interner, KnowledgeBase};
use midas_weburl::SourceUrl;

fn extent(table: &FactTable, terms: &mut Interner, pred: &str, value: &str) -> ExtentSet {
    let id = table
        .catalog()
        .get(terms.intern(pred), terms.intern(value))
        .expect("property exists");
    table.extent_of(&[id])
}

/// The batched union paths agree with sequential folds on a table of 47
/// bitmap words, the last one partial, with extents of very different
/// sizes.
#[test]
fn union_paths_match_sequential_folds_across_many_words() {
    let mut t = Interner::new();
    let mut facts = Vec::new();
    let mut kb = KnowledgeBase::new();
    for i in 0..3000u32 {
        let s = format!("e{i}");
        let kind = Fact::intern(&mut t, &s, "kind", &format!("k{}", i % 3));
        facts.push(kind);
        facts.push(Fact::intern(&mut t, &s, "size", &format!("s{}", i % 5)));
        if i % 97 == 0 {
            facts.push(Fact::intern(&mut t, &s, "tag", "rare"));
        }
        if i % 4 == 0 {
            kb.insert(kind);
        }
    }
    let url = SourceUrl::parse("http://example.org").expect("static URL parses");
    let ft = FactTable::build(&SourceFacts::new(url, facts), &kb);
    assert_eq!(ft.num_entities(), 3000);
    let cfg = MidasConfig::running_example();
    let ctx = ProfitCtx::new(&ft, cfg.cost);
    let k0 = extent(&ft, &mut t, "kind", "k0");
    let k1 = extent(&ft, &mut t, "kind", "k1");
    let s1 = extent(&ft, &mut t, "size", "s1");
    let rare = extent(&ft, &mut t, "tag", "rare");
    let first: Vec<&ExtentSet> = vec![&k0, &rare, &s1];
    let second: Vec<&ExtentSet> = vec![&k1, &s1];

    let union = k0.union(&rare).union(&s1);
    assert_eq!(
        ctx.profit_of_union(&first, 3).to_bits(),
        ctx.profit_set(&union, 3).to_bits()
    );

    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs().max(1.0);
    let mut seq = ctx.accumulator();
    let mut batched = ctx.accumulator();
    for group in [&first, &second] {
        let mut telescoped = 0.0;
        let mut probe = seq.clone();
        for e in group.iter() {
            telescoped += probe.marginal(&ctx, e);
            probe.add(&ctx, e);
        }
        let m = batched.marginal_union(&ctx, group);
        assert!(close(m, telescoped), "{m} vs {telescoped}");
        for e in group.iter() {
            seq.add(&ctx, e);
        }
        batched.add_union(&ctx, group);
        assert_eq!(batched.profit(&ctx).to_bits(), seq.profit(&ctx).to_bits());
        assert_eq!(batched.len(), seq.len());
    }
}

fn assert_same_nodes(a: &SliceHierarchy, b: &SliceHierarchy) {
    assert_eq!(a.len(), b.len());
    assert_eq!(a.capped, b.capped);
    for l in 0..=a.max_level().max(b.max_level()) {
        assert!(a.level(l).eq(b.level(l)), "level {l}");
    }
    for id in a.iter() {
        let (x, y) = (a.node(id), b.node(id));
        assert_eq!(x.props, y.props, "node {id}");
        assert_eq!(x.extent, y.extent, "node {id}");
        assert_eq!(x.extent_freed, y.extent_freed, "node {id}");
        assert_eq!(x.valid, y.valid, "node {id}");
        assert_eq!(x.profit.to_bits(), y.profit.to_bits(), "node {id}");
        assert_eq!(x.slb_profit.to_bits(), y.slb_profit.to_bits(), "node {id}");
        assert_eq!(x.slb_slices, y.slb_slices, "node {id}");
    }
}

/// One delta that makes every entity's facts known dirties every node at
/// once; the patch must still equal a fresh build.
#[test]
fn warm_patch_of_a_whole_table_delta_matches_fresh_build() {
    let mut t = Interner::new();
    let (src, mut kb) = skyrocket(&mut t);
    let mut ft = FactTable::build(&src, &kb);
    let cfg = MidasConfig::running_example();
    let mut warm = {
        let ctx = ProfitCtx::new(&ft, cfg.cost);
        SliceHierarchy::build(&ft, &ctx, &cfg)
    };
    let with_new: Vec<EntityId> = (0..ft.num_entities() as EntityId)
        .filter(|&e| ft.row(e).iter().any(|f| kb.is_new(f)))
        .collect();
    assert!(with_new.len() > 1);
    for f in &src.facts {
        kb.insert(*f);
    }
    let subjects: Vec<_> = with_new.iter().map(|&e| ft.subject(e)).collect();
    let changed = ft.refresh_new_counts(&kb, subjects);
    assert_eq!(changed, with_new);
    ft.recalibrate_divisor();
    let ctx = ProfitCtx::new(&ft, cfg.cost);
    assert!(warm.warm_patch(&ctx, &cfg, &changed), "patchable delta");
    assert_same_nodes(&warm, &SliceHierarchy::build(&ft, &ctx, &cfg));
}

/// A table loaded from a snapshot borrows its extents and counts from the
/// mapping. Building on it copies each extent it narrows out of the
/// mapping, and a refresh copies the counts it changes; both must give the
/// nodes a table built in memory gives, and leave the mapping readable.
#[test]
fn hierarchies_on_a_snapshot_table_match_in_memory_ones() {
    let mut t = Interner::new();
    let (src, mut kb) = skyrocket(&mut t);
    let mut owned = FactTable::build(&src, &kb);
    let path =
        std::env::temp_dir().join(format!("midas-fresh-buffers-{}.snap", std::process::id()));
    save_corpus(
        &path,
        1,
        &t,
        std::slice::from_ref(&src),
        &kb,
        std::slice::from_ref(&owned),
    )
    .expect("snapshot written");
    let mut corpus = load_corpus(&path, 1).expect("snapshot loads");
    std::fs::remove_file(&path).ok();
    let mut mapped = corpus.tables.pop().expect("one table");
    assert!(mapped.is_mapped());

    let cfg = MidasConfig::running_example();
    let build =
        |table: &FactTable| SliceHierarchy::build(table, &ProfitCtx::new(table, cfg.cost), &cfg);
    let mut warm = build(&mapped);
    assert_same_nodes(&warm, &build(&owned));

    for f in &src.facts {
        kb.insert(*f);
    }
    let subjects: Vec<_> = src.facts.iter().map(|f| f.subject).collect();
    let changed = mapped.refresh_new_counts(&kb, subjects.iter().copied());
    assert_eq!(
        changed,
        owned.refresh_new_counts(&kb, subjects.iter().copied())
    );
    assert!(!changed.is_empty() && mapped.is_mapped());
    let ctx = ProfitCtx::new(&mapped, cfg.cost);
    assert!(warm.warm_patch(&ctx, &cfg, &changed), "patchable delta");
    assert_same_nodes(&warm, &build(&owned));
    assert_same_nodes(&build(&mapped), &build(&owned));
}
