//! Proptest equivalence suite for the extent engine and the parallel
//! hierarchy construction.
//!
//! Two families of properties:
//!
//! 1. **`ExtentSet` vs sorted-vec references** — every set operation must
//!    agree with the plain `intersect_sorted` / `union_sorted` merge
//!    references, for both representations (sparse id vector and dense
//!    bitset) and — explicitly — across the density-crossover boundary
//!    (`len · DENSITY_DIVISOR` vs `universe`).
//! 2. **Parallel vs sequential construction** — `SliceHierarchy::build`
//!    with `threads = 4` must produce a node-for-node identical hierarchy
//!    to `threads = 1`: same ids, same extents, same links, same pruning
//!    decisions, bit-identical profits.

use midas::core::extent::DENSITY_DIVISOR;
use midas::core::fact_table::{intersect_sorted, union_sorted};
use midas::core::hierarchy::SliceHierarchy;
use midas::prelude::*;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// A universe plus two arbitrary subsets of it. Set sizes are drawn across
/// the full `0..=universe` range, so both representations (and mixes of the
/// two) occur naturally.
fn subset_of(universe: u32) -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(0..universe, 0..universe as usize * 2).prop_map(|mut v| {
        v.sort_unstable();
        v.dedup();
        v
    })
}

fn two_sets() -> impl Strategy<Value = (u32, Vec<u32>, Vec<u32>)> {
    (1u32..300).prop_flat_map(|universe| (Just(universe), subset_of(universe), subset_of(universe)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Round-trip and point queries agree with the source id list.
    #[test]
    fn extent_roundtrip_and_contains(tc in two_sets()) {
        let (universe, ids, _) = tc;
        let set = ExtentSet::from_sorted(universe, ids.clone());
        prop_assert_eq!(set.len(), ids.len());
        prop_assert_eq!(set.universe(), universe);
        prop_assert_eq!(set.to_vec(), ids.clone());
        prop_assert_eq!(set.iter().collect::<Vec<_>>(), ids.clone());
        let member: BTreeSet<u32> = ids.iter().copied().collect();
        for e in 0..universe {
            prop_assert_eq!(set.contains(e), member.contains(&e));
        }
    }

    /// `intersect`/`union` (pure and in-place) match the sorted-vec merge
    /// references for every representation pairing.
    #[test]
    fn extent_ops_match_sorted_references(tc in two_sets()) {
        let (universe, a, b) = tc;
        let sa = ExtentSet::from_sorted(universe, a.clone());
        let sb = ExtentSet::from_sorted(universe, b.clone());

        let want_inter = intersect_sorted(&a, &b);
        let want_union = union_sorted(&a, &b);

        prop_assert_eq!(sa.intersect(&sb).to_vec(), want_inter.clone());
        prop_assert_eq!(sb.intersect(&sa).to_vec(), want_inter.clone());
        prop_assert_eq!(sa.union(&sb).to_vec(), want_union.clone());
        prop_assert_eq!(sb.union(&sa).to_vec(), want_union.clone());

        let mut inplace = sa.clone();
        inplace.intersect_with(&sb);
        prop_assert_eq!(&inplace, &sa.intersect(&sb));
        prop_assert_eq!(inplace.to_vec(), want_inter);

        let mut inplace = sa.clone();
        inplace.union_with(&sb);
        prop_assert_eq!(&inplace, &sa.union(&sb));
        prop_assert_eq!(inplace.to_vec(), want_union);

        // Subset relation against the reference definition.
        let bset: BTreeSet<u32> = b.iter().copied().collect();
        prop_assert_eq!(sa.is_subset_of(&sb), a.iter().all(|e| bset.contains(e)));
    }

    /// Equality is *set* equality: two equal sets compare equal however
    /// they were produced, and equal sets land in the same representation.
    #[test]
    fn extent_equality_is_representation_independent(tc in two_sets()) {
        let (universe, a, b) = tc;
        let sa = ExtentSet::from_sorted(universe, a.clone());
        let sb = ExtentSet::from_sorted(universe, b.clone());
        prop_assert_eq!(a == b, sa == sb);
        // An intersection that reproduces one operand equals it exactly.
        let self_inter = sa.intersect(&sa);
        prop_assert_eq!(&self_inter, &sa);
        prop_assert_eq!(self_inter.is_dense(), sa.is_dense());
    }

    /// The density-crossover boundary: sets whose size sits exactly at,
    /// just below, and just above `universe / DENSITY_DIVISOR` behave
    /// identically regardless of which representation they select.
    #[test]
    fn extent_density_boundary(universe in DENSITY_DIVISOR..2000u32, raw_delta in 0u32..5) {
        let delta = i64::from(raw_delta) - 2;
        let boundary = universe.div_ceil(DENSITY_DIVISOR) as i64;
        let k = (boundary + delta).clamp(0, i64::from(universe)) as u32;
        // Spread ids across the universe so dense blocks are non-trivial.
        let step = (universe / k.max(1)).max(1);
        let ids: Vec<u32> = (0..universe).step_by(step as usize).take(k as usize).collect();
        let set = ExtentSet::from_sorted(universe, ids.clone());
        prop_assert_eq!(set.len(), ids.len());
        prop_assert_eq!(set.to_vec(), ids.clone());
        // The representation choice follows the documented rule.
        let expect_dense =
            !ids.is_empty() && ids.len() as u64 * u64::from(DENSITY_DIVISOR) >= u64::from(universe);
        prop_assert_eq!(set.is_dense(), expect_dense);
        // Ops at the boundary still match the references.
        let other: Vec<u32> = ids.iter().copied().filter(|e| e % 3 != 0).collect();
        let so = ExtentSet::from_sorted(universe, other.clone());
        prop_assert_eq!(set.intersect(&so).to_vec(), intersect_sorted(&ids, &other));
        prop_assert_eq!(set.union(&so).to_vec(), union_sorted(&ids, &other));
    }
}

/// Builds a source + KB from compact triples (same shape as the
/// property-invariant suite, so hierarchies of non-trivial depth form).
fn build(triples: &[(u8, u8, u8, bool)]) -> (SourceFacts, KnowledgeBase) {
    let mut terms = Interner::new();
    let mut facts = Vec::new();
    let mut kb = KnowledgeBase::new();
    for &(s, p, o, known) in triples {
        let f = Fact::intern(
            &mut terms,
            &format!("e{}", s % 24),
            &format!("p{}", p % 6),
            &format!("v{}", o % 8),
        );
        facts.push(f);
        if known {
            kb.insert(f);
        }
    }
    let url = SourceUrl::parse("http://par.example.org/data").unwrap();
    (SourceFacts::new(url, facts), kb)
}

fn assert_identical(a: &SliceHierarchy, b: &SliceHierarchy) {
    assert_eq!(a.len(), b.len(), "node counts differ");
    assert_eq!(a.max_level(), b.max_level());
    assert_eq!(a.capped, b.capped);
    for id in 0..a.len() as u32 {
        let (x, y) = (a.node(id), b.node(id));
        assert_eq!(x.props, y.props, "node {id}: props");
        assert_eq!(x.extent, y.extent, "node {id}: extent");
        assert_eq!(x.children, y.children, "node {id}: children");
        assert_eq!(x.parents, y.parents, "node {id}: parents");
        assert_eq!(x.is_initial, y.is_initial, "node {id}: is_initial");
        assert_eq!(x.canonical, y.canonical, "node {id}: canonical");
        assert_eq!(x.valid, y.valid, "node {id}: valid");
        assert_eq!(x.profit.to_bits(), y.profit.to_bits(), "node {id}: profit");
        assert_eq!(
            x.slb_profit.to_bits(),
            y.slb_profit.to_bits(),
            "node {id}: slb"
        );
        assert_eq!(x.slb_slices, y.slb_slices, "node {id}: slb_slices");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Hierarchy construction with worker threads is node-for-node
    /// identical to the sequential build, pruning decisions included.
    #[test]
    fn parallel_hierarchy_equals_sequential(
        triples in proptest::collection::vec(any::<(u8, u8, u8, bool)>(), 1..120),
        disable_pruning in any::<bool>(),
    ) {
        let (source, kb) = build(&triples);
        let table = FactTable::build(&source, &kb);
        let mut cfg = MidasConfig::running_example();
        cfg.disable_profit_pruning = disable_pruning;
        let ctx = ProfitCtx::new(&table, cfg.cost);
        let h1 = SliceHierarchy::build(&table, &ctx, &cfg);
        let h4 = SliceHierarchy::build(&table, &ctx, &cfg.clone().with_threads(4));
        assert_identical(&h1, &h4);
    }
}
