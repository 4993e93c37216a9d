//! The Apriori oracle in `seed_reference` and the engine build the same
//! hierarchy node for node. The oracle generates every subset of every
//! initial slice and then deletes the non-canonical ones (Proposition 12);
//! the engine enumerates only the canonical slices. So the comparison runs
//! over the oracle's *live* nodes in id order, which must be the engine's
//! nodes `0..n`: same properties, initial flag, validity, profit and `f_LB`
//! bits, extents (unless the engine freed them), children and `SLB` sets
//! as ordered lists through the id map, parents as sets, and the same
//! per-level order.

use midas_bench::seed_reference::{SeedHierarchy, SeedLists};
use midas_core::fact_table::PropertyId;
use midas_core::fixtures::skyrocket;
use midas_core::{FactTable, MidasConfig, ProfitCtx, SliceHierarchy, SourceFacts};
use midas_extract::synthetic::{generate, SyntheticConfig};
use midas_kb::{Fact, Interner, KnowledgeBase};
use midas_weburl::SourceUrl;
use proptest::prelude::*;

fn assert_parity(table: &FactTable, cfg: &MidasConfig, seeds: Option<&[Vec<PropertyId>]>) {
    let ctx = ProfitCtx::new(table, cfg.cost);
    let lists = SeedLists::from_table(table);
    let (new, seed) = match seeds {
        None => (
            SliceHierarchy::build(table, &ctx, cfg),
            SeedHierarchy::build(table, &lists, &ctx, cfg),
        ),
        Some(seeds) => (
            SliceHierarchy::build_seeded(table, &ctx, cfg, seeds),
            SeedHierarchy::build_seeded(table, &lists, &ctx, cfg, seeds),
        ),
    };
    assert!(
        !new.capped && !seed.capped,
        "parity holds for uncapped builds"
    );

    // Oracle id -> engine id: the oracle's live nodes, in id order.
    let live: Vec<u32> = (0..seed.nodes.len() as u32)
        .filter(|&id| !seed.nodes[id as usize].removed)
        .collect();
    assert_eq!(new.len(), live.len(), "canonical node counts differ");
    let mut id_map = vec![u32::MAX; seed.nodes.len()];
    for (id, &old) in live.iter().enumerate() {
        id_map[old as usize] = id as u32;
    }
    let map = |ids: &[u32]| -> Vec<u32> { ids.iter().map(|&i| id_map[i as usize]).collect() };

    for (id, &old) in live.iter().enumerate() {
        let x = new.node(id as u32);
        let y = &seed.nodes[old as usize];
        assert_eq!(&*x.props, &*y.props, "node {id}: props");
        assert_eq!(x.is_initial, y.is_initial, "node {id}: is_initial");
        assert!(x.canonical && y.canonical, "node {id}: canonical");
        assert_eq!(x.valid, y.valid, "node {id}: valid");
        assert_eq!(x.profit.to_bits(), y.profit.to_bits(), "node {id}: profit");
        assert_eq!(
            x.slb_profit.to_bits(),
            y.slb_profit.to_bits(),
            "node {id}: slb_profit"
        );
        if x.extent_freed {
            // The engine releases invalidated nodes' extents at level
            // boundaries; the oracle keeps them.
            assert!(!x.valid, "node {id}: freed but valid");
            assert!(x.extent.is_empty(), "node {id}: freed extent not empty");
        } else {
            assert_eq!(x.extent.to_vec(), y.extent, "node {id}: extent");
        }
        assert_eq!(x.children, map(&y.children), "node {id}: children");
        assert_eq!(x.slb_slices, map(&y.slb_slices), "node {id}: slb_slices");
        let mut parents = map(&y.parents);
        parents.sort_unstable();
        assert_eq!(x.parents, parents, "node {id}: parents");
    }
    for l in 0..=new.max_level() + 1 {
        let oracle: Vec<u32> = seed.level(l).collect();
        assert_eq!(
            new.level(l).collect::<Vec<_>>(),
            map(&oracle),
            "level {l} order"
        );
    }
}

#[test]
fn seed_reference_matches_engine_on_running_example() {
    let mut terms = Interner::new();
    let (src, kb) = skyrocket(&mut terms);
    let table = FactTable::build(&src, &kb);
    assert_parity(&table, &MidasConfig::running_example(), None);
}

#[test]
fn seed_reference_matches_engine_on_synthetic() {
    let ds = generate(&SyntheticConfig::new(1_000, 20, 10, 42));
    let table = FactTable::build(&ds.sources[0], &ds.kb);
    assert_parity(&table, &MidasConfig::default(), None);
    let no_prune = MidasConfig {
        disable_profit_pruning: true,
        ..MidasConfig::default()
    };
    assert_parity(&table, &no_prune, None);
}

/// A small source from `(entity, predicate, value, known)` draws: few
/// values per predicate, so predicates are often multi-valued.
fn grid_table(triples: &[(u8, u8, u8, bool)]) -> FactTable {
    let mut terms = Interner::new();
    let mut facts = Vec::new();
    let mut kb = KnowledgeBase::new();
    for &(s, p, o, known) in triples {
        let f = Fact::intern(
            &mut terms,
            &format!("e{}", s % 12),
            &format!("p{}", p % 5),
            &format!("v{}", o % 3),
        );
        facts.push(f);
        if known {
            kb.insert(f);
        }
    }
    let url = SourceUrl::parse("http://grid.example.org/t").unwrap();
    FactTable::build(&SourceFacts::new(url, facts), &kb)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1500))]

    /// Random grids through both builds — entity-seeded, and seeded with
    /// random property sets (some matching no entity) — under small
    /// per-entity caps, with and without profit pruning, and with the
    /// `always_report_best` extent retention.
    #[test]
    fn oracle_matches_engine_on_random_grids(
        triples in proptest::collection::vec(any::<(u8, u8, u8, bool)>(), 1..60),
        caps in (1usize..6, 1usize..6),
        flags in (any::<bool>(), any::<bool>()),
        seeds in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..5), 0..8),
    ) {
        let table = grid_table(&triples);
        let cfg = MidasConfig {
            max_properties_per_entity: caps.0,
            max_initial_combinations_per_entity: caps.1,
            disable_profit_pruning: flags.0,
            always_report_best: flags.1,
            ..MidasConfig::running_example()
        };
        assert_parity(&table, &cfg, None);
        let props = table.catalog().len() as PropertyId;
        let seeds: Vec<Vec<PropertyId>> = seeds
            .iter()
            .map(|s| s.iter().map(|&p| PropertyId::from(p) % props).collect())
            .collect();
        assert_parity(&table, &cfg, Some(&seeds));
    }
}
