//! Brute-force validation of Proposition 12.
//!
//! A slice is *canonical* (Definition 7) iff its property set is **closed**:
//! equal to the intersection of the property sets of the entities in its
//! extent. For small, single-valued fact tables we can enumerate all closed
//! property sets directly and compare them against the canonical nodes the
//! hierarchy construction marks via Proposition 12 ("initial, or ≥ 2
//! canonical children").

use midas::core::hierarchy::SliceHierarchy;
use midas::prelude::*;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Builds a small single-valued fact table: entity e gets property p with a
/// value determined by `grid[e][p]` (None = absent).
fn build_table(grid: &[Vec<Option<u8>>]) -> (Interner, SourceFacts) {
    let mut terms = Interner::new();
    let mut facts = Vec::new();
    for (e, row) in grid.iter().enumerate() {
        for (p, v) in row.iter().enumerate() {
            if let Some(v) = v {
                facts.push(Fact::intern(
                    &mut terms,
                    &format!("e{e}"),
                    &format!("p{p}"),
                    &format!("v{}", v % 3),
                ));
            }
        }
    }
    let url = SourceUrl::parse("http://brute.example/t").unwrap();
    (terms, SourceFacts::new(url, facts))
}

/// All closed property sets (with ≥ 1 property) of a fact table, computed
/// by exhaustive brute force. A property set `C` with non-empty extent is
/// closed iff `C = ∩_{e ∈ extent(C)} C_e`; conversely, every intersection
/// `∩_{e ∈ S} C_e` over a non-empty entity subset `S` is closed (its extent
/// contains `S`, and every extent entity carries all of `C`). So the closed
/// sets are exactly the intersections over the `2^n − 1` entity subsets —
/// enumerable exactly for the small tables this test generates.
fn closed_sets(table: &FactTable) -> BTreeSet<Vec<u32>> {
    let n = table.num_entities();
    assert!(n <= 16, "exhaustive enumeration only");
    let mut out = BTreeSet::new();
    for mask in 1u32..(1 << n) {
        let mut inter: Option<Vec<u32>> = None;
        for e in 0..n as u32 {
            if mask & (1 << e) == 0 {
                continue;
            }
            let eprops = table.entity_properties(e);
            inter = Some(match inter {
                None => eprops.to_vec(),
                Some(mut acc) => {
                    acc.retain(|p| eprops.contains(p));
                    acc
                }
            });
        }
        let inter = inter.expect("mask is non-empty");
        if !inter.is_empty() {
            out.insert(inter);
        }
    }
    out
}

/// The canonical (live) nodes of the constructed hierarchy are exactly the
/// closed property sets of the fact table.
fn canonical_nodes_match_closed_sets(grid: &[Vec<Option<u8>>]) -> TestCaseResult {
    let (_terms, source) = build_table(grid);
    if source.is_empty() {
        return Ok(());
    }
    let kb = KnowledgeBase::new();
    let table = FactTable::build(&source, &kb);
    let mut cfg = MidasConfig::running_example();
    // No caps, no surprises: the test needs the full lattice.
    cfg.max_properties_per_entity = 64;
    cfg.max_initial_combinations_per_entity = 4096;
    cfg.disable_profit_pruning = true;
    let ctx = ProfitCtx::new(&table, cfg.cost);
    let hierarchy = SliceHierarchy::build(&table, &ctx, &cfg);

    let expected = closed_sets(&table);
    let mut actual: BTreeSet<Vec<u32>> = BTreeSet::new();
    for id in hierarchy.iter() {
        let node = hierarchy.node(id);
        if node.canonical {
            actual.insert(node.props.to_vec());
        }
    }
    prop_assert_eq!(
        &actual,
        &expected,
        "canonical nodes must equal closed sets (grid {:?})",
        grid
    );
    Ok(())
}

/// Non-canonical slices are redundant: removing them loses no extent — for
/// every live node, some canonical node has the same extent with at least as
/// many properties.
fn extents_have_canonical_representatives(grid: &[Vec<Option<u8>>]) -> TestCaseResult {
    let (_terms, source) = build_table(grid);
    if source.is_empty() {
        return Ok(());
    }
    let kb = KnowledgeBase::new();
    let table = FactTable::build(&source, &kb);
    let mut cfg = MidasConfig::running_example();
    cfg.max_properties_per_entity = 64;
    cfg.max_initial_combinations_per_entity = 4096;
    cfg.disable_profit_pruning = true;
    let ctx = ProfitCtx::new(&table, cfg.cost);
    let hierarchy = SliceHierarchy::build(&table, &ctx, &cfg);

    let canon: Vec<(midas::prelude::ExtentSet, Vec<u32>)> = hierarchy
        .iter()
        .filter(|&id| hierarchy.node(id).canonical)
        .map(|id| {
            let n = hierarchy.node(id);
            (n.extent.clone(), n.props.to_vec())
        })
        .collect();
    for id in hierarchy.iter() {
        let node = hierarchy.node(id);
        let found = canon
            .iter()
            .any(|(ext, props)| *ext == node.extent && props.len() >= node.props.len());
        prop_assert!(
            found,
            "extent of a live node lacks a canonical representative"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// See [`canonical_nodes_match_closed_sets`].
    #[test]
    fn canonical_nodes_are_exactly_the_closed_sets(
        grid in proptest::collection::vec(
            proptest::collection::vec(proptest::option::of(0u8..3), 4),
            1..8,
        )
    ) {
        canonical_nodes_match_closed_sets(&grid)?;
    }

    /// See [`extents_have_canonical_representatives`].
    #[test]
    fn every_extent_is_represented_canonically(
        grid in proptest::collection::vec(
            proptest::collection::vec(proptest::option::of(0u8..3), 3),
            1..7,
        )
    ) {
        extents_have_canonical_representatives(&grid)?;
    }
}

/// A failing grid recorded by an earlier proptest run, re-run through both
/// canonicality properties. The in-repo proptest shim only generates fresh
/// cases, so recorded inputs are pinned here as plain tests.
#[test]
fn recorded_regression_grid() {
    let grid = vec![
        vec![None, Some(2), None, None],
        vec![Some(0), Some(2), Some(2), Some(1)],
        vec![Some(1), Some(2), Some(2), Some(0)],
        vec![None, None, Some(2), None],
    ];
    for check in [
        canonical_nodes_match_closed_sets,
        extents_have_canonical_representatives,
    ] {
        if let Err(e) = check(&grid) {
            panic!("{e}");
        }
    }
}
