//! MIDASalg — slice discovery for a single web source (§III-A).

use midas_kb::{KnowledgeBase, Symbol};

use crate::config::MidasConfig;
use crate::detector::{LeafOutcome, LeafState};
use crate::fact_table::{FactTable, PropertyId};
use crate::hierarchy::SliceHierarchy;
use crate::profit::ProfitCtx;
use crate::slice::DiscoveredSlice;
use crate::source::SourceFacts;
use crate::traversal::traverse;

mod metrics {
    crate::histogram!(pub TRAVERSAL_NS, "traversal_ns");
    crate::histogram!(pub TABLE_BUILD_NS, "fact_table.build_ns");
}

/// The MIDASalg algorithm: bottom-up hierarchy construction with pruning,
/// followed by the top-down traversal.
#[derive(Debug, Clone, Default)]
pub struct MidasAlg {
    /// Algorithm configuration (cost model and caps).
    pub config: MidasConfig,
}

impl MidasAlg {
    /// Creates the algorithm with the given configuration.
    pub fn new(config: MidasConfig) -> Self {
        MidasAlg { config }
    }

    /// Runs MIDASalg on one source against `kb`, deriving initial slices
    /// from the entities of the source's fact table.
    pub fn run(&self, source: &SourceFacts, kb: &KnowledgeBase) -> Vec<DiscoveredSlice> {
        self.detect_source(source, kb, None, LeafState::default())
            .slices
    }

    /// Runs MIDASalg with the initial hierarchy formed from `seeds` —
    /// property sets (as `(predicate, value)` symbol pairs) exported by
    /// finer-grained children sources, per the §III-B framework. Seed
    /// properties absent from this source's catalog are dropped; seeds that
    /// become empty are skipped.
    pub fn run_seeded(
        &self,
        source: &SourceFacts,
        kb: &KnowledgeBase,
        seeds: &[Vec<(Symbol, Symbol)>],
    ) -> Vec<DiscoveredSlice> {
        self.detect_source(source, kb, Some(seeds), LeafState::default())
            .slices
    }

    /// The one detection routine behind every entry point: take the given
    /// table or build one, patch the warm hierarchy in place or build cold
    /// (also when the patch refuses the delta, or the run is seeded), then
    /// traverse and materialise. With `state.retain` the table it built and
    /// the hierarchy come back to the caller; otherwise they are dropped
    /// here, on the thread that built them. The slices
    /// are bit-identical whichever way the table and hierarchy were
    /// obtained.
    pub(crate) fn detect_source(
        &self,
        source: &SourceFacts,
        kb: &KnowledgeBase,
        seeds: Option<&[Vec<(Symbol, Symbol)>]>,
        state: LeafState<'_>,
    ) -> LeafOutcome {
        let LeafState {
            table: given,
            warm,
            retain,
        } = state;
        if source.is_empty() {
            return LeafOutcome::default();
        }
        // Direct (non-framework) runs enforce the config's budget here; when
        // the framework already installed a scope around this call, its
        // outer scope keeps governing and this is a no-op.
        let _budget_scope = crate::budget::BudgetScope::enter(&self.config.budget);
        let built = match given {
            Some(table) => {
                debug_assert_eq!(
                    table.total_facts(),
                    source.len(),
                    "given table does not match the source it is applied to"
                );
                None
            }
            None => {
                let _span = crate::telemetry::span("fact_table.build", &metrics::TABLE_BUILD_NS);
                Some(FactTable::build(source, kb))
            }
        };
        let table = given.or(built.as_ref()).expect("a given or built table");
        let ctx = ProfitCtx::new(table, self.config.cost);
        let patched = match warm {
            Some((mut h, changed)) => {
                if seeds.is_none() && h.warm_patch(&ctx, &self.config, &changed) {
                    Some(h)
                } else {
                    // The cached hierarchy cannot absorb the delta (or the
                    // run is seeded): drop it and rebuild cold.
                    None
                }
            }
            None => None,
        };
        let warmed = patched.is_some();
        let hierarchy = patched.unwrap_or_else(|| self.build_hierarchy(table, &ctx, seeds));
        let slices = {
            let _span = crate::telemetry::span("traversal", &metrics::TRAVERSAL_NS);
            self.materialise(table, source, &ctx, &hierarchy)
        };
        let (built, hierarchy) = if retain {
            (built, Some(hierarchy))
        } else {
            (None, None)
        };
        LeafOutcome {
            slices,
            table: built,
            hierarchy,
            warmed,
        }
    }

    fn build_hierarchy(
        &self,
        table: &FactTable,
        ctx: &ProfitCtx<'_>,
        seeds: Option<&[Vec<(Symbol, Symbol)>]>,
    ) -> SliceHierarchy {
        match seeds {
            None => SliceHierarchy::build(table, ctx, &self.config),
            Some(seeds) => {
                let translated: Vec<Vec<PropertyId>> = seeds
                    .iter()
                    .filter_map(|seed| {
                        let ids: Vec<PropertyId> = seed
                            .iter()
                            .filter_map(|&(p, v)| table.catalog().get(p, v))
                            .collect();
                        (!ids.is_empty()).then_some(ids)
                    })
                    .collect();
                SliceHierarchy::build_seeded(table, ctx, &self.config, &translated)
            }
        }
    }

    /// Traversal plus slice materialisation — the same for a cold and a
    /// warm-patched hierarchy, so both yield the same report bytes.
    fn materialise(
        &self,
        table: &FactTable,
        source: &SourceFacts,
        ctx: &ProfitCtx<'_>,
        hierarchy: &SliceHierarchy,
    ) -> Vec<DiscoveredSlice> {
        let mut picked = traverse(hierarchy, ctx);
        if picked.is_empty() && self.config.always_report_best {
            // Nothing is profitable on its own — report the least-bad
            // canonical slice so a coarser granularity can aggregate it.
            if let Some(best) = hierarchy
                .iter()
                .filter(|&id| hierarchy.node(id).canonical)
                .max_by(|&a, &b| {
                    hierarchy
                        .node(a)
                        .profit
                        .total_cmp(&hierarchy.node(b).profit)
                })
            {
                picked.push(best);
            }
        }
        let slices: Vec<DiscoveredSlice> = picked
            .into_iter()
            .map(|id| {
                let node = hierarchy.node(id);
                let mut properties: Vec<(Symbol, Symbol)> = node
                    .props
                    .iter()
                    .map(|&p| table.catalog().pair(p))
                    .collect();
                properties.sort_unstable();
                // `live_extent` asserts the eager level-boundary release
                // never freed an extent a report still needs.
                let mut entities: Vec<Symbol> = node
                    .live_extent()
                    .iter()
                    .map(|e| table.subject(e))
                    .collect();
                entities.sort_unstable();
                DiscoveredSlice {
                    source: source.url.clone(),
                    properties,
                    entities,
                    num_facts: table.facts_sum(node.live_extent()) as usize,
                    num_new_facts: table.new_sum(node.live_extent()) as usize,
                    profit: node.profit,
                }
            })
            .collect();
        slices
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::{DetectInput, SliceDetector};
    use crate::fact_table::EntityId;
    use crate::fixtures::{skyrocket, skyrocket_pages};
    use midas_kb::Interner;

    #[test]
    fn running_example_end_to_end() {
        let mut t = Interner::new();
        let (src, kb) = skyrocket(&mut t);
        let alg = MidasAlg::new(MidasConfig::running_example());
        let slices = alg.run(&src, &kb);
        assert_eq!(slices.len(), 1);
        let s = &slices[0];
        assert_eq!(s.num_facts, 6);
        assert_eq!(s.num_new_facts, 6);
        assert!((s.profit - 4.327).abs() < 1e-9);
        let desc = s.describe(&t);
        assert!(desc.contains("category = rocket_family"));
        assert!(desc.contains("sponsor = NASA"));
    }

    #[test]
    fn per_page_runs_match_example_16_round_1() {
        let mut t = Interner::new();
        let (pages, kb) = skyrocket_pages(&mut t);
        let alg = MidasAlg::new(MidasConfig::running_example());
        let mut positive = Vec::new();
        for page in &pages {
            let slices = alg.run(page, &kb);
            positive.extend(slices.into_iter().filter(|s| s.profit > 0.0));
        }
        // Example 16 round 1: only the Atlas and Castor-4 page slices have
        // positive profit.
        assert_eq!(positive.len(), 2);
        for s in &positive {
            assert!(s.source.as_str().contains("doc_lau_fam"));
            assert_eq!(s.num_new_facts, 3);
        }
    }

    #[test]
    fn seeded_run_reproduces_example_16_round_2() {
        let mut t = Interner::new();
        let (pages, kb) = skyrocket_pages(&mut t);
        let alg = MidasAlg::new(MidasConfig::running_example());
        // Round 1 on the two rocket-family pages.
        let fam_pages: Vec<&SourceFacts> = pages
            .iter()
            .filter(|p| p.url.as_str().contains("doc_lau_fam"))
            .collect();
        let mut seeds = Vec::new();
        let mut all_facts = Vec::new();
        for page in &fam_pages {
            all_facts.extend(page.facts.iter().copied());
            for s in alg.run(page, &kb) {
                if s.profit > 0.0 {
                    seeds.push(s.properties);
                }
            }
        }
        assert_eq!(seeds.len(), 2);
        // Round 2 on the merged sub-domain source.
        let sub = SourceFacts::new(
            midas_weburl::SourceUrl::parse("http://space.skyrocket.de/doc_lau_fam").unwrap(),
            all_facts,
        );
        let slices = alg.run_seeded(&sub, &kb, &seeds);
        assert_eq!(slices.len(), 1, "S5 is detected at the sub-domain");
        let s5 = &slices[0];
        assert_eq!(s5.entities.len(), 2);
        assert_eq!(s5.num_new_facts, 6);
        assert_eq!(s5.properties.len(), 2);
    }

    #[test]
    fn empty_source_returns_nothing() {
        let t = Interner::new();
        let _ = t;
        let src = SourceFacts::new(
            midas_weburl::SourceUrl::parse("http://empty.com").unwrap(),
            vec![],
        );
        let alg = MidasAlg::default();
        assert!(alg.run(&src, &KnowledgeBase::new()).is_empty());
    }

    #[test]
    fn seeds_with_unknown_properties_are_dropped() {
        let mut t = Interner::new();
        let (src, kb) = skyrocket(&mut t);
        let alg = MidasAlg::new(MidasConfig::running_example());
        let bogus = vec![vec![(t.intern("nonexistent"), t.intern("value"))]];
        let slices = alg.run_seeded(&src, &kb, &bogus);
        assert!(
            slices.is_empty(),
            "a seed with no known property yields nothing"
        );
    }

    fn input<'a>(source: &'a SourceFacts, kb: &'a KnowledgeBase) -> DetectInput<'a> {
        DetectInput {
            source,
            kb,
            seeds: &[],
        }
    }

    #[test]
    fn every_leaf_state_matches_run() {
        let mut t = Interner::new();
        let (src, kb) = skyrocket(&mut t);
        let alg = MidasAlg::new(MidasConfig::running_example());
        let table = FactTable::build(&src, &kb);

        // Cold: table given or built, retained or not. Only a retaining
        // caller gets state back, and a table only if the detector built it.
        let want = alg.run(&src, &kb);
        for given in [None, Some(&table)] {
            for retain in [false, true] {
                let state = LeafState {
                    table: given,
                    warm: None,
                    retain,
                };
                let out = alg.detect_leaf(input(&src, &kb), state);
                assert_eq!(out.slices, want);
                assert!(!out.warmed);
                assert_eq!(out.table.is_some(), retain && given.is_none());
                assert_eq!(out.hierarchy.is_some(), retain);
            }
        }

        // Warm: accept one new fact, refresh a copy of the table, and hand
        // over a hierarchy retained before the accept. The true changed ids
        // patch in place; an out-of-universe id makes the patch refuse, and
        // the routine rebuilds cold.
        let fact = *src.facts.iter().find(|f| kb.is_new(f)).expect("a new fact");
        let mut kb1 = kb.clone();
        kb1.insert(fact);
        let mut refreshed = table.clone();
        let changed = refreshed.refresh_new_counts(&kb1, [fact.subject]);
        assert_eq!(changed.len(), 1);
        let want = alg.run(&src, &kb1);
        let outside = vec![table.num_entities() as EntityId];
        for (changed, patches) in [(changed, true), (outside, false)] {
            for given in [None, Some(&refreshed)] {
                for retain in [false, true] {
                    let retained = LeafState {
                        table: Some(&table),
                        warm: None,
                        retain: true,
                    };
                    let hierarchy = alg.detect_leaf(input(&src, &kb), retained).hierarchy;
                    let state = LeafState {
                        table: given,
                        warm: hierarchy.map(|h| (h, changed.clone())),
                        retain,
                    };
                    let out = alg.detect_leaf(input(&src, &kb1), state);
                    assert_eq!(out.slices, want);
                    assert_eq!(out.warmed, patches);
                    assert_eq!(out.table.is_some(), retain && given.is_none());
                    assert_eq!(out.hierarchy.is_some(), retain);
                }
            }
        }
    }

    #[test]
    fn default_cost_model_suppresses_small_pages() {
        // With f_p = 10 even the Atlas page (3 new facts) is unprofitable.
        let mut t = Interner::new();
        let (pages, kb) = skyrocket_pages(&mut t);
        let alg = MidasAlg::new(MidasConfig::default());
        for page in &pages {
            for s in alg.run(page, &kb) {
                assert!(s.profit <= 0.0 || s.num_new_facts > 10);
            }
        }
    }
}
