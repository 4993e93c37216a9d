//! Top-down hierarchy traversal (§III-A step 2, Algorithm 1).
//!
//! The traversal walks the pruned hierarchy from the most general slices
//! (level 1) down to the most specific, adding every valid, uncovered slice
//! whose *marginal* profit `f(S ∪ {S}) − f(S)` is positive, and marking the
//! descendants of every selected slice as covered so overlapping
//! specialisations are skipped.

use crate::hierarchy::{NodeId, SliceHierarchy};
use crate::profit::ProfitCtx;

/// Runs Algorithm 1 and returns the selected node ids in selection order.
pub fn traverse(h: &SliceHierarchy, ctx: &ProfitCtx<'_>) -> Vec<NodeId> {
    let mut covered = vec![false; h.len()];
    let mut acc = ctx.accumulator();
    let mut result = Vec::new();
    for l in 1..=h.max_level() {
        for id in h.level(l) {
            let node = h.node(id);
            if !node.valid || covered[id as usize] {
                continue;
            }
            if acc.marginal(ctx, node.live_extent()) > 0.0 {
                acc.add(ctx, node.live_extent());
                result.push(id);
                // Mark all descendants covered (Algorithm 1 lines 6–9).
                let mut stack = vec![id];
                while let Some(cur) = stack.pop() {
                    for &c in &h.node(cur).children {
                        if !covered[c as usize] {
                            covered[c as usize] = true;
                            stack.push(c);
                        }
                    }
                }
            }
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MidasConfig;
    use crate::fact_table::FactTable;
    use crate::fixtures::skyrocket;
    use midas_kb::Interner;

    /// Example 14: the traversal reports exactly {S5}.
    #[test]
    fn running_example_selects_only_s5() {
        let mut t = Interner::new();
        let (src, kb) = skyrocket(&mut t);
        let ft = FactTable::build(&src, &kb);
        let cfg = MidasConfig::running_example();
        let ctx = ProfitCtx::new(&ft, cfg.cost);
        let h = SliceHierarchy::build(&ft, &ctx, &cfg);
        let picked = traverse(&h, &ctx);
        assert_eq!(picked.len(), 1, "exactly one slice is reported");
        let n = h.node(picked[0]);
        assert_eq!(n.extent.len(), 2, "S5 covers Atlas and Castor-4");
        assert!((n.profit - 4.327).abs() < 1e-9);
        let pairs: Vec<(String, String)> = n
            .props
            .iter()
            .map(|&p| {
                let (pred, val) = ft.catalog().pair(p);
                (t.resolve(pred).to_owned(), t.resolve(val).to_owned())
            })
            .collect();
        assert!(pairs.contains(&("category".into(), "rocket_family".into())));
        assert!(pairs.contains(&("sponsor".into(), "NASA".into())));
    }

    /// With profit pruning disabled the traversal must still avoid selecting
    /// both an ancestor and its descendant (cover marking).
    #[test]
    fn traversal_never_selects_ancestor_and_descendant() {
        let mut t = Interner::new();
        let (src, kb) = skyrocket(&mut t);
        let ft = FactTable::build(&src, &kb);
        let mut cfg = MidasConfig::running_example();
        cfg.disable_profit_pruning = true;
        let ctx = ProfitCtx::new(&ft, cfg.cost);
        let h = SliceHierarchy::build(&ft, &ctx, &cfg);
        let picked = traverse(&h, &ctx);
        for (i, &a) in picked.iter().enumerate() {
            for &b in picked.iter().skip(i + 1) {
                let (pa, pb) = (&h.node(a).props, &h.node(b).props);
                let subset = pa.iter().all(|x| pb.contains(x)) || pb.iter().all(|x| pa.contains(x));
                assert!(
                    !subset,
                    "selected slices must not be in ancestor/descendant relation"
                );
            }
        }
    }

    /// An empty knowledge base turns every fact new; the whole-source-ish
    /// top slice should win if it exists, and total profit must be positive.
    #[test]
    fn empty_kb_selects_positive_profit_set() {
        let mut t = Interner::new();
        let (src, _) = skyrocket(&mut t);
        let kb = midas_kb::KnowledgeBase::new();
        let ft = FactTable::build(&src, &kb);
        let cfg = MidasConfig::running_example();
        let ctx = ProfitCtx::new(&ft, cfg.cost);
        let h = SliceHierarchy::build(&ft, &ctx, &cfg);
        let picked = traverse(&h, &ctx);
        assert!(!picked.is_empty());
        let mut acc = ctx.accumulator();
        for &id in &picked {
            acc.add(&ctx, &h.node(id).extent);
        }
        assert!(acc.profit(&ctx) > 0.0);
    }

    /// When every fact is already known, nothing has positive marginal
    /// profit and nothing is selected.
    #[test]
    fn fully_known_source_selects_nothing() {
        let mut t = Interner::new();
        let (src, _) = skyrocket(&mut t);
        let kb: midas_kb::KnowledgeBase = src.facts.iter().copied().collect();
        let ft = FactTable::build(&src, &kb);
        let cfg = MidasConfig::running_example();
        let ctx = ProfitCtx::new(&ft, cfg.cost);
        let h = SliceHierarchy::build(&ft, &ctx, &cfg);
        let picked = traverse(&h, &ctx);
        assert!(picked.is_empty());
    }
}
