//! The profit function (Definition 9).
//!
//! All slice profits inside one web source reduce to entity-set arithmetic:
//! a slice's facts are all facts of its entities, entity rows are disjoint,
//! so for any set of slices `S` within source `W`,
//!
//! ```text
//! f(S) = (1 − f_v)·new(U) − f_d·facts(U) − f_p·|S| − f_c·|T_W|
//! ```
//!
//! where `U` is the union of the slices' entity extents. [`ProfitCtx`] binds
//! the cost model to one source's fact table and evaluates single slices,
//! slice sets, and the marginal profit of adding a slice to an accumulator —
//! the three operations MIDASalg needs.

use crate::config::CostModel;
use crate::extent::{kernels, ExtentSet};
use crate::fact_table::FactTable;

/// Profit evaluator bound to one source.
#[derive(Debug, Clone, Copy)]
pub struct ProfitCtx<'a> {
    table: &'a FactTable,
    cost: CostModel,
    /// `f_c·|T_W|` — the fixed crawling term of this source.
    crawl_fixed: f64,
}

impl<'a> ProfitCtx<'a> {
    /// Binds `cost` to `table`.
    pub fn new(table: &'a FactTable, cost: CostModel) -> Self {
        ProfitCtx {
            table,
            cost,
            crawl_fixed: cost.fc * table.total_facts() as f64,
        }
    }

    /// The cost model in use.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// The bound fact table.
    pub fn table(&self) -> &FactTable {
        self.table
    }

    /// The fixed per-source crawling term `f_c·|T_W|`.
    pub fn crawl_fixed(&self) -> f64 {
        self.crawl_fixed
    }

    /// Profit of a set of `k` slices whose union of entity extents has the
    /// given new/total fact counts.
    #[inline]
    pub fn profit_from_counts(&self, new_facts: u64, total_facts: u64, k: usize) -> f64 {
        if k == 0 {
            return 0.0;
        }
        (1.0 - self.cost.fv) * new_facts as f64
            - self.cost.fd * total_facts as f64
            - self.cost.fp * k as f64
            - self.crawl_fixed
    }

    /// `f({S})` for a single slice with entity extent `entities`.
    pub fn profit_single(&self, entities: &ExtentSet) -> f64 {
        let (new_facts, total_facts) = self.table.fact_counts(entities);
        self.profit_from_counts(new_facts, total_facts, 1)
    }

    /// `f(S)` for a set of `k` slices whose union of extents is `union`.
    pub fn profit_set(&self, union: &ExtentSet, k: usize) -> f64 {
        let (new_facts, total_facts) = self.table.fact_counts(union);
        self.profit_from_counts(new_facts, total_facts, k)
    }

    /// `f(S)` for a set of `k` slices given the extents whose union covers
    /// `S`'s entities — the batched multi-way form of [`Self::profit_set`].
    /// The union bitmap is built in one pass over a fresh bitmap through
    /// the multi-way union kernel instead of `k` pairwise
    /// passes; the counts (and thus the profit) are bit-identical to
    /// folding the extents one by one, because the union bits are the
    /// same bits whichever way they were OR'd together.
    pub fn profit_of_union(&self, extents: &[&ExtentSet], k: usize) -> f64 {
        if k == 0 {
            return 0.0;
        }
        let words = self.table.num_entities().div_ceil(64);
        let mut bits = vec![0u64; words];
        crate::extent::union_mark_into(extents, &mut bits);
        let (new_facts, total_facts) = self.table.fact_counts_from_blocks(&bits);
        self.profit_from_counts(new_facts, total_facts, k)
    }

    /// Starts an incremental accumulator for Algorithm 1.
    pub fn accumulator(&self) -> ProfitAccumulator {
        ProfitAccumulator {
            covered: vec![0u64; self.table.num_entities().div_ceil(64)],
            new_facts: 0,
            total_facts: 0,
            k: 0,
        }
    }
}

/// Incremental profit of a growing result set of slices.
///
/// Tracks the union of covered entities with a `u64`-block bitmap so that
/// the marginal profit of a candidate slice is computable in O(|extent|) —
/// and in O(universe/64) words when the extent is dense.
#[derive(Debug, Clone)]
pub struct ProfitAccumulator {
    covered: Vec<u64>,
    new_facts: u64,
    total_facts: u64,
    k: usize,
}

impl ProfitAccumulator {
    /// Current profit `f(S)` of the accumulated set.
    pub fn profit(&self, ctx: &ProfitCtx<'_>) -> f64 {
        ctx.profit_from_counts(self.new_facts, self.total_facts, self.k)
    }

    /// Number of slices accumulated.
    pub fn len(&self) -> usize {
        self.k
    }

    /// Whether no slice has been added yet.
    pub fn is_empty(&self) -> bool {
        self.k == 0
    }

    /// Marginal profit `f(S ∪ {s}) − f(S)` of adding a slice with the given
    /// extent, without mutating the accumulator.
    pub fn marginal(&self, ctx: &ProfitCtx<'_>, extent: &ExtentSet) -> f64 {
        let (dnew, dtotal) = ctx.table.fact_counts_missing_from(extent, &self.covered);
        let mut delta =
            (1.0 - ctx.cost.fv) * dnew as f64 - ctx.cost.fd * dtotal as f64 - ctx.cost.fp;
        if self.k == 0 {
            // The first slice brings in the fixed crawl term of the source.
            delta -= ctx.crawl_fixed;
        }
        delta
    }

    /// Adds a slice with the given extent to the set.
    pub fn add(&mut self, ctx: &ProfitCtx<'_>, extent: &ExtentSet) {
        let (dnew, dtotal) = ctx.table.fact_counts_claim(extent, &mut self.covered);
        self.new_facts += dnew;
        self.total_facts += dtotal;
        self.k += 1;
    }

    /// Marginal profit `f(S ∪ G) − f(S)` of adding a whole group of slices
    /// at once — the batched multi-way form of [`Self::marginal`]. The
    /// group's union bitmap is built in one kernel pass, the uncovered
    /// remainder extracted with one `and-not` pass, and both fact counts
    /// taken from that single fresh bitmap, so the cost is
    /// O(universe/64 · groups) instead of one full accumulator probe per
    /// slice. Exactly equal to the telescoped sum of per-slice marginals
    /// interleaved with adds (the fresh bits are the same bits).
    pub fn marginal_union(&self, ctx: &ProfitCtx<'_>, extents: &[&ExtentSet]) -> f64 {
        if extents.is_empty() {
            return 0.0;
        }
        let (dnew, dtotal) = ctx.table.fact_counts_from_blocks(&self.uncovered(extents));
        let mut delta = (1.0 - ctx.cost.fv) * dnew as f64
            - ctx.cost.fd * dtotal as f64
            - ctx.cost.fp * extents.len() as f64;
        if self.k == 0 {
            // The first slice brings in the fixed crawl term of the source.
            delta -= ctx.crawl_fixed;
        }
        delta
    }

    /// Adds a whole group of slices at once — the batched multi-way form
    /// of [`Self::add`]. The accumulator lands in the same state as adding
    /// the group's slices one by one in any order: the fresh-bit counts
    /// are integers and the covered map only ever gains the union's bits.
    pub fn add_union(&mut self, ctx: &ProfitCtx<'_>, extents: &[&ExtentSet]) {
        if extents.is_empty() {
            return;
        }
        let fresh = self.uncovered(extents);
        let (dnew, dtotal) = ctx.table.fact_counts_from_blocks(&fresh);
        // covered ∪= fresh ≡ covered ∪= union: the bits removed by the
        // and-not were already covered.
        kernels::or_assign(&mut self.covered, &fresh);
        self.new_facts += dnew;
        self.total_facts += dtotal;
        self.k += extents.len();
    }

    /// The bits of the extents' union that the set does not cover yet.
    fn uncovered(&self, extents: &[&ExtentSet]) -> Vec<u64> {
        let mut union_bits = vec![0u64; self.covered.len()];
        crate::extent::union_mark_into(extents, &mut union_bits);
        let mut fresh = vec![0u64; self.covered.len()];
        kernels::andnot_into(&mut fresh, &union_bits, &self.covered);
        fresh
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MidasConfig;
    use crate::fact_table::FactTable;
    use crate::fixtures::skyrocket;
    use midas_kb::Interner;

    fn ctx_for_running_example(
        terms: &mut Interner,
    ) -> (FactTable, MidasConfig, Vec<(&'static str, &'static str)>) {
        let (src, kb) = skyrocket(terms);
        let ft = FactTable::build(&src, &kb);
        (ft, MidasConfig::running_example(), vec![])
    }

    fn extent(ft: &FactTable, terms: &mut Interner, props: &[(&str, &str)]) -> ExtentSet {
        let ids: Vec<_> = props
            .iter()
            .map(|&(p, v)| {
                ft.catalog()
                    .get(terms.intern(p), terms.intern(v))
                    .expect("property exists")
            })
            .collect();
        ft.extent_of(&ids)
    }

    /// Figure 5 reports f(S5) = 4.327 with f_p = 1.
    #[test]
    fn slice_s5_profit_matches_figure_5() {
        let mut t = Interner::new();
        let (ft, cfg, _) = ctx_for_running_example(&mut t);
        let ctx = ProfitCtx::new(&ft, cfg.cost);
        let s5 = extent(
            &ft,
            &mut t,
            &[("category", "rocket_family"), ("sponsor", "NASA")],
        );
        assert!((ctx.profit_single(&s5) - 4.327).abs() < 1e-9);
    }

    /// Figure 5 reports f(S2) = f(S3) = 1.657.
    #[test]
    fn slices_s2_s3_profit_match_figure_5() {
        let mut t = Interner::new();
        let (ft, cfg, _) = ctx_for_running_example(&mut t);
        let ctx = ProfitCtx::new(&ft, cfg.cost);
        let s2 = extent(
            &ft,
            &mut t,
            &[
                ("category", "rocket_family"),
                ("started", "1957"),
                ("sponsor", "NASA"),
            ],
        );
        assert_eq!(s2.len(), 1);
        assert!((ctx.profit_single(&s2) - 1.657).abs() < 1e-9);
    }

    /// Figure 5 reports f(S4) = −1.083.
    #[test]
    fn slice_s4_profit_matches_figure_5() {
        let mut t = Interner::new();
        let (ft, cfg, _) = ctx_for_running_example(&mut t);
        let ctx = ProfitCtx::new(&ft, cfg.cost);
        let s4 = extent(
            &ft,
            &mut t,
            &[("category", "space_program"), ("sponsor", "NASA")],
        );
        assert_eq!(s4.len(), 3);
        assert!((ctx.profit_single(&s4) - (-1.083)).abs() < 1e-9);
    }

    /// The paper prints f(S1) = −1.013 but the Definition 9 formula gives
    /// −1.043 (the published figure appears to drop S1's de-dup term; see
    /// DESIGN.md). We assert the formula value.
    #[test]
    fn slice_s1_profit_follows_definition_9() {
        let mut t = Interner::new();
        let (ft, cfg, _) = ctx_for_running_example(&mut t);
        let ctx = ProfitCtx::new(&ft, cfg.cost);
        let s1 = extent(
            &ft,
            &mut t,
            &[
                ("category", "space_program"),
                ("started", "1959"),
                ("sponsor", "NASA"),
            ],
        );
        assert_eq!(s1.len(), 1);
        assert!((ctx.profit_single(&s1) - (-1.043)).abs() < 1e-9);
    }

    /// Example 10: {S5} beats {S2, S3} because it avoids one f_p, and beats
    /// {S6} through lower de-dup cost.
    #[test]
    fn example_10_set_comparisons() {
        let mut t = Interner::new();
        let (ft, cfg, _) = ctx_for_running_example(&mut t);
        let ctx = ProfitCtx::new(&ft, cfg.cost);
        let s5 = extent(
            &ft,
            &mut t,
            &[("category", "rocket_family"), ("sponsor", "NASA")],
        );
        let s6 = extent(&ft, &mut t, &[("sponsor", "NASA")]);
        let f_s5 = ctx.profit_set(&s5, 1);
        let f_s6 = ctx.profit_set(&s6, 1);
        let f_s2_s3 = ctx.profit_set(&s5, 2); // same union, two slices
        assert!(f_s5 > f_s6);
        assert!(f_s5 > f_s2_s3);
        assert!((f_s5 - f_s2_s3 - cfg.cost.fp).abs() < 1e-9);
    }

    #[test]
    fn empty_set_has_zero_profit() {
        let mut t = Interner::new();
        let (ft, cfg, _) = ctx_for_running_example(&mut t);
        let ctx = ProfitCtx::new(&ft, cfg.cost);
        assert_eq!(ctx.profit_from_counts(0, 0, 0), 0.0);
        let acc = ctx.accumulator();
        assert_eq!(acc.profit(&ctx), 0.0);
        assert!(acc.is_empty());
    }

    #[test]
    fn accumulator_matches_batch_profit() {
        let mut t = Interner::new();
        let (ft, cfg, _) = ctx_for_running_example(&mut t);
        let ctx = ProfitCtx::new(&ft, cfg.cost);
        let s5 = extent(
            &ft,
            &mut t,
            &[("category", "rocket_family"), ("sponsor", "NASA")],
        );
        let s4 = extent(
            &ft,
            &mut t,
            &[("category", "space_program"), ("sponsor", "NASA")],
        );
        let mut acc = ctx.accumulator();
        let m1 = acc.marginal(&ctx, &s5);
        acc.add(&ctx, &s5);
        assert!(
            (acc.profit(&ctx) - m1).abs() < 1e-9,
            "first marginal from zero"
        );
        let m2 = acc.marginal(&ctx, &s4);
        acc.add(&ctx, &s4);
        let union = s5.union(&s4);
        assert!((acc.profit(&ctx) - ctx.profit_set(&union, 2)).abs() < 1e-9);
        assert!((acc.profit(&ctx) - (m1 + m2)).abs() < 1e-9);
    }

    #[test]
    fn batched_union_paths_match_sequential_folds() {
        let mut t = Interner::new();
        let (ft, cfg, _) = ctx_for_running_example(&mut t);
        let ctx = ProfitCtx::new(&ft, cfg.cost);
        let s5 = extent(
            &ft,
            &mut t,
            &[("category", "rocket_family"), ("sponsor", "NASA")],
        );
        let s4 = extent(
            &ft,
            &mut t,
            &[("category", "space_program"), ("sponsor", "NASA")],
        );
        let s6 = extent(&ft, &mut t, &[("sponsor", "NASA")]);
        let group: Vec<&ExtentSet> = vec![&s5, &s4, &s6];

        // profit_of_union == profit_set over the folded union.
        let union = s5.union(&s4).union(&s6);
        assert_eq!(
            ctx.profit_of_union(&group, 3).to_bits(),
            ctx.profit_set(&union, 3).to_bits(),
            "batched set profit must be bit-identical to the pairwise fold"
        );
        assert_eq!(ctx.profit_of_union(&group, 0), 0.0);
        assert_eq!(ctx.profit_of_union(&[], 0), 0.0);

        // marginal_union == telescoped sequential marginals; add_union
        // leaves the accumulator in the sequential state (covered bits,
        // integer counts, k) so later profits stay bit-identical.
        let mut seq = ctx.accumulator();
        let mut telescoped = 0.0;
        for e in &group {
            telescoped += seq.marginal(&ctx, e);
            seq.add(&ctx, e);
        }
        let mut batched = ctx.accumulator();
        let m = batched.marginal_union(&ctx, &group);
        batched.add_union(&ctx, &group);
        assert!((m - telescoped).abs() < 1e-9, "group marginal from zero");
        assert_eq!(
            batched.profit(&ctx).to_bits(),
            seq.profit(&ctx).to_bits(),
            "accumulator state must match the sequential fold exactly"
        );
        assert_eq!(batched.len(), seq.len());

        // A second group on a non-empty accumulator (no crawl term now).
        let m2_seq = seq.marginal(&ctx, &s5) + {
            let mut probe = seq.clone();
            probe.add(&ctx, &s5);
            probe.marginal(&ctx, &s4)
        };
        let m2 = batched.marginal_union(&ctx, &[&s5, &s4]);
        assert!((m2 - m2_seq).abs() < 1e-9, "group marginal mid-stream");
        seq.add(&ctx, &s5);
        seq.add(&ctx, &s4);
        batched.add_union(&ctx, &[&s5, &s4]);
        assert_eq!(batched.profit(&ctx).to_bits(), seq.profit(&ctx).to_bits());

        // Empty group: no-op marginal and add.
        assert_eq!(batched.marginal_union(&ctx, &[]), 0.0);
        let before = batched.profit(&ctx);
        batched.add_union(&ctx, &[]);
        assert_eq!(batched.profit(&ctx).to_bits(), before.to_bits());
    }

    #[test]
    fn marginal_of_fully_covered_slice_is_negative_fp() {
        let mut t = Interner::new();
        let (ft, cfg, _) = ctx_for_running_example(&mut t);
        let ctx = ProfitCtx::new(&ft, cfg.cost);
        let s5 = extent(
            &ft,
            &mut t,
            &[("category", "rocket_family"), ("sponsor", "NASA")],
        );
        let mut acc = ctx.accumulator();
        acc.add(&ctx, &s5);
        let m = acc.marginal(&ctx, &s5);
        assert!((m + cfg.cost.fp).abs() < 1e-9);
    }
}
