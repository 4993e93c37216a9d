//! Slice-hierarchy construction (§III-A, step 1).
//!
//! The hierarchy is the property-subset lattice restricted to the property
//! sets reachable from the *initial slices* (the maximal property
//! combinations of each entity). Construction proceeds bottom-up, two levels
//! at a time, exactly as the paper describes:
//!
//! 1. **Parent generation** — each slice at level `l` (i.e. with `l`
//!    properties) generates its `l` parents by dropping one property at a
//!    time, Apriori-style.
//! 2. **Canonicality pruning** (Proposition 12) — a slice is canonical iff
//!    it is an initial slice or has at least two canonical children.
//!    Non-canonical slices are *removed*: their children are re-linked to
//!    their parents unless already reachable through another path.
//! 3. **Low-profit pruning** — a canonical slice `S` is marked invalid when
//!    `f({S}) < 0` or `f({S}) < f_LB(S)`, where `f_LB(S)` is the profit of
//!    the best known set of slices in `S`'s subtree (`SLB(S)`). Invalid
//!    slices stay in the hierarchy (they still generate parents and
//!    participate in canonicality counting) but are never reported.

use midas_kb::fnv::{FnvHashMap, FnvHashSet};

use crate::config::MidasConfig;
use crate::extent::ExtentSet;
use crate::fact_table::{EntityId, FactTable, PropertyId};
use crate::parallel::{effective_threads, par_map};
use crate::profit::ProfitCtx;

/// Construction/patch telemetry: how much evaluation work hierarchies do,
/// how much of it warm patching avoids, and the extent-memory churn.
///
/// The per-node counters (`nodes_evaluated`, `nodes_pruned`,
/// `extents_freed`) fire hundreds of thousands of times per build, so
/// they batch in plain thread-local cells and drain every [`FLUSH_EVERY`]
/// events and at thread exit — totals exact once workers retire,
/// snapshots monotone, hot path one TLS bump. The warm-patch counters are
/// per-leaf (rare) and record directly.
mod metrics {
    crate::counter!(pub NODES_EVALUATED, "hierarchy.nodes_evaluated");
    crate::counter!(pub NODES_WARM_PATCHED, "hierarchy.nodes_warm_patched");
    crate::counter!(pub NODES_PRUNED, "hierarchy.nodes_pruned");
    crate::counter!(pub EXTENTS_FREED, "hierarchy.extents_freed");
    crate::counter!(pub EXTENTS_REBUILT, "hierarchy.extents_rebuilt");
    crate::counter!(pub WARM_PATCHES, "hierarchy.warm_patch.applied");
    crate::counter!(pub WARM_REFUSALS, "hierarchy.warm_patch.refused");
}

const KIND_NODES_EVALUATED: usize = 0;
const KIND_NODES_PRUNED: usize = 1;
const KIND_EXTENTS_FREED: usize = 2;
const NUM_KINDS: usize = 3;

static KIND_SINKS: [&crate::telemetry::Counter; NUM_KINDS] = [
    &metrics::NODES_EVALUATED,
    &metrics::NODES_PRUNED,
    &metrics::EXTENTS_FREED,
];

/// Batched events per thread before draining to the shared counters.
const FLUSH_EVERY: u64 = 1024;

#[derive(Default)]
struct Tally {
    counts: [std::cell::Cell<u64>; NUM_KINDS],
    pending: std::cell::Cell<u64>,
}

impl Tally {
    fn flush(&self) {
        for (kind, sink) in KIND_SINKS.iter().enumerate() {
            let n = self.counts[kind].take();
            if n > 0 {
                sink.add_always(n);
            }
        }
        self.pending.set(0);
    }
}

impl Drop for Tally {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static TALLY: Tally = Tally::default();
}

#[inline]
fn tally(kind: usize, n: u64) {
    if crate::telemetry::enabled() {
        tally_enabled(kind, n);
    }
}

#[cold]
#[inline(never)]
fn tally_enabled(kind: usize, n: u64) {
    let _ = TALLY.try_with(|t| {
        t.counts[kind].set(t.counts[kind].get() + n);
        let pending = t.pending.get() + 1;
        if pending >= FLUSH_EVERY {
            t.flush();
        } else {
            t.pending.set(pending);
        }
    });
}

/// Index of a node in the hierarchy.
pub type NodeId = u32;

/// One node's profit evaluation: `(node, profit, f(child SLB set), child
/// SLB slices)` — `None` when the node was removed before evaluation.
type ProfitEval = Option<(NodeId, f64, f64, Vec<NodeId>)>;

/// One slice node.
#[derive(Debug, Clone)]
pub struct SliceNode {
    /// Defining property set, sorted by id.
    pub props: Box<[PropertyId]>,
    /// Entity extent `Π`.
    pub extent: ExtentSet,
    /// Children (slices with strictly more properties).
    pub children: Vec<NodeId>,
    /// Parents (slices with strictly fewer properties).
    pub parents: Vec<NodeId>,
    /// Whether the node came from an entity (or a framework seed).
    pub is_initial: bool,
    /// Canonicality per Proposition 12 (meaningful once its level is processed).
    pub canonical: bool,
    /// `true` once the node is deleted as non-canonical.
    pub removed: bool,
    /// `true` once the node's extent has been released at a level boundary
    /// (removed or low-profit-invalidated nodes only). A freed extent reads
    /// as the empty set; report paths must go through
    /// [`SliceNode::live_extent`], which asserts this flag is clear.
    pub extent_freed: bool,
    /// `false` once the node is pruned as low-profit.
    pub valid: bool,
    /// `f({S})` for this node.
    pub profit: f64,
    /// `f_LB(S)` — the subtree profit lower bound.
    pub slb_profit: f64,
    /// The slice set `SLB(S)` achieving `slb_profit`.
    pub slb_slices: Vec<NodeId>,
}

impl SliceNode {
    /// The node's extent, for report/traversal paths. Asserts (in debug
    /// builds) that the extent was not freed by the eager level-boundary
    /// release — only removed or invalidated nodes are ever freed, and
    /// neither must reach a report.
    pub fn live_extent(&self) -> &ExtentSet {
        debug_assert!(
            !self.extent_freed,
            "read of a freed extent: node was removed or invalidated and released at a level boundary"
        );
        &self.extent
    }
}

/// The constructed (and pruned) slice hierarchy of one web source.
#[derive(Debug)]
pub struct SliceHierarchy {
    nodes: Vec<SliceNode>,
    /// Cached per-node property-set hash (XOR of `prop_hash` over the set).
    hashes: Vec<u64>,
    /// Hash → candidate node ids (verified against `props` on lookup).
    by_hash: FnvHashMap<u64, Vec<NodeId>>,
    levels: Vec<Vec<NodeId>>,
    max_level: usize,
    /// Live (non-removed) node count, maintained incrementally.
    live: usize,
    /// Whether the node-count safety valve stopped expansion.
    pub capped: bool,
    /// Number of nodes ever created (before pruning) — reported by the
    /// pruning-effectiveness benchmarks.
    pub nodes_created: usize,
}

impl SliceHierarchy {
    /// Builds the hierarchy for `table`, seeding the initial level from the
    /// entities of the fact table (the single-source case of §III-A).
    pub fn build(table: &FactTable, ctx: &ProfitCtx<'_>, config: &MidasConfig) -> Self {
        Self::build_inner(table, ctx, config, None)
    }

    /// Builds the hierarchy with explicit initial property sets — the
    /// framework's multi-source case (§III-B), where the initial slices are
    /// the slices exported by the children sources. When `seeds` is empty
    /// the result is an empty hierarchy.
    pub fn build_seeded(
        table: &FactTable,
        ctx: &ProfitCtx<'_>,
        config: &MidasConfig,
        seeds: &[Vec<PropertyId>],
    ) -> Self {
        Self::build_inner(table, ctx, config, Some(seeds))
    }

    fn build_inner(
        table: &FactTable,
        ctx: &ProfitCtx<'_>,
        config: &MidasConfig,
        seeds: Option<&[Vec<PropertyId>]>,
    ) -> Self {
        let mut h = SliceHierarchy {
            nodes: Vec::new(),
            hashes: Vec::new(),
            by_hash: FnvHashMap::default(),
            levels: Vec::new(),
            max_level: 0,
            live: 0,
            capped: false,
            nodes_created: 0,
        };
        match seeds {
            Some(seeds) => h.seed_from_property_sets(table, config, seeds),
            None => h.seed_from_entities(table, config),
        }
        h.construct_and_prune(table, ctx, config);
        h
    }

    /// Number of live (non-removed) nodes.
    pub fn len(&self) -> usize {
        debug_assert_eq!(self.live, self.nodes.iter().filter(|n| !n.removed).count());
        self.live
    }

    /// Whether the hierarchy has no live nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Deepest level (number of properties of the most specific slice).
    pub fn max_level(&self) -> usize {
        self.max_level
    }

    /// Node accessor.
    pub fn node(&self, id: NodeId) -> &SliceNode {
        &self.nodes[id as usize]
    }

    /// Live node ids at `level`, in creation order.
    pub fn level(&self, level: usize) -> impl Iterator<Item = NodeId> + '_ {
        self.levels
            .get(level)
            .into_iter()
            .flatten()
            .copied()
            .filter(move |&id| !self.nodes[id as usize].removed)
    }

    /// All live node ids.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as NodeId).filter(move |&id| !self.nodes[id as usize].removed)
    }

    /// Looks up a node by exact property set (must be sorted).
    pub fn find(&self, props: &[PropertyId]) -> Option<NodeId> {
        self.lookup(set_hash(props), props)
    }

    /// Consumes the hierarchy once a shard's report is materialized,
    /// returning every node's extent and link/SLB buffers to the scratch
    /// pool. Purely an optimisation — dropping the hierarchy is always
    /// correct.
    pub fn recycle(self) {
        for node in self.nodes {
            node.extent.recycle();
            crate::scratch::put_ids(node.children);
            crate::scratch::put_ids(node.parents);
            crate::scratch::put_ids(node.slb_slices);
        }
    }

    // ---- construction -----------------------------------------------------

    fn lookup(&self, hash: u64, props: &[PropertyId]) -> Option<NodeId> {
        self.by_hash
            .get(&hash)?
            .iter()
            .copied()
            .find(|&id| *self.nodes[id as usize].props == *props)
    }

    fn get_or_create(&mut self, table: &FactTable, props: Box<[PropertyId]>) -> NodeId {
        let hash = set_hash(&props);
        if let Some(id) = self.lookup(hash, &props) {
            return id;
        }
        let extent = table.extent_of(&props);
        self.insert_node(props, hash, extent)
    }

    fn insert_node(&mut self, props: Box<[PropertyId]>, hash: u64, extent: ExtentSet) -> NodeId {
        let level = props.len();
        let id = u32::try_from(self.nodes.len()).expect("hierarchy overflow");
        if self.levels.len() <= level {
            self.levels.resize_with(level + 1, Vec::new);
        }
        self.levels[level].push(id);
        self.max_level = self.max_level.max(level);
        self.by_hash.entry(hash).or_default().push(id);
        self.hashes.push(hash);
        self.nodes.push(SliceNode {
            props,
            extent,
            children: Vec::new(),
            parents: Vec::new(),
            is_initial: false,
            canonical: false,
            removed: false,
            extent_freed: false,
            valid: true,
            profit: 0.0,
            slb_profit: 0.0,
            slb_slices: Vec::new(),
        });
        self.nodes_created += 1;
        self.live += 1;
        id
    }

    /// Creates the initial slices from entities: for each entity, the
    /// cross-product of one property per predicate (capped).
    fn seed_from_entities(&mut self, table: &FactTable, config: &MidasConfig) {
        // Entities sharing a property set generate identical initial combos
        // (the grouping, capping, and cross-product depend only on the set),
        // so the expansion runs once per distinct set and repeats are a
        // single hash probe. Real sources hit this constantly: entities of
        // one schema share one property shape.
        let mut seen_prop_sets: FnvHashSet<&[PropertyId]> = FnvHashSet::default();
        for e in 0..table.num_entities() as EntityId {
            let props = table.entity_properties(e);
            if props.is_empty() {
                continue;
            }
            if !seen_prop_sets.insert(props) {
                continue;
            }
            // Group by predicate, preserving per-group value order.
            let mut groups: Vec<(midas_kb::Symbol, Vec<PropertyId>)> = Vec::new();
            for &pid in props {
                let (pred, _) = table.catalog().pair(pid);
                match groups.iter_mut().find(|(g, _)| *g == pred) {
                    Some((_, v)) => v.push(pid),
                    None => groups.push((pred, vec![pid])),
                }
            }
            // Bound the lattice: keep the most selective predicates when an
            // entity has too many.
            if groups.len() > config.max_properties_per_entity {
                groups.sort_by_key(|(_, v)| {
                    v.iter()
                        .map(|&p| table.catalog().extent(p).len())
                        .min()
                        .unwrap_or(usize::MAX)
                });
                groups.truncate(config.max_properties_per_entity);
            }
            // Cross product of one value per predicate, capped.
            let mut combos: Vec<Vec<PropertyId>> = vec![Vec::with_capacity(groups.len())];
            for (_, values) in &groups {
                let mut next = Vec::with_capacity(combos.len() * values.len());
                'outer: for combo in &combos {
                    for &v in values {
                        if next.len() + combos.len() >= config.max_initial_combinations_per_entity
                            && !next.is_empty()
                        {
                            break 'outer;
                        }
                        let mut c = combo.clone();
                        c.push(v);
                        next.push(c);
                    }
                }
                combos = next;
            }
            for mut combo in combos {
                combo.sort_unstable();
                let id = self.get_or_create(table, combo.into_boxed_slice());
                self.nodes[id as usize].is_initial = true;
            }
        }
    }

    fn seed_from_property_sets(
        &mut self,
        table: &FactTable,
        _config: &MidasConfig,
        seeds: &[Vec<PropertyId>],
    ) {
        for seed in seeds {
            let mut s = seed.clone();
            s.sort_unstable();
            s.dedup();
            if s.is_empty() {
                continue;
            }
            let id = self.get_or_create(table, s.into_boxed_slice());
            let node = &mut self.nodes[id as usize];
            if node.extent.is_empty() {
                // A seed that matches no entity in this table carries no
                // facts; drop it outright.
                if !node.removed {
                    node.removed = true;
                    self.live -= 1;
                    self.free_extent(id);
                }
                continue;
            }
            node.is_initial = true;
        }
    }

    fn construct_and_prune(
        &mut self,
        table: &FactTable,
        ctx: &ProfitCtx<'_>,
        config: &MidasConfig,
    ) {
        for l in (1..=self.max_level).rev() {
            // Cooperative per-source budget check at the level boundary: a
            // source whose hierarchy outgrew its node cap or deadline is
            // abandoned here (unwinding into the isolated worker pool)
            // rather than ground to completion.
            crate::budget::checkpoint(self.nodes_created);
            if l > 1 {
                self.generate_parents(table, config, l);
            }
            self.prune_non_canonical(l);
            self.evaluate_and_prune_profit(ctx, config, l);
            self.free_invalid_extents(config, l);
        }
        crate::budget::checkpoint(self.nodes_created);
    }

    /// Eagerly releases the extents of nodes pruned as *low-profit* at this
    /// level boundary, extending the removed-node release of
    /// [`Self::prune_non_canonical`] to nodes invalidated later in the
    /// build (ROADMAP "Hierarchy memory"). An invalid node's extent is dead
    /// weight for the rest of the build: invalid nodes never enter an `SLB`
    /// slice set (a node nominates itself only when
    /// `profit >= f_child_set && profit > 0`, the exact complement of the
    /// invalidation condition), parent extents at shallower levels come
    /// from the catalog's inverted lists rather than child extents, and the
    /// traversal skips `!valid` nodes before touching their extent. The
    /// only remaining reader is the `always_report_best` fallback (which
    /// may report an invalid node), so freeing is gated on it. Freeing is
    /// deterministic in the node set, so parallel builds stay bit-identical
    /// to `threads = 1`.
    fn free_invalid_extents(&mut self, config: &MidasConfig, l: usize) {
        if config.always_report_best {
            return;
        }
        let ids: Vec<NodeId> = self.levels.get(l).cloned().unwrap_or_default();
        for id in ids {
            let node = &self.nodes[id as usize];
            if !node.removed && !node.valid && !node.extent_freed {
                self.free_extent(id);
            }
        }
    }

    /// Step (1): generate the `l` parents of every slice at level `l`.
    ///
    /// Each parent's extent is derived *incrementally*: for a child with
    /// properties `p_0 … p_{l-1}`, prefix/suffix intersection chains
    /// (`pre[i] = ∩_{k<i} extent(p_k)`, `suf[i] = ∩_{k≥i} extent(p_k)`)
    /// yield all `l` parent extents in `O(l)` intersections instead of the
    /// `O(l²)` of re-intersecting `l−1` inverted lists per parent. Parent
    /// lookups reuse the child's cached property-set hash
    /// (`child ⊕ prop_hash(dropped)`), so no property list is allocated for
    /// parents that already exist.
    ///
    /// The `max_hierarchy_nodes` safety valve is *level-atomic*: a level's
    /// parents are either generated in full or not at all, so no level is
    /// ever half-expanded.
    fn generate_parents(&mut self, table: &FactTable, config: &MidasConfig, l: usize) {
        if self.nodes.len() >= config.max_hierarchy_nodes {
            self.capped = true;
            return;
        }
        let ids: Vec<NodeId> = self.levels.get(l).cloned().unwrap_or_default();
        // Inside a pool worker `effective_threads` is 1: the build takes the
        // sequential path, exactly as at `threads = 1`.
        let threads = effective_threads(config.threads);
        if threads > 1 && ids.len() > 1 {
            self.generate_parents_parallel(table, threads, ids);
        } else {
            self.generate_parents_sequential(table, ids);
        }
    }

    fn generate_parents_sequential(&mut self, table: &FactTable, ids: Vec<NodeId>) {
        for id in ids {
            if self.nodes[id as usize].removed {
                continue;
            }
            let props = self.nodes[id as usize].props.clone();
            let child_hash = self.hashes[id as usize];
            // Probe every parent up front (parents of one child are distinct
            // sets, so earlier insertions of this loop can't satisfy a later
            // probe). Chains only pay off when several parents are missing;
            // a lone miss is cheaper through `extent_of`'s sorted-by-size
            // early-exit intersection.
            let found: Vec<Option<NodeId>> = (0..props.len())
                .map(|skip| {
                    let parent_hash = child_hash ^ prop_hash(props[skip]);
                    self.by_hash.get(&parent_hash).and_then(|cands| {
                        cands.iter().copied().find(|&c| {
                            props_match_skip(&self.nodes[c as usize].props, &props, skip)
                        })
                    })
                })
                .collect();
            let missing = found.iter().filter(|f| f.is_none()).count();
            let mut chains: Option<(Vec<ExtentSet>, Vec<ExtentSet>)> = None;
            for (skip, existing) in found.into_iter().enumerate() {
                let pid = match existing {
                    Some(pid) => pid,
                    None => {
                        let parent_props: Box<[PropertyId]> = props
                            .iter()
                            .enumerate()
                            .filter(|&(i, _)| i != skip)
                            .map(|(_, &p)| p)
                            .collect();
                        let extent = if missing == 1 {
                            table.extent_of(&parent_props)
                        } else {
                            let (pre, suf) =
                                chains.get_or_insert_with(|| extent_chains(table, &props));
                            if skip == 0 {
                                suf[1].clone()
                            } else if skip == props.len() - 1 {
                                pre[props.len() - 1].clone()
                            } else {
                                pre[skip].intersect(&suf[skip + 1])
                            }
                        };
                        let parent_hash = child_hash ^ prop_hash(props[skip]);
                        self.insert_node(parent_props, parent_hash, extent)
                    }
                };
                self.link(pid, id);
            }
            if let Some((pre, suf)) = chains.take() {
                recycle_chains(pre, suf);
            }
        }
    }

    /// Parallel variant: a read-only **map phase** derives the extent of
    /// every parent that does not yet exist, then a sequential **merge
    /// phase** applies insertions and links in child-id order — exactly the
    /// mutation order of the sequential path, so the resulting hierarchy is
    /// node-for-node identical. Parents shared by several children of the
    /// same level are planned redundantly by each child; the merge keeps the
    /// first plan and links the rest.
    fn generate_parents_parallel(&mut self, table: &FactTable, threads: usize, ids: Vec<NodeId>) {
        let this: &SliceHierarchy = self;
        let plans: Vec<(NodeId, Vec<Option<ExtentSet>>)> = par_map(threads, ids, |id| {
            if this.nodes[id as usize].removed {
                return (id, Vec::new());
            }
            let props = &this.nodes[id as usize].props;
            let child_hash = this.hashes[id as usize];
            // Same hybrid as the sequential path: a lone missing parent goes
            // through `extent_of`, several amortize the prefix/suffix chains.
            // Either route yields the same normalized set, so the merge stays
            // bit-identical to the sequential build.
            let exists: Vec<bool> = (0..props.len())
                .map(|skip| {
                    let parent_hash = child_hash ^ prop_hash(props[skip]);
                    this.by_hash.get(&parent_hash).is_some_and(|cands| {
                        cands
                            .iter()
                            .any(|&c| props_match_skip(&this.nodes[c as usize].props, props, skip))
                    })
                })
                .collect();
            let missing = exists.iter().filter(|e| !**e).count();
            let mut chains: Option<(Vec<ExtentSet>, Vec<ExtentSet>)> = None;
            let per_skip = exists
                .into_iter()
                .enumerate()
                .map(|(skip, exists)| {
                    if exists {
                        return None;
                    }
                    if missing == 1 {
                        let parent_props: Vec<PropertyId> = props
                            .iter()
                            .enumerate()
                            .filter(|&(i, _)| i != skip)
                            .map(|(_, &p)| p)
                            .collect();
                        return Some(table.extent_of(&parent_props));
                    }
                    let (pre, suf) = chains.get_or_insert_with(|| extent_chains(table, props));
                    Some(if skip == 0 {
                        suf[1].clone()
                    } else if skip == props.len() - 1 {
                        pre[props.len() - 1].clone()
                    } else {
                        pre[skip].intersect(&suf[skip + 1])
                    })
                })
                .collect();
            if let Some((pre, suf)) = chains.take() {
                recycle_chains(pre, suf);
            }
            (id, per_skip)
        });
        for (id, per_skip) in plans {
            if per_skip.is_empty() {
                continue;
            }
            let props = self.nodes[id as usize].props.clone();
            let child_hash = self.hashes[id as usize];
            for (skip, plan) in per_skip.into_iter().enumerate() {
                let parent_hash = child_hash ^ prop_hash(props[skip]);
                let existing = self.by_hash.get(&parent_hash).and_then(|cands| {
                    cands
                        .iter()
                        .copied()
                        .find(|&c| props_match_skip(&self.nodes[c as usize].props, &props, skip))
                });
                let pid = match existing {
                    Some(pid) => pid,
                    None => {
                        let extent = plan.expect("missing parents are planned in the map phase");
                        let parent_props: Box<[PropertyId]> = props
                            .iter()
                            .enumerate()
                            .filter(|&(i, _)| i != skip)
                            .map(|(_, &p)| p)
                            .collect();
                        self.insert_node(parent_props, parent_hash, extent)
                    }
                };
                self.link(pid, id);
            }
        }
    }

    /// Releases the extent of a removed or invalid node into the scratch
    /// pool, leaving a canonical empty set behind. Sequential and parallel
    /// builds remove and invalidate the same nodes in the same order, so
    /// freed extents stay node-for-node identical across thread counts.
    fn free_extent(&mut self, id: NodeId) {
        let node = &mut self.nodes[id as usize];
        debug_assert!(
            node.removed || !node.valid,
            "only removed or invalid nodes lose their extent"
        );
        if !node.extent_freed {
            let universe = node.extent.universe();
            std::mem::replace(&mut node.extent, ExtentSet::empty(universe)).recycle();
            node.extent_freed = true;
            tally(KIND_EXTENTS_FREED, 1);
        }
    }

    fn link(&mut self, parent: NodeId, child: NodeId) {
        // Children are kept sorted by id, so the duplicate check is a
        // binary search instead of a linear scan.
        if let Err(pos) = self.nodes[parent as usize].children.binary_search(&child) {
            self.nodes[parent as usize].children.insert(pos, child);
            self.nodes[child as usize].parents.push(parent);
        }
    }

    fn unlink_all(&mut self, id: NodeId) -> (Vec<NodeId>, Vec<NodeId>) {
        let parents = std::mem::take(&mut self.nodes[id as usize].parents);
        let children = std::mem::take(&mut self.nodes[id as usize].children);
        for &p in &parents {
            self.nodes[p as usize].children.retain(|&c| c != id);
        }
        for &c in &children {
            self.nodes[c as usize].parents.retain(|&p| p != id);
        }
        (parents, children)
    }

    /// Whether `target` is reachable from `from` through live children links.
    /// Links always point from a property subset to a strict superset, so the
    /// search only descends into nodes whose property set is a subset of the
    /// target's.
    /// `visited` is a per-node stamp array (indexed by node id) and `round`
    /// a fresh stamp value per call — reused across calls so the DFS does no
    /// per-call allocation or hashing.
    fn is_descendant(
        &self,
        from: NodeId,
        target: NodeId,
        stack: &mut Vec<NodeId>,
        visited: &mut [u32],
        round: u32,
    ) -> bool {
        let target_props = &self.nodes[target as usize].props;
        stack.clear();
        stack.push(from);
        while let Some(cur) = stack.pop() {
            for &c in &self.nodes[cur as usize].children {
                if c == target {
                    return true;
                }
                let cn = &self.nodes[c as usize];
                if cn.removed || visited[c as usize] == round {
                    continue;
                }
                visited[c as usize] = round;
                if cn.props.len() < target_props.len() && is_subset(&cn.props, target_props) {
                    stack.push(c);
                }
            }
        }
        false
    }

    /// Step (2): canonicality per Proposition 12 at level `l`, removing
    /// non-canonical slices and re-linking their children.
    fn prune_non_canonical(&mut self, l: usize) {
        let ids: Vec<NodeId> = self.levels.get(l).cloned().unwrap_or_default();
        let mut stack: Vec<NodeId> = Vec::new();
        let mut visited: Vec<u32> = vec![0; self.nodes.len()];
        let mut round: u32 = 0;
        for id in ids {
            let node = &self.nodes[id as usize];
            if node.removed {
                continue;
            }
            let canonical = node.is_initial
                || node
                    .children
                    .iter()
                    .filter(|&&c| self.nodes[c as usize].canonical)
                    .count()
                    >= 2;
            if canonical {
                self.nodes[id as usize].canonical = true;
                continue;
            }
            // Remove the node; re-link children to parents unless already
            // reachable through another path. Its extent is dead weight from
            // here on — release it at this level boundary (ROADMAP
            // "Hierarchy memory") instead of holding it until the report.
            self.nodes[id as usize].removed = true;
            self.live -= 1;
            tally(KIND_NODES_PRUNED, 1);
            self.free_extent(id);
            let (parents, children) = self.unlink_all(id);
            for &p in &parents {
                for &c in &children {
                    round += 1;
                    if !self.is_descendant(p, c, &mut stack, &mut visited, round) {
                        self.link(p, c);
                    }
                }
            }
        }
    }

    /// Step (3): profit evaluation, `SLB`/`f_LB` maintenance, and low-profit
    /// pruning at level `l`.
    ///
    /// Nodes at one level are independent (each reads only its own extent
    /// and the already-finalized `SLB` data of deeper levels), so the pure
    /// computation runs through [`par_map`] and the results are written back
    /// sequentially — parallel runs are bit-identical to `threads = 1`.
    fn evaluate_and_prune_profit(&mut self, ctx: &ProfitCtx<'_>, config: &MidasConfig, l: usize) {
        let ids: Vec<NodeId> = self.levels.get(l).cloned().unwrap_or_default();
        self.evaluate_ids(ctx, config, ids);
    }

    /// The shared evaluation body of [`Self::evaluate_and_prune_profit`] and
    /// [`Self::warm_patch`]: profit, `SLB` union, and the validity decision
    /// for exactly `ids` (all at one level). The two callers differ only in
    /// which ids they pass — a whole level at build time, the level's dirty
    /// subset when warm-patching — so running the identical computation and
    /// write-back here is what keeps warm results bit-identical to a fresh
    /// build.
    fn evaluate_ids(&mut self, ctx: &ProfitCtx<'_>, config: &MidasConfig, ids: Vec<NodeId>) {
        tally(KIND_NODES_EVALUATED, ids.len() as u64);
        let this: &SliceHierarchy = self;
        let evals: Vec<ProfitEval> = par_map(config.threads, ids, |id| {
            if this.nodes[id as usize].removed {
                return None;
            }
            let node = &this.nodes[id as usize];
            let profit = ctx.profit_single(&node.extent);

            // Union of the children's lower-bound slice sets (those with
            // positive lower-bound profit).
            let mut child_set: Vec<NodeId> = Vec::new();
            let mut seen: FnvHashSet<NodeId> = FnvHashSet::default();
            for &c in &node.children {
                let cn = &this.nodes[c as usize];
                if cn.slb_profit > 0.0 {
                    for &s in &cn.slb_slices {
                        if seen.insert(s) {
                            child_set.push(s);
                        }
                    }
                }
            }
            let f_child_set = if child_set.is_empty() {
                0.0
            } else {
                // Batched multi-way union into a pooled bitmap through the
                // dispatched kernels instead of merging sorted vectors
                // pairwise or marking one extent at a time — dense SLB
                // extents are OR'd in register-resident groups, and the
                // bitmap is recycled across nodes, levels, and shards.
                let extents: Vec<&ExtentSet> = child_set
                    .iter()
                    .map(|&s| this.nodes[s as usize].live_extent())
                    .collect();
                ctx.profit_of_union(&extents, child_set.len())
            };
            Some((id, profit, f_child_set, child_set))
        });

        for (id, profit, f_child_set, child_set) in evals.into_iter().flatten() {
            let node = &mut self.nodes[id as usize];
            node.profit = profit;
            if profit >= f_child_set && profit > 0.0 {
                node.slb_profit = profit;
                node.slb_slices = vec![id];
            } else if f_child_set > 0.0 {
                node.slb_profit = f_child_set;
                node.slb_slices = child_set;
            } else {
                node.slb_profit = 0.0;
                node.slb_slices = Vec::new();
            }
            if !config.disable_profit_pruning && (profit < 0.0 || profit < f_child_set) {
                node.valid = false;
            }
        }
    }

    // ---- warm re-evaluation across augmentation rounds --------------------

    /// Patches an already-built hierarchy in place after a KB insertion
    /// delta, instead of rebuilding it from the (refreshed) fact table.
    ///
    /// The hierarchy's *structure* — node set, levels, links, canonicality,
    /// removals, `nodes_created`, `capped` — is a pure function of the
    /// source's fact rows and never of KB newness, so a delta that only
    /// flips facts from *new* to *known* (the only thing
    /// [`FactTable::refresh_new_counts`] does) leaves all of it valid. What
    /// a delta can change is the profit state: `profit`, `slb_profit`,
    /// `slb_slices`, `valid`, and the freed-extent bookkeeping that hangs
    /// off `valid`. A node needs re-evaluation exactly when its extent
    /// contains an entity whose `new(e)` count changed (`changed`, from
    /// `refresh_new_counts`); that dirtiness is upward-closed (a parent's
    /// extent contains every child's), so re-running the build's own
    /// evaluation pass over just the dirty nodes, level by level from the
    /// deepest up, reproduces a fresh build bit for bit:
    ///
    /// * dirty nodes whose extent was freed (invalidated last round) get it
    ///   recomputed via [`FactTable::extent_of`] — bit-identical to the
    ///   build-time extent — because invalid→valid flips are possible
    ///   (`f_LB` can drop by more than `f({S})`);
    /// * `valid` is reset before re-evaluation and re-decided by the exact
    ///   build-time rule (the same `evaluate_ids` pass);
    /// * still-invalid dirty extents are re-freed at the level boundary
    ///   under the same config gate as the build's level-boundary release;
    /// * clean nodes keep last round's values, which equal what a fresh
    ///   build would compute (their counts and their children's SLB state
    ///   are untouched — `SLB` members live inside the member's subtree, so
    ///   a clean node's SLB chain is clean too).
    ///
    /// Returns `false` without touching anything when the delta invalidated
    /// the structure (the entity universe widened, or a changed id falls
    /// outside it) — the caller falls back to a cold
    /// [`Self::build`]/[`Self::build_seeded`]. With today's immutable
    /// per-source fact tables this is purely defensive.
    pub fn warm_patch(
        &mut self,
        ctx: &ProfitCtx<'_>,
        config: &MidasConfig,
        changed: &[EntityId],
    ) -> bool {
        // The dirty-flag buffer is pooled. Every exit — a structure-refusal
        // `false` (the caller falls back to a cold rebuild), a budget
        // breach unwinding out of `checkpoint`, or the normal return — must
        // hand it back, or warm and cold runs end up with different pool
        // occupancy (the scratch take/put counters pinned this down). An
        // RAII holder routes all three through one `put_flags`.
        struct PooledFlags(Option<Vec<bool>>);
        impl Drop for PooledFlags {
            fn drop(&mut self) {
                if let Some(buf) = self.0.take() {
                    crate::scratch::put_flags(buf);
                }
            }
        }
        let table = ctx.table();
        let universe = table.num_entities() as u32;
        let mut holder = PooledFlags(Some(crate::scratch::take_flags(self.nodes.len())));
        let dirty: &mut [bool] = match holder.0.as_mut() {
            Some(buf) => buf,
            None => &mut [],
        };
        if let Some(node) = self.nodes.first() {
            if node.extent.universe() != universe {
                metrics::WARM_REFUSALS.inc();
                return false;
            }
        }
        if changed.iter().any(|&e| e >= universe) {
            metrics::WARM_REFUSALS.inc();
            return false;
        }
        // Dirty ⟺ the node's extent contains a changed entity. The subset
        // test on the defining property set is that same membership
        // predicate (e ∈ Π(props) ⟺ props ⊆ props(e)) and — unlike the
        // extent itself — is still answerable for nodes whose extent was
        // freed when they were invalidated.
        for (i, node) in self.nodes.iter().enumerate() {
            if node.removed {
                continue;
            }
            dirty[i] = changed
                .iter()
                .any(|&e| is_subset(&node.props, table.entity_properties(e)));
        }
        let mut patched = 0u64;
        for l in (1..=self.max_level).rev() {
            // Same cooperative budget cadence as `construct_and_prune`, so
            // budget faults fire at the same checkpoints either way.
            crate::budget::checkpoint(self.nodes_created);
            let ids: Vec<NodeId> = self
                .levels
                .get(l)
                .into_iter()
                .flatten()
                .copied()
                .filter(|&id| dirty[id as usize])
                .collect();
            if ids.is_empty() {
                continue;
            }
            patched += ids.len() as u64;
            for &id in &ids {
                if self.nodes[id as usize].extent_freed {
                    let props = self.nodes[id as usize].props.clone();
                    let rebuilt = table.extent_of(&props);
                    let node = &mut self.nodes[id as usize];
                    std::mem::replace(&mut node.extent, rebuilt).recycle();
                    node.extent_freed = false;
                    metrics::EXTENTS_REBUILT.inc();
                }
                self.nodes[id as usize].valid = true;
            }
            self.evaluate_ids(ctx, config, ids.clone());
            if !config.always_report_best {
                for &id in &ids {
                    let node = &self.nodes[id as usize];
                    if !node.removed && !node.valid && !node.extent_freed {
                        self.free_extent(id);
                    }
                }
            }
        }
        crate::budget::checkpoint(self.nodes_created);
        metrics::WARM_PATCHES.inc();
        metrics::NODES_WARM_PATCHED.add(patched);
        true
    }
}

/// splitmix64-style avalanche of one property id. Set hashes XOR these
/// together, so a parent's hash is `child_hash ^ prop_hash(dropped)` — O(1)
/// per candidate, no property-list allocation.
fn prop_hash(p: PropertyId) -> u64 {
    let mut z = u64::from(p).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// XOR-combined hash of a (duplicate-free) property set. Order-insensitive
/// by construction; collisions are resolved by comparing the actual sets.
fn set_hash(props: &[PropertyId]) -> u64 {
    props.iter().fold(0, |h, &p| h ^ prop_hash(p))
}

/// Does `cand` equal `props` with the element at `skip` removed?
/// Allocation-free candidate verification for parent lookups.
fn props_match_skip(cand: &[PropertyId], props: &[PropertyId], skip: usize) -> bool {
    if cand.len() + 1 != props.len() {
        return false;
    }
    let mut j = 0;
    for (i, &p) in props.iter().enumerate() {
        if i == skip {
            continue;
        }
        if cand[j] != p {
            return false;
        }
        j += 1;
    }
    true
}

/// Prefix/suffix intersection chains over a child's inverted lists:
/// `pre[i] = extent(p_0) ∩ … ∩ extent(p_{i-1})` for `i` in `1..l`, and
/// `suf[i] = extent(p_i) ∩ … ∩ extent(p_{l-1})` for `i` in `1..l`.
/// Index 0 of `pre` (and 0 / `l` of `suf`) are never read.
fn extent_chains(table: &FactTable, props: &[PropertyId]) -> (Vec<ExtentSet>, Vec<ExtentSet>) {
    let l = props.len();
    debug_assert!(l >= 2);
    let cat = table.catalog();
    let mut pre: Vec<ExtentSet> = Vec::with_capacity(l);
    pre.push(ExtentSet::empty(0));
    pre.push(cat.extent(props[0]).clone());
    for i in 2..l {
        let mut next = pre[i - 1].clone();
        next.intersect_with(cat.extent(props[i - 1]));
        pre.push(next);
    }
    let mut suf: Vec<ExtentSet> = vec![ExtentSet::empty(0); l + 1];
    suf[l - 1] = cat.extent(props[l - 1]).clone();
    for i in (1..l - 1).rev() {
        let mut next = suf[i + 1].clone();
        next.intersect_with(cat.extent(props[i]));
        suf[i] = next;
    }
    (pre, suf)
}

/// Returns the chain sets of [`extent_chains`] to the scratch pool once all
/// parent extents of a child have been derived (the derived extents are
/// clones or fresh intersections, never views into the chains).
fn recycle_chains(pre: Vec<ExtentSet>, suf: Vec<ExtentSet>) {
    for e in pre.into_iter().chain(suf) {
        e.recycle();
    }
}

fn is_subset(sub: &[PropertyId], sup: &[PropertyId]) -> bool {
    // Both sorted.
    let mut j = 0;
    for &x in sub {
        while j < sup.len() && sup[j] < x {
            j += 1;
        }
        if j >= sup.len() || sup[j] != x {
            return false;
        }
        j += 1;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MidasConfig;
    use crate::fact_table::FactTable;
    use crate::fixtures::skyrocket;
    use midas_kb::Interner;

    fn build_running_example(terms: &mut Interner) -> (FactTable, MidasConfig) {
        let (src, kb) = skyrocket(terms);
        let ft = FactTable::build(&src, &kb);
        (ft, MidasConfig::running_example())
    }

    fn prop(ft: &FactTable, t: &mut Interner, p: &str, v: &str) -> PropertyId {
        ft.catalog()
            .get(t.intern(p), t.intern(v))
            .expect("property")
    }

    /// A node's extent, rebuilt from the catalog (as `warm_patch` does)
    /// when the level-boundary release freed it.
    fn node_extent(h: &SliceHierarchy, ft: &FactTable, id: NodeId) -> ExtentSet {
        let n = h.node(id);
        if n.extent_freed {
            ft.extent_of(&n.props)
        } else {
            n.extent.clone()
        }
    }

    fn find_node(
        h: &SliceHierarchy,
        ft: &FactTable,
        t: &mut Interner,
        props: &[(&str, &str)],
    ) -> Option<NodeId> {
        let mut ids: Vec<PropertyId> = props.iter().map(|&(p, v)| prop(ft, t, p, v)).collect();
        ids.sort_unstable();
        h.find(&ids)
    }

    #[test]
    fn initial_slices_match_figure_5a() {
        let mut t = Interner::new();
        let (ft, cfg) = build_running_example(&mut t);
        let ctx = ProfitCtx::new(&ft, cfg.cost);
        let h = SliceHierarchy::build(&ft, &ctx, &cfg);
        // Figure 5a: S1, S2, S3 at level 3 and S4 at level 2 are initial.
        let s1 = find_node(
            &h,
            &ft,
            &mut t,
            &[
                ("category", "space_program"),
                ("started", "1959"),
                ("sponsor", "NASA"),
            ],
        )
        .unwrap();
        let s2 = find_node(
            &h,
            &ft,
            &mut t,
            &[
                ("category", "rocket_family"),
                ("started", "1957"),
                ("sponsor", "NASA"),
            ],
        )
        .unwrap();
        let s3 = find_node(
            &h,
            &ft,
            &mut t,
            &[
                ("category", "rocket_family"),
                ("started", "1971"),
                ("sponsor", "NASA"),
            ],
        )
        .unwrap();
        let s4 = find_node(
            &h,
            &ft,
            &mut t,
            &[("category", "space_program"), ("sponsor", "NASA")],
        )
        .unwrap();
        for id in [s1, s2, s3, s4] {
            assert!(h.node(id).is_initial);
            assert!(h.node(id).canonical);
        }
        // S4 is invalidated by profit pruning, so its extent is rebuilt.
        assert_eq!(node_extent(&h, &ft, s4).len(), 3, "S4 covers e1, e2, e4");
    }

    #[test]
    fn s5_is_discovered_and_canonical() {
        let mut t = Interner::new();
        let (ft, cfg) = build_running_example(&mut t);
        let ctx = ProfitCtx::new(&ft, cfg.cost);
        let h = SliceHierarchy::build(&ft, &ctx, &cfg);
        let s5 = find_node(
            &h,
            &ft,
            &mut t,
            &[("category", "rocket_family"), ("sponsor", "NASA")],
        )
        .unwrap();
        let n = h.node(s5);
        assert!(!n.is_initial, "S5 is generated, not initial");
        assert!(n.canonical, "S5 has two canonical children S2, S3");
        assert!(n.valid, "S5 survives profit pruning");
        assert!((n.profit - 4.327).abs() < 1e-9);
        assert_eq!(n.extent.len(), 2);
    }

    #[test]
    fn non_canonical_pairs_are_removed() {
        let mut t = Interner::new();
        let (ft, cfg) = build_running_example(&mut t);
        let ctx = ProfitCtx::new(&ft, cfg.cost);
        let h = SliceHierarchy::build(&ft, &ctx, &cfg);
        // {c1, c3} ("space programs started in 1959") selects the same
        // entity as S1 but with fewer properties — non-canonical.
        let id = find_node(
            &h,
            &ft,
            &mut t,
            &[("category", "space_program"), ("started", "1959")],
        );
        match id {
            None => {}
            Some(id) => assert!(h.node(id).removed),
        }
        // Same for {c4, c6} vs S2.
        if let Some(id) = find_node(&h, &ft, &mut t, &[("started", "1957"), ("sponsor", "NASA")]) {
            assert!(h.node(id).removed);
        }
    }

    #[test]
    fn invalid_extents_are_freed_at_level_boundaries() {
        let mut t = Interner::new();
        let (ft, cfg) = build_running_example(&mut t);
        let ctx = ProfitCtx::new(&ft, cfg.cost);
        // Default: the extent of a low-profit-invalidated node is released
        // at the level boundary that invalidated it.
        let h = SliceHierarchy::build(&ft, &ctx, &cfg);
        let c6 = find_node(&h, &ft, &mut t, &[("sponsor", "NASA")]).unwrap();
        assert!(!h.node(c6).valid);
        assert!(h.node(c6).extent_freed, "invalid extent freed by default");
        assert!(h.node(c6).extent.is_empty(), "freed extent reads empty");
        // `always_report_best` (whose fallback may report an invalid node)
        // keeps extents alive.
        let cfg = MidasConfig {
            always_report_best: true,
            ..MidasConfig::running_example()
        };
        let h = SliceHierarchy::build(&ft, &ctx, &cfg);
        let c6 = find_node(&h, &ft, &mut t, &[("sponsor", "NASA")]).unwrap();
        assert!(!h.node(c6).valid);
        assert!(!h.node(c6).extent_freed);
        assert!(!h.node(c6).extent.is_empty(), "retained extent readable");
    }

    #[test]
    fn c6_is_canonical_but_pruned_low_profit() {
        let mut t = Interner::new();
        let (ft, cfg) = build_running_example(&mut t);
        let ctx = ProfitCtx::new(&ft, cfg.cost);
        let h = SliceHierarchy::build(&ft, &ctx, &cfg);
        let c6 = find_node(&h, &ft, &mut t, &[("sponsor", "NASA")]).unwrap();
        let n = h.node(c6);
        assert!(n.canonical, "c6 has canonical children S4 and S5");
        assert!(!n.valid, "f(c6)=4.257 < f_LB from S5=4.327");
        assert!((n.profit - 4.257).abs() < 1e-9);
        assert!((n.slb_profit - 4.327).abs() < 1e-9);
    }

    #[test]
    fn s4_and_s1_are_pruned_negative() {
        let mut t = Interner::new();
        let (ft, cfg) = build_running_example(&mut t);
        let ctx = ProfitCtx::new(&ft, cfg.cost);
        let h = SliceHierarchy::build(&ft, &ctx, &cfg);
        let s4 = find_node(
            &h,
            &ft,
            &mut t,
            &[("category", "space_program"), ("sponsor", "NASA")],
        )
        .unwrap();
        assert!(!h.node(s4).valid);
        assert!((h.node(s4).profit - (-1.083)).abs() < 1e-9);
        assert_eq!(h.node(s4).slb_profit, 0.0);
        let s1 = find_node(
            &h,
            &ft,
            &mut t,
            &[
                ("category", "space_program"),
                ("started", "1959"),
                ("sponsor", "NASA"),
            ],
        )
        .unwrap();
        assert!(!h.node(s1).valid);
        assert!((h.node(s1).profit - (-1.043)).abs() < 1e-9);
    }

    #[test]
    fn singleton_c1_to_c5_are_non_canonical() {
        let mut t = Interner::new();
        let (ft, cfg) = build_running_example(&mut t);
        let ctx = ProfitCtx::new(&ft, cfg.cost);
        let h = SliceHierarchy::build(&ft, &ctx, &cfg);
        for (p, v) in [
            ("category", "space_program"),
            ("category", "rocket_family"),
            ("started", "1959"),
            ("started", "1957"),
            ("started", "1971"),
        ] {
            let id = find_node(&h, &ft, &mut t, &[(p, v)]).unwrap();
            assert!(
                h.node(id).removed,
                "singleton {p}={v} has one canonical child and must be removed"
            );
        }
    }

    #[test]
    fn disable_profit_pruning_keeps_all_canonical_valid() {
        let mut t = Interner::new();
        let (ft, mut cfg) = build_running_example(&mut t);
        cfg.disable_profit_pruning = true;
        let ctx = ProfitCtx::new(&ft, cfg.cost);
        let h = SliceHierarchy::build(&ft, &ctx, &cfg);
        for id in h.iter() {
            assert!(h.node(id).valid);
        }
    }

    #[test]
    fn seeded_hierarchy_builds_from_property_sets() {
        let mut t = Interner::new();
        let (ft, cfg) = build_running_example(&mut t);
        let ctx = ProfitCtx::new(&ft, cfg.cost);
        let c2 = prop(&ft, &mut t, "category", "rocket_family");
        let c4 = prop(&ft, &mut t, "started", "1957");
        let c5 = prop(&ft, &mut t, "started", "1971");
        let c6 = prop(&ft, &mut t, "sponsor", "NASA");
        let seeds = vec![vec![c2, c4, c6], vec![c2, c5, c6]];
        let h = SliceHierarchy::build_seeded(&ft, &ctx, &cfg, &seeds);
        // The parent {c2, c6} (= S5) must be generated and canonical.
        let mut key = vec![c2, c6];
        key.sort_unstable();
        let s5 = h.find(&key).expect("S5 generated from seeds");
        assert!(h.node(s5).canonical);
        assert!(h.node(s5).valid);
    }

    #[test]
    fn empty_seed_list_yields_empty_hierarchy() {
        let mut t = Interner::new();
        let (ft, cfg) = build_running_example(&mut t);
        let ctx = ProfitCtx::new(&ft, cfg.cost);
        let h = SliceHierarchy::build_seeded(&ft, &ctx, &cfg, &[]);
        assert!(h.is_empty());
    }

    #[test]
    fn multi_valued_predicate_generates_capped_combinations() {
        let mut t = Interner::new();
        let mut facts = Vec::new();
        for i in 0..10 {
            facts.push(midas_kb::Fact::intern(
                &mut t,
                "cocktail",
                "ingredient",
                &format!("ing{i}"),
            ));
        }
        let src = crate::source::SourceFacts::new(
            midas_weburl::SourceUrl::parse("http://c.com/m").unwrap(),
            facts,
        );
        let kb = midas_kb::KnowledgeBase::new();
        let ft = FactTable::build(&src, &kb);
        let mut cfg = MidasConfig::running_example();
        cfg.max_initial_combinations_per_entity = 4;
        let ctx = ProfitCtx::new(&ft, cfg.cost);
        let h = SliceHierarchy::build(&ft, &ctx, &cfg);
        let initial = h.iter().filter(|&id| h.node(id).is_initial).count();
        assert!(initial <= 4, "combination cap respected, got {initial}");
        assert!(initial >= 1);
    }

    #[test]
    fn parent_links_are_strict_subsets() {
        let mut t = Interner::new();
        let (ft, cfg) = build_running_example(&mut t);
        let ctx = ProfitCtx::new(&ft, cfg.cost);
        let h = SliceHierarchy::build(&ft, &ctx, &cfg);
        for id in h.iter() {
            let n = h.node(id);
            for &c in &n.children {
                let cn = h.node(c);
                assert!(cn.props.len() > n.props.len());
                assert!(is_subset(&n.props, &cn.props));
                assert!(cn.parents.contains(&id));
            }
        }
    }

    #[test]
    fn extents_shrink_down_the_hierarchy() {
        let mut t = Interner::new();
        let (ft, cfg) = build_running_example(&mut t);
        let ctx = ProfitCtx::new(&ft, cfg.cost);
        let h = SliceHierarchy::build(&ft, &ctx, &cfg);
        // This walks every live node's extent, including invalidated ones,
        // whose extents were freed and are rebuilt here.
        for id in h.iter() {
            let extent = node_extent(&h, &ft, id);
            for &c in &h.node(id).children {
                let cextent = node_extent(&h, &ft, c);
                assert!(
                    cextent.iter().all(|e| extent.contains(e)),
                    "child extent must be a subset of parent extent"
                );
            }
        }
    }

    #[test]
    fn is_subset_helper() {
        assert!(is_subset(&[1, 3], &[1, 2, 3]));
        assert!(!is_subset(&[1, 4], &[1, 2, 3]));
        assert!(is_subset(&[], &[1]));
        assert!(!is_subset(&[1], &[]));
    }

    #[test]
    fn set_hash_supports_incremental_parent_keys() {
        let props = [3u32, 17, 42, 1000];
        for skip in 0..props.len() {
            let parent: Vec<PropertyId> = props
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != skip)
                .map(|(_, &p)| p)
                .collect();
            assert_eq!(set_hash(&parent), set_hash(&props) ^ prop_hash(props[skip]));
        }
        assert_ne!(prop_hash(0), prop_hash(1));
    }

    #[test]
    fn props_match_skip_helper() {
        assert!(props_match_skip(&[2, 3], &[1, 2, 3], 0));
        assert!(props_match_skip(&[1, 3], &[1, 2, 3], 1));
        assert!(props_match_skip(&[1, 2], &[1, 2, 3], 2));
        assert!(!props_match_skip(&[1, 3], &[1, 2, 3], 0));
        assert!(!props_match_skip(&[1, 2, 3], &[1, 2, 3], 1));
    }

    /// The incrementally derived parent extents must equal a full
    /// re-intersection of their inverted lists.
    #[test]
    fn generated_extents_match_full_reintersection() {
        let mut t = Interner::new();
        let (ft, mut cfg) = build_running_example(&mut t);
        cfg.disable_profit_pruning = true;
        let ctx = ProfitCtx::new(&ft, cfg.cost);
        let h = SliceHierarchy::build(&ft, &ctx, &cfg);
        assert!(h.max_level() >= 2);
        for id in h.iter() {
            let n = h.node(id);
            assert_eq!(n.extent, ft.extent_of(&n.props), "props {:?}", n.props);
        }
    }

    #[test]
    fn len_tracks_live_nodes() {
        let mut t = Interner::new();
        let (ft, cfg) = build_running_example(&mut t);
        let ctx = ProfitCtx::new(&ft, cfg.cost);
        let h = SliceHierarchy::build(&ft, &ctx, &cfg);
        assert_eq!(h.len(), h.iter().count());
        assert!(!h.is_empty());
    }

    #[test]
    fn node_cap_below_seed_count_generates_nothing() {
        let mut t = Interner::new();
        let (ft, mut cfg) = build_running_example(&mut t);
        cfg.max_hierarchy_nodes = 1;
        let ctx = ProfitCtx::new(&ft, cfg.cost);
        let h = SliceHierarchy::build(&ft, &ctx, &cfg);
        assert!(h.capped, "cap must be reported");
        for id in h.iter() {
            assert!(h.node(id).is_initial, "no parents may be generated");
        }
    }

    fn assert_hierarchies_identical(a: &SliceHierarchy, b: &SliceHierarchy) {
        assert_eq!(a.nodes_created, b.nodes_created);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.max_level(), b.max_level());
        assert_eq!(a.capped, b.capped);
        for id in 0..a.nodes_created {
            let (x, y) = (&a.nodes[id], &b.nodes[id]);
            assert_eq!(x.props, y.props, "node {id}");
            assert_eq!(x.extent, y.extent, "node {id}");
            assert_eq!(x.children, y.children, "node {id}");
            assert_eq!(x.parents, y.parents, "node {id}");
            assert_eq!(x.removed, y.removed, "node {id}");
            assert_eq!(x.extent_freed, y.extent_freed, "node {id}");
            assert_eq!(x.canonical, y.canonical, "node {id}");
            assert_eq!(x.valid, y.valid, "node {id}");
            assert_eq!(x.profit.to_bits(), y.profit.to_bits(), "node {id}");
            assert_eq!(x.slb_profit.to_bits(), y.slb_profit.to_bits(), "node {id}");
            assert_eq!(x.slb_slices, y.slb_slices, "node {id}");
        }
    }

    /// `threads = 4` must build a bit-identical hierarchy to `threads = 1`.
    #[test]
    fn parallel_build_is_node_for_node_identical() {
        let mut t = Interner::new();
        let (ft, cfg) = build_running_example(&mut t);
        let ctx = ProfitCtx::new(&ft, cfg.cost);
        let h1 = SliceHierarchy::build(&ft, &ctx, &cfg);
        let h4 = SliceHierarchy::build(&ft, &ctx, &cfg.clone().with_threads(4));
        assert_hierarchies_identical(&h1, &h4);

        // Also with pruning disabled (more surviving structure to compare).
        let mut cfg_np = cfg;
        cfg_np.disable_profit_pruning = true;
        let h1 = SliceHierarchy::build(&ft, &ctx, &cfg_np);
        let h4 = SliceHierarchy::build(&ft, &ctx, &cfg_np.clone().with_threads(4));
        assert_hierarchies_identical(&h1, &h4);
    }

    /// A `threads = 4` build issued from a pool worker runs inline (the
    /// framework's per-source tasks build this way) and must still be
    /// node-for-node identical to `threads = 1`.
    #[test]
    fn build_inside_a_pool_worker_is_node_for_node_identical() {
        let mut t = Interner::new();
        let (ft, cfg) = build_running_example(&mut t);
        let ctx = ProfitCtx::new(&ft, cfg.cost);
        let h1 = SliceHierarchy::build(&ft, &ctx, &cfg);
        let cfg4 = cfg.clone().with_threads(4);
        let built =
            crate::parallel::par_map(4, vec![0, 1], |_| SliceHierarchy::build(&ft, &ctx, &cfg4));
        for h4 in &built {
            assert_hierarchies_identical(&h1, h4);
        }
    }

    /// Warm-patching last round's hierarchy after a KB insertion delta must
    /// be node-for-node identical (profit bits, SLB sets, validity, freed
    /// extents) to a fresh build over the refreshed table — repeatedly, as
    /// the augmentation loop makes one entity after another old. This walks
    /// through invalid→valid flips and freed-extent recomputation, since
    /// shrinking `new(e)` moves both `f({S})` and `f_LB(S)`.
    #[test]
    fn warm_patch_matches_fresh_build_across_kb_deltas() {
        let mut t = Interner::new();
        let (src, mut kb) = skyrocket(&mut t);
        let mut ft = FactTable::build(&src, &kb);
        let cfg = MidasConfig::running_example();
        let mut warm = {
            let ctx = ProfitCtx::new(&ft, cfg.cost);
            SliceHierarchy::build(&ft, &ctx, &cfg)
        };
        // Make one entity's facts known per iteration, as accepted rounds do.
        while let Some(eid) =
            (0..ft.num_entities() as EntityId).find(|&e| ft.row(e).iter().any(|f| kb.is_new(f)))
        {
            let subject = ft.subject(eid);
            for f in ft.row(eid).to_vec() {
                kb.insert(f);
            }
            let changed = ft.refresh_new_counts(&kb, [subject]);
            assert_eq!(changed, vec![eid]);
            ft.recalibrate_divisor();
            let ctx = ProfitCtx::new(&ft, cfg.cost);
            assert!(warm.warm_patch(&ctx, &cfg, &changed), "patchable delta");
            let fresh = SliceHierarchy::build(&ft, &ctx, &cfg);
            assert_hierarchies_identical(&warm, &fresh);
        }
    }

    /// A changed entity outside the hierarchy's universe signals a
    /// structural delta: the patch must refuse (the caller rebuilds cold).
    #[test]
    fn warm_patch_refuses_out_of_universe_delta() {
        let mut t = Interner::new();
        let (ft, cfg) = build_running_example(&mut t);
        let ctx = ProfitCtx::new(&ft, cfg.cost);
        let mut h = SliceHierarchy::build(&ft, &ctx, &cfg);
        let outside = ft.num_entities() as EntityId;
        assert!(!h.warm_patch(&ctx, &cfg, &[outside]));
        // The refusal must leave the hierarchy untouched.
        let fresh = SliceHierarchy::build(&ft, &ctx, &cfg);
        assert_hierarchies_identical(&h, &fresh);
    }

    /// An empty delta is a no-op patch: everything is clean.
    #[test]
    fn warm_patch_with_no_changes_is_identity() {
        let mut t = Interner::new();
        let (ft, cfg) = build_running_example(&mut t);
        let ctx = ProfitCtx::new(&ft, cfg.cost);
        let mut h = SliceHierarchy::build(&ft, &ctx, &cfg);
        assert!(h.warm_patch(&ctx, &cfg, &[]));
        let fresh = SliceHierarchy::build(&ft, &ctx, &cfg);
        assert_hierarchies_identical(&h, &fresh);
    }

    /// The node cap is level-atomic: a level that starts under the cap is
    /// expanded in full (even if it overshoots), and the next level is then
    /// skipped entirely.
    #[test]
    fn node_cap_is_level_atomic() {
        let mut t = Interner::new();
        let (ft, mut cfg) = build_running_example(&mut t);
        // 4 seeds < 5, so level 3 → 2 expands fully (to 12 nodes);
        // 12 ≥ 5, so level 2 → 1 is skipped as a whole.
        cfg.max_hierarchy_nodes = 5;
        let ctx = ProfitCtx::new(&ft, cfg.cost);
        let h = SliceHierarchy::build(&ft, &ctx, &cfg);
        assert!(h.capped, "cap must be reported");
        // S5 = {category=rocket_family, sponsor=NASA} is generated mid-level
        // after the count passed the cap — the level still finishes.
        let s5 = find_node(
            &h,
            &ft,
            &mut t,
            &[("category", "rocket_family"), ("sponsor", "NASA")],
        );
        assert!(s5.is_some(), "level 3 → 2 must be expanded in full");
        // No level-1 node exists at all: level 2 → 1 was skipped atomically.
        assert_eq!(h.level(1).count(), 0);
    }
}
