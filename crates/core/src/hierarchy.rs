//! Slice-hierarchy construction (§III-A, step 1).
//!
//! The paper builds the hierarchy Apriori-style: every subset of every
//! initial slice, bottom-up, after which Proposition 12 deletes the
//! non-canonical ones (a slice is canonical iff it is initial or has at
//! least two canonical children) and relinks their children. The canonical
//! slices are exactly the **closed** property sets of the *initial family*
//! `F` — the non-empty intersections of non-empty subfamilies of `F`
//! (`tests/canonicality_bruteforce.rs`) — so this module builds only those:
//!
//! 1. **Seeding.** `F` is the list of initial property sets, deduplicated
//!    in seed order: each entity's capped cross-product of one value per
//!    predicate ([`SliceHierarchy::build`]), or the framework's seeds
//!    ([`SliceHierarchy::build_seeded`]) minus those with an empty extent.
//!    These sets, not the entities, are the objects of the closure system:
//!    multi-valued predicates and the `max_*_per_entity` caps make them
//!    differ from the entities' property sets.
//! 2. **Enumeration and links.** A walk from the empty set visits every
//!    closed set `X` with `occ(X)`, the members of `F` containing `X`. Each
//!    property `m ∉ X` found there has `occ(X ∪ {m}) = {o ∈ occ(X) : m ∈ o}`
//!    and closure `Y = ⋂ occ(X ∪ {m})`; properties with equal occurrence
//!    lists share one closure. By Lindig's cover test ("Fast Concept
//!    Analysis", 2000), `Y` covers `X` (is a minimal closed strict
//!    superset) iff exactly `|Y \ X|` properties lead to it, i.e. iff no
//!    other property occurs in every member of the shared list. Covers
//!    become `X`'s children — the relation the Apriori relinking produced —
//!    and unseen ones are queued. Every closed set lies on a chain of covers
//!    from the empty set, so the walk finds them all.
//! 3. **Ids** follow the order in which the Apriori build created the
//!    surviving nodes, because the traversal, the `SLB` unions and the
//!    `always_report_best` tie-break read id order. Initial nodes come
//!    first, in seed order; the rest are sorted by (level descending,
//!    `|I*|`, seed index of `I*`, positions in `I*` of the properties
//!    missing from `X`, lexicographically), where `I*` is the smallest
//!    initial superset of `X`, the earliest on a tie. Why: Apriori creates
//!    the parents of level `l + 1` in id order, each node dropping one
//!    property at a time in position order, so a level-`l` node is created
//!    by the first level-`l + 1` node containing it. By induction on the
//!    level, that creator is `X ∪ {p}` for `p` the property of `I*` at the
//!    last missing position: no superset of `X` has a smaller or earlier
//!    `I*`, and dropping the last missing position leaves the
//!    lexicographically least remainder. Within one creator, the dropped
//!    property's position orders the parents, as in the key.
//! 4. **Low-profit pruning**, level by level from the deepest up: a slice
//!    `S` is marked invalid when `f({S}) < 0` or `f({S}) < f_LB(S)`, where
//!    `f_LB(S)` is the profit of the best known set of slices in `S`'s
//!    subtree (`SLB(S)`). Invalid slices stay but are never reported.
//!
//! **Caps count canonical slices.** A family with more closed sets than
//! `max_hierarchy_nodes` keeps only its initial slices, unlinked, and sets
//! [`SliceHierarchy::capped`] — at any thread count, as the enumeration is
//! sequential. The per-source budget ([`crate::SourceBudget`]'s node cap
//! and deadline) is checked as each closed set is found, so a blow-up
//! stops mid-enumeration.

use std::cmp::Reverse;

use midas_kb::fnv::{FnvHashMap, FnvHashSet};

use crate::config::MidasConfig;
use crate::extent::ExtentSet;
use crate::fact_table::{EntityId, FactTable, PropertyId};
use crate::parallel::par_map;
use crate::profit::ProfitCtx;

/// Construction/patch telemetry: how much evaluation work hierarchies do,
/// how much of it warm patching avoids, and the extent-memory churn.
///
/// The per-node counters (`nodes_evaluated`, `extents_freed`) fire
/// hundreds of thousands of times per build, so they batch in a
/// thread-local [`LocalTally`](crate::telemetry::LocalTally). The
/// warm-patch counters are per-leaf (rare) and record directly.
mod metrics {
    crate::counter!(pub NODES_EVALUATED, "hierarchy.nodes_evaluated");
    crate::counter!(pub NODES_WARM_PATCHED, "hierarchy.nodes_warm_patched");
    crate::counter!(pub EXTENTS_FREED, "hierarchy.extents_freed");
    crate::counter!(pub EXTENTS_REBUILT, "hierarchy.extents_rebuilt");
    crate::counter!(pub WARM_PATCHES, "hierarchy.warm_patch.applied");
    crate::counter!(pub WARM_REFUSALS, "hierarchy.warm_patch.refused");
}

const KIND_NODES_EVALUATED: usize = 0;
const KIND_EXTENTS_FREED: usize = 1;
const NUM_KINDS: usize = 2;

static KIND_SINKS: [&crate::telemetry::Counter; NUM_KINDS] =
    [&metrics::NODES_EVALUATED, &metrics::EXTENTS_FREED];

thread_local! {
    static TALLY: crate::telemetry::LocalTally<NUM_KINDS> =
        crate::telemetry::LocalTally::new(&KIND_SINKS);
}

/// Drains this thread's batched hierarchy counts (run by
/// [`crate::telemetry::snapshot`]).
pub(crate) fn flush_tally() {
    let _ = TALLY.try_with(|t| t.flush());
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
        t.add(kind, n);
        t.end_event();
    });
}

/// Index of a node in the hierarchy.
pub type NodeId = u32;

/// One node's profit evaluation: `(node, profit, f(child SLB set), child
/// SLB slices)`.
type ProfitEval = (NodeId, f64, f64, Vec<NodeId>);

/// One slice node.
#[derive(Debug, Clone)]
pub struct SliceNode {
    /// Defining property set, sorted by id.
    pub props: Box<[PropertyId]>,
    /// Entity extent `Π`.
    pub extent: ExtentSet,
    /// Children (the covers: minimal canonical slices with strictly more
    /// properties), sorted by id.
    pub children: Vec<NodeId>,
    /// Parents (the nodes this one covers), sorted by id.
    pub parents: Vec<NodeId>,
    /// Whether the node came from an entity (or a framework seed).
    pub is_initial: bool,
    /// Canonicality per Proposition 12. Always `true`: the builder creates
    /// canonical slices only.
    pub canonical: bool,
    /// `true` once the node's extent has been released at a level boundary
    /// (low-profit-invalidated nodes only). A freed extent reads as the
    /// empty set; report paths must go through [`SliceNode::live_extent`],
    /// which asserts this flag is clear.
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
    /// release — only invalidated nodes are ever freed, and they must not
    /// reach a report.
    pub fn live_extent(&self) -> &ExtentSet {
        debug_assert!(
            !self.extent_freed,
            "read of a freed extent: node was invalidated and released at a level boundary"
        );
        &self.extent
    }
}

/// The constructed (and pruned) slice hierarchy of one web source.
#[derive(Debug)]
pub struct SliceHierarchy {
    nodes: Vec<SliceNode>,
    /// Node ids per level (property count), ascending; the last level is
    /// the deepest non-empty one.
    levels: Vec<Vec<NodeId>>,
    /// Whether the initial family had more canonical slices than
    /// `max_hierarchy_nodes`, so that only the initial slices were kept.
    pub capped: bool,
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
        let mut family = Family::default();
        match seeds {
            Some(seeds) => {
                for seed in seeds {
                    // A seed that matches no entity in this table carries no
                    // facts; drop it outright.
                    let extent = table.extent_of(seed);
                    if !extent.is_empty() {
                        family.push(seed.clone());
                    }
                    extent.recycle();
                }
            }
            None => family.seed_from_entities(table, config),
        }
        let mut h = Self::from_family(table, config, family.sets);
        h.evaluate(ctx, config);
        h
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the hierarchy has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Deepest level (number of properties of the most specific slice).
    pub fn max_level(&self) -> usize {
        self.levels.len().saturating_sub(1)
    }

    /// Node accessor.
    pub fn node(&self, id: NodeId) -> &SliceNode {
        &self.nodes[id as usize]
    }

    /// Node ids at `level`, ascending.
    pub fn level(&self, level: usize) -> impl Iterator<Item = NodeId> + '_ {
        self.levels.get(level).into_iter().flatten().copied()
    }

    /// All node ids.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.nodes.len() as NodeId
    }

    /// Looks up a node by exact property set (must be sorted) — a scan of
    /// that set's level.
    pub fn find(&self, props: &[PropertyId]) -> Option<NodeId> {
        self.level(props.len())
            .find(|&id| *self.nodes[id as usize].props == *props)
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

    /// Creates the canonical nodes of `family` in Apriori id order, linked
    /// to their covers (module doc, steps 2 and 3), or only the initial
    /// nodes when the family has more closed sets than the node cap.
    fn from_family(
        table: &FactTable,
        config: &MidasConfig,
        family: Vec<Box<[PropertyId]>>,
    ) -> Self {
        let mut h = SliceHierarchy {
            nodes: Vec::new(),
            levels: Vec::new(),
            capped: false,
        };
        let Some(mut lattice) = closed_sets(&family, config.max_hierarchy_nodes) else {
            h.capped = true;
            for props in family {
                h.push_node(table, props, true);
            }
            return h;
        };
        let order = lattice.apriori_order(&family);
        let mut id_of = vec![0 as NodeId; order.len()];
        for (id, &c) in order.iter().enumerate() {
            id_of[c as usize] = id as NodeId;
        }
        for &c in &order {
            let c = c as usize;
            let props = std::mem::take(&mut lattice.props[c]);
            // Exactly the initial sets are their own smallest initial superset.
            let initial = props == family[lattice.istar[c] as usize];
            let id = h.push_node(table, props, initial);
            let children = &mut h.nodes[id as usize].children;
            children.extend(lattice.covers[c].iter().map(|&y| id_of[y as usize]));
            children.sort_unstable();
        }
        for parent in 0..h.nodes.len() {
            for k in 0..h.nodes[parent].children.len() {
                let child = h.nodes[parent].children[k];
                h.nodes[child as usize].parents.push(parent as NodeId);
            }
        }
        h
    }

    fn push_node(&mut self, table: &FactTable, props: Box<[PropertyId]>, initial: bool) -> NodeId {
        let level = props.len();
        let id = NodeId::try_from(self.nodes.len()).expect("hierarchy overflow");
        if self.levels.len() <= level {
            self.levels.resize_with(level + 1, Vec::new);
        }
        self.levels[level].push(id);
        self.nodes.push(SliceNode {
            extent: table.extent_of(&props),
            props,
            children: Vec::new(),
            parents: Vec::new(),
            is_initial: initial,
            canonical: true,
            extent_freed: false,
            valid: true,
            profit: 0.0,
            slb_profit: 0.0,
            slb_slices: Vec::new(),
        });
        id
    }

    /// Step 4: profit evaluation and low-profit pruning, level by level
    /// from the deepest up, with the cooperative budget check at every
    /// level boundary (the deadline can still fire here).
    fn evaluate(&mut self, ctx: &ProfitCtx<'_>, config: &MidasConfig) {
        for l in (1..=self.max_level()).rev() {
            crate::budget::checkpoint(self.nodes.len());
            let ids = self.levels[l].clone();
            self.evaluate_ids(ctx, config, ids);
            self.free_invalid_extents(config, l);
        }
        crate::budget::checkpoint(self.nodes.len());
    }

    /// Eagerly releases the extents of nodes pruned as *low-profit* at this
    /// level boundary (ROADMAP "Hierarchy memory"). An invalid node's
    /// extent is dead weight for the rest of the build: invalid nodes never
    /// enter an `SLB` slice set (a node nominates itself only when
    /// `profit >= f_child_set && profit > 0`, the exact complement of the
    /// invalidation condition), parent extents come from the catalog's
    /// inverted lists rather than child extents, and the traversal skips
    /// `!valid` nodes before touching their extent. The only remaining
    /// reader is the `always_report_best` fallback (which may report an
    /// invalid node), so freeing is gated on it. Freeing is deterministic
    /// in the node set, so parallel builds stay bit-identical to
    /// `threads = 1`.
    fn free_invalid_extents(&mut self, config: &MidasConfig, l: usize) {
        if config.always_report_best {
            return;
        }
        for k in 0..self.levels[l].len() {
            let id = self.levels[l][k];
            let node = &self.nodes[id as usize];
            if !node.valid && !node.extent_freed {
                self.free_extent(id);
            }
        }
    }

    /// Releases the extent of an invalid node into the scratch pool,
    /// leaving a canonical empty set behind. Sequential and parallel builds
    /// invalidate the same nodes in the same order, so freed extents stay
    /// node-for-node identical across thread counts.
    fn free_extent(&mut self, id: NodeId) {
        let node = &mut self.nodes[id as usize];
        debug_assert!(!node.valid, "only invalid nodes lose their extent");
        if !node.extent_freed {
            let universe = node.extent.universe();
            std::mem::replace(&mut node.extent, ExtentSet::empty(universe)).recycle();
            node.extent_freed = true;
            tally(KIND_EXTENTS_FREED, 1);
        }
    }

    /// Profit evaluation, `SLB`/`f_LB` maintenance, and low-profit pruning
    /// for exactly `ids` (all at one level): a whole level at build time,
    /// the level's dirty subset when warm-patching. Running the identical
    /// computation and write-back for both is what keeps warm results
    /// bit-identical to a fresh build.
    ///
    /// Nodes at one level are independent (each reads only its own extent
    /// and the already-finalized `SLB` data of deeper levels), so the pure
    /// computation runs through [`par_map`] and the results are written back
    /// sequentially — parallel runs are bit-identical to `threads = 1`.
    fn evaluate_ids(&mut self, ctx: &ProfitCtx<'_>, config: &MidasConfig, ids: Vec<NodeId>) {
        tally(KIND_NODES_EVALUATED, ids.len() as u64);
        let this: &SliceHierarchy = self;
        let evals: Vec<ProfitEval> = par_map(config.threads, ids, |id| {
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
                // block kernels instead of merging sorted vectors
                // pairwise or marking one extent at a time — dense SLB
                // extents are OR'd in register-resident groups, and the
                // bitmap is recycled across nodes, levels, and shards.
                let extents: Vec<&ExtentSet> = child_set
                    .iter()
                    .map(|&s| this.nodes[s as usize].live_extent())
                    .collect();
                ctx.profit_of_union(&extents, child_set.len())
            };
            (id, profit, f_child_set, child_set)
        });

        for (id, profit, f_child_set, child_set) in evals {
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
    /// The hierarchy's *structure* — node set, levels, links, `capped` — is
    /// a pure function of the
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
            dirty[i] = changed
                .iter()
                .any(|&e| is_subset(&node.props, table.entity_properties(e)));
        }
        let mut patched = 0u64;
        for l in (1..=self.max_level()).rev() {
            // Same cooperative budget cadence as the build's evaluation
            // pass, so budget faults fire at the same checkpoints either way.
            crate::budget::checkpoint(self.nodes.len());
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
                    if !node.valid && !node.extent_freed {
                        self.free_extent(id);
                    }
                }
            }
        }
        crate::budget::checkpoint(self.nodes.len());
        metrics::WARM_PATCHES.inc();
        metrics::NODES_WARM_PATCHED.add(patched);
        true
    }
}

/// The initial family `F` (module doc, step 1): initial property sets,
/// deduplicated in seed order.
#[derive(Default)]
struct Family {
    seen: FnvHashSet<Box<[PropertyId]>>,
    sets: Vec<Box<[PropertyId]>>,
}

impl Family {
    /// Adds one initial property set unless it is empty or a repeat.
    fn push(&mut self, mut props: Vec<PropertyId>) {
        props.sort_unstable();
        props.dedup();
        if !props.is_empty() && !self.seen.contains(&props[..]) {
            let props = props.into_boxed_slice();
            self.seen.insert(props.clone());
            self.sets.push(props);
        }
    }

    /// The initial slices of the entities: for each entity, the
    /// cross-product of one property per predicate (capped).
    fn seed_from_entities(&mut self, table: &FactTable, config: &MidasConfig) {
        // Entities sharing a property set generate identical initial combos
        // (the grouping, capping, and cross-product depend only on the set),
        // so the expansion runs once per distinct set. Real sources hit this
        // constantly: entities of one schema share one property shape.
        let mut seen_prop_sets: FnvHashSet<&[PropertyId]> = FnvHashSet::default();
        for e in 0..table.num_entities() as EntityId {
            let props = table.entity_properties(e);
            if props.is_empty() || !seen_prop_sets.insert(props) {
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
            for combo in combos {
                self.push(combo);
            }
        }
    }
}

/// The closed sets of an initial family and their covers, in the order the
/// enumeration found them.
#[derive(Default)]
struct Lattice {
    /// Per closed set: its properties, sorted.
    props: Vec<Box<[PropertyId]>>,
    /// Per closed set: the family index of `I*`, its smallest superset in
    /// the family (the earliest on a tie).
    istar: Vec<u32>,
    /// Per closed set: its covers, as indices into `props`.
    covers: Vec<Vec<u32>>,
}

impl Lattice {
    /// The closed-set indices in the Apriori build's creation order
    /// (module doc, step 3).
    fn apriori_order(&self, family: &[Box<[PropertyId]>]) -> Vec<u32> {
        // Per closed set, the positions in `I*` of the properties missing
        // from it, as a range of one flat buffer; empty for initial sets.
        let mut missing: Vec<u32> = Vec::new();
        let mut spans: Vec<(usize, usize)> = Vec::with_capacity(self.props.len());
        for (x, &i) in self.props.iter().zip(&self.istar) {
            let start = missing.len();
            let mut j = 0;
            for (pos, &p) in family[i as usize].iter().enumerate() {
                if x.get(j) == Some(&p) {
                    j += 1;
                } else {
                    missing.push(pos as u32);
                }
            }
            spans.push((start, missing.len()));
        }
        let key = |c: u32| {
            let c = c as usize;
            let (start, end) = spans[c];
            let i = self.istar[c];
            if start == end {
                (false, Reverse(0), 0, i, &missing[..0])
            } else {
                let level = self.props[c].len();
                let width = family[i as usize].len();
                (true, Reverse(level), width, i, &missing[start..end])
            }
        };
        let mut order: Vec<u32> = (0..self.props.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| key(a).cmp(&key(b)));
        order
    }
}

/// Enumerates the closed sets of `family` and their covers by walking
/// covers up from the empty set (module doc, step 2). Returns `None` once more
/// than `max_nodes` closed sets exist; checks the per-source budget as each
/// one is found.
fn closed_sets(family: &[Box<[PropertyId]>], max_nodes: usize) -> Option<Lattice> {
    let mut lattice = Lattice::default();
    // Dense local property indices size the per-property buckets by the
    // family, not by the table's catalog.
    let mut attrs: Vec<PropertyId> = family.iter().flat_map(|s| s.iter().copied()).collect();
    attrs.sort_unstable();
    attrs.dedup();
    let objects: Vec<Vec<u32>> = family
        .iter()
        .map(|s| {
            s.iter()
                .map(|p| attrs.binary_search(p).expect("family property") as u32)
                .collect()
        })
        .collect();
    let smallest = |occ: &[u32]| -> u32 {
        *occ.iter()
            .min_by_key(|&&t| (objects[t as usize].len(), t))
            .expect("non-empty occurrence list")
    };

    let mut sets: Vec<Box<[u32]>> = Vec::new();
    let mut index: FnvHashMap<Box<[u32]>, u32> = FnvHashMap::default();
    // `occ(X ∪ {m})` per property `m`, filled for one `X` at a time.
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); attrs.len()];
    let mut touched: Vec<u32> = Vec::new();
    let mut in_x = vec![false; attrs.len()];
    let mut in_group = vec![false; attrs.len()];

    // The walk starts below `⋂family` at the empty set, which is not a
    // node: its only cover is `⋂family` when that is non-empty, and the
    // minimal non-empty closed sets otherwise.
    const EMPTY_SET: u32 = u32::MAX;
    let mut stack: Vec<(u32, Vec<u32>)> = vec![(EMPTY_SET, (0..family.len() as u32).collect())];
    while let Some((xi, occ)) = stack.pop() {
        let x: Box<[u32]> = match xi {
            EMPTY_SET => Box::default(),
            _ => sets[xi as usize].clone(),
        };
        for &a in x.iter() {
            in_x[a as usize] = true;
        }
        for &t in &occ {
            for &m in &objects[t as usize] {
                if !in_x[m as usize] {
                    let bucket = &mut buckets[m as usize];
                    if bucket.is_empty() {
                        touched.push(m);
                    }
                    bucket.push(t);
                }
            }
        }
        // Properties with equal occurrence lists share one closure: group
        // them, ascending within each group.
        touched.sort_unstable_by(|&a, &b| {
            buckets[a as usize]
                .cmp(&buckets[b as usize])
                .then(a.cmp(&b))
        });
        let mut start = 0;
        while start < touched.len() {
            let occ_y = &buckets[touched[start] as usize];
            let len = touched[start..]
                .iter()
                .take_while(|&&m| buckets[m as usize] == *occ_y)
                .count();
            let group = &touched[start..start + len];
            start += len;
            // Lindig's test: `X ∪ group` is a cover iff no other property
            // occurs in every member of `occ_y` (each such property would
            // have a strictly longer list containing `occ_y`).
            for &m in group {
                in_group[m as usize] = true;
            }
            let widened = objects[occ_y[0] as usize].iter().any(|&i| {
                let other = &buckets[i as usize];
                !in_x[i as usize]
                    && !in_group[i as usize]
                    && other.len() > occ_y.len()
                    && is_subset(occ_y, other)
            });
            for &m in group {
                in_group[m as usize] = false;
            }
            if widened {
                continue;
            }
            let mut y: Vec<u32> = x.iter().chain(group).copied().collect();
            y.sort_unstable();
            let y = y.into_boxed_slice();
            let yi = match index.get(&y) {
                Some(&yi) => yi,
                None => {
                    let yi = sets.len() as u32;
                    index.insert(y.clone(), yi);
                    sets.push(y);
                    lattice.istar.push(smallest(occ_y));
                    lattice.covers.push(Vec::new());
                    if sets.len() > max_nodes {
                        return None;
                    }
                    crate::budget::checkpoint(sets.len());
                    stack.push((yi, occ_y.clone()));
                    yi
                }
            };
            if xi != EMPTY_SET {
                lattice.covers[xi as usize].push(yi);
            }
        }
        for &m in &touched {
            buckets[m as usize].clear();
        }
        touched.clear();
        for &a in x.iter() {
            in_x[a as usize] = false;
        }
    }
    lattice.props = sets
        .iter()
        .map(|s| s.iter().map(|&a| attrs[a as usize]).collect())
        .collect();
    Some(lattice)
}

fn is_subset(sub: &[u32], sup: &[u32]) -> bool {
    // Both sorted: each element is searched for in what is left of `sup`,
    // which keeps a short list against a long one logarithmic.
    let mut rest = sup;
    for x in sub {
        match rest.binary_search(x) {
            Ok(i) => rest = &rest[i + 1..],
            Err(_) => return false,
        }
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
        // entity as S1 but with fewer properties — non-canonical, so never
        // built.
        let id = find_node(
            &h,
            &ft,
            &mut t,
            &[("category", "space_program"), ("started", "1959")],
        );
        assert_eq!(id, None);
        // Same for {c4, c6} vs S2.
        let id = find_node(&h, &ft, &mut t, &[("started", "1957"), ("sponsor", "NASA")]);
        assert_eq!(id, None);
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
            assert_eq!(
                find_node(&h, &ft, &mut t, &[(p, v)]),
                None,
                "singleton {p}={v} has one canonical child and must not be built"
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
        assert_eq!(a.len(), b.len());
        assert_eq!(a.levels, b.levels);
        assert_eq!(a.capped, b.capped);
        for id in 0..a.len() {
            let (x, y) = (&a.nodes[id], &b.nodes[id]);
            assert_eq!(x.props, y.props, "node {id}");
            assert_eq!(x.extent, y.extent, "node {id}");
            assert_eq!(x.children, y.children, "node {id}");
            assert_eq!(x.parents, y.parents, "node {id}");
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

    /// A family with more canonical slices than the node cap keeps only its
    /// initial slices, unlinked, at any thread count.
    #[test]
    fn node_cap_keeps_only_the_initial_slices() {
        let mut t = Interner::new();
        let (ft, mut cfg) = build_running_example(&mut t);
        let ctx = ProfitCtx::new(&ft, cfg.cost);
        let full = SliceHierarchy::build(&ft, &ctx, &cfg);
        let initial = full.iter().filter(|&id| full.node(id).is_initial).count();
        assert!(full.len() > initial + 1, "the example has generated slices");
        cfg.max_hierarchy_nodes = full.len() - 1;
        let h = SliceHierarchy::build(&ft, &ctx, &cfg);
        assert!(h.capped, "cap must be reported");
        assert_eq!(h.len(), initial);
        for id in h.iter() {
            let n = h.node(id);
            assert!(n.is_initial);
            assert!(n.children.is_empty() && n.parents.is_empty());
            assert_eq!(
                n.props,
                full.node(id).props,
                "initial slices keep seed order"
            );
        }
        let h4 = SliceHierarchy::build(&ft, &ctx, &cfg.clone().with_threads(4));
        assert_hierarchies_identical(&h, &h4);
    }

    /// A cap at or above the canonical-slice count builds the uncapped
    /// hierarchy.
    #[test]
    fn node_cap_at_the_canonical_count_builds_everything() {
        let mut t = Interner::new();
        let (ft, mut cfg) = build_running_example(&mut t);
        let ctx = ProfitCtx::new(&ft, cfg.cost);
        let full = SliceHierarchy::build(&ft, &ctx, &cfg);
        assert!(!full.capped);
        for cap in [full.len(), full.len() + 1] {
            cfg.max_hierarchy_nodes = cap;
            let h = SliceHierarchy::build(&ft, &ctx, &cfg);
            assert_hierarchies_identical(&h, &full);
        }
    }
}
