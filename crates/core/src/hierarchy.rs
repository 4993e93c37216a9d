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
//!    differ from the entities' property sets. The capped cross-product is
//!    the first `n` combinations in mixed-radix order (the first predicate
//!    most significant), where adding a predicate of `m` values takes `n`
//!    to `min(n·m, max(1, cap − n))`.
//! 2. **Enumeration and links.** A walk from the empty set visits every
//!    closed set `X` with `occ(X)`, the members of `F` containing `X`. Each
//!    property `m ∉ X` found there has `occ(X ∪ {m}) = {o ∈ occ(X) : m ∈ o}`
//!    and closure `Y = ⋂ occ(X ∪ {m})`; the properties with equal
//!    occurrence lists form one group and share one closure. By Lindig's
//!    cover test ("Fast Concept Analysis", 2000), `Y` covers `X` (is a
//!    minimal closed strict superset) iff `Y = X ∪ group`, i.e. iff
//!    `|Y| = |X| + |group|`. Covers become `X`'s children — the relation
//!    the Apriori relinking produced — and unseen ones are queued, except
//!    those found in a single member: such a set is that member, which has
//!    no closed strict superset. Every closed set lies on a chain of covers
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
use midas_kb::Symbol;

use crate::config::MidasConfig;
use crate::extent::ExtentSet;
use crate::fact_table::{EntityId, FactTable, PropertyId};
use crate::parallel::par_map;
use crate::profit::ProfitCtx;
use crate::telemetry;

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
    crate::histogram!(pub SEED_NS, "hierarchy.seed_ns");
    crate::histogram!(pub ENUMERATE_NS, "hierarchy.enumerate_ns");
    crate::histogram!(pub EVALUATE_NS, "hierarchy.evaluate_ns");
    crate::histogram!(pub WARM_PATCH_NS, "hierarchy.warm_patch_ns");
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
        let family = {
            let _span = telemetry::span("hierarchy.seed", &metrics::SEED_NS);
            let mut family = Family::default();
            match seeds {
                Some(seeds) => {
                    for seed in seeds {
                        // A seed that matches no entity in this table carries
                        // no facts; drop it outright.
                        if !table.extent_of(seed).is_empty() {
                            family.push(seed.iter().copied());
                        }
                    }
                }
                None => family.seed_from_entities(table, config),
            }
            family.into_sets()
        };
        let mut h = {
            let _span = telemetry::span("hierarchy.enumerate", &metrics::ENUMERATE_NS);
            Self::from_family(table, config, &family)
        };
        let _span = telemetry::span("hierarchy.evaluate", &metrics::EVALUATE_NS);
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

    /// Drops the hierarchy. Engine code drops hierarchies directly; this
    /// no-op exists only for `perfbench/tracer`, until its replay is
    /// deleted (ROADMAP item 3).
    pub fn recycle(self) {}

    // ---- construction -----------------------------------------------------

    /// Creates the canonical nodes of `family` in Apriori id order, linked
    /// to their covers (module doc, steps 2 and 3), or only the initial
    /// nodes when the family has more closed sets than the node cap.
    fn from_family(table: &FactTable, config: &MidasConfig, family: &Sets) -> Self {
        let mut h = SliceHierarchy {
            nodes: Vec::new(),
            levels: Vec::new(),
            capped: false,
        };
        let Some(lattice) = closed_sets(family, config.max_hierarchy_nodes) else {
            h.capped = true;
            h.nodes.reserve_exact(family.len());
            for props in family.iter() {
                h.push_node(table, props, true);
            }
            return h;
        };
        let order = lattice.apriori_order(family);
        let mut id_of = vec![0 as NodeId; order.len()];
        for (id, &c) in order.iter().enumerate() {
            id_of[c as usize] = id as NodeId;
        }
        h.nodes.reserve_exact(order.len());
        for &c in &order {
            let c = c as usize;
            let props = lattice.props.get(c);
            // Exactly the initial sets are their own smallest initial superset.
            let initial = props == family.get(lattice.istar[c] as usize);
            let id = h.push_node(table, props, initial);
            let mut children: Vec<NodeId> = lattice
                .covers(c)
                .iter()
                .map(|&y| id_of[y as usize])
                .collect();
            children.sort_unstable();
            h.nodes[id as usize].children = children;
        }
        for parent in 0..h.nodes.len() {
            for k in 0..h.nodes[parent].children.len() {
                let child = h.nodes[parent].children[k];
                h.nodes[child as usize].parents.push(parent as NodeId);
            }
        }
        h
    }

    fn push_node(&mut self, table: &FactTable, props: &[PropertyId], initial: bool) -> NodeId {
        let level = props.len();
        let id = NodeId::try_from(self.nodes.len()).expect("hierarchy overflow");
        if self.levels.len() <= level {
            self.levels.resize_with(level + 1, Vec::new);
        }
        self.levels[level].push(id);
        self.nodes.push(SliceNode {
            extent: table.extent_of(props),
            props: props.into(),
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

    /// Drops the extent of an invalid node, leaving a canonical empty set
    /// behind. Sequential and parallel builds
    /// invalidate the same nodes in the same order, so freed extents stay
    /// node-for-node identical across thread counts.
    fn free_extent(&mut self, id: NodeId) {
        let node = &mut self.nodes[id as usize];
        debug_assert!(!node.valid, "only invalid nodes lose their extent");
        if !node.extent_freed {
            let universe = node.extent.universe();
            node.extent = ExtentSet::empty(universe);
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
                // Batched multi-way union into one bitmap through the
                // block kernels instead of merging sorted vectors
                // pairwise or marking one extent at a time — dense SLB
                // extents are OR'd in register-resident groups.
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
        let _span = telemetry::span("hierarchy.warm_patch", &metrics::WARM_PATCH_NS);
        let table = ctx.table();
        let universe = table.num_entities() as u32;
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
        let dirty: Vec<bool> = self
            .nodes
            .iter()
            .map(|node| {
                changed
                    .iter()
                    .any(|&e| is_subset(&node.props, table.entity_properties(e)))
            })
            .collect();
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
                    node.extent = rebuilt;
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

/// Sets of `u32` stored end to end in one buffer.
#[derive(Default)]
struct Sets {
    items: Vec<u32>,
    /// `ends[i]` is where set `i` ends in `items`.
    ends: Vec<usize>,
}

impl Sets {
    fn len(&self) -> usize {
        self.ends.len()
    }

    fn get(&self, i: usize) -> &[u32] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.items[start..self.ends[i]]
    }

    fn iter(&self) -> impl Iterator<Item = &[u32]> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    fn push(&mut self, set: &[u32]) {
        self.items.extend_from_slice(set);
        self.ends.push(self.items.len());
    }
}

/// [`Sets`] holding each distinct set once: adding a set already present
/// allocates nothing.
#[derive(Default)]
struct SetIndex {
    sets: Sets,
    /// Set index by content hash; sets with equal hashes chain through
    /// `next`.
    heads: FnvHashMap<u64, u32>,
    next: Vec<Option<u32>>,
}

impl SetIndex {
    /// The index of `set`, and whether this call added it.
    fn intern(&mut self, set: &[u32]) -> (u32, bool) {
        // FNV-1a over whole words.
        let hash = set.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &x| {
            (h ^ u64::from(x)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        let mut at = self.heads.get(&hash).copied();
        while let Some(i) = at {
            if self.sets.get(i as usize) == set {
                return (i, false);
            }
            at = self.next[i as usize];
        }
        let i = u32::try_from(self.sets.len()).expect("set index overflow");
        self.sets.push(set);
        self.next.push(self.heads.insert(hash, i));
        (i, true)
    }
}

/// The initial family `F` (module doc, step 1): initial property sets,
/// deduplicated in seed order.
#[derive(Default)]
struct Family {
    sets: SetIndex,
    /// The sort buffer every candidate set goes through.
    buf: Vec<PropertyId>,
}

impl Family {
    /// Adds one initial property set unless it is empty or a repeat. Only a
    /// new set takes memory.
    fn push(&mut self, props: impl IntoIterator<Item = PropertyId>) {
        self.buf.clear();
        self.buf.extend(props);
        self.buf.sort_unstable();
        self.buf.dedup();
        if !self.buf.is_empty() {
            self.sets.intern(&self.buf);
        }
    }

    fn into_sets(self) -> Sets {
        self.sets.sets
    }

    /// The initial slices of the entities: for each entity, the
    /// cross-product of one property per predicate (capped).
    fn seed_from_entities(&mut self, table: &FactTable, config: &MidasConfig) {
        let catalog = table.catalog();
        // Entities sharing a property set generate identical initial combos
        // (the grouping, capping, and cross-product depend only on the set),
        // so the expansion runs once per distinct set.
        let mut seen_prop_sets: FnvHashSet<&[PropertyId]> = FnvHashSet::default();
        // Reused across entities: the predicates in first-appearance order,
        // each one's values in property order, the groups kept, and the
        // current combination as one digit per kept group.
        let mut preds: Vec<Symbol> = Vec::new();
        let mut values: Vec<Vec<PropertyId>> = Vec::new();
        let mut kept: Vec<usize> = Vec::new();
        let mut digits: Vec<usize> = Vec::new();
        for e in 0..table.num_entities() as EntityId {
            let props = table.entity_properties(e);
            if props.is_empty() {
                continue;
            }
            preds.clear();
            for &pid in props {
                let (pred, _) = catalog.pair(pid);
                let g = match preds.iter().position(|&p| p == pred) {
                    Some(g) => g,
                    None => {
                        preds.push(pred);
                        if values.len() < preds.len() {
                            values.push(Vec::new());
                        }
                        values[preds.len() - 1].clear();
                        preds.len() - 1
                    }
                };
                values[g].push(pid);
            }
            // With one value per predicate the only combination is the
            // (sorted) property set itself.
            if preds.len() == props.len() && props.len() <= config.max_properties_per_entity {
                self.sets.intern(props);
                continue;
            }
            if !seen_prop_sets.insert(props) {
                continue;
            }
            // Bound the lattice: keep the most selective predicates when an
            // entity has too many.
            kept.clear();
            kept.extend(0..preds.len());
            if kept.len() > config.max_properties_per_entity {
                kept.sort_by_key(|&g| {
                    values[g]
                        .iter()
                        .map(|&p| catalog.extent(p).len())
                        .min()
                        .unwrap_or(usize::MAX)
                });
                kept.truncate(config.max_properties_per_entity);
            }
            // The capped cross product of one value per kept group is the
            // first `n` combinations in mixed-radix order, the first group
            // most significant. Adding a group of `m` values keeps
            // `n ← min(n·m, max(1, cap − n))` of the extended combinations.
            let cap = config.max_initial_combinations_per_entity;
            let n = kept.iter().fold(1usize, |n, &g| {
                n.saturating_mul(values[g].len())
                    .min(cap.saturating_sub(n).max(1))
            });
            digits.clear();
            digits.resize(kept.len(), 0);
            for _ in 0..n {
                self.push(kept.iter().zip(&digits).map(|(&g, &d)| values[g][d]));
                // The next combination: the last group turns fastest.
                for (d, &g) in digits.iter_mut().zip(&kept).rev() {
                    *d += 1;
                    if *d < values[g].len() {
                        break;
                    }
                    *d = 0;
                }
            }
        }
    }
}

/// The closed sets of an initial family and their covers, in the order the
/// enumeration found them.
struct Lattice {
    /// Per closed set: its properties, sorted.
    props: Sets,
    /// Per closed set: the family index of `I*`, its smallest superset in
    /// the family (the earliest on a tie).
    istar: Vec<u32>,
    /// Per closed set: its covers, as a range of `cover_items`.
    cover_spans: Vec<(usize, usize)>,
    cover_items: Vec<u32>,
}

impl Lattice {
    /// The covers of closed set `c`, as indices into `props`.
    fn covers(&self, c: usize) -> &[u32] {
        let (start, end) = self.cover_spans[c];
        &self.cover_items[start..end]
    }

    /// The closed-set indices in the Apriori build's creation order
    /// (module doc, step 3).
    fn apriori_order(&self, family: &Sets) -> Vec<u32> {
        // Per closed set, the positions in `I*` of the properties missing
        // from it, as a range of one flat buffer; empty for initial sets.
        let mut missing: Vec<u32> = Vec::new();
        let mut spans: Vec<(usize, usize)> = Vec::with_capacity(self.props.len());
        for (c, &i) in self.istar.iter().enumerate() {
            let x = self.props.get(c);
            let start = missing.len();
            let mut j = 0;
            for (pos, &p) in family.get(i as usize).iter().enumerate() {
                if x.get(j) == Some(&p) {
                    j += 1;
                } else {
                    missing.push(pos as u32);
                }
            }
            spans.push((start, missing.len()));
        }
        // Each key is computed once; the trailing index is never reached,
        // as distinct closed sets have distinct keys.
        let mut keyed: Vec<_> = spans
            .iter()
            .enumerate()
            .map(|(c, &(start, end))| {
                let i = self.istar[c];
                if start == end {
                    (false, Reverse(0), 0, i, &missing[..0], c as u32)
                } else {
                    let level = self.props.get(c).len();
                    let width = family.get(i as usize).len();
                    (
                        true,
                        Reverse(level),
                        width,
                        i,
                        &missing[start..end],
                        c as u32,
                    )
                }
            })
            .collect();
        keyed.sort_unstable();
        keyed.into_iter().map(|key| key.5).collect()
    }
}

/// Enumerates the closed sets of `family` and their covers by walking
/// covers up from the empty set (module doc, step 2). Returns `None` once more
/// than `max_nodes` closed sets exist; checks the per-source budget as each
/// one is found.
///
/// Every buffer is sized by the family, not by the closed sets: the sets
/// and covers live in arenas, the occurrence lists of the sets still to
/// visit on one LIFO stack, and one visit's buckets in one buffer.
fn closed_sets(family: &Sets, max_nodes: usize) -> Option<Lattice> {
    // Dense local property indices size the per-property arrays by the
    // family, not by the table's catalog. They keep the property order, so
    // a sorted set stays sorted when mapped either way.
    let mut attrs: Vec<PropertyId> = family.items.clone();
    attrs.sort_unstable();
    attrs.dedup();
    let objects = Sets {
        items: family
            .items
            .iter()
            .map(|p| attrs.binary_search(p).expect("family property") as u32)
            .collect(),
        ends: family.ends.clone(),
    };
    let smallest = |occ: &[u32]| -> u32 {
        *occ.iter()
            .min_by_key(|&&t| (objects.get(t as usize).len(), t))
            .expect("non-empty occurrence list")
    };

    let mut sets = SetIndex::default();
    let mut istar: Vec<u32> = Vec::new();
    let mut cover_spans: Vec<(usize, usize)> = Vec::new();
    let mut cover_items: Vec<u32> = Vec::new();
    // `occ(X ∪ {m})` per property `m ∉ X`, for one `X` at a time: the
    // touched properties' buckets lie end to end in `flat`, bucket `m` at
    // `start[m]` with `count[m]` members.
    let mut flat: Vec<u32> = Vec::new();
    let mut start = vec![0usize; attrs.len()];
    let mut count = vec![0usize; attrs.len()];
    let mut touched: Vec<u32> = Vec::new();
    let mut in_x = vec![false; attrs.len()];
    let mut grouped = vec![false; attrs.len()];
    let mut group: Vec<u32> = Vec::new();
    let mut x: Vec<u32> = Vec::new();
    let mut y: Vec<u32> = Vec::new();
    let mut meet: Vec<u32> = Vec::new();

    // The walk starts below `⋂family` at the empty set, which is not a
    // node: its only cover is `⋂family` when that is non-empty, and the
    // minimal non-empty closed sets otherwise. Each entry of `stack` is a
    // set to visit and where its occurrence list starts on `occ_stack`.
    const EMPTY_SET: u32 = u32::MAX;
    let mut occ_stack: Vec<u32> = (0..family.len() as u32).collect();
    let mut stack: Vec<(u32, usize)> = vec![(EMPTY_SET, 0)];
    while let Some((xi, occ_start)) = stack.pop() {
        x.clear();
        if xi != EMPTY_SET {
            x.extend_from_slice(sets.sets.get(xi as usize));
        }
        for &a in &x {
            in_x[a as usize] = true;
        }
        let occ = &occ_stack[occ_start..];
        for &t in occ {
            for &m in objects.get(t as usize) {
                if !in_x[m as usize] {
                    if count[m as usize] == 0 {
                        touched.push(m);
                    }
                    count[m as usize] += 1;
                }
            }
        }
        let mut end = 0;
        for &m in &touched {
            start[m as usize] = end;
            end += count[m as usize];
            count[m as usize] = 0;
        }
        flat.resize(end, 0);
        for &t in occ {
            for &m in objects.get(t as usize) {
                if !in_x[m as usize] {
                    flat[start[m as usize] + count[m as usize]] = t;
                    count[m as usize] += 1;
                }
            }
        }
        occ_stack.truncate(occ_start);
        let bucket = |m: u32| &flat[start[m as usize]..][..count[m as usize]];
        let covers_start = cover_items.len();
        for &m in &touched {
            if grouped[m as usize] {
                continue;
            }
            // Properties with equal occurrence lists share one closure: `m`'s
            // group is the properties outside `X` with its list, ascending.
            // They all occur in the list's first member, and so does every
            // other property of the closure `⋂ occ_y`, with a longer list.
            let occ_y = bucket(m);
            group.clear();
            meet.clear();
            for &a in objects.get(occ_y[0] as usize) {
                if in_x[a as usize] {
                    continue;
                }
                if count[a as usize] > occ_y.len() {
                    meet.push(a);
                } else if count[a as usize] == occ_y.len() && (a == m || bucket(a) == occ_y) {
                    grouped[a as usize] = true;
                    group.push(a);
                }
            }
            // Lindig's test by closure size: `⋂ occ_y` is `X ∪ group` plus
            // the longer-listed properties that occur in every member of
            // `occ_y`, and `X ∪ group` covers `X` iff there are none.
            for &t in &occ_y[1..] {
                if meet.is_empty() {
                    break;
                }
                let member = objects.get(t as usize);
                meet.retain(|a| member.binary_search(a).is_ok());
            }
            if !meet.is_empty() {
                continue;
            }
            y.clear();
            y.extend_from_slice(&x);
            y.extend_from_slice(&group);
            y.sort_unstable();
            let (yi, new) = sets.intern(&y);
            if new {
                istar.push(smallest(occ_y));
                cover_spans.push((0, 0));
                if sets.sets.len() > max_nodes {
                    return None;
                }
                crate::budget::checkpoint(sets.sets.len());
                // A set found in one member is that member: no closed set
                // lies above it, so it has no covers and needs no visit.
                if occ_y.len() > 1 {
                    stack.push((yi, occ_stack.len()));
                    occ_stack.extend_from_slice(occ_y);
                }
            }
            if xi != EMPTY_SET {
                cover_items.push(yi);
            }
        }
        if xi != EMPTY_SET {
            cover_spans[xi as usize] = (covers_start, cover_items.len());
        }
        for &m in &touched {
            count[m as usize] = 0;
            grouped[m as usize] = false;
        }
        touched.clear();
        for &a in &x {
            in_x[a as usize] = false;
        }
    }
    let mut props = sets.sets;
    for a in &mut props.items {
        *a = attrs[*a as usize];
    }
    Some(Lattice {
        props,
        istar,
        cover_spans,
        cover_items,
    })
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
    use crate::source::SourceFacts;
    use midas_kb::{Fact, Interner};

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

    /// The capped cross product keeps the first `n` combinations in
    /// mixed-radix order, `n` following the stage rule: predicates with 3,
    /// 3 and 2 values under cap 5 keep 3, then 2, then 3 combinations, so
    /// the last stage is cut inside its second prefix.
    #[test]
    fn multi_valued_predicate_generates_capped_combinations() {
        let mut t = Interner::new();
        let mut facts = Vec::new();
        for (pred, values) in [("a", 3), ("b", 3), ("c", 2)] {
            for i in 0..values {
                facts.push(midas_kb::Fact::intern(
                    &mut t,
                    "cocktail",
                    pred,
                    &format!("{pred}{i}"),
                ));
            }
        }
        let src = crate::source::SourceFacts::new(
            midas_weburl::SourceUrl::parse("http://c.com/m").unwrap(),
            facts,
        );
        let kb = midas_kb::KnowledgeBase::new();
        let ft = FactTable::build(&src, &kb);
        let mut cfg = MidasConfig::running_example();
        cfg.max_initial_combinations_per_entity = 5;
        let ctx = ProfitCtx::new(&ft, cfg.cost);
        let h = SliceHierarchy::build(&ft, &ctx, &cfg);
        let initial: Vec<Vec<PropertyId>> = h
            .iter()
            .filter(|&id| h.node(id).is_initial)
            .map(|id| h.node(id).props.to_vec())
            .collect();
        let mut combo = |values: [(&str, &str); 3]| -> Vec<PropertyId> {
            let mut ids: Vec<PropertyId> = values
                .iter()
                .map(|&(p, v)| prop(&ft, &mut t, p, v))
                .collect();
            ids.sort_unstable();
            ids
        };
        let expected = vec![
            combo([("a", "a0"), ("b", "b0"), ("c", "c0")]),
            combo([("a", "a0"), ("b", "b0"), ("c", "c1")]),
            combo([("a", "a0"), ("b", "b1"), ("c", "c0")]),
        ];
        assert_eq!(initial, expected, "the first 3 combinations, in order");
        assert!(
            (0..3).all(|id| h.node(id).is_initial),
            "initial nodes come first"
        );
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

    /// A table over another entity universe cannot patch the hierarchy,
    /// even with no changed ids: the patch refuses and changes nothing.
    #[test]
    fn warm_patch_refuses_a_table_of_another_universe() {
        let mut t = Interner::new();
        let (src, kb) = skyrocket(&mut t);
        let ft = FactTable::build(&src, &kb);
        let cfg = MidasConfig::running_example();
        let ctx = ProfitCtx::new(&ft, cfg.cost);
        let mut h = SliceHierarchy::build(&ft, &ctx, &cfg);
        let first = src.facts[0].subject;
        let fewer: Vec<Fact> = src
            .facts
            .iter()
            .copied()
            .filter(|f| f.subject != first)
            .collect();
        let other = FactTable::build(&SourceFacts::new(src.url.clone(), fewer), &kb);
        assert_ne!(other.num_entities(), ft.num_entities());
        let other_ctx = ProfitCtx::new(&other, cfg.cost);
        assert!(!h.warm_patch(&other_ctx, &cfg, &[]));
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

    /// A raw family: random small sets over a few shared properties, some
    /// with a private property added, some followed by a nested member (a
    /// prefix of themselves).
    fn raw_family(draws: &[(Vec<u32>, u8)]) -> Sets {
        let mut family = Family::default();
        for (i, (set, shape)) in draws.iter().enumerate() {
            let private = (shape & 1 == 1).then_some(100 + i as u32);
            family.push(set.iter().copied().chain(private));
            if shape & 2 == 2 {
                family.push(set.iter().copied().take(set.len() / 2 + 1));
            }
        }
        family.into_sets()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(300))]

        /// `closed_sets` against brute force on raw families: exactly the
        /// non-empty intersections of non-empty subfamilies, each with its
        /// minimal closed strict supersets as covers and its smallest family
        /// superset, the earliest on a tie, as `I*`.
        #[test]
        fn closed_sets_match_brute_force(draws in proptest::collection::vec(
            (proptest::collection::vec(0u32..6, 0..5), 0u8..4),
            1..7,
        )) {
            let family = raw_family(&draws);
            let members: Vec<&[u32]> = family.iter().collect();
            let mut closed: std::collections::BTreeSet<Vec<u32>> = Default::default();
            for mask in 1u32..1 << members.len() {
                let mut meet: Option<Vec<u32>> = None;
                for (i, m) in members.iter().enumerate() {
                    if mask >> i & 1 == 1 {
                        meet = Some(match meet {
                            None => m.to_vec(),
                            Some(acc) => acc.into_iter().filter(|p| m.contains(p)).collect(),
                        });
                    }
                }
                let meet = meet.expect("non-empty subfamily");
                if !meet.is_empty() {
                    closed.insert(meet);
                }
            }
            let lattice = closed_sets(&family, usize::MAX).expect("uncapped");
            let found: Vec<Vec<u32>> = lattice.props.iter().map(<[u32]>::to_vec).collect();
            let found_set: std::collections::BTreeSet<Vec<u32>> = found.iter().cloned().collect();
            proptest::prop_assert_eq!(found.len(), found_set.len(), "a closed set repeats");
            proptest::prop_assert_eq!(&found_set, &closed);
            let strictly_below = |x: &[u32], y: &[u32]| x.len() < y.len() && is_subset(x, y);
            for (c, x) in found.iter().enumerate() {
                let mut covers: Vec<&Vec<u32>> = lattice
                    .covers(c)
                    .iter()
                    .map(|&y| &found[y as usize])
                    .collect();
                covers.sort();
                let expected: Vec<&Vec<u32>> = closed
                    .iter()
                    .filter(|y| strictly_below(x, y))
                    .filter(|y| !closed.iter().any(|z| strictly_below(x, z) && strictly_below(z, y)))
                    .collect();
                proptest::prop_assert_eq!(covers, expected, "covers of {:?}", x);
                let istar = (0..members.len())
                    .filter(|&i| is_subset(x, members[i]))
                    .min_by_key(|&i| (members[i].len(), i))
                    .expect("a family superset");
                proptest::prop_assert_eq!(lattice.istar[c] as usize, istar, "I* of {:?}", x);
            }
            proptest::prop_assert!(closed_sets(&family, closed.len()).is_some());
            if let Some(below) = closed.len().checked_sub(1) {
                proptest::prop_assert!(closed_sets(&family, below).is_none());
            }
        }
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
