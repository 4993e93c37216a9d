//! Seed-implementation reference for the extent-engine benchmarks.
//!
//! A faithful port of the hierarchy construction and profit evaluation as
//! they stood in the growth seed (commit `v0`), kept here so the criterion
//! benches can report a same-binary baseline next to the optimized engine:
//!
//! - extents are plain sorted `Vec<EntityId>`, intersected with the
//!   two-pointer merge (`intersect_sorted`);
//! - every parent re-intersects all `l−1` inverted lists from scratch
//!   (`O(l²)` intersections per child) through a `Box<[PropertyId]>`-keyed
//!   hash map that allocates per candidate lookup;
//! - `f_LB` slice-set unions go through an `FnvHashSet<EntityId>`;
//! - `link` deduplicates with a linear `contains` scan.
//!
//! It is also the engine's Apriori oracle: it builds the hierarchy as
//! §III-A describes it — every subset of every initial slice, then
//! Proposition 12 deletes the non-canonical ones and relinks their
//! children — where the engine enumerates the canonical slices directly.
//! `tests/seed_reference_parity.rs` asserts that the oracle's live nodes,
//! in id order, are the engine's nodes, links, `SLB` sets and profits.

use midas_core::fact_table::{intersect_sorted, EntityId, PropertyId};
use midas_core::{FactTable, MidasConfig, ProfitCtx};
use midas_kb::fnv::{FnvHashMap, FnvHashSet};

/// Node id within [`SeedHierarchy`].
pub type NodeId = u32;

/// One slice node, seed layout (sorted `Vec<EntityId>` extent).
#[derive(Debug, Clone)]
pub struct SeedNode {
    /// Defining property set, sorted.
    pub props: Box<[PropertyId]>,
    /// Entity extent, sorted.
    pub extent: Vec<EntityId>,
    /// Children (more properties).
    pub children: Vec<NodeId>,
    /// Parents (fewer properties).
    pub parents: Vec<NodeId>,
    /// Seeded from an entity.
    pub is_initial: bool,
    /// Proposition 12 flag.
    pub canonical: bool,
    /// Deleted as non-canonical.
    pub removed: bool,
    /// Survives low-profit pruning.
    pub valid: bool,
    /// `f({S})`.
    pub profit: f64,
    /// `f_LB(S)`.
    pub slb_profit: f64,
    /// `SLB(S)`.
    pub slb_slices: Vec<NodeId>,
}

/// Seed-style slice hierarchy over sorted-vector extents.
#[derive(Debug, Default)]
pub struct SeedHierarchy {
    /// All nodes, removed ones included.
    pub nodes: Vec<SeedNode>,
    by_key: FnvHashMap<Box<[PropertyId]>, NodeId>,
    levels: Vec<Vec<NodeId>>,
    max_level: usize,
    /// Node-count safety valve tripped.
    pub capped: bool,
}

/// The per-property inverted lists in their seed representation, extracted
/// once from the catalog (the seed stored them this way inside
/// `FactTable::build`, outside the timed construction).
pub struct SeedLists {
    lists: Vec<Vec<EntityId>>,
}

impl SeedLists {
    /// Materializes every catalog extent as a sorted id vector.
    pub fn from_table(table: &FactTable) -> Self {
        let cat = table.catalog();
        SeedLists {
            lists: (0..cat.len() as PropertyId)
                .map(|p| cat.extent(p).to_vec())
                .collect(),
        }
    }

    fn extent_of(&self, table: &FactTable, props: &[PropertyId]) -> Vec<EntityId> {
        if props.is_empty() {
            return (0..table.num_entities() as EntityId).collect();
        }
        let mut lists: Vec<&[EntityId]> =
            props.iter().map(|&p| &self.lists[p as usize][..]).collect();
        lists.sort_by_key(|l| l.len());
        let mut acc: Vec<EntityId> = lists[0].to_vec();
        for list in &lists[1..] {
            acc = intersect_sorted(&acc, list);
            if acc.is_empty() {
                break;
            }
        }
        acc
    }
}

fn profit_of(ctx: &ProfitCtx<'_>, extent: &[EntityId], k: usize) -> f64 {
    let table = ctx.table();
    let mut new_facts = 0u64;
    let mut total_facts = 0u64;
    for &e in extent {
        new_facts += u64::from(table.new_of(e));
        total_facts += u64::from(table.facts_of(e));
    }
    ctx.profit_from_counts(new_facts, total_facts, k)
}

impl SeedHierarchy {
    /// Seed-style single-source construction (entity-seeded).
    pub fn build(
        table: &FactTable,
        lists: &SeedLists,
        ctx: &ProfitCtx<'_>,
        config: &MidasConfig,
    ) -> Self {
        let mut h = Self::default();
        h.seed_from_entities(table, lists, config);
        h.construct(table, lists, ctx, config);
        h
    }

    /// Seed-style construction from explicit initial property sets (the
    /// framework's multi-source case). A seed that matches no entity is
    /// created and removed at once.
    pub fn build_seeded(
        table: &FactTable,
        lists: &SeedLists,
        ctx: &ProfitCtx<'_>,
        config: &MidasConfig,
        seeds: &[Vec<PropertyId>],
    ) -> Self {
        let mut h = Self::default();
        for seed in seeds {
            let mut s = seed.clone();
            s.sort_unstable();
            s.dedup();
            if s.is_empty() {
                continue;
            }
            let id = h.get_or_create(table, lists, s.into_boxed_slice());
            let node = &mut h.nodes[id as usize];
            if node.extent.is_empty() {
                node.removed = true;
            } else {
                node.is_initial = true;
            }
        }
        h.construct(table, lists, ctx, config);
        h
    }

    fn construct(
        &mut self,
        table: &FactTable,
        lists: &SeedLists,
        ctx: &ProfitCtx<'_>,
        config: &MidasConfig,
    ) {
        for l in (1..=self.max_level).rev() {
            if l > 1 {
                self.generate_parents(table, lists, config, l);
            }
            self.prune_non_canonical(l);
            self.evaluate_and_prune_profit(ctx, config, l);
        }
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

    /// Live-node count — the seed's O(nodes) scan.
    pub fn len(&self) -> usize {
        self.nodes.iter().filter(|n| !n.removed).count()
    }

    /// Whether every node has been removed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn get_or_create(
        &mut self,
        table: &FactTable,
        lists: &SeedLists,
        props: Box<[PropertyId]>,
    ) -> NodeId {
        if let Some(&id) = self.by_key.get(&props) {
            return id;
        }
        let extent = lists.extent_of(table, &props);
        let level = props.len();
        let id = u32::try_from(self.nodes.len()).expect("hierarchy overflow");
        if self.levels.len() <= level {
            self.levels.resize_with(level + 1, Vec::new);
        }
        self.levels[level].push(id);
        self.max_level = self.max_level.max(level);
        self.by_key.insert(props.clone(), id);
        self.nodes.push(SeedNode {
            props,
            extent,
            children: Vec::new(),
            parents: Vec::new(),
            is_initial: false,
            canonical: false,
            removed: false,
            valid: true,
            profit: 0.0,
            slb_profit: 0.0,
            slb_slices: Vec::new(),
        });
        id
    }

    fn seed_from_entities(&mut self, table: &FactTable, lists: &SeedLists, config: &MidasConfig) {
        for e in 0..table.num_entities() as EntityId {
            let props = table.entity_properties(e);
            if props.is_empty() {
                continue;
            }
            let mut groups: Vec<(midas_kb::Symbol, Vec<PropertyId>)> = Vec::new();
            for &pid in props {
                let (pred, _) = table.catalog().pair(pid);
                match groups.iter_mut().find(|(g, _)| *g == pred) {
                    Some((_, v)) => v.push(pid),
                    None => groups.push((pred, vec![pid])),
                }
            }
            if groups.len() > config.max_properties_per_entity {
                groups.sort_by_key(|(_, v)| {
                    v.iter()
                        .map(|&p| lists.lists[p as usize].len())
                        .min()
                        .unwrap_or(usize::MAX)
                });
                groups.truncate(config.max_properties_per_entity);
            }
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
                let id = self.get_or_create(table, lists, combo.into_boxed_slice());
                self.nodes[id as usize].is_initial = true;
            }
        }
    }

    fn generate_parents(
        &mut self,
        table: &FactTable,
        lists: &SeedLists,
        config: &MidasConfig,
        l: usize,
    ) {
        let ids: Vec<NodeId> = self.levels.get(l).cloned().unwrap_or_default();
        for id in ids {
            if self.nodes[id as usize].removed {
                continue;
            }
            if self.nodes.len() >= config.max_hierarchy_nodes {
                self.capped = true;
                return;
            }
            let props = self.nodes[id as usize].props.clone();
            for skip in 0..props.len() {
                let parent_props: Box<[PropertyId]> = props
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != skip)
                    .map(|(_, &p)| p)
                    .collect();
                let pid = self.get_or_create(table, lists, parent_props);
                self.link(pid, id);
            }
        }
    }

    /// Keeps children sorted by id, as the engine does: evaluation unions
    /// the children's `SLB` sets in this order.
    fn link(&mut self, parent: NodeId, child: NodeId) {
        let children = &mut self.nodes[parent as usize].children;
        if !children.contains(&child) {
            let pos = children.partition_point(|&c| c < child);
            children.insert(pos, child);
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

    fn is_descendant(&self, from: NodeId, target: NodeId) -> bool {
        let target_props = &self.nodes[target as usize].props;
        let mut stack: Vec<NodeId> = vec![from];
        let mut visited: FnvHashSet<NodeId> = FnvHashSet::default();
        while let Some(cur) = stack.pop() {
            for &c in &self.nodes[cur as usize].children {
                if c == target {
                    return true;
                }
                let cn = &self.nodes[c as usize];
                if cn.removed || !visited.insert(c) {
                    continue;
                }
                if cn.props.len() < target_props.len() && is_subset(&cn.props, target_props) {
                    stack.push(c);
                }
            }
        }
        false
    }

    fn prune_non_canonical(&mut self, l: usize) {
        let ids: Vec<NodeId> = self.levels.get(l).cloned().unwrap_or_default();
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
            self.nodes[id as usize].removed = true;
            let (parents, children) = self.unlink_all(id);
            for &p in &parents {
                for &c in &children {
                    if !self.is_descendant(p, c) {
                        self.link(p, c);
                    }
                }
            }
        }
    }

    fn evaluate_and_prune_profit(&mut self, ctx: &ProfitCtx<'_>, config: &MidasConfig, l: usize) {
        let ids: Vec<NodeId> = self.levels.get(l).cloned().unwrap_or_default();
        for id in ids {
            if self.nodes[id as usize].removed {
                continue;
            }
            let profit = profit_of(ctx, &self.nodes[id as usize].extent, 1);

            let mut child_set: Vec<NodeId> = Vec::new();
            {
                let node = &self.nodes[id as usize];
                let mut seen: FnvHashSet<NodeId> = FnvHashSet::default();
                for &c in &node.children {
                    let cn = &self.nodes[c as usize];
                    if cn.slb_profit > 0.0 {
                        for &s in &cn.slb_slices {
                            if seen.insert(s) {
                                child_set.push(s);
                            }
                        }
                    }
                }
            }
            let f_child_set = if child_set.is_empty() {
                0.0
            } else {
                let mut union: FnvHashSet<EntityId> = FnvHashSet::default();
                for &s in &child_set {
                    union.extend(self.nodes[s as usize].extent.iter().copied());
                }
                let mut new_facts = 0u64;
                let mut total_facts = 0u64;
                for &e in &union {
                    new_facts += u64::from(ctx.table().new_of(e));
                    total_facts += u64::from(ctx.table().facts_of(e));
                }
                ctx.profit_from_counts(new_facts, total_facts, child_set.len())
            };

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
}

fn is_subset(sub: &[PropertyId], sup: &[PropertyId]) -> bool {
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

/// Seed-style profit accumulator (boolean coverage map + per-entity sums),
/// for the `profit_eval` baseline measurements.
#[derive(Debug, Clone)]
pub struct SeedAccumulator {
    covered: Vec<bool>,
    new_facts: u64,
    total_facts: u64,
    k: usize,
}

impl SeedAccumulator {
    /// Fresh accumulator over `ctx`'s table.
    pub fn new(ctx: &ProfitCtx<'_>) -> Self {
        SeedAccumulator {
            covered: vec![false; ctx.table().num_entities()],
            new_facts: 0,
            total_facts: 0,
            k: 0,
        }
    }

    /// Current `f(S)`.
    pub fn profit(&self, ctx: &ProfitCtx<'_>) -> f64 {
        ctx.profit_from_counts(self.new_facts, self.total_facts, self.k)
    }

    /// Marginal profit of adding `extent`.
    pub fn marginal(&self, ctx: &ProfitCtx<'_>, extent: &[EntityId]) -> f64 {
        let table = ctx.table();
        let (mut new_facts, mut total_facts) = (self.new_facts, self.total_facts);
        for &e in extent {
            if !self.covered[e as usize] {
                new_facts += u64::from(table.new_of(e));
                total_facts += u64::from(table.facts_of(e));
            }
        }
        ctx.profit_from_counts(new_facts, total_facts, self.k + 1) - self.profit(ctx)
    }

    /// Adds `extent` to the covered set.
    pub fn add(&mut self, ctx: &ProfitCtx<'_>, extent: &[EntityId]) {
        let table = ctx.table();
        for &e in extent {
            if !self.covered[e as usize] {
                self.covered[e as usize] = true;
                self.new_facts += u64::from(table.new_of(e));
                self.total_facts += u64::from(table.facts_of(e));
            }
        }
        self.k += 1;
    }
}

/// Seed-style single-slice profit over a sorted id extent.
pub fn seed_profit_single(ctx: &ProfitCtx<'_>, extent: &[EntityId]) -> f64 {
    profit_of(ctx, extent, 1)
}
