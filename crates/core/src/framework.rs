//! The MIDAS multi-source framework (§III-B).
//!
//! The framework walks the URL hierarchy bottom-up in rounds. Each round
//! takes the sources at the current finest depth and the slice candidates
//! discovered so far, and
//!
//! 1. **shards** them by their one-level-coarser parent URL,
//! 2. **detects** slices in each parent source, seeding the slice hierarchy
//!    with the property sets of the children's exported slices, and
//! 3. **consolidates**: for every parent slice, the children slices whose
//!    extents it contains compete with it as a set; the side with the higher
//!    profit survives (Example 16: the sub-domain slice "rocket families
//!    sponsored by NASA" displaces the two page slices it covers).
//!
//! Shards are independent, so each round is processed by a small thread pool
//! (the paper used MapReduce with the same keying). This is the one level
//! the pool parallelises: a shard's own hierarchy build runs inline on its
//! worker (see [`crate::parallel`]).
//!
//! ### Streaming pipeline
//!
//! Each round runs as a **bounded streaming pipeline** over
//! [`crate::parallel::par_map_streamed`]: at most `stream_window` shards are
//! admitted to the pool at once (configurable via
//! [`Framework::with_stream_window`], `--stream-window` on the CLI), and
//! each shard's result is folded into the round state in deterministic input
//! order the moment its turn completes. Completed shards release their fact
//! tables, hierarchy extents, and scratch buffers eagerly (see
//! [`crate::scratch`]), so peak resident memory is proportional to the
//! window, not the corpus. The delivery order — and therefore every report
//! and quarantine entry — is bit-identical at every `(window, threads)`
//! combination.
//!
//! ### Incremental re-runs
//!
//! The augmentation loop re-runs the framework after every accepted slice,
//! but an accept only flips the `new` flags of facts it inserted into the
//! knowledge base. [`Framework::run_incremental`] exploits that: a
//! [`RoundCache`] memoises every task outcome (a leaf detection or a merge
//! shard's consolidation) keyed by task URL, and a [`KbDelta`] — the
//! projection of the KB insertions onto the corpus — names the sources whose
//! outcomes can have changed. A cached outcome is replayed verbatim unless
//! its URL subtree contains a dirty source; dirty leaves additionally keep
//! their cached [`FactTable`] and only refresh the `new` counts of rows the
//! delta's subjects touch. Clean subtrees see bit-identical inputs, so
//! replaying their cached outputs is bit-identical to recomputation — the
//! invariant the `incremental_equivalence` integration suite pins down
//! across the threads × stream-window matrix.
//!
//! ### Approximations relative to the paper
//!
//! * Entities appearing on several sibling pages are counted once per slice
//!   when child slices are combined into a set profit; cross-page entity
//!   overlap (rare in practice) slightly overstates a children set's gain.
//! * A seed slice whose property set is a subset of another seed's is
//!   treated as initial (hence canonical) even if its extent coincides; the
//!   paper does not specify this corner.
//!
//! ### Fault isolation
//!
//! Every detection task runs in the panic-safe pool
//! ([`crate::parallel::par_map_isolated`]) under the configured per-source
//! [`SourceBudget`]. A source whose task panics or breaches its budget is
//! **quarantined**: its partial state is discarded, a [`SourceFault`] is
//! recorded in the report, and — for round-0 leaves — its facts are removed
//! before the merge step, so the run over the surviving sources is
//! bit-identical to a clean run that never saw the faulted sources. When a
//! merge-round (parent) task faults, the children's candidates survive and
//! continue competing at coarser granularities; only the parent's own
//! detection is lost. Fault outcomes are cached and replayed like clean ones
//! (fault-injection plans are deterministic per task coordinate), so
//! incremental runs reproduce the same quarantine.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;

use midas_kb::{Fact, KnowledgeBase, Symbol};
use midas_weburl::SourceUrl;

use crate::budget::{self, BreachKind, BudgetBreach, BudgetScope, SourceBudget};
use crate::config::CostModel;
use crate::detector::{DetectInput, LeafOutcome, LeafState, SliceDetector};
use crate::fact_table::{EntityId, FactTable};
use crate::faultinject;
use crate::hierarchy::SliceHierarchy;
use crate::parallel::par_map_streamed;
use crate::quarantine::{Quarantine, SourceFault, Stage};
use crate::slice::DiscoveredSlice;
use crate::source::SourceFacts;
use crate::telemetry;

/// Round-phase telemetry. The execution counters are **dual-sinked**: the
/// per-run [`FrameworkReport`] fields stay exact per run (they come from
/// locals in `drive`, so concurrent runs in one process — the test suites —
/// never bleed into each other), and every per-round aggregate is forwarded
/// into these registry counters with `add_always`, so a single-run process
/// (the CLI) reports registry totals that reconcile *exactly* with the
/// report fields. The phase histograms time each round's shard, detect, and
/// consolidate stages via RAII spans.
mod metrics {
    crate::counter!(pub DETECT_CALLS, "framework.detect_calls");
    crate::counter!(pub TASKS_REUSED, "framework.tasks_reused");
    crate::counter!(pub HIERARCHIES_WARM_REUSED, "framework.hierarchies_warm_reused");
    crate::counter!(pub ROUNDS, "framework.rounds");
    crate::counter!(pub QUARANTINED, "framework.quarantined");
    crate::histogram!(pub SHARD_NS, "framework.phase.shard_ns");
    crate::histogram!(pub DETECT_NS, "framework.phase.detect_ns");
    crate::histogram!(pub CONSOLIDATE_NS, "framework.phase.consolidate_ns");
}

/// What a round exports to the next round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExportPolicy {
    /// Only positive-profit slices propagate upward (the paper's behaviour,
    /// Example 16).
    #[default]
    PositiveOnly,
    /// All detected slices propagate; useful when many small pages only
    /// become profitable once merged at a coarser granularity (ablation).
    ExportAll,
}

/// A slice candidate travelling through the rounds.
#[derive(Debug, Clone)]
struct Candidate {
    slice: DiscoveredSlice,
    /// `|T_W|` of the slice's origin source (for the crawl term of set
    /// profits during consolidation).
    origin_total_facts: usize,
}

/// The projection of a knowledge-base insertion delta onto a corpus: which
/// sources' fact sets intersect the inserted facts (exactly the sources
/// whose `new`-flag profile can have changed), and which subjects the
/// insertions touch (exactly the fact-table rows that can have changed).
/// This is the invalidation key of [`Framework::run_incremental`].
#[derive(Debug, Clone, Default)]
pub struct KbDelta {
    /// URLs of the corpus sources containing at least one inserted fact.
    pub sources: BTreeSet<SourceUrl>,
    /// Subjects of the inserted facts.
    pub subjects: BTreeSet<Symbol>,
}

impl KbDelta {
    /// An empty delta: nothing changed since the previous run.
    pub fn new() -> Self {
        KbDelta::default()
    }

    /// Whether no insertions have been recorded.
    pub fn is_empty(&self) -> bool {
        self.sources.is_empty() && self.subjects.is_empty()
    }

    /// Records facts newly inserted into the knowledge base, marking every
    /// corpus source whose fact set contains one of them as dirty.
    /// `inserted` must hold only facts whose `KnowledgeBase::insert`
    /// returned `true`: a fact the KB already knew flips no `new` flag and
    /// must not dirty anything.
    pub fn record(&mut self, corpus: &[SourceFacts], inserted: &[Fact]) {
        if inserted.is_empty() {
            return;
        }
        for f in inserted {
            self.subjects.insert(f.subject);
        }
        for src in corpus {
            if self.sources.contains(&src.url) {
                continue;
            }
            // `SourceFacts` keeps its facts sorted and deduplicated.
            if inserted.iter().any(|f| src.facts.binary_search(f).is_ok()) {
                self.sources.insert(src.url.clone());
            }
        }
    }
}

/// One memoised task outcome: what the task contributed to the round state,
/// replayed verbatim when its subtree is clean.
#[derive(Debug, Clone)]
struct CachedTask {
    /// Candidates the task exported at its URL (for a faulted merge shard:
    /// the recovered children candidates).
    kept: Vec<Candidate>,
    /// The quarantine entry the task produced, if it faulted.
    fault: Option<SourceFault>,
}

/// The result-affecting configuration a [`RoundCache`] was built under.
/// Replaying cached outcomes is only sound against the exact same corpus,
/// detector, cost model, export policy, and deterministic budget caps; any
/// mismatch restarts the cache cold. (The wall-clock `deadline` budget is
/// deliberately excluded — it is non-deterministic to begin with.)
#[derive(Debug, PartialEq)]
struct CacheSig {
    detector: &'static str,
    leaves: Vec<(SourceUrl, usize)>,
    cost_bits: [u64; 4],
    policy: ExportPolicy,
    max_facts: Option<usize>,
    max_nodes: Option<usize>,
}

/// Cross-round memo for [`Framework::run_incremental`]: per-task outcomes
/// keyed by task URL, plus the round-0 leaf fact tables, from the most
/// recent run. Opaque to callers — create one with [`RoundCache::new`] and
/// hand the same instance back on every call of the loop.
#[derive(Debug, Default)]
pub struct RoundCache {
    sig: Option<CacheSig>,
    leaves: BTreeMap<SourceUrl, CachedTask>,
    shards: BTreeMap<SourceUrl, CachedTask>,
    tables: BTreeMap<SourceUrl, FactTable>,
    /// Round-0 leaf hierarchies retained by the warm-hierarchy engine
    /// (DESIGN.md §15): next round, a dirty leaf's hierarchy is patched in
    /// place ([`SliceHierarchy::warm_patch`]) instead of rebuilt.
    hierarchies: BTreeMap<SourceUrl, SliceHierarchy>,
}

impl RoundCache {
    /// Creates an empty (cold) cache.
    pub fn new() -> Self {
        RoundCache::default()
    }

    /// Number of memoised task outcomes (round-0 leaves + merge shards).
    pub fn len(&self) -> usize {
        self.leaves.len() + self.shards.len()
    }

    /// Whether nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of leaf hierarchies currently retained for warm patching.
    pub fn warm_hierarchies(&self) -> usize {
        self.hierarchies.len()
    }

    /// Drops all cached state; the next incremental run starts cold. The
    /// retained hierarchies' arenas are recycled into the scratch pools
    /// rather than freed, so a cold restart still reuses their capacity.
    pub fn clear(&mut self) {
        let old = std::mem::take(self);
        for (_, h) in old.hierarchies {
            h.recycle();
        }
        for (_, t) in old.tables {
            t.recycle();
        }
    }

    fn reset(&mut self, sig: CacheSig) {
        self.clear();
        self.sig = Some(sig);
    }
}

/// Result of a framework run.
#[derive(Debug)]
pub struct FrameworkReport {
    /// All surviving slices, sorted by profit, descending.
    pub slices: Vec<DiscoveredSlice>,
    /// Number of depth rounds executed (excluding the initial per-source
    /// detection round).
    pub rounds: usize,
    /// Number of detector invocations actually executed (cache replays are
    /// counted in [`FrameworkReport::reused`], not here).
    pub detect_calls: usize,
    /// Number of task outcomes replayed from the incremental cache (always
    /// zero for [`Framework::run`]).
    pub reused: usize,
    /// Number of round-0 leaves whose slice hierarchy was warm-patched in
    /// place from the previous round instead of rebuilt (always zero for
    /// [`Framework::run`], and for detectors that retain no hierarchy).
    pub hierarchies_reused: usize,
    /// Sources dropped from the run (panics, budget breaches), in
    /// deterministic source order per round.
    pub quarantine: Quarantine,
}

/// A source travelling through the rounds: round-0 leaves of an incremental
/// run borrow the caller's corpus (no deep clone per `suggest()`), while
/// moved-in inputs and merged parents are owned.
enum RoundSource<'a> {
    Leaf(&'a SourceFacts),
    Owned(SourceFacts),
}

impl RoundSource<'_> {
    fn as_facts(&self) -> &SourceFacts {
        match self {
            RoundSource::Leaf(s) => s,
            RoundSource::Owned(s) => s,
        }
    }

    fn into_owned(self) -> SourceFacts {
        match self {
            RoundSource::Leaf(s) => s.clone(),
            RoundSource::Owned(s) => s,
        }
    }
}

/// Inserts a leaf into the normalised URL map, merging on URL collision.
fn insert_leaf<'a>(by_url: &mut BTreeMap<SourceUrl, RoundSource<'a>>, s: RoundSource<'a>) {
    let url = s.as_facts().url.clone();
    match by_url.remove(&url) {
        Some(existing) => {
            let merged = SourceFacts::merge(url.clone(), [existing.into_owned(), s.into_owned()]);
            by_url.insert(url, RoundSource::Owned(merged));
        }
        None => {
            by_url.insert(url, s);
        }
    }
}

/// The shard → detect → consolidate driver.
pub struct Framework<'a, D: SliceDetector> {
    detector: &'a D,
    cost: CostModel,
    policy: ExportPolicy,
    threads: usize,
    budget: SourceBudget,
    stream_window: Option<usize>,
}

impl<'a, D: SliceDetector> Framework<'a, D> {
    /// Creates a sequential framework around `detector`.
    pub fn new(detector: &'a D, cost: CostModel) -> Self {
        Framework {
            detector,
            cost,
            policy: ExportPolicy::PositiveOnly,
            threads: 1,
            budget: SourceBudget::unlimited(),
            stream_window: None,
        }
    }

    /// Sets the export policy.
    pub fn with_policy(mut self, policy: ExportPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the number of worker threads per round (1 = sequential).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the per-source execution budget (applies to every detection
    /// unit: each leaf in round 0 and each parent shard in merge rounds).
    pub fn with_budget(mut self, budget: SourceBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Bounds the number of shards admitted to a round's pool at once
    /// (`None` = unbounded: the whole round in flight, the pre-streaming
    /// behaviour). Smaller windows cap peak resident memory — a completed
    /// shard's fact table, extents, and scratch buffers are released before
    /// later shards are admitted — at the cost of pipeline slack when shard
    /// sizes are very uneven. Reports are bit-identical at every window.
    pub fn with_stream_window(mut self, window: Option<usize>) -> Self {
        self.stream_window = window.map(|w| w.max(1));
        self
    }

    /// Effective admission window for a round of `n` tasks.
    fn window_for(&self, n: usize) -> usize {
        self.stream_window.map_or_else(|| n.max(1), |w| w.max(1))
    }

    /// The per-task guard: fault injection hooks, then the up-front
    /// fact-count cap. Unwinds (into the isolated pool) on breach.
    fn guard_task(&self, url: &str, index: usize, total_facts: usize) {
        faultinject::maybe_panic_worker(url, index);
        faultinject::maybe_exhaust_budget(url, index);
        if let Some(cap) = self.budget.max_facts {
            if total_facts > cap {
                budget::breach(BudgetBreach {
                    kind: BreachKind::Facts,
                    limit: cap as u64,
                    observed: total_facts as u64,
                });
            }
        }
    }

    /// Runs the framework over a corpus of per-source fact sets.
    pub fn run(&self, sources: Vec<SourceFacts>, kb: &KnowledgeBase) -> FrameworkReport {
        // Normalise: merge inputs sharing a URL.
        let mut by_url: BTreeMap<SourceUrl, RoundSource<'_>> = BTreeMap::new();
        for s in sources {
            insert_leaf(&mut by_url, RoundSource::Owned(s));
        }
        self.drive(by_url, kb, None, None, BTreeMap::new())
    }

    /// Like [`Framework::run`], but round-0 detection reuses the prebuilt
    /// fact tables in `tables` (keyed by source URL) instead of rebuilding
    /// them from the raw facts — the warm path for corpora loaded from a
    /// snapshot. Sources without an entry build their table as usual. The
    /// report is bit-identical to `run` on the same corpus; only round-0
    /// table construction is skipped.
    pub fn run_with_tables(
        &self,
        sources: Vec<SourceFacts>,
        kb: &KnowledgeBase,
        tables: &BTreeMap<SourceUrl, FactTable>,
    ) -> FrameworkReport {
        let mut by_url: BTreeMap<SourceUrl, RoundSource<'_>> = BTreeMap::new();
        for s in sources {
            insert_leaf(&mut by_url, RoundSource::Owned(s));
        }
        self.drive(by_url, kb, None, Some(tables), BTreeMap::new())
    }

    /// Incremental counterpart of [`Framework::run`] for the augmentation
    /// loop: reuses task outcomes memoised in `cache` by a previous run over
    /// the same corpus, re-executing only the subtrees `delta` dirties.
    ///
    /// **Contract.** Between two calls sharing a `cache`, the knowledge base
    /// may change only by insertions, and `delta` must be the
    /// [`KbDelta::record`] projection of exactly those insertions onto
    /// `sources`. The corpus and the result-affecting framework
    /// configuration must be unchanged (detected via an internal signature;
    /// a mismatch silently restarts the cache cold, which is always
    /// correct). Any active fault-injection plan must also stay fixed:
    /// plans are deterministic per task coordinate, so cached fault
    /// outcomes are replayed rather than re-fired.
    ///
    /// Under that contract the report is bit-identical to
    /// `run(sources.to_vec(), kb)` — including slice order, profits, and
    /// quarantine — except for the execution counters: `detect_calls`
    /// counts only tasks actually run and `reused` counts replays.
    pub fn run_incremental(
        &self,
        sources: &[SourceFacts],
        kb: &KnowledgeBase,
        cache: &mut RoundCache,
        delta: &KbDelta,
    ) -> FrameworkReport {
        let mut by_url: BTreeMap<SourceUrl, RoundSource<'_>> = BTreeMap::new();
        for s in sources {
            insert_leaf(&mut by_url, RoundSource::Leaf(s));
        }
        // A cache is only valid for the corpus and configuration it was
        // built under; on any mismatch, start cold.
        let sig = self.cache_sig(&by_url);
        if cache.sig.as_ref() != Some(&sig) {
            cache.reset(sig);
        }
        // Invalidate what the delta touches: the dirty leaves themselves and
        // every merge shard whose subtree contains one. Outcomes that are
        // dropped here re-execute in `drive` and re-memoise; outcomes whose
        // shard does not even re-form (a dirty leaf stopped exporting) must
        // not linger, or a later clean round would replay phantoms.
        let dirty: Vec<&SourceUrl> = delta
            .sources
            .iter()
            .filter(|u| by_url.contains_key(*u))
            .collect();
        for url in &dirty {
            cache.leaves.remove(*url);
        }
        cache
            .shards
            .retain(|parent, _| dirty.iter().all(|leaf| !parent.contains(leaf)));
        // Dirty leaves keep their cached fact table: structure is unchanged,
        // only the `new` flags of rows keyed by the delta's subjects are
        // stale — refresh those in place instead of rebuilding. Afterwards
        // the density divisor is re-checked against the table's (possibly
        // grown) universe/length distribution; representation only, so
        // slice output is unchanged whether or not anything re-seals. The
        // refreshed row ids come back per leaf: they bound the warm
        // hierarchy patch to the nodes whose extents the delta touched.
        let mut changed_by_url: BTreeMap<SourceUrl, Vec<EntityId>> = BTreeMap::new();
        for url in &dirty {
            if let Some(table) = cache.tables.get_mut(*url) {
                let changed = table.refresh_new_counts(kb, delta.subjects.iter().copied());
                table.recalibrate_divisor();
                changed_by_url.insert((*url).clone(), changed);
            }
        }
        self.drive(by_url, kb, Some(cache), None, changed_by_url)
    }

    fn cache_sig(&self, by_url: &BTreeMap<SourceUrl, RoundSource<'_>>) -> CacheSig {
        CacheSig {
            detector: self.detector.name(),
            leaves: by_url
                .values()
                .map(|s| {
                    let s = s.as_facts();
                    (s.url.clone(), s.len())
                })
                .collect(),
            cost_bits: [
                self.cost.fp.to_bits(),
                self.cost.fc.to_bits(),
                self.cost.fd.to_bits(),
                self.cost.fv.to_bits(),
            ],
            policy: self.policy,
            max_facts: self.budget.max_facts,
            max_nodes: self.budget.max_nodes,
        }
    }

    /// The round driver shared by [`Framework::run`] (`incr = None`: every
    /// task executes) and [`Framework::run_incremental`] (`incr = Some`:
    /// tasks with a surviving cache entry are replayed, the rest execute and
    /// re-memoise). `changed_by_url` holds, per dirty leaf with a cached
    /// table, the entity ids whose `new`-fact counts moved: the bound of
    /// that leaf's warm hierarchy patch ([`SliceHierarchy::warm_patch`]).
    fn drive(
        &self,
        mut by_url: BTreeMap<SourceUrl, RoundSource<'_>>,
        kb: &KnowledgeBase,
        mut incr: Option<&mut RoundCache>,
        prebuilt: Option<&BTreeMap<SourceUrl, FactTable>>,
        mut changed_by_url: BTreeMap<SourceUrl, Vec<EntityId>>,
    ) -> FrameworkReport {
        let incremental = incr.is_some();
        let mut detect_calls = 0usize;
        let mut reused_total = 0usize;
        let mut hierarchies_reused = 0usize;
        let mut quarantine = Quarantine::new();

        // Round 0: per-source detection, entity-based initial slices. Each
        // leaf runs isolated under the per-source budget; `index` is the
        // leaf's position in the deterministic sorted source order (the
        // coordinate fault-injection plans target). Leaves stream through a
        // bounded window: each result is folded into the candidate map in
        // source order as soon as its turn completes, so only `window`
        // detections' worth of state is ever in flight. In incremental runs
        // a leaf with a surviving cache entry becomes a no-op task whose
        // outcome the sink replays at the leaf's slot in that same order.
        let leaf_meta: Vec<(SourceUrl, usize)> = by_url
            .values()
            .map(|s| {
                let s = s.as_facts();
                (s.url.clone(), s.len())
            })
            .collect();
        let leaf_sources: Vec<(usize, &SourceFacts)> = by_url
            .values()
            .map(RoundSource::as_facts)
            .enumerate()
            .collect();
        let window = self.window_for(leaf_sources.len());

        let mut plan: Vec<Option<CachedTask>> = match incr.as_deref() {
            Some(cache) => leaf_meta
                .iter()
                .map(|(url, _)| cache.leaves.get(url).cloned())
                .collect(),
            None => leaf_meta.iter().map(|_| None).collect(),
        };
        let reuse_mask: Vec<bool> = plan.iter().map(Option::is_some).collect();
        // Hand the retained hierarchy of every leaf that will actually
        // execute to its worker through a per-leaf slot (workers take
        // ownership; the slot of a leaf that faults before taking it is
        // drained after the round). Clean leaves replay their cached outcome
        // and keep their hierarchy cached untouched.
        type WarmSlot = Mutex<Option<(SliceHierarchy, Vec<EntityId>)>>;
        let mut warm_slots: Vec<WarmSlot> =
            (0..leaf_meta.len()).map(|_| Mutex::new(None)).collect();
        if let Some(cache) = incr.as_deref_mut() {
            for (index, (url, _)) in leaf_meta.iter().enumerate() {
                if reuse_mask[index] {
                    continue;
                }
                if let Some(h) = cache.hierarchies.remove(url) {
                    let changed = changed_by_url.remove(url).unwrap_or_default();
                    warm_slots[index] = Mutex::new(Some((h, changed)));
                }
            }
        }
        // Shared ref for the worker tasks; new entries collect into locals
        // and land in the cache after the round (the sink cannot hold the
        // cache mutably while tasks read the tables).
        let tables = incr.as_deref().map(|cache| &cache.tables).or(prebuilt);
        let mut new_leaves: Vec<(SourceUrl, CachedTask)> = Vec::new();
        let mut new_tables: Vec<(SourceUrl, FactTable)> = Vec::new();
        let mut new_hierarchies: Vec<(SourceUrl, SliceHierarchy)> = Vec::new();

        let mut candidates: BTreeMap<SourceUrl, Vec<Candidate>> = BTreeMap::new();
        let mut faulted: Vec<SourceUrl> = Vec::new();
        let mut executed = 0usize;
        let mut reused = 0usize;
        let detect_span = telemetry::span("framework.detect", &metrics::DETECT_NS);
        par_map_streamed(
            self.threads,
            window,
            leaf_sources,
            |(index, src)| -> Option<LeafOutcome> {
                if reuse_mask[index] {
                    return None;
                }
                self.guard_task(src.url.as_str(), index, src.len());
                let _scope = BudgetScope::enter(&self.budget);
                let input = DetectInput {
                    source: src,
                    kb,
                    seeds: &[],
                };
                // A snapshot's or the incremental cache's table replaces the
                // rebuild, and last round's hierarchy is patched in place.
                let state = LeafState {
                    table: tables.and_then(|t| t.get(&src.url)),
                    warm: warm_slots[index].lock().ok().and_then(|mut s| s.take()),
                    retain: incremental,
                };
                Some(self.detector.detect_leaf(input, state))
            },
            |index, result| {
                let (url, facts_seen) = &leaf_meta[index];
                match result {
                    Ok(None) => {
                        let cached = plan[index].take().expect("reuse-marked leaf has an entry");
                        reused += 1;
                        if let Some(fault) = &cached.fault {
                            quarantine.push(fault.clone());
                            faulted.push(url.clone());
                        }
                        if !cached.kept.is_empty() {
                            candidates
                                .entry(url.clone())
                                .or_default()
                                .extend(cached.kept);
                        }
                    }
                    Ok(Some(LeafOutcome {
                        mut slices,
                        table,
                        hierarchy,
                        warmed,
                    })) => {
                        executed += 1;
                        if warmed {
                            hierarchies_reused += 1;
                            metrics::HIERARCHIES_WARM_REUSED.add_always(1);
                        }
                        enforce_sorted_entities(&mut slices);
                        let kept: Vec<Candidate> = slices
                            .into_iter()
                            .filter(|s| self.exportable(s))
                            .map(|slice| Candidate {
                                slice,
                                origin_total_facts: *facts_seen,
                            })
                            .collect();
                        if incremental {
                            new_leaves.push((
                                url.clone(),
                                CachedTask {
                                    kept: kept.clone(),
                                    fault: None,
                                },
                            ));
                            if let Some(t) = table {
                                new_tables.push((url.clone(), t));
                            }
                            if let Some(h) = hierarchy {
                                new_hierarchies.push((url.clone(), h));
                            }
                        }
                        if !kept.is_empty() {
                            candidates.entry(url.clone()).or_default().extend(kept);
                        }
                    }
                    Err(fault) => {
                        executed += 1;
                        let sf = SourceFault {
                            source: url.as_str().to_string(),
                            stage: Stage::Detect,
                            cause: fault.cause,
                            facts_seen: *facts_seen,
                        };
                        if incremental {
                            new_leaves.push((
                                url.clone(),
                                CachedTask {
                                    kept: Vec::new(),
                                    fault: Some(sf.clone()),
                                },
                            ));
                        }
                        quarantine.push(sf);
                        faulted.push(url.clone());
                    }
                }
            },
        );
        drop(detect_span);
        detect_calls += executed;
        reused_total += reused;
        metrics::DETECT_CALLS.add_always(executed as u64);
        metrics::TASKS_REUSED.add_always(reused as u64);
        // A leaf that faulted before its worker took the warm slot leaves
        // the hierarchy behind — recycle it here, so a quarantined source
        // always restarts cold if it ever recovers.
        for slot in warm_slots {
            if let Ok(Some((h, _))) = slot.into_inner() {
                h.recycle();
            }
        }
        if let Some(cache) = incr.as_deref_mut() {
            for (url, entry) in new_leaves {
                cache.leaves.insert(url, entry);
            }
            for (url, table) in new_tables {
                if let Some(old) = cache.tables.insert(url, table) {
                    old.recycle();
                }
            }
            for (url, h) in new_hierarchies {
                if let Some(old) = cache.hierarchies.insert(url, h) {
                    old.recycle();
                }
            }
        }
        // Discard quarantined leaves *before* the merge loop: their facts
        // never reach a parent, so the run over the surviving N−k sources is
        // identical to a clean run that was never given the faulted k.
        for url in &faulted {
            by_url.remove(url);
        }

        // Depth rounds, finest to coarsest.
        let max_depth = by_url.keys().map(SourceUrl::depth).max().unwrap_or(0);
        let mut rounds = 0usize;
        for d in (1..=max_depth).rev() {
            rounds += 1;
            let shard_span = telemetry::span("framework.shard", &metrics::SHARD_NS);
            // Merge sources at depth d into their parents: group each
            // parent's children first, then merge every group in one pass
            // (one sort + dedup per parent instead of one per child).
            let deep_urls: Vec<SourceUrl> =
                by_url.keys().filter(|u| u.depth() == d).cloned().collect();
            let mut regrouped: BTreeMap<SourceUrl, Vec<SourceFacts>> = BTreeMap::new();
            for url in deep_urls {
                let child = by_url.remove(&url).expect("url present");
                let parent = url.parent().expect("depth ≥ 1 has a parent");
                regrouped
                    .entry(parent)
                    .or_default()
                    .push(child.into_owned());
            }
            for (parent, mut children) in regrouped {
                if let Some(own) = by_url.remove(&parent) {
                    children.push(own.into_owned());
                }
                let merged = SourceFacts::merge(parent.clone(), children);
                by_url.insert(parent, RoundSource::Owned(merged));
            }

            // Shard candidates at depth d by parent.
            let deep_positions: Vec<SourceUrl> = candidates
                .keys()
                .filter(|u| u.depth() == d)
                .cloned()
                .collect();
            let mut shards: BTreeMap<SourceUrl, Vec<Candidate>> = BTreeMap::new();
            for pos in deep_positions {
                let cands = candidates.remove(&pos).expect("position present");
                let parent = pos.parent().expect("depth ≥ 1 has a parent");
                shards.entry(parent).or_default().extend(cands);
            }

            // Fold the parents' own pre-existing candidates into their shard
            // so they compete during consolidation.
            for (parent, shard) in &mut shards {
                if let Some(own) = candidates.remove(parent) {
                    shard.extend(own);
                }
            }
            drop(shard_span);

            // Detect + consolidate per parent shard, streamed through the
            // bounded window. Tasks borrow the work list so that a faulting
            // parent's child candidates can be recovered in the sink (the
            // clone happens only on that rare fault path).
            let work: Vec<(SourceUrl, Vec<Candidate>)> = shards.into_iter().collect();
            let mut shard_plan: Vec<Option<CachedTask>> = match incr.as_deref() {
                Some(cache) => work
                    .iter()
                    .map(|(parent, _)| cache.shards.get(parent).cloned())
                    .collect(),
                None => work.iter().map(|_| None).collect(),
            };
            let shard_reuse: Vec<bool> = shard_plan.iter().map(Option::is_some).collect();
            let indices: Vec<usize> = (0..work.len()).collect();
            let window = self.window_for(work.len());
            let mut executed = 0usize;
            let mut reused = 0usize;
            let consolidate_span =
                telemetry::span("framework.consolidate", &metrics::CONSOLIDATE_NS);
            par_map_streamed(
                self.threads,
                window,
                indices,
                |wi| -> Option<Vec<Candidate>> {
                    if shard_reuse[wi] {
                        return None;
                    }
                    let (parent, inputs) = &work[wi];
                    // Merge-round tasks are only addressable by URL substring
                    // (index coordinates name round-0 leaves).
                    self.guard_task(parent.as_str(), usize::MAX, by_url[parent].as_facts().len());
                    let _scope = BudgetScope::enter(&self.budget);
                    let parent_src = by_url[parent].as_facts();
                    let seeds = seed_sets(inputs);
                    let detected = self.detector.detect(DetectInput {
                        source: parent_src,
                        kb,
                        seeds: &seeds,
                    });
                    Some(self.consolidate(detected, inputs.clone(), parent_src.len()))
                },
                |wi, result| {
                    let (parent, inputs) = &work[wi];
                    match result {
                        Ok(None) => {
                            let cached = shard_plan[wi]
                                .take()
                                .expect("reuse-marked shard has an entry");
                            reused += 1;
                            if let Some(fault) = &cached.fault {
                                quarantine.push(fault.clone());
                            }
                            if !cached.kept.is_empty() {
                                candidates
                                    .entry(parent.clone())
                                    .or_default()
                                    .extend(cached.kept);
                            }
                        }
                        Ok(Some(survivors)) => {
                            executed += 1;
                            let kept: Vec<Candidate> = survivors
                                .into_iter()
                                .filter(|c| self.exportable(&c.slice))
                                .collect();
                            if let Some(cache) = incr.as_deref_mut() {
                                cache.shards.insert(
                                    parent.clone(),
                                    CachedTask {
                                        kept: kept.clone(),
                                        fault: None,
                                    },
                                );
                            }
                            if !kept.is_empty() {
                                candidates.entry(parent.clone()).or_default().extend(kept);
                            }
                        }
                        Err(fault) => {
                            executed += 1;
                            let sf = SourceFault {
                                source: parent.as_str().to_string(),
                                stage: Stage::Consolidate,
                                cause: fault.cause,
                                facts_seen: by_url.get(parent).map_or(0, |s| s.as_facts().len()),
                            };
                            // The parent's own detection is lost, but the
                            // children's candidates keep competing upward.
                            if let Some(cache) = incr.as_deref_mut() {
                                cache.shards.insert(
                                    parent.clone(),
                                    CachedTask {
                                        kept: inputs.clone(),
                                        fault: Some(sf.clone()),
                                    },
                                );
                            }
                            quarantine.push(sf);
                            if !inputs.is_empty() {
                                candidates
                                    .entry(parent.clone())
                                    .or_default()
                                    .extend(inputs.iter().cloned());
                            }
                        }
                    }
                },
            );
            drop(consolidate_span);
            detect_calls += executed;
            reused_total += reused;
            metrics::DETECT_CALLS.add_always(executed as u64);
            metrics::TASKS_REUSED.add_always(reused as u64);
        }

        let mut slices: Vec<DiscoveredSlice> = candidates
            .into_values()
            .flatten()
            .map(|c| c.slice)
            .collect();
        slices.sort_by(|a, b| b.profit.partial_cmp(&a.profit).expect("finite profits"));
        metrics::ROUNDS.add_always(rounds as u64);
        metrics::QUARANTINED.add_always(quarantine.len() as u64);
        FrameworkReport {
            slices,
            rounds,
            detect_calls,
            reused: reused_total,
            hierarchies_reused,
            quarantine,
        }
    }

    fn exportable(&self, s: &DiscoveredSlice) -> bool {
        match self.policy {
            ExportPolicy::PositiveOnly => s.profit > 0.0,
            ExportPolicy::ExportAll => true,
        }
    }

    /// The consolidation phase: parent slices vs the children slices whose
    /// extents they contain.
    fn consolidate(
        &self,
        mut detected: Vec<DiscoveredSlice>,
        inputs: Vec<Candidate>,
        parent_total_facts: usize,
    ) -> Vec<Candidate> {
        // The subset tests below (and every downstream consumer, e.g.
        // `Augmenter::accept`) rely on sorted extents; detector output is
        // the trust boundary where the invariant is enforced.
        enforce_sorted_entities(&mut detected);
        debug_assert!(
            inputs.iter().all(|c| c.slice.entities_sorted()),
            "candidate entities must stay sorted between rounds"
        );
        detected.sort_by(|a, b| b.profit.partial_cmp(&a.profit).expect("finite profits"));
        let mut assigned = vec![false; inputs.len()];
        let mut kept: Vec<Candidate> = Vec::new();
        for parent_slice in detected {
            let contained: Vec<usize> = (0..inputs.len())
                .filter(|&i| {
                    !assigned[i]
                        && is_entity_subset(&inputs[i].slice.entities, &parent_slice.entities)
                })
                .collect();
            if contained.is_empty() {
                kept.push(Candidate {
                    slice: parent_slice,
                    origin_total_facts: parent_total_facts,
                });
                continue;
            }
            let f_children = self.children_set_profit(&inputs, &contained);
            // Ties go to the children: at equal profit the finer-grained
            // sources are the more precise extraction target.
            if f_children >= parent_slice.profit {
                for &i in &contained {
                    assigned[i] = true;
                    kept.push(inputs[i].clone());
                }
            } else {
                for &i in &contained {
                    assigned[i] = true;
                }
                kept.push(Candidate {
                    slice: parent_slice,
                    origin_total_facts: parent_total_facts,
                });
            }
        }
        for (i, c) in inputs.into_iter().enumerate() {
            if !assigned[i] {
                kept.push(c);
            }
        }
        kept
    }

    /// Profit of a set of child candidates (Definition 9 with the crawl term
    /// charged once per distinct origin source).
    fn children_set_profit(&self, inputs: &[Candidate], idxs: &[usize]) -> f64 {
        let mut gain_terms = 0.0;
        let mut crawl_sources: Vec<(&SourceUrl, usize)> = Vec::new();
        for &i in idxs {
            let c = &inputs[i];
            gain_terms += (1.0 - self.cost.fv) * c.slice.num_new_facts as f64
                - self.cost.fd * c.slice.num_facts as f64;
            if !crawl_sources.iter().any(|(u, _)| *u == &c.slice.source) {
                crawl_sources.push((&c.slice.source, c.origin_total_facts));
            }
        }
        let crawl: f64 = crawl_sources
            .iter()
            .map(|&(_, tw)| self.cost.fc * tw as f64)
            .sum();
        gain_terms - self.cost.fp * idxs.len() as f64 - crawl
    }
}

/// Restores the sorted-entities invariant on detector output. Well-behaved
/// detectors already emit sorted extents, so the common case is a linear
/// scan; enforcement still lives here because subset/membership tests
/// silently miss entities on unsorted input.
fn enforce_sorted_entities(slices: &mut [DiscoveredSlice]) {
    for s in slices {
        if !s.entities_sorted() {
            s.entities.sort_unstable();
        }
    }
}

/// Deduplicated property sets of the input candidates, used to seed the
/// parent's slice hierarchy.
fn seed_sets(inputs: &[Candidate]) -> Vec<Vec<(Symbol, Symbol)>> {
    let mut seeds: Vec<Vec<(Symbol, Symbol)>> = Vec::new();
    for c in inputs {
        if c.slice.properties.is_empty() {
            continue;
        }
        if !seeds.contains(&c.slice.properties) {
            seeds.push(c.slice.properties.clone());
        }
    }
    seeds
}

/// Whether sorted symbol list `sub` is a subset of sorted list `sup`.
fn is_entity_subset(sub: &[Symbol], sup: &[Symbol]) -> bool {
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
    use crate::fixtures::skyrocket_pages;
    use crate::single_source::MidasAlg;
    use midas_kb::Interner;

    fn run_running_example(threads: usize) -> (Interner, FrameworkReport) {
        let mut t = Interner::new();
        let (pages, kb) = skyrocket_pages(&mut t);
        let alg = MidasAlg::new(MidasConfig::running_example());
        let fw = Framework::new(&alg, alg.config.cost).with_threads(threads);
        let report = fw.run(pages, &kb);
        (t, report)
    }

    /// Example 16 end to end: the framework reports exactly the sub-domain
    /// slice S5 ("rocket families sponsored by NASA" at /doc_lau_fam).
    #[test]
    fn example_16_end_to_end() {
        let (t, report) = run_running_example(1);
        assert_eq!(report.slices.len(), 1, "only S5 survives");
        let s5 = &report.slices[0];
        assert_eq!(
            s5.source.as_str(),
            "http://space.skyrocket.de/doc_lau_fam",
            "S5 is reported at the sub-domain granularity"
        );
        assert_eq!(s5.entities.len(), 2);
        assert_eq!(s5.num_new_facts, 6);
        let desc = s5.describe(&t);
        assert!(desc.contains("rocket_family"));
        assert!(report.rounds >= 2, "pages → sub-domain → domain");
        assert!(
            report.quarantine.is_empty(),
            "clean run quarantines nothing"
        );
        assert_eq!(report.reused, 0, "full runs never replay");
    }

    #[test]
    fn fact_cap_quarantines_every_leaf() {
        let mut t = Interner::new();
        let (pages, kb) = skyrocket_pages(&mut t);
        let n = pages.len();
        let alg = MidasAlg::new(MidasConfig::running_example());
        let fw = Framework::new(&alg, alg.config.cost)
            .with_budget(SourceBudget::unlimited().with_max_facts(0));
        let report = fw.run(pages, &kb);
        assert!(report.slices.is_empty());
        assert_eq!(report.rounds, 0, "no surviving leaves, no merge rounds");
        assert_eq!(report.quarantine.len(), n);
        assert!(report.quarantine.iter().all(|f| matches!(
            f.cause,
            crate::quarantine::FaultCause::Budget(BudgetBreach {
                kind: BreachKind::Facts,
                ..
            })
        )));
    }

    #[test]
    fn budget_quarantined_leaf_matches_clean_run_without_it() {
        let mut t = Interner::new();
        let (pages, kb) = skyrocket_pages(&mut t);
        let largest = pages.iter().map(SourceFacts::len).max().unwrap();
        let survivors: Vec<SourceFacts> = pages
            .iter()
            .filter(|p| p.len() < largest)
            .cloned()
            .collect();
        let dropped = pages.len() - survivors.len();
        assert!(dropped > 0 && !survivors.is_empty());

        let alg = MidasAlg::new(MidasConfig::running_example());
        for threads in [1, 4] {
            let budgeted = Framework::new(&alg, alg.config.cost)
                .with_threads(threads)
                .with_budget(SourceBudget::unlimited().with_max_facts(largest - 1))
                .run(pages.clone(), &kb);
            let clean = Framework::new(&alg, alg.config.cost)
                .with_threads(threads)
                .run(survivors.clone(), &kb);
            assert_eq!(budgeted.quarantine.len(), dropped);
            assert!(clean.quarantine.is_empty());
            assert_eq!(budgeted.slices.len(), clean.slices.len());
            for (a, b) in budgeted.slices.iter().zip(&clean.slices) {
                assert_eq!(a.source, b.source);
                assert_eq!(a.entities, b.entities);
                assert_eq!(a.profit.to_bits(), b.profit.to_bits());
            }
        }
    }

    #[test]
    fn parallel_run_matches_sequential() {
        let (_, seq) = run_running_example(1);
        let (_, par) = run_running_example(4);
        assert_eq!(seq.slices.len(), par.slices.len());
        for (a, b) in seq.slices.iter().zip(&par.slices) {
            assert_eq!(a.source, b.source);
            assert_eq!(a.entities, b.entities);
            assert!((a.profit - b.profit).abs() < 1e-12);
        }
    }

    #[test]
    fn stream_window_never_changes_the_report() {
        let (_, unbounded) = run_running_example(4);
        let mut t = Interner::new();
        let (pages, kb) = skyrocket_pages(&mut t);
        let alg = MidasAlg::new(MidasConfig::running_example());
        for window in [1usize, 2, 3] {
            for threads in [1usize, 4] {
                let fw = Framework::new(&alg, alg.config.cost)
                    .with_threads(threads)
                    .with_stream_window(Some(window));
                let report = fw.run(pages.clone(), &kb);
                assert_eq!(report.slices.len(), unbounded.slices.len());
                for (a, b) in report.slices.iter().zip(&unbounded.slices) {
                    assert_eq!(a.source, b.source);
                    assert_eq!(a.entities, b.entities);
                    assert_eq!(a.profit.to_bits(), b.profit.to_bits());
                }
                assert_eq!(report.detect_calls, unbounded.detect_calls);
            }
        }
    }

    #[test]
    fn export_all_keeps_negative_candidates() {
        let mut t = Interner::new();
        let (pages, kb) = skyrocket_pages(&mut t);
        let alg = MidasAlg::new(MidasConfig::running_example());
        let fw = Framework::new(&alg, alg.config.cost).with_policy(ExportPolicy::ExportAll);
        let report = fw.run(pages, &kb);
        // With export-all, at least the S5 consolidation result must still
        // be present and profitable.
        assert!(report.slices.iter().any(|s| s.profit > 4.0));
    }

    #[test]
    fn empty_corpus_is_fine() {
        let alg = MidasAlg::default();
        let fw = Framework::new(&alg, alg.config.cost);
        let report = fw.run(vec![], &KnowledgeBase::new());
        assert!(report.slices.is_empty());
        assert_eq!(report.rounds, 0);
    }

    #[test]
    fn duplicate_source_urls_are_merged() {
        let mut t = Interner::new();
        let (pages, kb) = skyrocket_pages(&mut t);
        // Split the atlas page into two SourceFacts with the same URL.
        let mut doubled = Vec::new();
        for p in pages {
            if p.url.as_str().contains("atlas") {
                let half = p.facts.len() / 2;
                doubled.push(SourceFacts::new(p.url.clone(), p.facts[..half].to_vec()));
                doubled.push(SourceFacts::new(p.url.clone(), p.facts[half..].to_vec()));
            } else {
                doubled.push(p);
            }
        }
        let alg = MidasAlg::new(MidasConfig::running_example());
        let fw = Framework::new(&alg, alg.config.cost);
        let report = fw.run(doubled, &kb);
        assert_eq!(report.slices.len(), 1);
        assert_eq!(report.slices[0].num_new_facts, 6);
    }

    #[test]
    fn entity_subset_helper() {
        let s = |v: &[u32]| -> Vec<Symbol> {
            v.iter().map(|&i| Symbol::from_index(i as usize)).collect()
        };
        assert!(is_entity_subset(&s(&[1, 3]), &s(&[1, 2, 3])));
        assert!(!is_entity_subset(&s(&[0, 3]), &s(&[1, 2, 3])));
        assert!(is_entity_subset(&s(&[]), &s(&[1])));
    }

    #[test]
    fn incremental_cold_cache_matches_full_run() {
        let mut t = Interner::new();
        let (pages, kb) = skyrocket_pages(&mut t);
        let alg = MidasAlg::new(MidasConfig::running_example());
        let fw = Framework::new(&alg, alg.config.cost);
        let full = fw.run(pages.clone(), &kb);
        let mut cache = RoundCache::new();
        let cold = fw.run_incremental(&pages, &kb, &mut cache, &KbDelta::new());
        assert_eq!(cold.reused, 0, "cold cache executes everything");
        assert_eq!(cold.detect_calls, full.detect_calls);
        assert_eq!(cold.slices.len(), full.slices.len());
        for (a, b) in cold.slices.iter().zip(&full.slices) {
            assert_eq!(a.source, b.source);
            assert_eq!(a.entities, b.entities);
            assert_eq!(a.profit.to_bits(), b.profit.to_bits());
        }
        assert!(!cache.is_empty());
        // Re-run with an empty delta: everything replays, nothing executes.
        let warm = fw.run_incremental(&pages, &kb, &mut cache, &KbDelta::new());
        assert_eq!(warm.detect_calls, 0, "clean re-run replays every task");
        assert!(warm.reused > 0);
        for (a, b) in warm.slices.iter().zip(&full.slices) {
            assert_eq!(a.profit.to_bits(), b.profit.to_bits());
        }
    }

    #[test]
    fn cache_restarts_cold_when_configuration_changes() {
        let mut t = Interner::new();
        let (pages, kb) = skyrocket_pages(&mut t);
        let alg = MidasAlg::new(MidasConfig::running_example());
        let mut cache = RoundCache::new();
        let fw = Framework::new(&alg, alg.config.cost);
        let _ = fw.run_incremental(&pages, &kb, &mut cache, &KbDelta::new());
        assert!(!cache.is_empty());
        // Same cache, different export policy: the signature mismatch must
        // force a cold start instead of replaying stale outcomes.
        let fw2 = Framework::new(&alg, alg.config.cost).with_policy(ExportPolicy::ExportAll);
        let report = fw2.run_incremental(&pages, &kb, &mut cache, &KbDelta::new());
        assert_eq!(report.reused, 0);
        assert!(report.detect_calls > 0);
    }
}
