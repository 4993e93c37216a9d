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
//! order the moment its turn completes. Completed shards drop their fact
//! tables and hierarchies eagerly, so peak resident memory is proportional
//! to the window, not the corpus. The delivery order — and therefore every
//! report and quarantine entry — is bit-identical at every
//! `(window, threads)` combination.
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
//! A warm round costs what the delta changed, not the corpus:
//!
//! * the projection looks up each inserted fact's subject in a
//!   [`SubjectIndex`] built once per corpus and checks only the sources it
//!   lists;
//! * the cache recognises the corpus it was built over by its `Arc`, so
//!   binding a warm round to it checks no leaf;
//! * no shard spans two top-level domains, so the cache memoises each
//!   domain's final candidates, quarantine entries and task tally, and a
//!   warm round walks only the domains holding a dirty leaf;
//! * inside those, replayed leaves and shards are folded in place from the
//!   cache and get no pool task;
//! * a parent's working set is merged from the surviving leaves of its
//!   subtree only when its shard executes, on cold and warm runs alike.

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
use std::sync::Arc;

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
    crate::histogram!(pub REFRESH_NS, "fact_table.refresh_ns");
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

/// Which corpus sources hold facts about each subject: the index
/// [`KbDelta::record`] projects insertions through. It is one sorted list
/// of `(subject, source position)` pairs, a source appearing once per
/// distinct subject it holds, so it costs 8 bytes per pair and a lookup is
/// one binary search. Build it once per corpus.
#[derive(Debug, Clone, Default)]
pub struct SubjectIndex {
    pairs: Vec<(Symbol, u32)>,
    sources: usize,
}

impl SubjectIndex {
    /// Indexes `corpus` by subject.
    pub fn new(corpus: &[SourceFacts]) -> Self {
        let mut pairs = Vec::new();
        for (position, src) in corpus.iter().enumerate() {
            let position = u32::try_from(position).expect("corpus positions fit in u32");
            // Facts are sorted by subject first, so each subject is one run.
            let mut last = None;
            for f in src.facts.iter() {
                if last != Some(f.subject) {
                    pairs.push((f.subject, position));
                    last = Some(f.subject);
                }
            }
        }
        pairs.sort_unstable();
        pairs.shrink_to_fit();
        SubjectIndex {
            pairs,
            sources: corpus.len(),
        }
    }

    /// Positions of the sources holding at least one fact about `subject`,
    /// ascending.
    fn sources_of(&self, subject: Symbol) -> impl Iterator<Item = usize> + '_ {
        let start = self.pairs.partition_point(|&(s, _)| s < subject);
        self.pairs[start..]
            .iter()
            .take_while(move |&&(s, _)| s == subject)
            .map(|&(_, position)| position as usize)
    }
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
    /// corpus source whose fact set contains one of them as dirty. `index`
    /// must be [`SubjectIndex::new`] of `corpus`: only the sources it lists
    /// under an inserted fact's subject can hold the fact, and each of those
    /// is checked for the fact itself, so a source holding the subject but
    /// not the fact stays clean. `inserted` must hold only facts whose
    /// `KnowledgeBase::insert` returned `true`: a fact the KB already knew
    /// flips no `new` flag and must not dirty anything.
    pub fn record(&mut self, index: &SubjectIndex, corpus: &[SourceFacts], inserted: &[Fact]) {
        debug_assert_eq!(index.sources, corpus.len(), "index of another corpus");
        for f in inserted {
            self.subjects.insert(f.subject);
            for position in index.sources_of(f.subject) {
                let src = &corpus[position];
                // `SourceFacts` keeps its facts sorted and deduplicated.
                if src.facts.binary_search(f).is_ok() && !self.sources.contains(&src.url) {
                    self.sources.insert(src.url.clone());
                }
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

/// The result-affecting framework configuration, the part of a
/// [`CacheSig`] that does not depend on the corpus.
#[derive(Debug, PartialEq)]
struct SigConfig {
    detector: &'static str,
    cost_bits: [u64; 4],
    policy: ExportPolicy,
    max_facts: Option<usize>,
    max_nodes: Option<usize>,
}

/// The result-affecting inputs a [`RoundCache`] was built under.
/// Replaying cached outcomes is only sound against the exact same corpus,
/// detector, cost model, export policy, and deterministic budget caps; any
/// mismatch restarts the cache cold. (The wall-clock `deadline` budget is
/// deliberately excluded — it is non-deterministic to begin with.)
#[derive(Debug)]
struct CacheSig {
    config: SigConfig,
    /// The corpus as the caller shares it: the same `Arc` again proves the
    /// corpus unchanged without looking at a leaf.
    corpus: Arc<[SourceFacts]>,
}

/// What one top-level domain's rounds produced in the most recent run. A
/// URL's ancestors never leave its domain, so no shard spans two domains: a
/// domain with no dirty leaf reproduces all of this verbatim, and a warm
/// run takes it from here without re-forming any of the domain's shards.
#[derive(Debug)]
struct DomainMemo {
    /// The domain's final candidates: after the merge rounds every
    /// surviving candidate sits at its bare-domain URL.
    exports: Vec<Candidate>,
    /// Its round-0 quarantine entries, with their leaf positions.
    leaf_faults: Vec<(usize, SourceFault)>,
    /// Its merge-round quarantine entries, with their parent URLs.
    shard_faults: Vec<(SourceUrl, SourceFault)>,
    /// Its tasks: every leaf plus every shard it formed. A clean domain
    /// replays them all.
    tasks: usize,
    /// The depth of its deepest surviving leaf (0 when none survived).
    depth: usize,
}

/// One top-level domain of the corpus.
#[derive(Debug)]
struct Domain {
    /// The bare-domain URL.
    url: SourceUrl,
    /// Positions of its leaves, ascending.
    leaves: Vec<u32>,
    /// What its rounds produced last time: `None` before the first run and
    /// once one of its leaves is dirty.
    memo: Option<DomainMemo>,
}

/// Cross-round memo for [`Framework::run_incremental`], from the most recent
/// run: per round-0 leaf (indexed by its position in URL order) its task
/// outcome, fact table and slice hierarchy; per merge shard its outcome;
/// and per top-level domain its final candidates. Opaque to callers —
/// create one with [`RoundCache::new`] and hand the same instance back on
/// every call of the loop.
#[derive(Debug, Default)]
pub struct RoundCache {
    sig: Option<CacheSig>,
    /// The normalised round-0 leaves of the signed corpus: that corpus
    /// itself when it is already sorted by URL and distinct.
    leaves: Arc<[SourceFacts]>,
    /// Per leaf: its memoised outcome.
    tasks: Vec<Option<CachedTask>>,
    /// Per leaf: its fact table.
    tables: Vec<Option<FactTable>>,
    /// Per leaf: the hierarchy retained by the warm-hierarchy engine
    /// (DESIGN.md §15): next round, a dirty leaf's hierarchy is patched in
    /// place ([`SliceHierarchy::warm_patch`]) instead of rebuilt.
    hierarchies: Vec<Option<SliceHierarchy>>,
    /// Per leaf: the index of its domain in `domains`.
    domain_of: Vec<u32>,
    /// The corpus's top-level domains, sorted by URL.
    domains: Vec<Domain>,
    /// Merge-shard outcomes keyed by parent URL.
    shards: BTreeMap<SourceUrl, CachedTask>,
}

impl RoundCache {
    /// Creates an empty (cold) cache.
    pub fn new() -> Self {
        RoundCache::default()
    }

    /// Number of memoised task outcomes (round-0 leaves + merge shards).
    pub fn len(&self) -> usize {
        self.tasks.iter().flatten().count() + self.shards.len()
    }

    /// Whether nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of leaf hierarchies currently retained for warm patching.
    pub fn warm_hierarchies(&self) -> usize {
        self.hierarchies.iter().flatten().count()
    }

    /// Drops all cached state; the next incremental run starts cold.
    pub fn clear(&mut self) {
        *self = Self::default();
    }

    /// Binds the cache to `corpus` under `config`. The corpus it was built
    /// over is recognised by pointer in O(1); any other corpus, or another
    /// configuration, restarts the cache cold.
    fn bind(&mut self, corpus: &Arc<[SourceFacts]>, config: SigConfig) {
        if let Some(sig) = &self.sig {
            if sig.config == config && Arc::ptr_eq(&sig.corpus, corpus) {
                return;
            }
        }
        let leaves = normalised(corpus);
        self.clear();
        let n = leaves.len();
        self.tasks.resize_with(n, || None);
        self.tables.resize_with(n, || None);
        self.hierarchies.resize_with(n, || None);
        self.index_domains(&leaves);
        self.leaves = leaves;
        self.sig = Some(CacheSig {
            config,
            corpus: Arc::clone(corpus),
        });
    }

    /// Groups the leaves by top-level domain.
    fn index_domains(&mut self, leaves: &[SourceFacts]) {
        let mut order: Vec<u32> = (0..leaves.len()).map(position).collect();
        // Stable, so each domain's leaves stay in position order.
        order.sort_by(|&a, &b| {
            let domain = |p: u32| leaves[p as usize].url.domain_str();
            domain(a).cmp(domain(b))
        });
        self.domain_of = vec![0; leaves.len()];
        for p in order {
            let url = &leaves[p as usize].url;
            if self
                .domains
                .last()
                .is_none_or(|d| d.url.as_str() != url.domain_str())
            {
                self.domains.push(Domain {
                    url: url.domain(),
                    leaves: Vec::new(),
                    memo: None,
                });
            }
            let d = self.domains.len() - 1;
            self.domains[d].leaves.push(p);
            self.domain_of[p as usize] = position(d);
        }
    }

    /// The index of `url`'s domain, which must be a corpus domain.
    fn domain_index(&self, url: &SourceUrl) -> usize {
        self.domains
            .binary_search_by(|d| d.url.as_str().cmp(url.domain_str()))
            .expect("the URL lies in a corpus domain")
    }

    /// Forgets what the dirty leaf at `p` invalidates: its own outcome,
    /// every merge shard whose parent URL contains it (its own URL, which
    /// can also be a parent, and its ancestors), and its domain's memo.
    /// Dropped outcomes re-execute and re-memoise. An outcome whose shard
    /// does not even re-form (a dirty leaf stopped exporting) must not
    /// linger, or a later clean round would replay a phantom.
    fn invalidate(&mut self, p: usize) {
        let url = &self.leaves[p].url;
        self.tasks[p] = None;
        self.shards.remove(url);
        for parent in url.ancestors() {
            self.shards.remove(&parent);
        }
        self.domains[self.domain_of[p] as usize].memo = None;
    }

    /// Positions of the leaves of every domain without a memo, ascending:
    /// the leaves a run must walk.
    fn active_leaves(&self) -> Vec<u32> {
        let mut active: Vec<u32> = self
            .domains
            .iter()
            .filter(|d| d.memo.is_none())
            .flat_map(|d| d.leaves.iter().copied())
            .collect();
        active.sort_unstable();
        active
    }

    fn memos(&self) -> impl Iterator<Item = &DomainMemo> + Clone {
        self.domains.iter().filter_map(|d| d.memo.as_ref())
    }

    /// Files a run's results under the domains it recomputed (those without
    /// a memo): every export, fault and surviving leaf of the run belongs
    /// to one of them. `formed` counts the shards each domain formed.
    fn memoise(&mut self, leaves: &[SourceFacts], mut outcome: RunOutcome, formed: &[usize]) {
        let mut fresh: Vec<Option<DomainMemo>> = self
            .domains
            .iter()
            .zip(formed)
            .map(|(d, &shards)| {
                d.memo.is_none().then(|| DomainMemo {
                    exports: outcome.candidates.remove(&d.url).unwrap_or_default(),
                    leaf_faults: Vec::new(),
                    shard_faults: Vec::new(),
                    tasks: d.leaves.len() + shards,
                    depth: 0,
                })
            })
            .collect();
        fn memo_of(fresh: &mut [Option<DomainMemo>], d: usize) -> &mut DomainMemo {
            fresh[d].as_mut().expect("a recomputed domain")
        }
        debug_assert!(
            outcome.candidates.is_empty(),
            "every candidate left after the merge rounds sits at a domain URL"
        );
        for (p, fault) in outcome.leaf_faults {
            memo_of(&mut fresh, self.domain_of[p] as usize)
                .leaf_faults
                .push((p, fault));
        }
        for (parent, fault) in outcome.shard_faults {
            memo_of(&mut fresh, self.domain_index(&parent))
                .shard_faults
                .push((parent, fault));
        }
        for &p in &outcome.alive {
            let memo = memo_of(&mut fresh, self.domain_of[p as usize] as usize);
            memo.depth = memo.depth.max(leaves[p as usize].url.depth());
        }
        for (domain, memo) in self.domains.iter_mut().zip(fresh) {
            if memo.is_some() {
                domain.memo = memo;
            }
        }
    }

    /// The report's slices, in domain-URL order, and its quarantine,
    /// assembled from the domain memos (every domain has one after
    /// [`RoundCache::memoise`]).
    fn assemble(&self) -> (Vec<DiscoveredSlice>, Quarantine) {
        let slices = self
            .memos()
            .flat_map(|m| m.exports.iter().map(|c| c.slice.clone()))
            .collect();
        let quarantine = quarantine_of(
            self.memos()
                .flat_map(|m| m.leaf_faults.iter().cloned())
                .collect(),
            self.memos()
                .flat_map(|m| m.shard_faults.iter().cloned())
                .collect(),
        );
        (slices, quarantine)
    }
}

/// A leaf position as the cache stores it.
fn position(i: usize) -> u32 {
    u32::try_from(i).expect("leaf positions fit in u32")
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

/// Whether `leaves` is already sorted by URL and distinct.
fn is_normal(leaves: &[SourceFacts]) -> bool {
    leaves.windows(2).all(|w| w[0].url < w[1].url)
}

/// Normalises round-0 inputs into the leaf list: sorted by URL, one entry
/// per URL (inputs sharing a URL are merged). An already sorted, distinct
/// list (the common case) passes through untouched.
fn normalise(mut leaves: Vec<SourceFacts>) -> Vec<SourceFacts> {
    if is_normal(&leaves) {
        return leaves;
    }
    leaves.sort_by(|a, b| a.url.cmp(&b.url));
    let mut out: Vec<SourceFacts> = Vec::with_capacity(leaves.len());
    for s in leaves {
        match out.pop() {
            Some(last) if last.url == s.url => {
                out.push(SourceFacts::merge(s.url.clone(), [last, s]));
            }
            last => {
                out.extend(last);
                out.push(s);
            }
        }
    }
    out
}

/// [`normalise`] for a shared corpus: the corpus itself when it is already
/// normal, so the usual incremental run copies nothing.
fn normalised(corpus: &Arc<[SourceFacts]>) -> Arc<[SourceFacts]> {
    if is_normal(corpus) {
        Arc::clone(corpus)
    } else {
        Arc::from(normalise(corpus.to_vec()))
    }
}

/// The positions in `order` of the sources `parent` contains (itself
/// included), in URL order. `order` lists positions of `sources` sorted by
/// canonical URL string, so the subtree lies inside the range of URLs
/// starting with the parent's string; that range also holds siblings such
/// as `/doc-x` and `/doc_sat` next to `/doc`, which [`SourceUrl::contains`]
/// filters out.
pub(crate) fn subtree<'s>(
    sources: &'s [SourceFacts],
    order: &'s [u32],
    parent: &'s SourceUrl,
) -> impl Iterator<Item = usize> + 's {
    let url = |p: usize| &sources[p].url;
    let start = order.partition_point(|&p| *url(p as usize) < *parent);
    order[start..]
        .iter()
        .map(|&p| p as usize)
        .take_while(move |&p| url(p).as_str().starts_with(parent.as_str()))
        .filter(move |&p| parent.contains(url(p)))
}

/// The working set of a merge-round parent: the union of the surviving
/// leaves in its subtree, built when (and only when) its shard executes.
/// `alive` holds the surviving leaves' positions, ascending.
fn merged_parent(leaves: &[SourceFacts], alive: &[u32], parent: &SourceUrl) -> SourceFacts {
    let members = subtree(leaves, alive, parent).map(|p| &leaves[p]);
    SourceFacts::merge(parent.clone(), members)
}

/// Appends `kept` to the candidates exported at `url`.
fn export(
    candidates: &mut BTreeMap<SourceUrl, Vec<Candidate>>,
    url: &SourceUrl,
    kept: impl IntoIterator<Item = Candidate>,
) {
    let mut kept = kept.into_iter().peekable();
    if kept.peek().is_some() {
        candidates.entry(url.clone()).or_default().extend(kept);
    }
}

/// The quarantine in report order: round-0 entries by leaf position, then
/// each merge round's, deepest round first and by parent URL within one.
/// A parent at depth `d` forms its shard in round `d + 1`.
fn quarantine_of(
    mut leaf_faults: Vec<(usize, SourceFault)>,
    mut shard_faults: Vec<(SourceUrl, SourceFault)>,
) -> Quarantine {
    leaf_faults.sort_by_key(|&(p, _)| p);
    shard_faults.sort_by(|(a, _), (b, _)| b.depth().cmp(&a.depth()).then_with(|| a.cmp(b)));
    let mut quarantine = Quarantine::new();
    for (_, fault) in leaf_faults {
        quarantine.push(fault);
    }
    for (_, fault) in shard_faults {
        quarantine.push(fault);
    }
    quarantine
}

/// One round-0 leaf that executes: its position in leaf order (the
/// fault-injection coordinate), its facts, the table it reuses (a
/// snapshot's or the cache's) and the warm hierarchy it takes from the
/// cache, if any.
struct LeafRun<'s> {
    index: usize,
    src: &'s SourceFacts,
    table: Option<&'s FactTable>,
    warm: Option<(SliceHierarchy, Vec<EntityId>)>,
}

/// What the rounds of one run produced over the leaves it walked.
struct RunOutcome {
    /// Final candidates by export URL: after the merge rounds, the bare
    /// URLs of the walked domains.
    candidates: BTreeMap<SourceUrl, Vec<Candidate>>,
    /// Round-0 quarantine entries, with their leaf positions.
    leaf_faults: Vec<(usize, SourceFault)>,
    /// Merge-round quarantine entries, with their parent URLs.
    shard_faults: Vec<(SourceUrl, SourceFault)>,
    /// Positions of the walked leaves that survived round 0, ascending.
    alive: Vec<u32>,
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
    /// shard's fact table and hierarchy are dropped before
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
        self.drive(&normalise(sources), kb, None, None, BTreeMap::new())
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
        self.drive(&normalise(sources), kb, None, Some(tables), BTreeMap::new())
    }

    /// Incremental counterpart of [`Framework::run`] for the augmentation
    /// loop: reuses task outcomes memoised in `cache` by a previous run over
    /// the same corpus, re-executing only the subtrees `delta` dirties. A
    /// top-level domain with no dirty leaf is not walked at all: its final
    /// candidates, quarantine entries and task tally come from the cache.
    ///
    /// **Contract.** Between two calls sharing a `cache`, the knowledge base
    /// may change only by insertions, and `delta` must be the
    /// [`KbDelta::record`] projection of exactly those insertions onto
    /// `sources`. The corpus and the result-affecting framework
    /// configuration must be unchanged: `sources` must be the `Arc` of the
    /// previous call (checked by pointer in O(1)). Another `Arc`, even over
    /// equal contents, or another configuration silently restarts the cache
    /// cold, which is always correct. Any
    /// active fault-injection plan must also stay fixed: plans are
    /// deterministic per task coordinate, so cached fault outcomes are
    /// replayed rather than re-fired.
    ///
    /// Under that contract the report is bit-identical to
    /// `run(sources.to_vec(), kb)` — including slice order, profits, and
    /// quarantine — except for the execution counters: `detect_calls`
    /// counts only tasks actually run and `reused` counts replays.
    pub fn run_incremental(
        &self,
        sources: &Arc<[SourceFacts]>,
        kb: &KnowledgeBase,
        cache: &mut RoundCache,
        delta: &KbDelta,
    ) -> FrameworkReport {
        cache.bind(sources, self.sig_config());
        let leaves = Arc::clone(&cache.leaves);
        // Dirty leaves keep their cached fact table: structure is
        // unchanged, only the `new` flags of rows keyed by the delta's
        // subjects are stale — refresh those in place instead of
        // rebuilding. Afterwards the density divisor is re-checked against
        // the table's (possibly grown) universe/length distribution;
        // representation only, so slice output is unchanged whether or not
        // anything re-seals. The refreshed row ids come back per leaf: they
        // bound the warm hierarchy patch to the nodes whose extents the
        // delta touched.
        let mut changed: BTreeMap<usize, Vec<EntityId>> = BTreeMap::new();
        let refresh_span = telemetry::span("fact_table.refresh", &metrics::REFRESH_NS);
        for url in &delta.sources {
            let Ok(p) = leaves.binary_search_by(|s| s.url.cmp(url)) else {
                continue;
            };
            cache.invalidate(p);
            if let Some(table) = cache.tables[p].as_mut() {
                let rows = table.refresh_new_counts(kb, delta.subjects.iter().copied());
                table.recalibrate_divisor();
                changed.insert(p, rows);
            }
        }
        drop(refresh_span);
        self.drive(&leaves, kb, Some(cache), None, changed)
    }

    fn sig_config(&self) -> SigConfig {
        SigConfig {
            detector: self.detector.name(),
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
    /// leaf is walked and every task executes) and
    /// [`Framework::run_incremental`] (`incr = Some`: only the leaves of
    /// domains without a memo are walked, tasks with a surviving cache
    /// entry are replayed, the rest execute and re-memoise). `leaves` is
    /// the normalised round-0 list (sorted by URL, distinct). `changed`
    /// holds, per dirty leaf with a cached table, the entity ids whose
    /// `new`-fact counts moved: the bound of that leaf's warm hierarchy
    /// patch ([`SliceHierarchy::warm_patch`]).
    fn drive(
        &self,
        leaves: &[SourceFacts],
        kb: &KnowledgeBase,
        mut incr: Option<&mut RoundCache>,
        prebuilt: Option<&BTreeMap<SourceUrl, FactTable>>,
        mut changed: BTreeMap<usize, Vec<EntityId>>,
    ) -> FrameworkReport {
        let incremental = incr.is_some();
        let mut detect_calls = 0usize;
        let mut reused_total = 0usize;
        let mut hierarchies_reused = 0usize;
        let mut candidates: BTreeMap<SourceUrl, Vec<Candidate>> = BTreeMap::new();
        let active: Vec<u32> = match incr.as_deref() {
            Some(cache) => cache.active_leaves(),
            None => (0..leaves.len()).map(position).collect(),
        };

        // Round 0: per-source detection, entity-based initial slices. A leaf
        // whose outcome survives in the cache is replayed here and gets no
        // pool task. Each executing leaf takes its retained hierarchy out of
        // the cache and runs isolated under the per-source budget; `index`
        // is its position in leaf order (the coordinate fault-injection
        // plans target). Executing leaves stream through a bounded window,
        // each result folded into the candidate map as soon as its turn
        // completes, so only `window` detections' worth of state is ever in
        // flight.
        let mut leaf_faults: Vec<(usize, SourceFault)> = Vec::new();
        let mut runs: Vec<LeafRun<'_>> = Vec::new();
        let mut reused = 0usize;
        match incr.as_deref_mut() {
            Some(cache) => {
                let RoundCache {
                    tasks,
                    tables,
                    hierarchies,
                    ..
                } = cache;
                for &p in &active {
                    let index = p as usize;
                    let src = &leaves[index];
                    match &tasks[index] {
                        Some(task) => {
                            reused += 1;
                            if let Some(fault) = &task.fault {
                                leaf_faults.push((index, fault.clone()));
                            }
                            export(&mut candidates, &src.url, task.kept.iter().cloned());
                        }
                        None => runs.push(LeafRun {
                            index,
                            src,
                            table: tables[index].as_ref(),
                            warm: hierarchies[index]
                                .take()
                                .map(|h| (h, changed.remove(&index).unwrap_or_default())),
                        }),
                    }
                }
            }
            None => runs.extend(active.iter().map(|&p| {
                let src = &leaves[p as usize];
                LeafRun {
                    index: p as usize,
                    src,
                    table: prebuilt.and_then(|t| t.get(&src.url)),
                    warm: None,
                }
            })),
        }
        let run_index: Vec<usize> = runs.iter().map(|r| r.index).collect();
        let window = self.window_for(runs.len());
        // New cache entries collect into locals and land in the cache after
        // the round (tasks read the cached tables meanwhile).
        let mut new_tasks: Vec<(usize, CachedTask)> = Vec::new();
        let mut new_tables: Vec<(usize, FactTable)> = Vec::new();
        let mut new_hierarchies: Vec<(usize, SliceHierarchy)> = Vec::new();
        let mut executed = 0usize;
        let detect_span = telemetry::span("framework.detect", &metrics::DETECT_NS);
        par_map_streamed(
            self.threads,
            window,
            runs,
            |LeafRun {
                 index,
                 src,
                 table,
                 warm,
             }|
             -> LeafOutcome {
                // A leaf that faults from here on drops its warm hierarchy
                // with the unwind: a quarantined source restarts cold.
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
                    table,
                    warm,
                    retain: incremental,
                };
                self.detector.detect_leaf(input, state)
            },
            |ri, result| {
                executed += 1;
                let index = run_index[ri];
                let url = &leaves[index].url;
                let facts_seen = leaves[index].len();
                match result {
                    Ok(LeafOutcome {
                        mut slices,
                        table,
                        hierarchy,
                        warmed,
                    }) => {
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
                                origin_total_facts: facts_seen,
                            })
                            .collect();
                        if incremental {
                            new_tasks.push((
                                index,
                                CachedTask {
                                    kept: kept.clone(),
                                    fault: None,
                                },
                            ));
                            if let Some(t) = table {
                                new_tables.push((index, t));
                            }
                            if let Some(h) = hierarchy {
                                new_hierarchies.push((index, h));
                            }
                        }
                        export(&mut candidates, url, kept);
                    }
                    Err(fault) => {
                        let sf = SourceFault {
                            source: url.as_str().to_string(),
                            stage: Stage::Detect,
                            cause: fault.cause,
                            facts_seen,
                        };
                        if incremental {
                            new_tasks.push((
                                index,
                                CachedTask {
                                    kept: Vec::new(),
                                    fault: Some(sf.clone()),
                                },
                            ));
                        }
                        leaf_faults.push((index, sf));
                    }
                }
            },
        );
        drop(detect_span);
        detect_calls += executed;
        reused_total += reused;
        metrics::DETECT_CALLS.add_always(executed as u64);
        metrics::TASKS_REUSED.add_always(reused as u64);
        if let Some(cache) = incr.as_deref_mut() {
            for (index, task) in new_tasks {
                cache.tasks[index] = Some(task);
            }
            for (index, table) in new_tables {
                cache.tables[index] = Some(table);
            }
            for (index, h) in new_hierarchies {
                cache.hierarchies[index] = Some(h);
            }
        }
        // Discard quarantined leaves *before* the merge rounds: their facts
        // never reach a parent, so the run over the surviving N−k sources is
        // identical to a clean run that was never given the faulted k.
        let alive: Vec<u32> = if leaf_faults.is_empty() {
            active
        } else {
            let mut dead: Vec<usize> = leaf_faults.iter().map(|&(index, _)| index).collect();
            dead.sort_unstable();
            active
                .into_iter()
                .filter(|&p| dead.binary_search(&(p as usize)).is_err())
                .collect()
        };

        // Depth rounds, finest to coarsest. `alive` holds only the
        // surviving walked leaves; a parent's working set is merged from its
        // subtree inside its shard's task, so replayed shards merge nothing.
        // The rounds run down from the deepest surviving leaf of the whole
        // corpus, clean domains included, so a warm run opens the same
        // rounds as a full one.
        let clean_depth = incr
            .as_deref()
            .and_then(|cache| cache.memos().map(|m| m.depth).max());
        let max_depth = alive
            .iter()
            .map(|&p| leaves[p as usize].url.depth())
            .chain(clean_depth)
            .max()
            .unwrap_or(0);
        let mut shard_faults: Vec<(SourceUrl, SourceFault)> = Vec::new();
        // Shards formed per domain, for the memo's task tally.
        let mut formed: Vec<usize> = incr
            .as_deref()
            .map_or_else(Vec::new, |cache| vec![0; cache.domains.len()]);
        let mut rounds = 0usize;
        for d in (1..=max_depth).rev() {
            rounds += 1;
            let shard_span = telemetry::span("framework.shard", &metrics::SHARD_NS);
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

            // Replay cached shards, then detect + consolidate the rest,
            // streamed through the bounded window. Tasks borrow the work
            // list so that a faulting parent's child candidates can be
            // recovered in the sink (the clone happens only on that rare
            // fault path).
            let work: Vec<(SourceUrl, Vec<Candidate>)> = shards.into_iter().collect();
            let mut runs: Vec<usize> = Vec::new();
            let mut reused = 0usize;
            for (wi, (parent, _)) in work.iter().enumerate() {
                let Some(cache) = incr.as_deref() else {
                    runs.push(wi);
                    continue;
                };
                formed[cache.domain_index(parent)] += 1;
                match cache.shards.get(parent) {
                    Some(task) => {
                        reused += 1;
                        if let Some(fault) = &task.fault {
                            shard_faults.push((parent.clone(), fault.clone()));
                        }
                        export(&mut candidates, parent, task.kept.iter().cloned());
                    }
                    None => runs.push(wi),
                }
            }
            let run_index = runs.clone();
            let window = self.window_for(runs.len());
            let mut new_shards: Vec<(SourceUrl, CachedTask)> = Vec::new();
            let mut executed = 0usize;
            let consolidate_span =
                telemetry::span("framework.consolidate", &metrics::CONSOLIDATE_NS);
            par_map_streamed(
                self.threads,
                window,
                runs,
                |wi| -> Vec<Candidate> {
                    let (parent, inputs) = &work[wi];
                    let parent_src = merged_parent(leaves, &alive, parent);
                    // Merge-round tasks are only addressable by URL substring
                    // (index coordinates name round-0 leaves).
                    self.guard_task(parent.as_str(), usize::MAX, parent_src.len());
                    let _scope = BudgetScope::enter(&self.budget);
                    let seeds = seed_sets(inputs);
                    let detected = self.detector.detect(DetectInput {
                        source: &parent_src,
                        kb,
                        seeds: &seeds,
                    });
                    self.consolidate(detected, inputs.clone(), parent_src.len())
                },
                |ri, result| {
                    executed += 1;
                    let wi = run_index[ri];
                    let (parent, inputs) = &work[wi];
                    match result {
                        Ok(survivors) => {
                            let kept: Vec<Candidate> = survivors
                                .into_iter()
                                .filter(|c| self.exportable(&c.slice))
                                .collect();
                            if incremental {
                                new_shards.push((
                                    parent.clone(),
                                    CachedTask {
                                        kept: kept.clone(),
                                        fault: None,
                                    },
                                ));
                            }
                            export(&mut candidates, parent, kept);
                        }
                        Err(fault) => {
                            let sf = SourceFault {
                                source: parent.as_str().to_string(),
                                stage: Stage::Consolidate,
                                cause: fault.cause,
                                facts_seen: merged_parent(leaves, &alive, parent).len(),
                            };
                            // The parent's own detection is lost, but the
                            // children's candidates keep competing upward.
                            if incremental {
                                new_shards.push((
                                    parent.clone(),
                                    CachedTask {
                                        kept: inputs.clone(),
                                        fault: Some(sf.clone()),
                                    },
                                ));
                            }
                            shard_faults.push((parent.clone(), sf));
                            export(&mut candidates, parent, inputs.iter().cloned());
                        }
                    }
                },
            );
            drop(consolidate_span);
            if let Some(cache) = incr.as_deref_mut() {
                cache.shards.extend(new_shards);
            }
            detect_calls += executed;
            reused_total += reused;
            metrics::DETECT_CALLS.add_always(executed as u64);
            metrics::TASKS_REUSED.add_always(reused as u64);
        }

        let outcome = RunOutcome {
            candidates,
            leaf_faults,
            shard_faults,
            alive,
        };
        let (mut slices, quarantine) = match incr {
            None => (
                outcome
                    .candidates
                    .into_values()
                    .flatten()
                    .map(|c| c.slice)
                    .collect(),
                quarantine_of(outcome.leaf_faults, outcome.shard_faults),
            ),
            Some(cache) => {
                // Every task of a clean domain is a replay.
                let clean: usize = cache.memos().map(|m| m.tasks).sum();
                reused_total += clean;
                metrics::TASKS_REUSED.add_always(clean as u64);
                cache.memoise(leaves, outcome, &formed);
                cache.assemble()
            }
        };
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
    use crate::incremental::Augmenter;
    use crate::single_source::MidasAlg;
    use midas_kb::Interner;
    use std::time::Duration;

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
        let pages: Arc<[SourceFacts]> = pages.into();
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
        let pages: Arc<[SourceFacts]> = pages.into();
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

    #[test]
    fn cache_restarts_cold_for_another_corpus_arc() {
        let mut t = Interner::new();
        let (pages, kb) = skyrocket_pages(&mut t);
        let alg = MidasAlg::new(MidasConfig::running_example());
        let fw = Framework::new(&alg, alg.config.cost);
        let full = fw.run(pages.clone(), &kb);
        let first: Arc<[SourceFacts]> = pages.clone().into();
        let mut cache = RoundCache::new();
        let _ = fw.run_incremental(&first, &kb, &mut cache, &KbDelta::new());
        // Equal contents behind another `Arc`: the cache only trusts the
        // corpus it was built over, so everything executes again.
        let second: Arc<[SourceFacts]> = pages.into();
        let report = fw.run_incremental(&second, &kb, &mut cache, &KbDelta::new());
        assert_eq!(report.reused, 0);
        assert_eq!(report.detect_calls, full.detect_calls);
        // The rebound cache replays everything for the new `Arc`.
        let warm = fw.run_incremental(&second, &kb, &mut cache, &KbDelta::new());
        assert_eq!(warm.detect_calls, 0);
        assert_eq!(warm.reused, full.detect_calls);
    }

    /// Tiny deterministic generator for the randomised tests below.
    struct XorShift(u64);

    impl XorShift {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % n as u64) as usize
        }
    }

    /// The dirty set by brute force: every source holding an inserted fact.
    fn scan_delta(corpus: &[SourceFacts], inserted: &[Fact]) -> KbDelta {
        KbDelta {
            sources: corpus
                .iter()
                .filter(|src| inserted.iter().any(|f| src.facts.contains(f)))
                .map(|src| src.url.clone())
                .collect(),
            subjects: inserted.iter().map(|f| f.subject).collect(),
        }
    }

    #[test]
    fn indexed_projection_matches_a_full_scan() {
        for seed in 1..=200u64 {
            let mut rng = XorShift(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
            let mut t = Interner::new();
            let fact = |t: &mut Interner, s: usize, p: usize, o: usize| {
                Fact::intern(t, &format!("e{s}"), &format!("p{p}"), &format!("o{o}"))
            };
            let domains = ["http://a.com", "http://b.org", "http://c.net"];
            let mut pages: Vec<(SourceUrl, Vec<Fact>)> = Vec::new();
            for i in 0..2 + rng.below(10) {
                let domain = domains[rng.below(domains.len())];
                let url = SourceUrl::parse(&format!("{domain}/d{}/p{i}", rng.below(3))).unwrap();
                let facts = (0..rng.below(12))
                    .map(|_| fact(&mut t, rng.below(8), rng.below(3), rng.below(3)))
                    .collect();
                pages.push((url, facts));
            }
            // The same fact on pages of two domains: both must be dirty.
            let shared = fact(&mut t, 100, 0, 0);
            pages.push((
                SourceUrl::parse("http://a.com/x/shared").unwrap(),
                vec![shared],
            ));
            pages.push((
                SourceUrl::parse("http://b.org/y/shared").unwrap(),
                vec![shared],
            ));
            // A page with the subject of an inserted fact but not the fact
            // itself: it must stay clean.
            let near = fact(&mut t, 100, 1, 1);
            pages.push((SourceUrl::parse("http://c.net/z/near").unwrap(), vec![near]));
            let corpus: Vec<SourceFacts> = pages
                .into_iter()
                .map(|(url, facts)| SourceFacts::new(url, facts))
                .collect();
            let index = SubjectIndex::new(&corpus);

            let mut delta = KbDelta::new();
            let mut oracle = KbDelta::new();
            for _ in 0..3 {
                let mut inserted: Vec<Fact> = (0..rng.below(6))
                    .map(|_| fact(&mut t, rng.below(8), rng.below(3), rng.below(3)))
                    .collect();
                inserted.push(shared);
                delta.record(&index, &corpus, &inserted);
                let batch = scan_delta(&corpus, &inserted);
                oracle.sources.extend(batch.sources);
                oracle.subjects.extend(batch.subjects);
                assert_eq!(delta.sources, oracle.sources, "seed {seed}: dirty sources");
                assert_eq!(delta.subjects, oracle.subjects, "seed {seed}: subjects");
            }
            let url = |s: &str| SourceUrl::parse(s).unwrap();
            assert!(delta.sources.contains(&url("http://a.com/x/shared")));
            assert!(delta.sources.contains(&url("http://b.org/y/shared")));
            assert!(
                !delta.sources.contains(&url("http://c.net/z/near")),
                "seed {seed}: a page holding only the subject was dirtied"
            );
        }
    }

    /// Facts `{prefix}i type kind` and `{prefix}i tag value` for each `i`.
    fn vertical(
        t: &mut Interner,
        prefix: &str,
        ids: std::ops::Range<usize>,
        kind: &str,
        value: &str,
    ) -> Vec<Fact> {
        ids.flat_map(|i| {
            let s = format!("{prefix}{i}");
            [
                Fact::intern(t, &s, "type", kind),
                Fact::intern(t, &s, "tag", value),
            ]
        })
        .collect()
    }

    /// The prefix trap: `/doc` is a leaf and the parent of `/doc/p` and
    /// `/doc/big`, while `/doc-x` and `/doc_sat` share its string prefix but
    /// are its siblings.
    fn prefix_trap(t: &mut Interner) -> Vec<SourceFacts> {
        let page =
            |url: &str, facts: Vec<Fact>| SourceFacts::new(SourceUrl::parse(url).unwrap(), facts);
        vec![
            page(
                "http://a.com/doc",
                vertical(t, "r", 0..6, "rocket_family", "nasa"),
            ),
            page(
                "http://a.com/doc/p",
                vertical(t, "r", 6..12, "rocket_family", "nasa"),
            ),
            page(
                "http://a.com/doc/big",
                vertical(t, "b", 0..30, "booster", "solid"),
            ),
            page(
                "http://a.com/doc_sat/x",
                vertical(t, "s", 0..8, "satellite", "leo"),
            ),
            page(
                "http://a.com/doc-x/y",
                vertical(t, "e", 0..8, "engine", "kerosene"),
            ),
        ]
    }

    /// `|T_W|` implied by a slice's profit (Definition 9 solved for the
    /// crawl term).
    fn implied_crawl_facts(s: &DiscoveredSlice, cost: &CostModel) -> usize {
        let crawl = (1.0 - cost.fv) * s.num_new_facts as f64
            - cost.fd * s.num_facts as f64
            - cost.fp
            - s.profit;
        (crawl / cost.fc).round() as usize
    }

    #[test]
    fn lazy_parent_merge_skips_prefix_siblings() {
        let mut t = Interner::new();
        let corpus = prefix_trap(&mut t);
        let url = |s: &str| SourceUrl::parse(s).unwrap();
        let doc = url("http://a.com/doc");
        let big = url("http://a.com/doc/big");
        // Hand count of `/doc`'s working set: its own page and `/doc/*`.
        let count = |skip: Option<&SourceUrl>| {
            corpus
                .iter()
                .filter(|s| {
                    [
                        "http://a.com/doc",
                        "http://a.com/doc/p",
                        "http://a.com/doc/big",
                    ]
                    .contains(&s.url.as_str())
                        && Some(&s.url) != skip
                })
                .flat_map(|s| s.facts.iter().copied())
                .collect::<BTreeSet<Fact>>()
                .len()
        };
        assert_eq!(count(None), 84);
        assert_eq!(count(Some(&big)), 24);
        let leaves = normalise(corpus.clone());
        let alive: Vec<u32> = (0..leaves.len()).map(position).collect();
        assert_eq!(merged_parent(&leaves, &alive, &doc).len(), count(None));

        let config = MidasConfig::running_example();
        let cost = config.cost;
        let biggest = corpus.iter().map(SourceFacts::len).max().unwrap();
        // Unbudgeted, and with a fact cap that quarantines only `/doc/big`.
        for (budget, doc_facts) in [
            (SourceBudget::unlimited(), count(None)),
            (
                SourceBudget::unlimited().with_max_facts(biggest - 1),
                count(Some(&big)),
            ),
        ] {
            for threads in [1, 2] {
                let config = MidasConfig {
                    budget,
                    ..config.clone()
                };
                let mut aug = Augmenter::new(config, corpus.clone(), KnowledgeBase::new())
                    .with_threads(threads);
                for round in 0..4 {
                    let fresh = aug.suggest_fresh();
                    let incr = aug.suggest_report();
                    assert_eq!(incr.slices.len(), fresh.slices.len(), "round {round}");
                    for (a, b) in incr.slices.iter().zip(&fresh.slices) {
                        assert_eq!(a.source, b.source, "round {round}");
                        assert_eq!(a.entities, b.entities, "round {round}");
                        assert_eq!(a.profit.to_bits(), b.profit.to_bits(), "round {round}");
                    }
                    let quarantined = |r: &FrameworkReport| -> Vec<String> {
                        r.quarantine.iter().map(|f| f.source.clone()).collect()
                    };
                    assert_eq!(quarantined(&incr), quarantined(&fresh), "round {round}");
                    if budget.max_facts.is_some() {
                        assert_eq!(quarantined(&fresh), vec![big.as_str().to_string()]);
                    }
                    if round == 0 {
                        // The rocket slice is detected at `/doc` over the
                        // merged working set, and survives the domain.
                        let at_doc = fresh
                            .slices
                            .iter()
                            .find(|s| s.source == doc)
                            .expect("a slice reported at /doc");
                        assert_eq!(at_doc.entities.len(), 12);
                        assert_eq!(implied_crawl_facts(at_doc, &cost), doc_facts);
                    }
                    let Some(best) = fresh.slices.into_iter().find(|s| s.profit > 0.0) else {
                        break;
                    };
                    aug.accept(&best);
                }
            }
        }
    }

    /// Clears the process-global fault plan when dropped.
    struct PlanGuard;

    impl Drop for PlanGuard {
        fn drop(&mut self) {
            faultinject::clear();
        }
    }

    /// Three domains. The accepts dirty `rich.com` and `mid.org` first,
    /// while `poor.net` stays clean and holds a fault-injected leaf; a
    /// second injected leaf sits in `rich.com`. Under a fact cap, the
    /// multi-page parents of every domain fault as well. Each round, the
    /// warm report, which takes the clean domains from their memos, equals
    /// a rebuild: slices, quarantine order and `rounds`, with replayed plus
    /// executed tasks equal to the rebuild's tasks.
    #[test]
    fn clean_domains_replay_from_their_memo() {
        let mut t = Interner::new();
        let mut corpus = Vec::new();
        let mut pages = |t: &mut Interner, stem: &str, sizes: &[usize], kind: &str| {
            let mut next = 0;
            for (i, &n) in sizes.iter().enumerate() {
                let prefix = format!("{}{}", kind, stem.len());
                let facts = vertical(t, &prefix, next..next + n, kind, "v");
                next += n;
                let url = SourceUrl::parse(&format!("{stem}/p{i}")).unwrap();
                corpus.push(SourceFacts::new(url, facts));
            }
        };
        pages(&mut t, "http://rich.com/a", &[8, 8, 8, 8], "rocket");
        pages(&mut t, "http://rich.com/b", &[6], "engine");
        pages(&mut t, "http://mid.org/x", &[6, 6], "satellite");
        // One level deeper than the other domains: a warm round where only
        // the shallower ones are dirty still opens poor.net's rounds.
        pages(&mut t, "http://poor.net/s/t", &[3, 3, 3], "probe");
        for url in [
            "http://rich.com/a/faulty-leaf",
            "http://poor.net/s/faulty-leaf",
        ] {
            let facts = vertical(&mut t, url, 0..2, "spare", "v");
            corpus.push(SourceFacts::new(SourceUrl::parse(url).unwrap(), facts));
        }
        let in_domain = |url: &SourceUrl, host: &str| url.domain_str().ends_with(host);

        let _plan = PlanGuard;
        faultinject::install(faultinject::FaultPlan::parse("panic@faulty-leaf").unwrap());
        for cap in [None, Some(16)] {
            for threads in [1, 2] {
                let mut budget = SourceBudget::unlimited();
                if let Some(cap) = cap {
                    budget = budget.with_max_facts(cap);
                }
                let config = MidasConfig {
                    budget,
                    ..MidasConfig::running_example()
                };
                let mut aug = Augmenter::new(config, corpus.clone(), KnowledgeBase::new())
                    .with_threads(threads);
                let mut accepted: Vec<SourceUrl> = Vec::new();
                for round in 0..5 {
                    let what = format!("cap {cap:?}, {threads} thread(s), round {round}");
                    let fresh = aug.suggest_fresh();
                    let incr = aug.suggest_report();
                    assert_eq!(incr.slices.len(), fresh.slices.len(), "{what}");
                    for (a, b) in incr.slices.iter().zip(&fresh.slices) {
                        assert_eq!(a.source, b.source, "{what}");
                        assert_eq!(a.entities, b.entities, "{what}");
                        assert_eq!(a.profit.to_bits(), b.profit.to_bits(), "{what}");
                    }
                    let entries = |r: &FrameworkReport| -> Vec<(String, Stage)> {
                        r.quarantine
                            .iter()
                            .map(|f| (f.source.clone(), f.stage))
                            .collect()
                    };
                    assert_eq!(entries(&incr), entries(&fresh), "{what}");
                    assert_eq!(incr.rounds, fresh.rounds, "{what}");
                    assert_eq!(
                        incr.reused + incr.detect_calls,
                        fresh.detect_calls,
                        "{what}"
                    );
                    let faults = entries(&fresh);
                    // Round-0 entries come first, by leaf position.
                    assert_eq!(faults[0].0, "http://poor.net/s/faulty-leaf", "{what}");
                    assert_eq!(faults[1].0, "http://rich.com/a/faulty-leaf", "{what}");
                    if cap.is_some() && round == 0 {
                        for parent in ["http://poor.net/s/t", "http://rich.com/a"] {
                            assert!(
                                faults.contains(&(parent.to_string(), Stage::Consolidate)),
                                "{what}: {parent} exceeds the cap"
                            );
                        }
                    }
                    if round > 0 {
                        assert!(incr.detect_calls < fresh.detect_calls, "{what}");
                    }
                    let Some(best) = fresh.slices.into_iter().find(|s| s.profit > 0.0) else {
                        break;
                    };
                    aug.accept(&best);
                    accepted.push(best.source);
                }
                assert!(accepted.len() >= 3, "cap {cap:?}: {accepted:?}");
                assert!(
                    accepted[..2].iter().all(|u| !in_domain(u, "poor.net")),
                    "cap {cap:?}: poor.net must stay clean while the others are dirtied: \
                     {accepted:?}"
                );
            }
        }
    }

    #[test]
    fn deadline_faults_are_cached_and_replayed() {
        let mut t = Interner::new();
        let (pages, kb) = skyrocket_pages(&mut t);
        let alg = MidasAlg::new(MidasConfig::running_example());
        let fw = Framework::new(&alg, alg.config.cost)
            .with_budget(SourceBudget::unlimited().with_deadline(Duration::ZERO));
        let pages: Arc<[SourceFacts]> = pages.into();
        let mut cache = RoundCache::new();
        let first = fw.run_incremental(&pages, &kb, &mut cache, &KbDelta::new());
        assert!(!first.quarantine.is_empty(), "a zero deadline quarantines");
        assert!(first.quarantine.iter().all(|f| matches!(
            f.cause,
            crate::quarantine::FaultCause::Budget(BudgetBreach {
                kind: BreachKind::Deadline,
                ..
            })
        )));
        assert_eq!(first.detect_calls, pages.len());
        let second = fw.run_incremental(&pages, &kb, &mut cache, &KbDelta::new());
        assert_eq!(
            second.detect_calls, 0,
            "deadline faults replay from the cache"
        );
        assert_eq!(second.reused, first.detect_calls);
        let entries = |r: &FrameworkReport| -> Vec<(String, usize)> {
            r.quarantine
                .iter()
                .map(|f| (f.source.clone(), f.facts_seen))
                .collect()
        };
        assert_eq!(entries(&second), entries(&first));
    }
}
