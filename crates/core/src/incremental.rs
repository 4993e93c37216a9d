//! Incremental knowledge-base augmentation — the operational loop around
//! MIDAS.
//!
//! The paper stops at *suggesting* slices; operationally, an operator picks
//! a suggestion, extracts it (crawl + wrapper induction), loads the new
//! facts, and asks MIDAS again — previously-suggested slices lose their
//! value as their facts become known, and previously-buried slices surface.
//! [`Augmenter`] drives that loop with a pluggable "extraction" step; the
//! default [`Augmenter::accept`] simulates a perfect extraction by loading
//! the slice's facts straight into the knowledge base.
//!
//! The loop is **incremental**: the corpus is shared behind an `Arc` (no
//! per-round deep clone), every `accept` records the insertion delta as a
//! [`KbDelta`], and [`Augmenter::suggest`] drives
//! [`Framework::run_incremental`] with a persistent [`RoundCache`] so only
//! the dirty subtree of the URL hierarchy is re-detected. Results are
//! bit-identical to a from-scratch rebuild ([`Augmenter::suggest_fresh`])
//! at every round.
//!
//! `accept` reads the facts of the sources in the slice's URL scope, found
//! as one range of the corpus sorted by URL, then projects the insertions
//! through a [`SubjectIndex`]: each inserted fact is checked only against
//! the sources that hold its subject. Both indexes are built by the first
//! accept and kept, so an accept never walks the whole corpus.

use std::sync::Arc;

use crate::config::MidasConfig;
use crate::framework::{subtree, Framework, FrameworkReport, KbDelta, RoundCache, SubjectIndex};
use crate::single_source::MidasAlg;
use crate::slice::DiscoveredSlice;
use crate::source::SourceFacts;
use midas_kb::{Fact, KnowledgeBase, Symbol};

/// One accepted suggestion and the augmentation it caused.
#[derive(Debug, Clone)]
pub struct AugmentationStep {
    /// The slice that was accepted.
    pub slice: DiscoveredSlice,
    /// How many facts the knowledge base actually gained.
    pub facts_added: usize,
    /// Knowledge-base size after the step.
    pub kb_size: usize,
}

/// Iterative augmentation driver.
#[derive(Debug)]
pub struct Augmenter {
    config: MidasConfig,
    sources: Arc<[SourceFacts]>,
    kb: KnowledgeBase,
    threads: usize,
    history: Vec<AugmentationStep>,
    cache: RoundCache,
    /// Insertions accepted since the last `suggest`, projected onto the
    /// corpus; drained into `run_incremental` as the invalidation key.
    delta: KbDelta,
    /// The corpus indexes `accept` runs through, built by the first
    /// `accept` (a loop that never accepts, such as a zero-round run, never
    /// pays for them).
    index: Option<CorpusIndex>,
}

/// The lookups `Augmenter::accept` makes into the corpus.
#[derive(Debug)]
struct CorpusIndex {
    /// Subject → sources: the projection of the insertions.
    subjects: SubjectIndex,
    /// Source positions sorted by URL: the slice's scope.
    by_url: Vec<u32>,
}

impl CorpusIndex {
    fn new(sources: &[SourceFacts]) -> Self {
        let mut by_url: Vec<u32> = (0..sources.len())
            .map(|p| u32::try_from(p).expect("corpus positions fit in u32"))
            .collect();
        by_url.sort_by(|&a, &b| sources[a as usize].url.cmp(&sources[b as usize].url));
        CorpusIndex {
            subjects: SubjectIndex::new(sources),
            by_url,
        }
    }
}

impl Augmenter {
    /// Creates the driver over a corpus and an initial knowledge base.
    pub fn new(config: MidasConfig, sources: Vec<SourceFacts>, kb: KnowledgeBase) -> Self {
        Augmenter::with_shared_sources(config, Arc::from(sources), kb)
    }

    /// Creates the driver over an already-shared corpus, so a caller that
    /// keeps its own handle pays no copy at all.
    pub fn with_shared_sources(
        config: MidasConfig,
        sources: Arc<[SourceFacts]>,
        kb: KnowledgeBase,
    ) -> Self {
        Augmenter {
            config,
            sources,
            kb,
            threads: 1,
            history: Vec::new(),
            cache: RoundCache::new(),
            delta: KbDelta::new(),
            index: None,
        }
    }

    /// Sets the framework worker-thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The current knowledge base.
    pub fn kb(&self) -> &KnowledgeBase {
        &self.kb
    }

    /// The corpus the loop runs over.
    pub fn sources(&self) -> &[SourceFacts] {
        &self.sources
    }

    /// The accepted steps so far.
    pub fn history(&self) -> &[AugmentationStep] {
        &self.history
    }

    /// The algorithm configuration the loop runs with.
    pub fn config(&self) -> &MidasConfig {
        &self.config
    }

    /// Number of leaf hierarchies the incremental cache currently retains
    /// for warm patching (zero before the first `suggest`).
    pub fn warm_hierarchies(&self) -> usize {
        self.cache.warm_hierarchies()
    }

    fn framework<'a>(&self, alg: &'a MidasAlg) -> Framework<'a, MidasAlg> {
        Framework::new(alg, self.config.cost)
            .with_threads(self.threads)
            .with_budget(self.config.budget)
    }

    /// Runs discovery against the current knowledge base, returning ranked
    /// suggestions. Incremental: only sources whose facts intersect the
    /// insertions accepted since the previous call (and the URL subtrees
    /// above them) are re-detected; everything else replays from the cache.
    pub fn suggest(&mut self) -> Vec<DiscoveredSlice> {
        self.suggest_report().slices
    }

    /// Like [`Augmenter::suggest`], but returns the full framework report
    /// (execution counters, quarantine) alongside the suggestions.
    pub fn suggest_report(&mut self) -> FrameworkReport {
        let alg = MidasAlg::new(self.config.clone());
        let delta = std::mem::take(&mut self.delta);
        self.framework(&alg)
            .run_incremental(&self.sources, &self.kb, &mut self.cache, &delta)
    }

    /// From-scratch discovery on the current knowledge base, neither reading
    /// nor touching the incremental cache. Bit-identical to what
    /// [`Augmenter::suggest`] returns at the same KB state — the
    /// `incremental_equivalence` suite pins that down — and kept as the
    /// rebuild baseline for tests and benchmarks.
    pub fn suggest_fresh(&self) -> FrameworkReport {
        let alg = MidasAlg::new(self.config.clone());
        self.framework(&alg).run(self.sources.to_vec(), &self.kb)
    }

    /// Accepts a suggestion: simulates a perfect extraction of the slice by
    /// loading every fact of its entities (within its source scope) into the
    /// knowledge base. Returns the recorded step.
    pub fn accept(&mut self, slice: &DiscoveredSlice) -> AugmentationStep {
        // The membership test below binary-searches the slice's extent.
        // Framework-built slices uphold the sorted invariant; a hand-built
        // one may not, and unsorted input used to make the search silently
        // miss facts — fall back to a sorted copy instead.
        let mut sorted_storage: Vec<Symbol>;
        let entities: &[Symbol] = if slice.entities_sorted() {
            &slice.entities
        } else {
            sorted_storage = slice.entities.clone();
            sorted_storage.sort_unstable();
            &sorted_storage
        };
        let index = self
            .index
            .get_or_insert_with(|| CorpusIndex::new(&self.sources));
        // Corpus order, so the knowledge base sees the insertions in the
        // order a walk over every source would make them.
        let mut scope: Vec<usize> = subtree(&self.sources, &index.by_url, &slice.source).collect();
        scope.sort_unstable();
        let mut inserted: Vec<Fact> = Vec::new();
        for p in scope {
            for f in &self.sources[p].facts {
                if entities.binary_search(&f.subject).is_ok() && self.kb.insert(*f) {
                    inserted.push(*f);
                }
            }
        }
        self.delta.record(&index.subjects, &self.sources, &inserted);
        let step = AugmentationStep {
            slice: slice.clone(),
            facts_added: inserted.len(),
            kb_size: self.kb.len(),
        };
        self.history.push(step.clone());
        step
    }

    /// Runs the full loop: repeatedly accept the top suggestion until no
    /// positive-profit suggestion remains or `max_rounds` is reached.
    /// Returns the accepted steps.
    pub fn run_to_saturation(&mut self, max_rounds: usize) -> Vec<AugmentationStep> {
        let mut steps = Vec::new();
        for _ in 0..max_rounds {
            let suggestions = self.suggest();
            let Some(best) = suggestions.into_iter().find(|s| s.profit > 0.0) else {
                break;
            };
            let step = self.accept(&best);
            let stalled = step.facts_added == 0;
            steps.push(step);
            if stalled {
                // A positive-profit suggestion that added nothing cannot
                // make progress: the KB is unchanged, so the next round
                // would re-suggest and re-accept the same slice until
                // `max_rounds` burns out.
                break;
            }
        }
        steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CostModel;
    use crate::fixtures::skyrocket_pages;
    use midas_kb::Interner;

    #[test]
    fn accepting_s5_saturates_the_running_example() {
        let mut t = Interner::new();
        let (pages, kb) = skyrocket_pages(&mut t);
        let mut aug = Augmenter::new(MidasConfig::running_example(), pages, kb);

        let suggestions = aug.suggest();
        assert_eq!(suggestions.len(), 1, "S5 is the only suggestion");
        let step = aug.accept(&suggestions[0]);
        assert_eq!(step.facts_added, 6, "the six rocket-family facts");

        // After augmentation nothing remains to suggest.
        let after = aug.suggest();
        assert!(after.is_empty(), "KB is saturated: {after:?}");
        assert_eq!(aug.history().len(), 1);
    }

    #[test]
    fn run_to_saturation_terminates() {
        let mut t = Interner::new();
        let (pages, kb) = skyrocket_pages(&mut t);
        let mut aug = Augmenter::new(MidasConfig::running_example(), pages, kb).with_threads(2);
        let steps = aug.run_to_saturation(10);
        assert_eq!(steps.len(), 1);
        assert!(aug.suggest().is_empty());
        // Idempotent once saturated.
        assert!(aug.run_to_saturation(3).is_empty());
    }

    #[test]
    fn accepting_twice_adds_nothing_new() {
        let mut t = Interner::new();
        let (pages, kb) = skyrocket_pages(&mut t);
        let mut aug = Augmenter::new(MidasConfig::running_example(), pages, kb);
        let s = aug.suggest().remove(0);
        let first = aug.accept(&s);
        let second = aug.accept(&s);
        assert_eq!(first.facts_added, 6);
        assert_eq!(second.facts_added, 0);
        assert_eq!(second.kb_size, first.kb_size);
    }

    #[test]
    fn accept_handles_shuffled_entity_lists() {
        // Regression: `accept` binary-searched `slice.entities` as given, so
        // an unsorted extent silently skipped facts. A reversed (descending)
        // list must now add exactly as many facts as the sorted one.
        let mut t = Interner::new();
        let (pages, kb) = skyrocket_pages(&mut t);
        let mut aug = Augmenter::new(MidasConfig::running_example(), pages.clone(), kb.clone());
        let s = aug.suggest().remove(0);
        assert!(s.entities.len() >= 2);

        let mut shuffled = s.clone();
        shuffled.entities.reverse();
        assert!(!shuffled.entities_sorted(), "test needs an unsorted extent");

        let mut aug2 = Augmenter::new(MidasConfig::running_example(), pages, kb);
        let sorted_step = aug.accept(&s);
        let shuffled_step = aug2.accept(&shuffled);
        assert_eq!(sorted_step.facts_added, 6);
        assert_eq!(
            shuffled_step.facts_added, sorted_step.facts_added,
            "entity order must not change what gets extracted"
        );
        assert_eq!(shuffled_step.kb_size, sorted_step.kb_size);
    }

    #[test]
    fn run_to_saturation_stops_on_zero_progress() {
        // A negative per-slice cost makes a slice with zero new facts
        // positive-profit: f = (1-fv)·new − fd·facts − fp·|S| − fc·|T_W| with
        // fp < 0 stays above zero even once everything is known. The loop
        // used to re-accept such a suggestion until max_rounds burned out.
        let mut t = Interner::new();
        let mut facts = Vec::new();
        for i in 0..4 {
            facts.push(Fact::intern(&mut t, &format!("e{i}"), "type", "widget"));
        }
        let sources = vec![SourceFacts::new(
            midas_weburl::SourceUrl::parse("http://a.com/widgets/page").unwrap(),
            facts.clone(),
        )];
        // Seed the KB with every fact: nothing is new from the start.
        let mut kb = KnowledgeBase::new();
        for f in &facts {
            kb.insert(*f);
        }
        let config = MidasConfig {
            cost: CostModel {
                fp: -5.0,
                fc: 0.0,
                fd: 0.0,
                fv: 0.1,
            },
            ..MidasConfig::running_example()
        };
        let mut aug = Augmenter::new(config, sources, kb);
        let probe = aug.suggest_fresh();
        assert!(
            probe.slices.iter().any(|s| s.profit > 0.0),
            "the setup must produce a positive-profit zero-gain suggestion: {:?}",
            probe.slices
        );
        let steps = aug.run_to_saturation(50);
        assert_eq!(steps.len(), 1, "one stalled accept, then stop: {steps:?}");
        assert_eq!(steps[0].facts_added, 0);
    }

    #[test]
    fn suggest_matches_fresh_rebuild_after_each_accept() {
        let mut t = Interner::new();
        let (pages, kb) = skyrocket_pages(&mut t);
        let mut aug = Augmenter::new(MidasConfig::running_example(), pages, kb);
        for _ in 0..4 {
            let fresh = aug.suggest_fresh();
            let incr = aug.suggest_report();
            assert_eq!(incr.slices.len(), fresh.slices.len());
            for (a, b) in incr.slices.iter().zip(&fresh.slices) {
                assert_eq!(a.source, b.source);
                assert_eq!(a.entities, b.entities);
                assert_eq!(a.profit.to_bits(), b.profit.to_bits());
            }
            let Some(best) = incr.slices.into_iter().find(|s| s.profit > 0.0) else {
                break;
            };
            aug.accept(&best);
        }
        assert!(!aug.history().is_empty());
    }

    #[test]
    fn warm_hierarchies_are_retained_and_patched() {
        let mut t = Interner::new();
        let (pages, kb) = skyrocket_pages(&mut t);
        let mut aug = Augmenter::new(MidasConfig::running_example(), pages, kb);
        assert_eq!(aug.warm_hierarchies(), 0, "cold loop retains nothing yet");
        let first = aug.suggest_report();
        assert_eq!(first.hierarchies_reused, 0, "round 0 has nothing to patch");
        assert!(
            aug.warm_hierarchies() > 0,
            "round 0 must retain leaf hierarchies for the next round"
        );
        let best = first
            .slices
            .into_iter()
            .find(|s| s.profit > 0.0)
            .expect("the running example suggests S5");
        aug.accept(&best);
        let fresh = aug.suggest_fresh();
        let warm = aug.suggest_report();
        assert!(
            warm.hierarchies_reused > 0,
            "dirty leaves must patch their retained hierarchy in place"
        );
        assert_eq!(warm.slices.len(), fresh.slices.len());
        for (a, b) in warm.slices.iter().zip(&fresh.slices) {
            assert_eq!(a.source, b.source);
            assert_eq!(a.entities, b.entities);
            assert_eq!(a.profit.to_bits(), b.profit.to_bits());
        }
    }

    #[test]
    fn multi_vertical_corpus_saturates_in_order() {
        // Two verticals of different value: the loop must take the more
        // profitable one first.
        let mut t = Interner::new();
        let mut facts_a = Vec::new();
        let mut facts_b = Vec::new();
        for i in 0..12 {
            facts_a.push(midas_kb::Fact::intern(
                &mut t,
                &format!("golf{i}"),
                "type",
                "golf",
            ));
            facts_a.push(midas_kb::Fact::intern(
                &mut t,
                &format!("golf{i}"),
                "hole",
                &format!("h{i}"),
            ));
        }
        for i in 0..4 {
            facts_b.push(midas_kb::Fact::intern(
                &mut t,
                &format!("game{i}"),
                "type",
                "game",
            ));
        }
        let url = |s: &str| midas_weburl::SourceUrl::parse(s).unwrap();
        let sources = vec![
            SourceFacts::new(url("http://a.com/golf/page"), facts_a),
            SourceFacts::new(url("http://a.com/games/page"), facts_b),
        ];
        let mut aug = Augmenter::new(
            MidasConfig::running_example(),
            sources,
            KnowledgeBase::new(),
        );
        let steps = aug.run_to_saturation(10);
        assert!(
            steps.len() >= 2,
            "both verticals eventually accepted: {steps:?}"
        );
        assert!(
            steps[0].facts_added > steps[1].facts_added,
            "richer slice first"
        );
    }
}
