//! Timed algorithm runs over a corpus.

use midas_core::telemetry;
use midas_core::{
    AugmentationStep, Augmenter, DetectInput, Framework, MidasAlg, MidasConfig, Quarantine,
    SliceDetector, SourceBudget, SourceFacts, SourceFault, Stage,
};
use midas_kb::KnowledgeBase;
use midas_weburl::SourceUrl;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Run-level telemetry: one span per timed algorithm run and per
/// augmentation-loop suggest, so a trace shows the eval driver's shape
/// above the framework's shard/detect/consolidate spans.
mod metrics {
    midas_core::counter!(pub RUNS, "eval.runs");
    midas_core::counter!(pub AUG_ROUNDS, "eval.augment.rounds");
    midas_core::counter!(pub AUG_ACCEPTS, "eval.augment.accepts");
    midas_core::histogram!(pub RUN_NS, "eval.run_ns");
    midas_core::histogram!(pub SUGGEST_NS, "eval.augment.suggest_ns");
    midas_core::histogram!(pub ACCEPT_NS, "eval.augment.accept_ns");
}

use midas_core::DiscoveredSlice;

/// One algorithm run: its ranked slices and wall-clock time.
#[derive(Debug)]
pub struct RunResult {
    /// Algorithm name.
    pub name: String,
    /// Returned slices, ranked (by profit, or new-fact count for NAIVE).
    pub slices: Vec<DiscoveredSlice>,
    /// Wall-clock duration of the run.
    pub duration: Duration,
    /// Sources dropped during the run (panics, budget breaches); empty for
    /// a clean run.
    pub quarantine: Quarantine,
}

impl RunResult {
    /// Keeps only positive-profit slices (what an operator would act on).
    pub fn positive(&self) -> Vec<DiscoveredSlice> {
        self.slices
            .iter()
            .filter(|s| s.profit > 0.0)
            .cloned()
            .collect()
    }
}

/// Merges page-level sources into one source per web domain.
///
/// The single-source baselines (GREEDY, AGGCLUSTER) operate per web source;
/// running them at page granularity would fragment every vertical, so the
/// evaluation gives them the domain-merged corpus — the most favourable
/// granularity for them.
pub fn merge_by_domain(sources: &[SourceFacts]) -> Vec<SourceFacts> {
    let mut by_domain: BTreeMap<SourceUrl, Vec<&SourceFacts>> = BTreeMap::new();
    for s in sources {
        by_domain.entry(s.url.domain()).or_default().push(s);
    }
    by_domain
        .into_iter()
        .map(|(domain, children)| SourceFacts::merge(domain, children))
        .collect()
}

/// Runs `detector` independently on every source, ranking the union of the
/// returned slices by profit. Equivalent to
/// [`run_detector_per_source_budgeted`] with an unlimited budget (every
/// source still runs panic-isolated).
pub fn run_detector_per_source<D: SliceDetector>(
    detector: &D,
    sources: &[SourceFacts],
    kb: &KnowledgeBase,
) -> RunResult {
    run_detector_per_source_budgeted(detector, sources, kb, SourceBudget::unlimited())
}

/// Runs `detector` independently on every source under a per-source budget,
/// ranking the union of the returned slices by profit. A source that panics
/// or breaches the budget is quarantined; the run continues.
pub fn run_detector_per_source_budgeted<D: SliceDetector>(
    detector: &D,
    sources: &[SourceFacts],
    kb: &KnowledgeBase,
    budget: SourceBudget,
) -> RunResult {
    metrics::RUNS.inc();
    let _run_span = telemetry::span("eval.run", &metrics::RUN_NS);
    let start = Instant::now();
    let mut slices = Vec::new();
    let mut quarantine = Quarantine::new();
    for src in sources {
        if let Some(cap) = budget.max_facts {
            if src.len() > cap {
                quarantine.push(SourceFault {
                    source: src.url.as_str().to_string(),
                    stage: Stage::Detect,
                    cause: midas_core::FaultCause::Budget(midas_core::BudgetBreach {
                        kind: midas_core::BreachKind::Facts,
                        limit: cap as u64,
                        observed: src.len() as u64,
                    }),
                    facts_seen: src.len(),
                });
                continue;
            }
        }
        let result = {
            let _scope = midas_core::BudgetScope::enter(&budget);
            midas_core::parallel::run_isolated(|| {
                detector.detect(DetectInput {
                    source: src,
                    kb,
                    seeds: &[],
                })
            })
        };
        match result {
            Ok(found) => slices.extend(found),
            Err(cause) => quarantine.push(SourceFault {
                source: src.url.as_str().to_string(),
                stage: Stage::Detect,
                cause,
                facts_seen: src.len(),
            }),
        }
    }
    slices.sort_by(|a, b| b.profit.partial_cmp(&a.profit).expect("finite profits"));
    RunResult {
        name: detector.name().to_owned(),
        slices,
        duration: start.elapsed(),
        quarantine,
    }
}

/// Runs the full MIDAS framework (MIDASalg + shard/detect/consolidate),
/// enforcing `config.budget` per source.
pub fn run_midas_framework(
    config: &MidasConfig,
    sources: Vec<SourceFacts>,
    kb: &KnowledgeBase,
    threads: usize,
) -> RunResult {
    let alg = MidasAlg::new(config.clone());
    let fw = Framework::new(&alg, config.cost)
        .with_threads(threads)
        .with_budget(config.budget);
    metrics::RUNS.inc();
    let run_span = telemetry::span("eval.run", &metrics::RUN_NS);
    let start = Instant::now();
    let report = fw.run(sources, kb);
    drop(run_span);
    RunResult {
        name: "midas".to_owned(),
        slices: report.slices,
        duration: start.elapsed(),
        quarantine: report.quarantine,
    }
}

/// Like [`run_midas_framework`], but round-0 detection runs on the prebuilt
/// fact tables in `tables` (keyed by source URL) — the warm path for corpora
/// loaded from a `--snapshot-cache` hit. Bit-identical results to the cold
/// run; only per-source table construction is skipped.
pub fn run_midas_framework_with_tables(
    config: &MidasConfig,
    sources: Vec<SourceFacts>,
    kb: &KnowledgeBase,
    threads: usize,
    tables: &BTreeMap<SourceUrl, midas_core::FactTable>,
) -> RunResult {
    let alg = MidasAlg::new(config.clone());
    let fw = Framework::new(&alg, config.cost)
        .with_threads(threads)
        .with_budget(config.budget);
    metrics::RUNS.inc();
    let run_span = telemetry::span("eval.run", &metrics::RUN_NS);
    let start = Instant::now();
    let report = fw.run_with_tables(sources, kb, tables);
    drop(run_span);
    RunResult {
        name: "midas".to_owned(),
        slices: report.slices,
        duration: start.elapsed(),
        quarantine: report.quarantine,
    }
}

/// One round of the incremental augmentation loop, timed.
#[derive(Debug, Clone)]
pub struct AugmentationRound {
    /// 1-based round number.
    pub round: usize,
    /// The accepted top suggestion, if any positive-profit slice remained.
    pub accepted: Option<AugmentationStep>,
    /// Wall-clock time of the incremental `suggest` (zero under
    /// `MIDAS_FIXED_TIMING`).
    pub suggest_time: Duration,
    /// Number of suggestions the round produced.
    pub suggestions: usize,
    /// Detector invocations actually executed this round.
    pub detect_calls: usize,
    /// Task outcomes replayed from the incremental cache this round.
    pub reused_tasks: usize,
    /// Knowledge-base size after the round's accept (if any).
    pub kb_size: usize,
    /// The per-source wall-clock deadline (in milliseconds) the round ran
    /// under, if any. Recorded so `augment --resume` can verify a resumed
    /// run continues with the budget the trace was produced under (a
    /// mismatch restarts the incremental engine cold instead of replaying).
    pub budget_ms: Option<u64>,
    /// Sources quarantined during the round's suggest.
    pub quarantine: Quarantine,
}

/// Drives the incremental augmentation loop: suggest, accept the top
/// positive-profit slice, repeat — up to `max_rounds` or until saturation
/// (no positive suggestion, or an accept that adds no facts). Returns the
/// per-round trace and the final [`Augmenter`] (for its KB and history).
pub fn run_augmentation(
    config: &MidasConfig,
    sources: Vec<SourceFacts>,
    kb: KnowledgeBase,
    threads: usize,
    max_rounds: usize,
) -> (Vec<AugmentationRound>, Augmenter) {
    let mut aug = Augmenter::new(config.clone(), sources, kb).with_threads(threads);
    let rounds = continue_augmentation(&mut aug, 1, max_rounds, |_| {});
    (rounds, aug)
}

/// Continues the augmentation loop on an existing [`Augmenter`] from
/// `start_round` (1-based) through `max_rounds`, invoking `on_round` after
/// each completed round — the hook where `augment --resume` checkpoints the
/// round durably before the next one begins. Returns only the rounds run
/// here; the caller prepends any replayed prefix.
pub fn continue_augmentation(
    aug: &mut Augmenter,
    start_round: usize,
    max_rounds: usize,
    mut on_round: impl FnMut(&AugmentationRound),
) -> Vec<AugmentationRound> {
    let mut rounds = Vec::new();
    let budget_ms = aug.config().budget.deadline.map(|d| d.as_millis() as u64);
    for round in start_round..=max_rounds {
        metrics::AUG_ROUNDS.inc();
        let suggest_span = telemetry::span("augment.suggest", &metrics::SUGGEST_NS);
        // The clock reads 0 under MIDAS_FIXED_TIMING, so the time a
        // checkpoint records is reproducible there.
        let start = telemetry::clock_ns();
        let report = aug.suggest_report();
        let suggest_time = Duration::from_nanos(telemetry::clock_ns() - start);
        drop(suggest_span);
        let best = report.slices.iter().find(|s| s.profit > 0.0).cloned();
        let accepted = best.as_ref().map(|b| {
            let _span = telemetry::span("augment.accept", &metrics::ACCEPT_NS);
            aug.accept(b)
        });
        if accepted.is_some() {
            metrics::AUG_ACCEPTS.inc();
        }
        let saturated = accepted.is_none();
        let stalled = matches!(&accepted, Some(s) if s.facts_added == 0);
        let done = AugmentationRound {
            round,
            accepted,
            suggest_time,
            suggestions: report.slices.len(),
            detect_calls: report.detect_calls,
            reused_tasks: report.reused,
            kb_size: aug.kb().len(),
            budget_ms,
            quarantine: report.quarantine,
        };
        on_round(&done);
        rounds.push(done);
        if saturated || stalled {
            break;
        }
    }
    rounds
}

#[cfg(test)]
mod tests {
    use super::*;
    use midas_baselines::{Greedy, Naive};
    use midas_core::fixtures::skyrocket_pages;
    use midas_core::CostModel;
    use midas_kb::Interner;

    #[test]
    fn merge_by_domain_collapses_pages() {
        let mut t = Interner::new();
        let (pages, _) = skyrocket_pages(&mut t);
        let merged = merge_by_domain(&pages);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].url.as_str(), "http://space.skyrocket.de");
        assert_eq!(merged[0].len(), 13);
    }

    #[test]
    fn per_source_run_ranks_by_profit() {
        let mut t = Interner::new();
        let (pages, kb) = skyrocket_pages(&mut t);
        let greedy = Greedy::new(CostModel::running_example());
        let result = run_detector_per_source(&greedy, &pages, &kb);
        assert_eq!(result.name, "greedy");
        assert_eq!(
            result.slices.len(),
            2,
            "only the two rocket-family pages have a profitable condition"
        );
        for w in result.slices.windows(2) {
            assert!(w[0].profit >= w[1].profit);
        }
        assert_eq!(result.positive().len(), 2);
    }

    #[test]
    fn augmentation_loop_saturates_running_example() {
        let mut t = Interner::new();
        let (pages, kb) = skyrocket_pages(&mut t);
        let (rounds, aug) = run_augmentation(&MidasConfig::running_example(), pages, kb, 2, 10);
        // Round 1 accepts S5; round 2 finds nothing and stops.
        assert_eq!(rounds.len(), 2);
        assert_eq!(rounds[0].accepted.as_ref().unwrap().facts_added, 6);
        assert!(rounds[1].accepted.is_none());
        assert!(rounds[1].reused_tasks > 0, "round 2 replays clean subtrees");
        assert_eq!(aug.history().len(), 1);
    }

    #[test]
    fn framework_run_produces_s5() {
        let mut t = Interner::new();
        let (pages, kb) = skyrocket_pages(&mut t);
        let result = run_midas_framework(&MidasConfig::running_example(), pages, &kb, 2);
        assert_eq!(result.name, "midas");
        assert_eq!(result.slices.len(), 1);
        assert!(result.duration.as_nanos() > 0);
    }

    #[test]
    fn budgeted_run_quarantines_oversized_sources() {
        let mut t = Interner::new();
        let (pages, kb) = skyrocket_pages(&mut t);
        let greedy = Greedy::new(CostModel::running_example());
        let largest = pages.iter().map(SourceFacts::len).max().unwrap();
        let over_cap = pages.iter().filter(|p| p.len() >= largest).count();
        let budget = SourceBudget::unlimited().with_max_facts(largest - 1);
        let result = run_detector_per_source_budgeted(&greedy, &pages, &kb, budget);
        assert_eq!(result.quarantine.len(), over_cap);
        for fault in result.quarantine.iter() {
            assert_eq!(fault.stage, Stage::Detect);
            assert_eq!(fault.cause.tag(), "budget");
            assert_eq!(fault.facts_seen, largest);
        }
        // The unbudgeted wrapper quarantines nothing on the same corpus.
        let clean = run_detector_per_source(&greedy, &pages, &kb);
        assert!(clean.quarantine.is_empty());
    }

    #[test]
    fn naive_on_merged_domain_reports_whole_source() {
        let mut t = Interner::new();
        let (pages, kb) = skyrocket_pages(&mut t);
        let merged = merge_by_domain(&pages);
        let naive = Naive::new(CostModel::running_example());
        let result = run_detector_per_source(&naive, &merged, &kb);
        assert_eq!(result.slices.len(), 1);
        assert_eq!(result.slices[0].entities.len(), 5);
    }
}
