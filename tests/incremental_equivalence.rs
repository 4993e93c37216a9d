//! Incremental-vs-rebuild equivalence: at every round of the augmentation
//! loop, `Augmenter::suggest` (cached, dirty-subtree re-runs only) must be
//! bit-identical — slices *and* quarantine — to a from-scratch
//! `Framework::run` on the same knowledge-base state, at every thread count,
//! clean and with injected faults.
//!
//! The fault-injection plan is process-global, so tests that install one
//! serialise on [`PLAN_LOCK`] (this file is its own test binary).

use midas::core::{faultinject, Augmenter, FrameworkReport};
use midas::prelude::*;
use std::sync::{Mutex, MutexGuard};

static PLAN_LOCK: Mutex<()> = Mutex::new(());

/// Holds the global-plan lock for one test and clears any installed plan on
/// drop, so a failing test cannot poison the ones after it.
struct PlanSession(#[allow(dead_code)] MutexGuard<'static, ()>);

fn plan_session() -> PlanSession {
    PlanSession(PLAN_LOCK.lock().unwrap_or_else(|e| e.into_inner()))
}

impl Drop for PlanSession {
    fn drop(&mut self) {
        faultinject::clear();
    }
}

fn url(s: &str) -> SourceUrl {
    SourceUrl::parse(s).unwrap()
}

/// `pages` pages under `section`, each with `per_page` entities of one
/// vertical (2 defining properties + 1 unique fact per entity).
fn vertical_pages(
    t: &mut Interner,
    section: &str,
    stem: &str,
    pages: usize,
    per_page: usize,
) -> Vec<SourceFacts> {
    let mut out = Vec::new();
    for p in 0..pages {
        let mut facts = Vec::new();
        for e in 0..per_page {
            let name = format!("{stem}_{p}_{e}");
            facts.push(Fact::intern(t, &name, "kind", stem));
            facts.push(Fact::intern(t, &name, "site", &format!("{stem}_dir")));
            facts.push(Fact::intern(t, &name, "serial", &format!("{stem}{p}{e}")));
        }
        out.push(SourceFacts::new(
            url(&format!("{section}/page{p}.html")),
            facts,
        ));
    }
    out
}

/// 12 sources: 4 single-vertical domains of descending richness, so the
/// saturation loop accepts the verticals one by one over several rounds.
fn multi_vertical_corpus(t: &mut Interner) -> Vec<SourceFacts> {
    let mut sources = Vec::new();
    for (d, per_page) in [(0usize, 8usize), (1, 6), (2, 4), (3, 3)] {
        sources.extend(vertical_pages(
            t,
            &format!("http://domain{d}.example.org/dir"),
            &format!("stem{d}"),
            3,
            per_page,
        ));
    }
    sources
}

/// Slices bit-identical and quarantine entry-for-entry identical. The
/// execution counters intentionally differ (`detect_calls` counts only
/// executed tasks on the incremental side), so they are not compared.
fn assert_round_identical(incr: &FrameworkReport, fresh: &FrameworkReport) {
    assert_eq!(incr.slices.len(), fresh.slices.len(), "slice counts differ");
    for (x, y) in incr.slices.iter().zip(&fresh.slices) {
        assert_eq!(x.source, y.source);
        assert_eq!(x.properties, y.properties);
        assert_eq!(x.entities, y.entities);
        assert_eq!(x.num_facts, y.num_facts);
        assert_eq!(x.num_new_facts, y.num_new_facts);
        assert_eq!(
            x.profit.to_bits(),
            y.profit.to_bits(),
            "profits not bit-identical"
        );
    }
    assert_eq!(incr.quarantine.len(), fresh.quarantine.len());
    for (x, y) in incr.quarantine.iter().zip(fresh.quarantine.iter()) {
        assert_eq!(x.source, y.source);
        assert_eq!(x.stage, y.stage);
        assert_eq!(x.cause.tag(), y.cause.tag());
        assert_eq!(x.facts_seen, y.facts_seen);
    }
    assert_eq!(incr.rounds, fresh.rounds);
}

/// One accepted round, as recorded for cross-cell comparison.
#[derive(Debug, PartialEq)]
struct RoundTrace {
    accepted_source: String,
    facts_added: usize,
    quarantined: usize,
}

/// Drives the augmentation loop at one thread count, asserting incremental
/// == fresh every round, and returns the accepted-round trace.
fn drive_loop(corpus: &[SourceFacts], threads: usize) -> Vec<RoundTrace> {
    let mut aug = Augmenter::new(
        MidasConfig::running_example(),
        corpus.to_vec(),
        KnowledgeBase::new(),
    )
    .with_threads(threads);
    let mut trace = Vec::new();
    for round in 0..20 {
        let fresh = aug.suggest_fresh();
        let incr = aug.suggest_report();
        assert_round_identical(&incr, &fresh);
        assert_eq!(
            fresh.hierarchies_reused, 0,
            "from-scratch rebuilds never warm-patch"
        );
        if round == 0 {
            assert_eq!(incr.reused, 0, "first round runs on a cold cache");
            assert_eq!(
                incr.hierarchies_reused, 0,
                "round 0 has no hierarchy to patch"
            );
        } else {
            // The `detects`/`reused` columns of the augment table: every
            // task a rebuild runs is either replayed or executed.
            assert_eq!(
                incr.reused + incr.detect_calls,
                fresh.detect_calls,
                "round {round}: replayed + executed tasks != the rebuild's tasks"
            );
            assert!(incr.reused > 0, "round {round} replayed nothing");
            assert!(
                incr.detect_calls < fresh.detect_calls,
                "round {round}: incremental ran {} tasks, rebuild ran {}",
                incr.detect_calls,
                fresh.detect_calls
            );
            assert!(
                incr.hierarchies_reused > 0,
                "round {round}: no leaf hierarchy was warm-patched"
            );
        }
        let Some(best) = incr.slices.into_iter().find(|s| s.profit > 0.0) else {
            break;
        };
        let quarantined = fresh.quarantine.len();
        let step = aug.accept(&best);
        trace.push(RoundTrace {
            accepted_source: best.source.as_str().to_string(),
            facts_added: step.facts_added,
            quarantined,
        });
        if step.facts_added == 0 {
            break;
        }
    }
    trace
}

const THREADS: [usize; 2] = [1, 4];

/// Clean corpus: ≥3 augmentation rounds, every thread count matching the
/// sequential reference round for round.
#[test]
fn clean_loop_is_incremental_invariant() {
    let _session = plan_session();
    let mut t = Interner::new();
    let corpus = multi_vertical_corpus(&mut t);
    let reference = drive_loop(&corpus, 1);
    assert!(
        reference.len() >= 3,
        "corpus must take ≥3 rounds to saturate: {reference:?}"
    );
    assert!(reference.iter().all(|r| r.quarantined == 0));
    for threads in THREADS {
        let trace = drive_loop(&corpus, threads);
        assert_eq!(trace, reference, "{threads} threads diverged");
    }
}

/// A leaf that gets quarantined *mid-loop* must have its retained warm
/// hierarchy dropped, and — once the fault stops firing and the leaf is
/// dirtied again — rebuild cold, with every round still bit-identical to
/// the from-scratch rebuild under the same fault plan.
#[test]
fn quarantined_leaf_drops_warm_hierarchy_and_rebuilds_cold() {
    let _session = plan_session();
    let mut t = Interner::new();
    let mut corpus = multi_vertical_corpus(&mut t);
    let n_leaves = corpus.len();
    let target_url = "domain0.example.org/dir/page1";

    // Give the target page a small private vertical. Its entities exist
    // nowhere else, so accepting the domain0 vertical in phase 1 leaves
    // these facts unknown — phase 3 accepts them to dirty exactly this leaf.
    let slot = corpus
        .iter()
        .position(|s| s.url.as_str().contains(target_url))
        .expect("corpus has the target page");
    let mut spare_entities: Vec<Symbol> = Vec::new();
    let mut spare_count = 0usize;
    {
        let mut facts: Vec<Fact> = corpus[slot].facts.to_vec();
        for e in 0..3 {
            let name = format!("spare_{e}");
            facts.push(Fact::intern(&mut t, &name, "kind", "spare"));
            facts.push(Fact::intern(&mut t, &name, "site", "spare_dir"));
            facts.push(Fact::intern(&mut t, &name, "serial", &format!("sp{e}")));
            spare_entities.push(facts[facts.len() - 1].subject);
            spare_count += 3;
        }
        corpus[slot] = SourceFacts::new(corpus[slot].url.clone(), facts);
    }
    spare_entities.sort_unstable();
    spare_entities.dedup();
    let target_source = corpus[slot].url.clone();

    for threads in THREADS {
        let mut aug = Augmenter::new(
            MidasConfig::running_example(),
            corpus.clone(),
            KnowledgeBase::new(),
        )
        .with_threads(threads);

        // Phase 1 — clean round: every leaf succeeds and retains its
        // hierarchy; accepting the top slice (the richest vertical,
        // domain0) dirties the target page for phase 2.
        let r1 = aug.suggest_report();
        assert_round_identical(&r1, &aug.suggest_fresh());
        assert_eq!(aug.warm_hierarchies(), n_leaves);
        let best = r1
            .slices
            .into_iter()
            .find(|s| s.profit > 0.0)
            .expect("phase 1 suggests the domain0 vertical");
        assert!(
            best.source.as_str().contains("domain0"),
            "richest vertical first: {best:?}"
        );
        aug.accept(&best);

        // Phase 2 — the dirty target leaf panics mid-round. Its warm
        // hierarchy must be dropped (quarantined sources never keep warm
        // state), and the report must still match a fresh rebuild under
        // the same plan.
        faultinject::install(FaultPlan::parse(&format!("panic@{target_url}")).unwrap());
        let r2 = aug.suggest_report();
        let f2 = aug.suggest_fresh();
        faultinject::clear();
        assert_round_identical(&r2, &f2);
        assert_eq!(r2.quarantine.len(), 1, "exactly the target is dropped");
        assert_eq!(
            aug.warm_hierarchies(),
            n_leaves - 1,
            "the quarantined leaf's hierarchy must be dropped"
        );
        assert!(
            r2.hierarchies_reused > 0,
            "the other dirty domain0 pages still warm-patch"
        );

        // Phase 3 — fault gone; dirty exactly the target leaf again by
        // accepting its private spare vertical (those entities live only
        // on this page). It re-executes with no warm hierarchy (dropped
        // in phase 2) and rebuilds cold.
        let step = aug.accept(&DiscoveredSlice {
            source: target_source.clone(),
            properties: Vec::new(),
            entities: spare_entities.clone(),
            num_facts: spare_count,
            num_new_facts: spare_count,
            profit: 1.0,
        });
        assert!(step.facts_added > 0, "the target still had unknown facts");
        let r3 = aug.suggest_report();
        let f3 = aug.suggest_fresh();
        assert_round_identical(&r3, &f3);
        assert!(
            r3.quarantine.is_empty(),
            "no plan, no quarantine: {:?}",
            r3.quarantine
        );
        assert_eq!(
            r3.hierarchies_reused, 0,
            "the only dirty leaf rebuilds cold, not warm"
        );
        assert_eq!(
            aug.warm_hierarchies(),
            n_leaves,
            "the cold rebuild re-retains the target's hierarchy"
        );
    }
}

/// With metric recording (and, when the environment sets `MIDAS_TRACE`,
/// span streaming) active, the augmentation loop still matches the
/// untraced sequential reference round for round, the registry's counters
/// stay monotone across the loop, and the folded snapshot survives a JSON
/// round-trip. `scripts/check.sh` runs this whole binary again under
/// `MIDAS_TRACE=spans:…` + `MIDAS_TELEMETRY=1`, extending the same
/// assertions to the live-sink configuration.
#[test]
fn telemetry_active_loop_is_incremental_invariant() {
    use midas::core::telemetry;
    let _session = plan_session();
    let mut t = Interner::new();
    let corpus = multi_vertical_corpus(&mut t);
    // Reference first, telemetry untouched — matching the suites' usual
    // runs — then the same cells with recording force-enabled.
    let reference = drive_loop(&corpus, 1);
    assert!(reference.len() >= 3);
    telemetry::enable();
    let before = telemetry::snapshot();
    for threads in THREADS {
        let trace = drive_loop(&corpus, threads);
        assert_eq!(
            trace, reference,
            "{threads} threads diverged with telemetry on"
        );
    }
    let after = telemetry::snapshot();
    assert!(after.dominates(&before), "counters regressed mid-loop");
    assert!(
        after.counter("framework.tasks_reused") > before.counter("framework.tasks_reused"),
        "warm rounds must have recorded task replays"
    );
    let parsed = telemetry::Snapshot::from_json(&after.to_json()).expect("own JSON parses");
    assert_eq!(parsed, after, "snapshot JSON round-trips losslessly");
    telemetry::flush_trace();
}

/// With a round-0 panic and a budget exhaustion injected (by sorted source
/// index), every thread count still matches its from-scratch rebuild at
/// every round and reproduces the same quarantine — cached fault outcomes
/// replay exactly like recomputed ones.
#[test]
fn faulted_loop_is_incremental_invariant() {
    let _session = plan_session();
    let mut t = Interner::new();
    let corpus = multi_vertical_corpus(&mut t);
    let plan = FaultPlan::parse("panic@#2,budget@#9").unwrap();

    faultinject::install(plan.clone());
    let reference = drive_loop(&corpus, 1);
    faultinject::clear();
    assert!(
        reference.len() >= 3,
        "corpus must take ≥3 rounds to saturate: {reference:?}"
    );
    assert!(
        reference.iter().all(|r| r.quarantined == 2),
        "both injected faults fire every round: {reference:?}"
    );

    for threads in THREADS {
        faultinject::install(plan.clone());
        let trace = drive_loop(&corpus, threads);
        faultinject::clear();
        assert_eq!(trace, reference, "{threads} threads diverged");
    }
}
