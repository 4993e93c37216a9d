//! Streaming equivalence: the framework's report — slices *and* quarantine —
//! is bit-identical at every thread count, with and without injected faults.
//! The worker count may only change peak memory, never a result bit.
//!
//! The fault-injection plan is process-global, so tests that install one
//! serialise on [`PLAN_LOCK`] (this file is its own test binary).

use midas::core::faultinject;
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

/// 20 sources: 5 domains × 4 pages, each domain a distinct vertical.
fn twenty_source_corpus(t: &mut Interner) -> Vec<SourceFacts> {
    let mut sources = Vec::new();
    for d in 0..5 {
        sources.extend(vertical_pages(
            t,
            &format!("http://domain{d}.example.org/dir"),
            &format!("stem{d}"),
            4,
            4,
        ));
    }
    sources
}

fn run_with(sources: Vec<SourceFacts>, threads: usize) -> midas::core::FrameworkReport {
    let alg = MidasAlg::new(MidasConfig::running_example());
    Framework::new(&alg, alg.config.cost)
        .with_threads(threads)
        .run(sources, &KnowledgeBase::new())
}

/// Slices bit-identical, quarantine entry-for-entry identical, and the same
/// round/detector accounting.
fn assert_reports_identical(a: &midas::core::FrameworkReport, b: &midas::core::FrameworkReport) {
    assert_eq!(a.slices.len(), b.slices.len(), "slice counts differ");
    for (x, y) in a.slices.iter().zip(&b.slices) {
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
    assert_eq!(a.quarantine.len(), b.quarantine.len());
    for (x, y) in a.quarantine.iter().zip(b.quarantine.iter()) {
        assert_eq!(x.source, y.source);
        assert_eq!(x.stage, y.stage);
        assert_eq!(x.cause.tag(), y.cause.tag());
        assert_eq!(x.facts_seen, y.facts_seen);
    }
    assert_eq!(a.rounds, b.rounds);
    assert_eq!(a.detect_calls, b.detect_calls);
}

const THREADS: [usize; 3] = [1, 4, 8];

/// Clean corpus: every thread count reproduces the sequential reference bit
/// for bit.
#[test]
fn clean_run_is_thread_invariant() {
    let _session = plan_session();
    let mut t = Interner::new();
    let corpus = twenty_source_corpus(&mut t);
    let reference = run_with(corpus.clone(), 1);
    assert!(!reference.slices.is_empty());
    assert!(reference.quarantine.is_empty());
    for threads in THREADS {
        let report = run_with(corpus.clone(), threads);
        assert_reports_identical(&report, &reference);
    }
}

/// With a round-0 panic and a budget exhaustion injected (by sorted source
/// index), every thread count quarantines the same two sources and reports
/// the same surviving slices.
#[test]
fn faulted_run_is_thread_invariant() {
    let _session = plan_session();
    let mut t = Interner::new();
    let corpus = twenty_source_corpus(&mut t);
    let plan = FaultPlan::parse("panic@#2,budget@#7").unwrap();

    faultinject::install(plan.clone());
    let reference = run_with(corpus.clone(), 1);
    faultinject::clear();
    assert_eq!(reference.quarantine.len(), 2);

    for threads in THREADS {
        faultinject::install(plan.clone());
        let report = run_with(corpus.clone(), threads);
        faultinject::clear();
        assert_reports_identical(&report, &reference);
    }
}

/// With metric recording (and, when the environment sets `MIDAS_TRACE`,
/// span streaming) active, every thread count still reproduces the untraced
/// reference bit for bit, the registry's counters only ever grow, and the
/// folded snapshot survives a JSON round-trip. `scripts/check.sh` runs this
/// whole binary again under `MIDAS_TRACE=spans:…` + `MIDAS_TELEMETRY=1`,
/// so each assertion above also holds with the trace sink live.
#[test]
fn telemetry_active_run_is_thread_invariant() {
    use midas::core::telemetry;
    let _session = plan_session();
    telemetry::enable();
    let mut t = Interner::new();
    let corpus = twenty_source_corpus(&mut t);
    let reference = run_with(corpus.clone(), 1);
    let before = telemetry::snapshot();
    for threads in THREADS {
        let report = run_with(corpus.clone(), threads);
        assert_reports_identical(&report, &reference);
    }
    let after = telemetry::snapshot();
    assert!(after.dominates(&before), "counters regressed mid-run");
    assert!(
        after.counter("framework.rounds") > before.counter("framework.rounds"),
        "the matrix runs must have recorded rounds"
    );
    assert!(
        after.counter("framework.detect_calls") > before.counter("framework.detect_calls"),
        "the matrix runs must have recorded detector calls"
    );
    let parsed = telemetry::Snapshot::from_json(&after.to_json()).expect("own JSON parses");
    assert_eq!(parsed, after, "snapshot JSON round-trips losslessly");
    telemetry::flush_trace();
}

/// Merge-round (consolidate-stage) faults: a fact cap between leaf and
/// section size quarantines every parent task; the recovered child
/// candidates are identical at every thread count.
#[test]
fn consolidate_faults_are_thread_invariant() {
    let _session = plan_session();
    let mut t = Interner::new();
    let pages = vertical_pages(&mut t, "http://site.example/dir", "rocket", 6, 4);
    let leaf_size = pages[0].len();
    let alg = MidasAlg::new(MidasConfig::running_example());

    let run = |threads: usize| {
        Framework::new(&alg, alg.config.cost)
            .with_threads(threads)
            .with_budget(SourceBudget::unlimited().with_max_facts(leaf_size + 1))
            .run(pages.clone(), &KnowledgeBase::new())
    };
    let reference = run(1);
    assert!(!reference.quarantine.is_empty());
    assert!(reference
        .quarantine
        .iter()
        .all(|f| f.stage == Stage::Consolidate));
    assert_eq!(reference.slices.len(), 6, "page slices survive");

    for threads in THREADS {
        assert_reports_identical(&run(threads), &reference);
    }
}
