//! Incremental-vs-rebuild timing probe for the augmentation loop.
//!
//! Drives an `Augmenter` to saturation on a corpus where each round accepts
//! one small vertical (so the dirty leaves of the next round have *sparse*
//! changes against a large, already-known bulk lattice). Every round
//! measures two paths:
//!
//! - `rebuild`: from-scratch `suggest_fresh` (no cache at all);
//! - `warm`: the incremental path — task replay for clean subtrees, and
//!   dirty leaves patch their retained `SliceHierarchy` in place instead of
//!   rebuilding it.
//!
//! Both reports are asserted bit-identical before any timing is trusted,
//! and warm rounds must actually warm-patch (`hierarchies_reused` strictly
//! positive). `scripts/bench_smoke.sh` gates on the warm-round totals: the
//! warm path must beat the rebuild by the ratio it enforces.

use midas_core::telemetry;
use midas_core::{Augmenter, FrameworkReport, MidasConfig, SourceFacts};
use midas_kb::{Fact, Interner, KnowledgeBase};
use midas_weburl::SourceUrl;
use std::time::Instant;

/// `domains` domains of `pages` pages. Each page carries `entities` bulk
/// entities (5 properties each — a rich per-leaf lattice) whose facts are
/// pre-loaded into the knowledge base, plus a small unknown vertical of
/// descending richness per domain. Accepting a vertical changes only its
/// few entities, so the next round's dirty leaves are warm-patchable with
/// a handful of node re-evaluations while a cold path re-enumerates the
/// whole bulk lattice.
fn corpus(
    t: &mut Interner,
    domains: usize,
    pages: usize,
    entities: usize,
) -> (Vec<SourceFacts>, KnowledgeBase) {
    let mut sources = Vec::new();
    let mut kb = KnowledgeBase::new();
    for d in 0..domains {
        let vert = 8usize.saturating_sub(d).max(2);
        for p in 0..pages {
            let mut facts = Vec::with_capacity(entities * 5 + vert * 3);
            for e in 0..entities {
                let name = format!("b{d}_{p}_{e}");
                let known = [
                    Fact::intern(t, &name, "kind", &format!("bulk{d}")),
                    Fact::intern(t, &name, "group", &format!("g{}", e % 10)),
                    Fact::intern(t, &name, "color", &format!("c{}", e % 7)),
                    Fact::intern(t, &name, "shape", &format!("s{}", e % 5)),
                    Fact::intern(t, &name, "serial", &format!("bs{d}_{p}_{e}")),
                ];
                for f in known {
                    kb.insert(f);
                    facts.push(f);
                }
            }
            for e in 0..vert {
                let name = format!("v{d}_{p}_{e}");
                facts.push(Fact::intern(t, &name, "kind", &format!("vertical{d}")));
                facts.push(Fact::intern(t, &name, "site", &format!("dir{d}")));
                facts.push(Fact::intern(t, &name, "serial", &format!("vs{d}_{p}_{e}")));
            }
            let url = SourceUrl::parse(&format!("http://domain{d}.example.org/dir/page{p}.html"))
                .expect("static url");
            sources.push(SourceFacts::new(url, facts));
        }
    }
    (sources, kb)
}

fn assert_identical(left: &FrameworkReport, right: &FrameworkReport, what: &str, round: usize) {
    assert_eq!(
        left.slices, right.slices,
        "round {round}: {what} diverged from rebuild"
    );
    assert_eq!(left.quarantine.len(), right.quarantine.len());
}

/// Per-round reconciliation of the warm run's [`FrameworkReport`] against
/// the telemetry registry: the counter deltas across the warm suggest must
/// equal the report's own fields exactly (the framework records both from
/// the same events), and the phase histograms must have advanced.
fn reconcile(round: usize, warm: &FrameworkReport, before: &telemetry::Snapshot) {
    let after = telemetry::snapshot();
    assert!(
        after.dominates(before),
        "round {round}: counters regressed between snapshots"
    );
    let delta = |name: &str| after.counter(name) - before.counter(name);
    assert_eq!(
        delta("framework.detect_calls"),
        warm.detect_calls as u64,
        "round {round}: framework.detect_calls does not reconcile with the report"
    );
    assert_eq!(
        delta("framework.tasks_reused"),
        warm.reused as u64,
        "round {round}: framework.tasks_reused does not reconcile with the report"
    );
    assert_eq!(
        delta("framework.hierarchies_warm_reused"),
        warm.hierarchies_reused as u64,
        "round {round}: framework.hierarchies_warm_reused does not reconcile"
    );
    assert_eq!(
        delta("framework.quarantined"),
        warm.quarantine.len() as u64,
        "round {round}: framework.quarantined does not reconcile with the report"
    );
    let phase_count = |name: &str| after.histogram(name).map_or(0, |h| h.count);
    for phase in [
        "framework.phase.shard_ns",
        "framework.phase.detect_ns",
        "framework.phase.consolidate_ns",
    ] {
        assert!(
            phase_count(phase) > 0,
            "round {round}: {phase} recorded no samples with telemetry on"
        );
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut threads = 16usize;
    let mut domains = 4usize;
    let mut pages = 10usize;
    let mut entities = 120usize;
    let mut metrics_json: Option<String> = None;
    while let Some(a) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match a.as_str() {
            "--threads" => threads = value("--threads").parse().expect("thread count"),
            "--domains" => domains = value("--domains").parse().expect("domain count"),
            "--pages" => pages = value("--pages").parse().expect("page count"),
            "--entities" => entities = value("--entities").parse().expect("entity count"),
            "--metrics-json" => metrics_json = Some(value("--metrics-json")),
            other => panic!(
                "unknown argument {other:?} \
                 (usage: augment_rounds [--threads N] [--domains N] [--pages N] \
                 [--entities N] [--metrics-json PATH])"
            ),
        }
    }
    if metrics_json.is_some() {
        telemetry::enable();
    }

    let mut terms = Interner::new();
    let (sources, kb) = corpus(&mut terms, domains, pages, entities);
    let num_sources = sources.len();

    let config = MidasConfig::running_example().with_threads(threads);
    let mut warm_aug = Augmenter::new(config, sources, kb).with_threads(threads);

    let (mut warm_ms_total, mut fresh_ms_total) = (0.0f64, 0.0f64);
    let mut round = 0usize;
    loop {
        round += 1;

        let start = Instant::now();
        let fresh = warm_aug.suggest_fresh();
        let fresh_ms = start.elapsed().as_secs_f64() * 1e3;

        let before = telemetry::enabled().then(telemetry::snapshot);
        let start = Instant::now();
        let warm = warm_aug.suggest_report();
        let warm_ms = start.elapsed().as_secs_f64() * 1e3;
        if let Some(before) = &before {
            reconcile(round, &warm, before);
        }

        assert_identical(&warm, &fresh, "warm incremental", round);
        if round > 1 {
            assert!(warm.reused > 0, "warm round {round} replayed nothing");
            assert!(
                warm.hierarchies_reused > 0,
                "warm round {round} patched no hierarchy"
            );
            warm_ms_total += warm_ms;
            fresh_ms_total += fresh_ms;
        }
        let best = warm.slices.iter().find(|s| s.profit > 0.0).cloned();
        let accepted = best.is_some();
        println!(
            "{{\"bench\":\"augment_rounds/round_{round}\",\"sources\":{num_sources},\
             \"threads\":{threads},\"warm_ms\":{warm_ms:.3},\
             \"rebuild_ms\":{fresh_ms:.3},\"detect_calls\":{},\"reused\":{},\
             \"hierarchies_reused\":{},\"accepted\":{accepted}}}",
            warm.detect_calls, warm.reused, warm.hierarchies_reused,
        );
        let Some(best) = best else { break };
        if warm_aug.accept(&best).facts_added == 0 {
            break;
        }
    }
    assert!(
        round >= 4,
        "corpus saturated after {round} rounds; need >=4 for a warm-round comparison"
    );
    let ratio = fresh_ms_total / warm_ms_total.max(1e-9);
    println!(
        "{{\"bench\":\"augment_rounds/warm_total\",\"sources\":{num_sources},\
         \"threads\":{threads},\"rounds\":{round},\"warm_ms\":{warm_ms_total:.3},\
         \"rebuild_ms\":{fresh_ms_total:.3},\"warm_over_rebuild\":{ratio:.2}}}"
    );
    if let Some(path) = metrics_json {
        telemetry::write_json(&path).expect("write --metrics-json report");
        eprintln!("metrics written to {path}");
    }
    // File trace sinks are buffered; drain them before exit so a
    // `MIDAS_TRACE=spans:FILE` run of this binary leaves a complete JSONL.
    telemetry::flush_trace();
}
