//! Integration: cross-algorithm contracts every detector must satisfy.

use midas::extract::slim::{generate as slim_gen, SlimConfig, SlimFlavor};
use midas::extract::synthetic::{generate as syn_gen, SyntheticConfig};
use midas::prelude::*;

fn detectors(cost: CostModel) -> Vec<(&'static str, Box<dyn SliceDetector>)> {
    vec![
        (
            "midas",
            Box::new(MidasAlg::new(MidasConfig::default().with_cost(cost))),
        ),
        ("greedy", Box::new(Greedy::new(cost))),
        ("aggcluster", Box::new(AggCluster::new(cost))),
        ("naive", Box::new(Naive::new(cost))),
    ]
}

/// Structural invariants of every returned slice, for every detector.
#[test]
fn slices_satisfy_structural_invariants() {
    let ds = syn_gen(&SyntheticConfig::new(2_000, 20, 5, 3));
    let src = &ds.sources[0];
    for (name, det) in detectors(CostModel::default()) {
        for s in det.detect(DetectInput {
            source: src,
            kb: &ds.kb,
            seeds: &[],
        }) {
            assert!(!s.entities.is_empty(), "{name}: empty extent");
            assert!(s.num_new_facts <= s.num_facts, "{name}: new > total");
            assert!(
                s.entities.windows(2).all(|w| w[0] < w[1]),
                "{name}: entities not sorted/deduped"
            );
            assert!(
                s.properties.windows(2).all(|w| w[0] <= w[1]),
                "{name}: properties not sorted"
            );
            assert_eq!(s.source, src.url, "{name}: wrong source URL");
            assert!(s.profit.is_finite(), "{name}: non-finite profit");
        }
    }
}

/// The reported per-slice profit must equal an independent recomputation
/// from the slice's entity extent (for the property-defined detectors).
#[test]
fn reported_profits_are_recomputable() {
    let ds = syn_gen(&SyntheticConfig::new(2_000, 20, 5, 4));
    let src = &ds.sources[0];
    let cost = CostModel::default();
    let table = FactTable::build(src, &ds.kb);
    let ctx = ProfitCtx::new(&table, cost);
    for (name, det) in detectors(cost) {
        for s in det.detect(DetectInput {
            source: src,
            kb: &ds.kb,
            seeds: &[],
        }) {
            let ids: Vec<u32> = s.entities.iter().filter_map(|&e| table.entity(e)).collect();
            assert_eq!(ids.len(), s.entities.len(), "{name}: unknown entity");
            let extent = ExtentSet::from_unsorted(table.num_entities() as u32, ids);
            let recomputed = ctx.profit_single(&extent);
            assert!(
                (recomputed - s.profit).abs() < 1e-6,
                "{name}: profit {} vs recomputed {recomputed}",
                s.profit
            );
        }
    }
}

/// Every selected slice covers at least one previously-uncovered entity: a
/// fully-covered candidate always has marginal profit −f_p < 0, so
/// Algorithm 1 can never add it. (Partial entity overlap *is* allowed —
/// e.g. an entity carrying the defining properties of two slices.)
#[test]
fn midas_slices_add_fresh_coverage() {
    let ds = syn_gen(&SyntheticConfig::new(5_000, 20, 10, 6));
    let alg = MidasAlg::new(MidasConfig::default());
    let slices = alg.run(&ds.sources[0], &ds.kb);
    assert!(!slices.is_empty());
    let mut covered = std::collections::BTreeSet::new();
    for s in &slices {
        let fresh = s.entities.iter().filter(|e| !covered.contains(*e)).count();
        assert!(fresh > 0, "slice added no uncovered entity");
        covered.extend(s.entities.iter().copied());
    }
}

/// Framework determinism: 1 thread and 8 threads produce identical output
/// on a multi-domain corpus.
#[test]
fn framework_parallelism_is_deterministic() {
    let ds = slim_gen(&SlimConfig {
        flavor: SlimFlavor::ReVerb,
        scale: 0.002,
        seed: 13,
    });
    let cfg = MidasConfig::default();
    let run = |threads| {
        let alg = MidasAlg::new(cfg.clone());
        Framework::new(&alg, cfg.cost)
            .with_threads(threads)
            .run(ds.sources.clone(), &ds.kb)
            .slices
    };
    let a = run(1);
    let b = run(8);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.source, y.source);
        assert_eq!(x.entities, y.entities);
        assert_eq!(x.properties, y.properties);
    }
}

/// All detectors plug into the framework and produce *some* sane output.
#[test]
fn framework_accepts_any_detector() {
    let ds = slim_gen(&SlimConfig {
        flavor: SlimFlavor::Nell,
        scale: 0.002,
        seed: 19,
    });
    let cost = CostModel::default();
    let greedy = Greedy::new(cost);
    let report = Framework::new(&greedy, cost).run(ds.sources.clone(), &ds.kb);
    assert!(!report.slices.is_empty());
    for s in &report.slices {
        assert!(s.profit > 0.0, "positive-only export policy");
    }
}

/// An algorithm run against a knowledge base that already contains the
/// whole corpus returns nothing actionable.
#[test]
fn saturated_kb_yields_nothing_actionable() {
    let ds = syn_gen(&SyntheticConfig::new(1_000, 20, 5, 8));
    let src = &ds.sources[0];
    let full_kb: KnowledgeBase = src.facts.iter().copied().collect();
    for (name, det) in detectors(CostModel::default()) {
        let positive = det
            .detect(DetectInput {
                source: src,
                kb: &full_kb,
                seeds: &[],
            })
            .into_iter()
            .filter(|s| s.profit > 0.0)
            .count();
        assert_eq!(positive, 0, "{name} found profit in a saturated KB");
    }
}

/// A detector that implements only `detect` runs through the trait's
/// default `detect_leaf` on every framework path: over prebuilt tables and
/// incrementally across accepts, each report must equal a cold
/// `Framework::run` over the same knowledge base.
#[test]
fn baseline_detector_matches_cold_run_on_every_framework_path() {
    use midas::core::FrameworkReport;
    use std::collections::BTreeMap;

    let ds = slim_gen(&SlimConfig {
        flavor: SlimFlavor::Nell,
        scale: 0.002,
        seed: 19,
    });
    let sources = ds.sources;
    let mut kb = ds.kb;
    let cost = CostModel::default();
    let greedy = Greedy::new(cost);
    let fw = Framework::new(&greedy, cost);
    let assert_same = |got: &FrameworkReport, want: &FrameworkReport, what: &str| {
        assert_eq!(got.slices, want.slices, "{what}: slices differ");
        assert_eq!(got.rounds, want.rounds, "{what}: rounds differ");
        assert_eq!(
            got.quarantine.len(),
            want.quarantine.len(),
            "{what}: quarantine differs"
        );
        assert_eq!(
            got.hierarchies_reused, 0,
            "{what}: greedy retains no hierarchy"
        );
    };

    let tables: BTreeMap<SourceUrl, FactTable> = sources
        .iter()
        .map(|s| (s.url.clone(), FactTable::build(s, &kb)))
        .collect();
    assert_eq!(tables.len(), sources.len(), "corpus URLs are distinct");
    let cold = fw.run(sources.clone(), &kb);
    assert!(cold.slices.len() > 3, "corpus yields several slices");
    assert_same(
        &fw.run_with_tables(sources.clone(), &kb, &tables),
        &cold,
        "run_with_tables",
    );

    let mut cache = RoundCache::new();
    let index = SubjectIndex::new(&sources);
    let shared: std::sync::Arc<[SourceFacts]> = sources.clone().into();
    let mut delta = KbDelta::new();
    for round in 0..3 {
        let incr = fw.run_incremental(&shared, &kb, &mut cache, &delta);
        let cold = fw.run(sources.clone(), &kb);
        assert_same(&incr, &cold, &format!("incremental round {round}"));
        if round > 0 {
            assert!(incr.reused > 0, "round {round}: nothing replayed");
        }
        // Accept the top suggestion as `Augmenter::accept` does: load its
        // entities' facts from every source under its URL.
        let best = &cold.slices[0];
        let mut inserted = Vec::new();
        for src in sources.iter().filter(|s| best.source.contains(&s.url)) {
            for f in &src.facts {
                if best.entities.binary_search(&f.subject).is_ok() && kb.insert(*f) {
                    inserted.push(*f);
                }
            }
        }
        assert!(!inserted.is_empty(), "round {round}: accept added nothing");
        delta = KbDelta::new();
        delta.record(&index, &sources, &inserted);
    }
}
