//! The `hierarchy.warm_patch`, `fact_table.refresh` and `fact_table.build`
//! spans record one histogram sample per call. The tests read process-wide
//! metrics, so each holds one lock while it runs.

use std::collections::BTreeMap;
use std::sync::Mutex;

use midas_core::fixtures::{skyrocket, skyrocket_pages};
use midas_core::{
    telemetry, Augmenter, FactTable, Framework, MidasAlg, MidasConfig, ProfitCtx, SliceHierarchy,
};
use midas_kb::Interner;

static METRICS: Mutex<()> = Mutex::new(());

fn samples(name: &str) -> u64 {
    telemetry::snapshot().histogram(name).map_or(0, |h| h.count)
}

/// An applied patch and a refused one each record a sample.
#[test]
fn warm_patch_records_one_span_per_call() {
    let _lock = METRICS.lock().unwrap_or_else(|e| e.into_inner());
    telemetry::enable();
    let mut terms = Interner::new();
    let (src, kb) = skyrocket(&mut terms);
    let table = FactTable::build(&src, &kb);
    let cfg = MidasConfig::running_example();
    let ctx = ProfitCtx::new(&table, cfg.cost);
    let mut h = SliceHierarchy::build(&table, &ctx, &cfg);

    let before = samples("hierarchy.warm_patch_ns");
    assert!(h.warm_patch(&ctx, &cfg, &[]));
    let outside = table.num_entities() as u32;
    assert!(!h.warm_patch(&ctx, &cfg, &[outside]));
    assert_eq!(samples("hierarchy.warm_patch_ns") - before, 2);
}

/// Every incremental round records one refresh sample, and one patch
/// sample per patch the round applied or refused.
#[test]
fn incremental_rounds_record_refresh_and_patch_spans() {
    let _lock = METRICS.lock().unwrap_or_else(|e| e.into_inner());
    telemetry::enable();
    let mut terms = Interner::new();
    let (pages, kb) = skyrocket_pages(&mut terms);
    let mut aug = Augmenter::new(MidasConfig::running_example(), pages, kb);

    let patches = |s: &telemetry::Snapshot| {
        s.counter("hierarchy.warm_patch.applied") + s.counter("hierarchy.warm_patch.refused")
    };
    let (refresh0, patch0, calls0) = (
        samples("fact_table.refresh_ns"),
        samples("hierarchy.warm_patch_ns"),
        patches(&telemetry::snapshot()),
    );
    let suggestions = aug.suggest();
    assert_eq!(samples("fact_table.refresh_ns") - refresh0, 1, "cold round");
    aug.accept(&suggestions[0]);
    aug.suggest();
    assert_eq!(samples("fact_table.refresh_ns") - refresh0, 2, "warm round");

    let calls = patches(&telemetry::snapshot()) - calls0;
    assert!(calls > 0, "the warm round patches the retained hierarchies");
    assert_eq!(samples("hierarchy.warm_patch_ns") - patch0, calls);
}

/// Every detection that builds its fact table records one build sample; a
/// round-0 leaf handed a prebuilt (snapshot) table records none.
#[test]
fn fact_table_builds_record_one_span_per_built_table() {
    let _lock = METRICS.lock().unwrap_or_else(|e| e.into_inner());
    telemetry::enable();
    let mut terms = Interner::new();
    let (pages, kb) = skyrocket_pages(&mut terms);
    let alg = MidasAlg::new(MidasConfig::running_example());
    let fw = Framework::new(&alg, alg.config.cost);

    let before = samples("fact_table.build_ns");
    let cold = fw.run(pages.clone(), &kb);
    assert_eq!(
        samples("fact_table.build_ns") - before,
        cold.detect_calls as u64,
        "every leaf and merge detection builds its table"
    );

    let tables: BTreeMap<_, _> = pages
        .iter()
        .map(|p| (p.url.clone(), FactTable::build(p, &kb)))
        .collect();
    let before = samples("fact_table.build_ns");
    let warm = fw.run_with_tables(pages.clone(), &kb, &tables);
    assert_eq!(warm.detect_calls, cold.detect_calls);
    assert_eq!(
        samples("fact_table.build_ns") - before,
        (warm.detect_calls - pages.len()) as u64,
        "leaves reuse their snapshot tables; only merge rounds build"
    );
}

/// Builds run on pool workers at `--threads` > 1; each worker flushes its
/// samples, so the count is the detection count at every thread count.
#[test]
fn fact_table_build_samples_do_not_depend_on_thread_count() {
    let _lock = METRICS.lock().unwrap_or_else(|e| e.into_inner());
    telemetry::enable();
    let mut terms = Interner::new();
    let (pages, kb) = skyrocket_pages(&mut terms);
    let alg = MidasAlg::new(MidasConfig::running_example());
    let mut reference = None;
    for threads in [1, 2, 4] {
        let fw = Framework::new(&alg, alg.config.cost).with_threads(threads);
        let before = samples("fact_table.build_ns");
        let report = fw.run(pages.clone(), &kb);
        assert_eq!(
            samples("fact_table.build_ns") - before,
            report.detect_calls as u64,
            "{threads} threads"
        );
        let calls = *reference.get_or_insert(report.detect_calls);
        assert_eq!(report.detect_calls, calls, "{threads} threads");
    }
}
