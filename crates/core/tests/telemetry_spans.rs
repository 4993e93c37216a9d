//! The `hierarchy.warm_patch` and `fact_table.refresh` spans record one
//! histogram sample per call. The tests read process-wide metrics, so each
//! holds one lock while it runs.

use std::sync::Mutex;

use midas_core::fixtures::{skyrocket, skyrocket_pages};
use midas_core::{telemetry, Augmenter, FactTable, MidasConfig, ProfitCtx, SliceHierarchy};
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
