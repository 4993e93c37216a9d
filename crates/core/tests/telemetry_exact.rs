//! Batched counters are exact at snapshot time, in a test binary of its
//! own with a single test, so that nothing else adds to the counters.

use midas_core::fixtures::skyrocket;
use midas_core::parallel::par_map;
use midas_core::{telemetry, FactTable, MidasConfig, ProfitCtx, SliceHierarchy};
use midas_kb::Interner;

/// Every build evaluates each node once, and records far fewer than one
/// tally batch of events. A build on the calling thread is counted by the
/// snapshot that follows it, which drains the calling thread's tallies.
/// Builds on pool workers are counted once the map returns: each worker
/// drains its tallies before it finishes, instead of at thread exit, which
/// can come after the scope that spawned it has returned.
#[test]
fn snapshots_count_every_batched_event() {
    telemetry::enable();
    let mut terms = Interner::new();
    let (src, kb) = skyrocket(&mut terms);
    let table = FactTable::build(&src, &kb);
    let cfg = MidasConfig::running_example();
    let ctx = ProfitCtx::new(&table, cfg.cost);
    let evaluated = || telemetry::snapshot().counter("hierarchy.nodes_evaluated");

    let before = evaluated();
    let h = SliceHierarchy::build(&table, &ctx, &cfg);
    assert!(!h.is_empty());
    assert_eq!(evaluated() - before, h.len() as u64, "calling thread");

    for round in 0..20 {
        let before = evaluated();
        let lens = par_map(2, vec![0, 1, 2, 3], |_| {
            SliceHierarchy::build(&table, &ctx, &cfg).len() as u64
        });
        let built: u64 = lens.iter().sum();
        assert_eq!(evaluated() - before, built, "pool workers, round {round}");
    }
}
