//! In-process telemetry: sharded counters, log₂ histograms, span timers,
//! and per-run JSON snapshots.
//!
//! Every instrumented subsystem (the framework's round phases, the isolated
//! worker pool, hierarchy construction, the extent kernels, the CLI's
//! snapshot cache and checkpoints) records into metrics
//! registered in one process-global [`MetricsRegistry`]. The layer is
//! always compiled and near-zero-overhead when disabled:
//!
//! * a **[`Counter`]** is a bank of cache-line-padded relaxed `AtomicU64`
//!   shards; a thread increments the shard assigned to it on first use, so
//!   hot paths never contend on a shared line. The shards are folded into
//!   one monotone total only at snapshot time.
//! * a **[`Histogram`]** buckets samples by `log₂(value)` (64 buckets of
//!   relaxed atomics, plus count and sum), giving constant-space duration
//!   and size distributions.
//! * a **[`SpanGuard`]** (from [`span`]) times a region RAII-style into a
//!   histogram and — when `MIDAS_TRACE=spans[:PATH]` is set — streams one
//!   JSONL event per span (name, start/end ns, thread, parent span) for
//!   flame-style inspection.
//!
//! Metrics are `static`s declared with [`counter!`](crate::counter!) /
//! [`histogram!`](crate::histogram!); each registers itself in the global
//! registry on first touch — no life-before-main tricks, no inventory
//! crate, no hot-path allocation. [`snapshot`] folds every registered
//! metric into a [`Snapshot`]; [`Snapshot::to_json`] renders the stable,
//! versioned document `--metrics-json` writes and `metrics_compare.py` diffs.
//!
//! **Gating.** Counters and histograms record only while the layer is
//! enabled ([`enabled`]): one relaxed atomic load guards every record call.
//! Enablement comes from the CLI flags (`--metrics-json`,
//! `--verbose-stats`), from `MIDAS_TRACE` / `MIDAS_TELEMETRY=1` in the
//! environment, or programmatically via [`enable`]. Span *tracing* is
//! additionally gated on the `MIDAS_TRACE` sink so the JSONL stream never
//! surprises a run that only asked for counters.
//!
//! **Clock.** Span timestamps come from [`clock_ns`], a monotonic
//! nanosecond clock anchored at first use. Under `MIDAS_FIXED_TIMING`
//! (the CLI's deterministic-output switch) the clock reads zero, so traces
//! and duration histograms are byte-stable and never leak wall time into
//! output that tests compare.
//!
//! Telemetry must never perturb results: nothing here influences control
//! flow, and the bit-identity suites re-run with tracing active to prove
//! it (`tests/streaming_equivalence.rs`, `tests/incremental_equivalence.rs`).

use std::fmt::Write as _;
use std::fs::File;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering::Relaxed};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Version tag of the JSON snapshot document. Bump only on breaking shape
/// changes; adding metrics is not a breaking change (consumers must ignore
/// unknown names).
pub const SCHEMA: &str = "midas.metrics/v1";

/// Number of counter shards. A small power of two: enough to keep worker
/// threads on distinct cache lines, small enough that folding is free.
pub const SHARDS: usize = 16;

// ---------------------------------------------------------------------------
// Enablement
// ---------------------------------------------------------------------------

const STATE_UNINIT: u8 = 0;
const STATE_OFF: u8 = 1;
const STATE_ON: u8 = 2;

static STATE: AtomicU8 = AtomicU8::new(STATE_UNINIT);

/// Whether metric recording is on. The hot-path guard: one relaxed load.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Relaxed) {
        STATE_ON => true,
        STATE_OFF => false,
        _ => resolve_state(),
    }
}

#[cold]
fn resolve_state() -> bool {
    let on = std::env::var_os("MIDAS_TRACE").is_some()
        || std::env::var_os("MIDAS_TELEMETRY").is_some_and(|v| v != "0" && !v.is_empty());
    // Racing resolvers agree (the environment is stable), so a plain store
    // is fine.
    STATE.store(if on { STATE_ON } else { STATE_OFF }, Relaxed);
    on
}

/// Turns metric recording on for the rest of the process (used by the CLI
/// when `--metrics-json` / `--verbose-stats` is passed, and by tests).
pub fn enable() {
    STATE.store(STATE_ON, Relaxed);
}

// ---------------------------------------------------------------------------
// Clock
// ---------------------------------------------------------------------------

static EPOCH: OnceLock<Option<Instant>> = OnceLock::new();

/// Monotonic nanoseconds since the telemetry epoch (first use), or `0`
/// always when `MIDAS_FIXED_TIMING` is set so traced output stays
/// byte-stable across runs.
pub fn clock_ns() -> u64 {
    match EPOCH.get_or_init(|| {
        if std::env::var_os("MIDAS_FIXED_TIMING").is_some() {
            None
        } else {
            Some(Instant::now())
        }
    }) {
        Some(epoch) => epoch.elapsed().as_nanos() as u64,
        None => 0,
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// A reference to one registered metric.
enum MetricRef {
    Counter(&'static Counter),
    Histogram(&'static Histogram),
}

/// The process-global metric registry: every [`Counter`] and [`Histogram`]
/// adds itself here on first touch, and [`snapshot`] folds the lot.
pub struct MetricsRegistry {
    metrics: Mutex<Vec<MetricRef>>,
}

impl MetricsRegistry {
    const fn new() -> Self {
        MetricsRegistry {
            metrics: Mutex::new(Vec::new()),
        }
    }
}

static REGISTRY: MetricsRegistry = MetricsRegistry::new();

/// The global registry handle.
pub fn registry() -> &'static MetricsRegistry {
    &REGISTRY
}

fn lock_registry() -> std::sync::MutexGuard<'static, Vec<MetricRef>> {
    REGISTRY
        .metrics
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

// ---------------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------------

/// One cache line per shard so two worker threads never share one.
#[repr(align(64))]
struct Padded(AtomicU64);

#[allow(clippy::declare_interior_mutable_const)] // array-repeat seed
const PADDED_ZERO: Padded = Padded(AtomicU64::new(0));

/// Index of this thread's counter shard, assigned round-robin on first use.
#[inline]
fn shard_index() -> usize {
    use std::cell::Cell;
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    SLOT.with(|s| {
        let mut i = s.get();
        if i == usize::MAX {
            i = NEXT.fetch_add(1, Relaxed) % SHARDS;
            s.set(i);
        }
        i
    })
}

/// A monotone counter: per-thread sharded relaxed atomics, folded at
/// snapshot time. Declare with [`counter!`](crate::counter!); increment with
/// [`Counter::add`] / [`Counter::inc`].
pub struct Counter {
    name: &'static str,
    registered: AtomicBool,
    shards: [Padded; SHARDS],
}

impl Counter {
    /// A new unregistered counter (use via [`counter!`](crate::counter!)).
    pub const fn new(name: &'static str) -> Self {
        Counter {
            name,
            registered: AtomicBool::new(false),
            shards: [PADDED_ZERO; SHARDS],
        }
    }

    /// The metric name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Adds `n` when telemetry is enabled: one enabled check, one shard
    /// lookup, one relaxed `fetch_add` — no locks on the hot path.
    #[inline]
    pub fn add(&'static self, n: u64) {
        if !enabled() {
            return;
        }
        self.add_always(n);
    }

    /// Adds `n` regardless of the global gate. For call sites that feed
    /// per-run report fields (the framework's execution counters), which
    /// must stay exact even when no one asked for a metrics snapshot.
    #[inline]
    pub fn add_always(&'static self, n: u64) {
        if !self.registered.load(Relaxed) {
            self.register();
        }
        self.shards[shard_index()].0.fetch_add(n, Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&'static self) {
        self.add(1);
    }

    /// Folds the shards into the current total.
    pub fn value(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Relaxed))
            .fold(0u64, u64::wrapping_add)
    }

    #[cold]
    fn register(&'static self) {
        let mut metrics = lock_registry();
        // Double-check under the lock so two racing first touches do not
        // register twice.
        if !self.registered.load(Relaxed) {
            metrics.push(MetricRef::Counter(self));
            self.registered.store(true, Relaxed);
        }
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Counter")
            .field("name", &self.name)
            .field("value", &self.value())
            .finish()
    }
}

/// Declares a `static` [`Counter`] named after a dotted metric path.
///
/// ```
/// midas_core::counter!(DEMO_EVENTS, "demo.events");
/// DEMO_EVENTS.inc();
/// ```
#[macro_export]
macro_rules! counter {
    ($vis:vis $ident:ident, $name:expr) => {
        $vis static $ident: $crate::telemetry::Counter =
            $crate::telemetry::Counter::new($name);
    };
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

/// Bucket count: one per possible `log₂` of a `u64` sample, plus the zero
/// bucket.
pub const BUCKETS: usize = 65;

/// A log₂-bucketed histogram of durations or sizes. Bucket `0` holds zero
/// samples; bucket `i ≥ 1` holds samples with `2^(i-1) <= v < 2^i`.
/// All updates are relaxed atomics; totals are folded at snapshot time.
pub struct Histogram {
    name: &'static str,
    registered: AtomicBool,
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

#[allow(clippy::declare_interior_mutable_const)] // array-repeat seed
const ZERO_U64: AtomicU64 = AtomicU64::new(0);

impl Histogram {
    /// A new unregistered histogram (use via [`histogram!`](crate::histogram!)).
    pub const fn new(name: &'static str) -> Self {
        Histogram {
            name,
            registered: AtomicBool::new(false),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: [ZERO_U64; BUCKETS],
        }
    }

    /// The metric name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The bucket index of a sample.
    #[inline]
    pub fn bucket_of(value: u64) -> usize {
        match value {
            0 => 0,
            v => (64 - v.leading_zeros()) as usize,
        }
    }

    /// Records one sample when telemetry is enabled.
    #[inline]
    pub fn record(&'static self, value: u64) {
        if !enabled() {
            return;
        }
        if !self.registered.load(Relaxed) {
            self.register();
        }
        self.count.fetch_add(1, Relaxed);
        self.sum.fetch_add(value, Relaxed);
        self.buckets[Self::bucket_of(value)].fetch_add(1, Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Relaxed)
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Relaxed)
    }

    #[cold]
    fn register(&'static self) {
        let mut metrics = lock_registry();
        if !self.registered.load(Relaxed) {
            metrics.push(MetricRef::Histogram(self));
            self.registered.store(true, Relaxed);
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("name", &self.name)
            .field("count", &self.count())
            .field("sum", &self.sum())
            .finish()
    }
}

/// Declares a `static` [`Histogram`] named after a dotted metric path.
#[macro_export]
macro_rules! histogram {
    ($vis:vis $ident:ident, $name:expr) => {
        $vis static $ident: $crate::telemetry::Histogram =
            $crate::telemetry::Histogram::new($name);
    };
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// Where span JSONL events go when `MIDAS_TRACE=spans[:PATH]` is active.
enum TraceSink {
    Stderr,
    File(Mutex<std::io::BufWriter<File>>),
}

static TRACE_SINK: OnceLock<Option<TraceSink>> = OnceLock::new();

fn trace_sink() -> Option<&'static TraceSink> {
    TRACE_SINK
        .get_or_init(|| {
            let value = std::env::var("MIDAS_TRACE").ok()?;
            let (mode, path) = match value.split_once(':') {
                Some((m, p)) => (m, Some(p)),
                None => (value.as_str(), None),
            };
            if mode != "spans" {
                return None;
            }
            // Tracing implies telemetry: duration histograms fill in too.
            enable();
            match path {
                None => Some(TraceSink::Stderr),
                Some(p) => File::create(p)
                    .ok()
                    .map(|f| TraceSink::File(Mutex::new(std::io::BufWriter::new(f)))),
            }
        })
        .as_ref()
}

/// Whether span events are being streamed (`MIDAS_TRACE=spans[:PATH]`).
pub fn tracing() -> bool {
    trace_sink().is_some()
}

/// Flushes the span stream (a no-op for the stderr sink). The CLI calls
/// this before exiting so file traces are complete.
pub fn flush_trace() {
    if let Some(TraceSink::File(w)) = trace_sink() {
        let mut w = w.lock().unwrap_or_else(|p| p.into_inner());
        let _ = w.flush();
    }
}

fn emit_span(name: &str, start_ns: u64, end_ns: u64, thread: u64, parent: u64, id: u64) {
    let Some(sink) = trace_sink() else { return };
    let mut line = String::with_capacity(128);
    let _ = write!(
        line,
        "{{\"span\":\"{}\",\"id\":{id},\"parent\":{parent},\"thread\":{thread},\
         \"start_ns\":{start_ns},\"end_ns\":{end_ns}}}",
        escape_into_owned(name)
    );
    line.push('\n');
    match sink {
        TraceSink::Stderr => {
            let _ = std::io::stderr().write_all(line.as_bytes());
        }
        TraceSink::File(w) => {
            let mut w = w.lock().unwrap_or_else(|p| p.into_inner());
            let _ = w.write_all(line.as_bytes());
        }
    }
}

/// Sequential per-thread identifier for trace events (thread ids are not
/// stable integers across platforms).
fn thread_ordinal() -> u64 {
    use std::cell::Cell;
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static ORDINAL: Cell<u64> = const { Cell::new(0) };
    }
    ORDINAL.with(|o| {
        let mut v = o.get();
        if v == 0 {
            v = NEXT.fetch_add(1, Relaxed);
            o.set(v);
        }
        v
    })
}

thread_local! {
    /// Innermost live span on this thread; `0` at top level.
    static CURRENT_SPAN: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// RAII span timer: on drop, records the elapsed nanoseconds into its
/// histogram and (when tracing) streams one JSONL event.
pub struct SpanGuard {
    name: &'static str,
    hist: Option<&'static Histogram>,
    start_ns: u64,
    id: u64,
    parent: u64,
    armed: bool,
}

impl SpanGuard {
    fn disarmed(name: &'static str) -> SpanGuard {
        SpanGuard {
            name,
            hist: None,
            start_ns: 0,
            id: 0,
            parent: 0,
            armed: false,
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let end_ns = clock_ns();
        if let Some(h) = self.hist {
            h.record(end_ns.saturating_sub(self.start_ns));
        }
        CURRENT_SPAN.with(|c| c.set(self.parent));
        if tracing() {
            emit_span(
                self.name,
                self.start_ns,
                end_ns,
                thread_ordinal(),
                self.parent,
                self.id,
            );
        }
    }
}

/// Opens a span timing into `hist`. Disabled telemetry returns an inert
/// guard (two relaxed loads, no clock read).
#[inline]
pub fn span(name: &'static str, hist: &'static Histogram) -> SpanGuard {
    if !enabled() {
        return SpanGuard::disarmed(name);
    }
    let id = NEXT_SPAN_ID.fetch_add(1, Relaxed);
    let parent = CURRENT_SPAN.with(|c| {
        let p = c.get();
        c.set(id);
        p
    });
    SpanGuard {
        name,
        hist: Some(hist),
        start_ns: clock_ns(),
        id,
        parent,
        armed: true,
    }
}

// ---------------------------------------------------------------------------
// Thread-local tallies
// ---------------------------------------------------------------------------

/// Events a [`LocalTally`] batches before draining to its counters.
const TALLY_FLUSH_EVERY: u64 = 1024;

/// Counter increments batched in plain thread-local cells, for sites that
/// fire hundreds of thousands of times per run (hierarchy evaluation, the
/// extent kernels): the enabled hot path is a TLS bump
/// instead of an atomic RMW. A tally drains to its counters every
/// [`TALLY_FLUSH_EVERY`] events, at thread exit, and — for the calling
/// thread — at every [`snapshot`], so a snapshot is exact for every thread
/// that has retired or is taking it, and monotone for the rest.
pub(crate) struct LocalTally<const N: usize> {
    sinks: &'static [&'static Counter; N],
    counts: [std::cell::Cell<u64>; N],
    pending: std::cell::Cell<u64>,
}

impl<const N: usize> LocalTally<N> {
    /// An empty tally draining into `sinks` (index `i` feeds `sinks[i]`).
    pub(crate) fn new(sinks: &'static [&'static Counter; N]) -> Self {
        LocalTally {
            sinks,
            counts: std::array::from_fn(|_| std::cell::Cell::new(0)),
            pending: std::cell::Cell::new(0),
        }
    }

    /// Adds `n` to the pending count of `sinks[kind]`.
    #[inline]
    pub(crate) fn add(&self, kind: usize, n: u64) {
        self.counts[kind].set(self.counts[kind].get() + n);
    }

    /// Closes one event (one or more [`Self::add`] calls); every
    /// [`TALLY_FLUSH_EVERY`]-th drains the tally.
    #[inline]
    pub(crate) fn end_event(&self) {
        let pending = self.pending.get() + 1;
        if pending >= TALLY_FLUSH_EVERY {
            self.flush();
        } else {
            self.pending.set(pending);
        }
    }

    /// Drains every pending count into its counter.
    pub(crate) fn flush(&self) {
        for (count, sink) in self.counts.iter().zip(self.sinks) {
            let n = count.take();
            if n > 0 {
                sink.add_always(n);
            }
        }
        self.pending.set(0);
    }
}

impl<const N: usize> Drop for LocalTally<N> {
    fn drop(&mut self) {
        self.flush();
    }
}

/// The flush hooks of every thread-local tally in the crate.
const TALLY_FLUSH_HOOKS: [fn(); 2] = [
    crate::hierarchy::flush_tally,
    crate::extent::kernels::flush_tally,
];

/// Drains the calling thread's batched counts into their counters: the
/// first step of every [`snapshot`], and the last of every pool worker,
/// whose thread-exit drain could otherwise land after the scope that
/// spawned it has returned.
pub(crate) fn flush_thread_tallies() {
    // Tallies only fill while recording is on.
    if !enabled() {
        return;
    }
    for flush in TALLY_FLUSH_HOOKS {
        flush();
    }
}

// ---------------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------------

/// A folded histogram as it appears in a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// `(bucket index, samples)` for every non-empty bucket, ascending.
    pub buckets: Vec<(u32, u64)>,
}

/// A point-in-time fold of every registered metric, ordered by name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Counter totals by metric name.
    pub counters: Vec<(String, u64)>,
    /// Histograms by metric name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

/// Folds every registered metric into a [`Snapshot`], after draining the
/// calling thread's batched counts.
pub fn snapshot() -> Snapshot {
    flush_thread_tallies();
    let metrics = lock_registry();
    let mut snap = Snapshot::default();
    for m in metrics.iter() {
        match m {
            MetricRef::Counter(c) => snap.counters.push((c.name().to_owned(), c.value())),
            MetricRef::Histogram(h) => {
                let buckets = h
                    .buckets
                    .iter()
                    .enumerate()
                    .filter_map(|(i, b)| {
                        let v = b.load(Relaxed);
                        (v > 0).then_some((i as u32, v))
                    })
                    .collect();
                snap.histograms.push((
                    h.name().to_owned(),
                    HistogramSnapshot {
                        count: h.count(),
                        sum: h.sum(),
                        buckets,
                    },
                ));
            }
        }
    }
    drop(metrics);
    snap.counters.sort_by(|a, b| a.0.cmp(&b.0));
    snap.histograms.sort_by(|a, b| a.0.cmp(&b.0));
    snap
}

impl Snapshot {
    /// The counter total for `name`, or 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// The histogram for `name`, when present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Every counter in `self` is ≥ its value in `earlier`, and no counter
    /// disappeared. The monotonicity check the test suites assert.
    pub fn dominates(&self, earlier: &Snapshot) -> bool {
        earlier
            .counters
            .iter()
            .all(|(name, v)| self.counter(name) >= *v)
    }

    /// Renders the stable, versioned JSON document: keys sorted, integers
    /// only, one object — machine-diffable by `scripts/metrics_compare.py`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\"schema\":\"");
        out.push_str(SCHEMA);
        out.push_str("\",\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{v}", escape_into_owned(name));
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{{\"count\":{},\"sum\":{},\"buckets\":{{",
                escape_into_owned(name),
                h.count,
                h.sum
            );
            for (j, (bucket, v)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{bucket}\":{v}");
            }
            out.push_str("}}");
        }
        out.push_str("}}\n");
        out
    }

    /// Parses a document produced by [`Snapshot::to_json`]. This is not a
    /// general JSON parser — it accepts exactly the flat shape this module
    /// emits, enough for the test suites to round-trip a written snapshot
    /// without external dependencies.
    pub fn from_json(text: &str) -> Result<Snapshot, String> {
        let mut p = JsonCursor::new(text.trim());
        p.expect('{')?;
        let schema_key = p.string()?;
        if schema_key != "schema" {
            return Err(format!("expected schema key, found {schema_key:?}"));
        }
        p.expect(':')?;
        let schema = p.string()?;
        if schema != SCHEMA {
            return Err(format!("unsupported schema {schema:?}"));
        }
        p.expect(',')?;
        let mut snap = Snapshot::default();

        let counters_key = p.string()?;
        if counters_key != "counters" {
            return Err(format!("expected counters, found {counters_key:?}"));
        }
        p.expect(':')?;
        p.expect('{')?;
        while !p.eat('}') {
            if !snap.counters.is_empty() {
                p.expect(',')?;
            }
            let name = p.string()?;
            p.expect(':')?;
            let v = p.integer()?;
            snap.counters.push((name, v));
        }

        p.expect(',')?;
        let hist_key = p.string()?;
        if hist_key != "histograms" {
            return Err(format!("expected histograms, found {hist_key:?}"));
        }
        p.expect(':')?;
        p.expect('{')?;
        while !p.eat('}') {
            if !snap.histograms.is_empty() {
                p.expect(',')?;
            }
            let name = p.string()?;
            p.expect(':')?;
            p.expect('{')?;
            p.expect_key("count")?;
            let count = p.integer()?;
            p.expect(',')?;
            p.expect_key("sum")?;
            let sum = p.integer()?;
            p.expect(',')?;
            p.expect_key("buckets")?;
            p.expect('{')?;
            let mut buckets = Vec::new();
            while !p.eat('}') {
                if !buckets.is_empty() {
                    p.expect(',')?;
                }
                let bucket: u64 = p.string()?.parse().map_err(|e| format!("bucket: {e}"))?;
                p.expect(':')?;
                let v = p.integer()?;
                buckets.push((bucket as u32, v));
            }
            p.expect('}')?;
            snap.histograms.push((
                name,
                HistogramSnapshot {
                    count,
                    sum,
                    buckets,
                },
            ));
        }
        p.expect('}')?;
        Ok(snap)
    }
}

/// Writes the current snapshot's JSON document to `path`.
pub fn write_json(path: &str) -> std::io::Result<()> {
    std::fs::write(path, snapshot().to_json())
}

fn escape_into_owned(s: &str) -> String {
    // Metric names are dotted ASCII identifiers; escaping is belt and
    // braces for the day one is not.
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Byte cursor over the exact JSON subset [`Snapshot::to_json`] emits.
struct JsonCursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> JsonCursor<'a> {
    fn new(text: &'a str) -> Self {
        JsonCursor {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, c: char) -> Result<(), String> {
        if self.peek() == Some(c as u8) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {c:?} at byte {}", self.pos))
        }
    }

    fn eat(&mut self, c: char) -> bool {
        if self.peek() == Some(c as u8) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'n') => out.push('\n'),
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(b) => {
                    out.push(b as char);
                    self.pos += 1;
                }
                None => return Err("unterminated string".to_owned()),
            }
        }
    }

    fn expect_key(&mut self, key: &str) -> Result<(), String> {
        let found = self.string()?;
        if found != key {
            return Err(format!("expected key {key:?}, found {found:?}"));
        }
        self.expect(':')
    }

    fn integer(&mut self) -> Result<u64, String> {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(format!("expected integer at byte {start}"));
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|e| e.to_string())?
            .parse()
            .map_err(|e| format!("integer: {e}"))
    }
}

// ---------------------------------------------------------------------------
// Verbose-stats rendering
// ---------------------------------------------------------------------------

/// Renders the compact `--verbose-stats` table: every counter, then every
/// histogram (count/sum), aligned and name-sorted. One string so callers
/// can prefix lines for their output format.
pub fn render_table(snap: &Snapshot) -> String {
    let width = snap
        .counters
        .iter()
        .map(|(n, _)| n.len())
        .chain(snap.histograms.iter().map(|(n, _)| n.len() + 6))
        .max()
        .unwrap_or(0);
    let mut out = String::new();
    for (name, v) in &snap.counters {
        let _ = writeln!(out, "{name:<width$}  {v}");
    }
    for (name, h) in &snap.histograms {
        let _ = writeln!(
            out,
            "{name}.count{:<pad$}  {}",
            "",
            h.count,
            pad = width.saturating_sub(name.len() + 6)
        );
        let _ = writeln!(
            out,
            "{name}.sum{:<pad$}  {}",
            "",
            h.sum,
            pad = width.saturating_sub(name.len() + 4)
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    counter!(TEST_EVENTS, "test.events");
    counter!(TEST_LOOPS, "test.loops");
    histogram!(TEST_SIZES, "test.sizes");

    #[test]
    fn counters_fold_across_threads_exactly() {
        enable();
        let threads = 8;
        let iters = 10_000u64;
        let before = TEST_EVENTS.value();
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    for _ in 0..iters {
                        TEST_EVENTS.inc();
                    }
                });
            }
        });
        assert_eq!(TEST_EVENTS.value() - before, threads * iters);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        enable();
        TEST_SIZES.record(3);
        TEST_SIZES.record(4);
        assert!(TEST_SIZES.count() >= 2);
        assert!(TEST_SIZES.sum() >= 7);
    }

    #[test]
    fn snapshot_json_round_trips() {
        enable();
        TEST_LOOPS.add(41);
        TEST_SIZES.record(9);
        let snap = snapshot();
        let json = snap.to_json();
        assert!(json.starts_with("{\"schema\":\"midas.metrics/v1\""));
        let parsed = Snapshot::from_json(&json).expect("own output parses");
        assert_eq!(parsed, snap);
        assert!(parsed.counter("test.loops") >= 41);
        let h = parsed.histogram("test.sizes").expect("histogram present");
        assert!(h.count >= 1);
    }

    #[test]
    fn later_snapshots_dominate_earlier_ones() {
        enable();
        TEST_LOOPS.inc();
        let a = snapshot();
        TEST_LOOPS.add(5);
        let b = snapshot();
        assert!(b.dominates(&a));
        assert!(!a.dominates(&b) || a.counter("test.loops") == b.counter("test.loops"));
    }

    #[test]
    fn spans_nest_and_record() {
        enable();
        histogram!(SPAN_H, "test.span_ns");
        let before = SPAN_H.count();
        {
            let _outer = span("test.outer", &SPAN_H);
            let _inner = span("test.inner", &SPAN_H);
        }
        assert_eq!(SPAN_H.count() - before, 2);
        // The span stack unwound to top level.
        CURRENT_SPAN.with(|c| assert_eq!(c.get(), 0));
    }

    #[test]
    fn render_table_lists_every_metric() {
        enable();
        TEST_LOOPS.inc();
        TEST_SIZES.record(2);
        let snap = snapshot();
        let table = render_table(&snap);
        assert!(table.contains("test.loops"));
        assert!(table.contains("test.sizes.count"));
    }
}
