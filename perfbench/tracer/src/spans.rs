//! Span recording for the traced pass.
//!
//! A span is `(id, parent, name, thread, start, end)`, kept in memory and
//! written out when the replay ends. A span opened on a thread nests under
//! the innermost span still open on that thread; a span on a pool worker
//! with nothing open nests under the innermost span open on the main
//! thread, which is the call that caused it. Self time is a span's duration
//! minus the durations of its children on the same thread, so the self
//! times of one thread's spans add up to the time its top-level spans cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span.
pub struct Span {
    id: u64,
    parent: u64,
    name: &'static str,
    thread: u64,
    start_ns: u64,
    end_ns: u64,
    self_ns: u64,
}

/// Per-name totals over every span of that name.
#[derive(Default)]
pub struct Aggregate {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);
/// Innermost span open on the main thread (0 = none).
static MAIN_OPEN: AtomicU64 = AtomicU64::new(0);
static FINISHED: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Relaxed);
    /// Open spans on this thread: `(id, time covered by finished children)`.
    static OPEN: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Pins the clock epoch and makes the calling thread the main thread
/// (thread 0). Call first thing in `main`.
pub fn init() {
    now_ns();
    THREAD.with(|t| debug_assert_eq!(*t, 0, "init must run on the first thread"));
}

/// Runs `f` inside a span named `name`.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let id = NEXT_ID.fetch_add(1, Relaxed);
    let thread = THREAD.with(|t| *t);
    let parent = OPEN
        .with(|open| open.borrow().last().map(|&(p, _)| p))
        .unwrap_or_else(|| MAIN_OPEN.load(Relaxed));
    OPEN.with(|open| open.borrow_mut().push((id, 0)));
    let outer_main = (thread == 0).then(|| MAIN_OPEN.swap(id, Relaxed));
    let start_ns = now_ns();
    let result = f();
    let end_ns = now_ns();
    if let Some(outer) = outer_main {
        MAIN_OPEN.store(outer, Relaxed);
    }
    let duration = end_ns - start_ns;
    let children_ns = OPEN.with(|open| {
        let mut open = open.borrow_mut();
        let (_, children_ns) = open.pop().expect("span stack holds this span");
        if let Some(enclosing) = open.last_mut() {
            enclosing.1 += duration;
        }
        children_ns
    });
    FINISHED
        .lock()
        .expect("span recorder poisoned by a panicking span")
        .push(Span {
            id,
            parent,
            name,
            thread,
            start_ns,
            end_ns,
            self_ns: duration.saturating_sub(children_ns),
        });
    result
}

/// Takes every finished span, ordered by start time.
pub fn take() -> Vec<Span> {
    let mut spans = std::mem::take(
        &mut *FINISHED
            .lock()
            .expect("span recorder poisoned by a panicking span"),
    );
    spans.sort_by_key(|s| (s.start_ns, s.id));
    spans
}

/// Time covered by the main thread's top-level spans: the sum of the self
/// times of every span on the main thread.
pub fn top_level_ns(spans: &[Span]) -> u64 {
    spans
        .iter()
        .filter(|s| s.thread == 0 && s.parent == 0)
        .map(|s| s.end_ns - s.start_ns)
        .sum()
}

/// Count, total and self time per span name.
pub fn aggregate(spans: &[Span]) -> BTreeMap<&'static str, Aggregate> {
    let mut by_name: BTreeMap<&'static str, Aggregate> = BTreeMap::new();
    for s in spans {
        let agg = by_name.entry(s.name).or_default();
        agg.count += 1;
        agg.total_ns += s.end_ns - s.start_ns;
        agg.self_ns += s.self_ns;
    }
    by_name
}

/// Writes one JSON object per span.
pub fn write_jsonl(spans: &[Span], path: &str) -> std::io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"thread\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            s.id, s.parent, s.name, s.thread, s.start_ns, s.end_ns, s.self_ns
        )?;
    }
    w.flush()
}
