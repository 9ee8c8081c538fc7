//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only by this benchmark, around its own calls into
//! each layer's public functions; nothing inside the program is
//! instrumented. Every span carries the item it belongs to, the thread
//! that ran it and its parent, so self time (duration minus the part of
//! the interval its children cover) can be computed after the run.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub id: u32,
    /// 0 for a root span.
    pub parent: u32,
    pub name: &'static str,
    /// 0 for set-up, otherwise 1 + the item's index in the pass.
    pub item: u32,
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static SPANS: Mutex<Vec<SpanRec>> = Mutex::new(Vec::new());
/// Counters keyed by name and by whether they were counted in set-up.
static COUNTS: Mutex<BTreeMap<(&'static str, bool), f64>> = Mutex::new(BTreeMap::new());
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(1);
static ITEM: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static STACK: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    static ADOPTED: Cell<u32> = const { Cell::new(0) };
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Attribute the spans that follow to `item` (0 = set-up).
pub fn set_item(item: u32) {
    ITEM.store(item, Ordering::Relaxed);
}

/// The innermost open span on this thread (or the adopted parent).
pub fn current() -> u32 {
    STACK
        .with(|s| s.borrow().last().copied())
        .unwrap_or_else(|| ADOPTED.with(Cell::get))
}

/// Run `f` on a worker thread with `parent` as the parent of its root
/// spans, so work fanned out by `parallel_map` nests under the span that
/// fanned it out.
pub fn adopt<T>(parent: u32, f: impl FnOnce() -> T) -> T {
    let before = ADOPTED.with(|a| a.replace(parent));
    let out = f();
    ADOPTED.with(|a| a.set(before));
    out
}

/// Record `f` as a span named `name` (`layer.operation`).
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = current();
    let item = ITEM.load(Ordering::Relaxed);
    STACK.with(|s| s.borrow_mut().push(id));
    let start_ns = now_ns();
    let out = f();
    let end_ns = now_ns();
    STACK.with(|s| s.borrow_mut().pop());
    let rec = SpanRec {
        id,
        parent,
        name,
        item,
        thread: THREAD.with(|t| *t),
        start_ns,
        end_ns,
    };
    SPANS.lock().expect("span buffer poisoned").push(rec);
    out
}

/// Add `n` to the counter `name`, counted where the work happens.
pub fn count(name: &'static str, n: f64) {
    *COUNTS
        .lock()
        .expect("counter map poisoned")
        .entry((name, ITEM.load(Ordering::Relaxed) == 0))
        .or_insert(0.0) += n;
}

/// Take every recorded span and counter, leaving the recorder empty.
pub fn drain() -> (Vec<SpanRec>, BTreeMap<(&'static str, bool), f64>) {
    let spans = std::mem::take(&mut *SPANS.lock().expect("span buffer poisoned"));
    let counts = std::mem::take(&mut *COUNTS.lock().expect("counter map poisoned"));
    (spans, counts)
}

/// Total length of the union of `intervals`, clipped to `[lo, hi)`.
pub fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time of every span, by id: its duration minus the union of its
/// children's intervals (children on worker threads overlap each other,
/// so a plain subtraction could go negative).
pub fn self_times(spans: &[SpanRec]) -> BTreeMap<u32, u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.remove(&s.id).unwrap_or_default();
            (s.id, s.dur_ns() - covered(kids, s.start_ns, s.end_ns))
        })
        .collect()
}

/// Spans named `core.*` or `item.*` are the outer calls a workload
/// mirrors; every other span is one layer's work.
pub fn is_layer(name: &str) -> bool {
    !(name.starts_with("core.") || name.starts_with("item."))
}

/// The layer a span belongs to: the part of its name before the first dot.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// [`span`] when `on`, a plain call otherwise.
pub fn span_if<T>(on: bool, name: &'static str, f: impl FnOnce() -> T) -> T {
    if on {
        span(name, f)
    } else {
        f()
    }
}
