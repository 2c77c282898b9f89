//! In-memory spans recorded around the benchmark's own calls into each
//! layer.  Nothing inside the program is instrumented: a span covers one
//! public call (`load_document`, `publish`, `prepare`, `execute`, …), its
//! parent is the span open on the same thread when it started, and spans
//! of one operation share a request id.  When tracing is off `span` costs
//! one relaxed atomic load.

use std::cell::RefCell;
use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static FINISHED: Mutex<Vec<Span>> = Mutex::new(Vec::new());

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique span id.
    pub id: u64,
    /// The span open on this thread when this one started.
    pub parent: Option<u64>,
    /// The operation this call belongs to (0 for set-up work).
    pub request: u64,
    /// Layer call name, e.g. `service.execute`.
    pub name: &'static str,
    /// Start, in nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the trace epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in microseconds.
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

#[derive(Default)]
struct Local {
    spans: Vec<Span>,
    open: Vec<u64>,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::default());
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Switch span recording on or off for every thread.
pub fn set_enabled(on: bool) {
    now_ns();
    ON.store(on, Ordering::Relaxed);
}

/// Run `f` inside a span named `name` belonging to operation `request`.
pub fn span<T>(name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
    if !ON.load(Ordering::Relaxed) {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let parent = l.open.last().copied();
        l.open.push(id);
        parent
    });
    let start_ns = now_ns();
    let out = f();
    let end_ns = now_ns();
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.open.pop();
        l.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns,
        });
    });
    out
}

/// Hand this thread's finished spans to the global collection; every
/// thread that recorded spans calls this before it ends.
pub fn flush_thread() {
    let spans = LOCAL.with(|l| std::mem::take(&mut l.borrow_mut().spans));
    if !spans.is_empty() {
        FINISHED
            .lock()
            .expect("no thread panics while holding the span list")
            .extend(spans);
    }
}

/// Every flushed span, in id order.
pub fn take_all() -> Vec<Span> {
    flush_thread();
    let mut all = std::mem::take(
        &mut *FINISHED
            .lock()
            .expect("no thread panics while holding the span list"),
    );
    all.sort_by_key(|s| s.id);
    all
}

/// Per-layer summary of a span list.
pub struct Summary {
    /// Per span name: every duration (µs) and the total self time (µs).
    by_name: HashMap<&'static str, (Vec<f64>, f64)>,
}

impl Summary {
    /// Summarize `spans`.  A span's self time is its duration minus the
    /// part its child spans cover; children of one span run on its thread
    /// and nest inside it, so their durations add up without overlap.
    pub fn new(spans: &[Span]) -> Self {
        let mut child_us: HashMap<u64, f64> = HashMap::new();
        for span in spans {
            if let Some(parent) = span.parent {
                *child_us.entry(parent).or_default() += span.micros();
            }
        }
        let mut by_name: HashMap<&'static str, (Vec<f64>, f64)> = HashMap::new();
        for span in spans {
            let covered = child_us.get(&span.id).copied().unwrap_or(0.0);
            let entry = by_name.entry(span.name).or_default();
            entry.0.push(span.micros());
            entry.1 += (span.micros() - covered).max(0.0);
        }
        Summary { by_name }
    }

    /// Durations (µs) of every span named `name`.
    pub fn durations(&self, name: &str) -> &[f64] {
        self.by_name.get(name).map_or(&[], |(d, _)| d.as_slice())
    }

    /// `(name, count, total µs, total self µs)` per span name, sorted.
    pub fn table(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let mut rows: Vec<_> = self
            .by_name
            .iter()
            .map(|(name, (d, own))| (*name, d.len(), d.iter().sum::<f64>(), *own))
            .collect();
        rows.sort_by(|a, b| a.0.cmp(b.0));
        rows
    }
}

/// Write `spans` as JSON lines to `path`.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, parent, s.request, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}
