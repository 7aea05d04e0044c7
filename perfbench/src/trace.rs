//! In-memory span log for the traced run.
//!
//! A span is recorded around each call the benchmark makes into a layer
//! (see [`crate::layers`]). Spans carry a name, start and end (ns since
//! the log's epoch), their own id, the id of the enclosing span (0 for
//! none), the request they belong to, and a row count captured at the
//! same boundary. Each thread buffers its spans locally; client threads
//! hand theirs over with [`flush_thread`] before they exit, and the run
//! collects everything with [`take`] and writes it out at the end.
//!
//! With tracing disabled, [`span`] costs one relaxed atomic load.

use std::cell::{Cell, RefCell};
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer entry point, e.g. `"serve.query"`.
    pub name: &'static str,
    /// Start, in ns since the log's epoch.
    pub start_ns: u64,
    /// End, in ns since the log's epoch.
    pub end_ns: u64,
    /// This span's id (≥ 1).
    pub id: u64,
    /// The enclosing span's id, 0 at top level.
    pub parent: u64,
    /// Request id shared by every span of one request (0 outside requests).
    pub request: u64,
    /// Rows the call returned (0 where rows do not apply).
    pub rows: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_REQUEST: AtomicU64 = AtomicU64::new(1);
static COLLECTED: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static LOCAL: RefCell<Vec<Span>> = const { RefCell::new(Vec::new()) };
    /// (enclosing span id, request id) of the innermost open span.
    static CONTEXT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Now, in ns since the log's epoch: the clock spans are timed on.
pub fn clock_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Turn recording on or off for every thread.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// A fresh request id.
pub fn next_request() -> u64 {
    NEXT_REQUEST.fetch_add(1, Ordering::Relaxed)
}

/// Run `f` inside a span named `name`. `request` of `None` inherits the
/// enclosing span's request; `rows` reads the row count off the result.
pub fn span<T>(
    name: &'static str,
    request: Option<u64>,
    f: impl FnOnce() -> T,
    rows: impl FnOnce(&T) -> u64,
) -> T {
    if !enabled() {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let (parent, inherited) = CONTEXT.with(Cell::get);
    let request = request.unwrap_or(inherited);
    CONTEXT.with(|c| c.set((id, request)));
    let start_ns = clock_ns();
    let out = f();
    let end_ns = clock_ns();
    CONTEXT.with(|c| c.set((parent, inherited)));
    let rows = rows(&out);
    LOCAL.with(|l| l.borrow_mut().push(Span { name, start_ns, end_ns, id, parent, request, rows }));
    out
}

/// Hand this thread's spans to the shared log.
pub fn flush_thread() {
    let mine = LOCAL.with(|l| std::mem::take(&mut *l.borrow_mut()));
    if !mine.is_empty() {
        COLLECTED.lock().unwrap_or_else(|e| e.into_inner()).extend(mine);
    }
}

/// Every span recorded so far (the calling thread's included); the log
/// is left empty.
pub fn take() -> Vec<Span> {
    flush_thread();
    std::mem::take(&mut *COLLECTED.lock().unwrap_or_else(|e| e.into_inner()))
}

/// Write `spans` as JSON lines.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"id\":{},\"parent\":{},\
             \"request\":{},\"rows\":{}}}",
            s.name, s.start_ns, s.end_ns, s.id, s.parent, s.request, s.rows
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_link_parent_and_inherit_request() {
        set_enabled(true);
        let req = next_request();
        span(
            "outer",
            Some(req),
            || {
                span("inner", None, || 7u64, |v| *v);
            },
            |_| 0,
        );
        set_enabled(false);
        let spans: Vec<Span> = take().into_iter().filter(|s| s.request == req).collect();
        let outer = spans.iter().find(|s| s.name == "outer").expect("outer span");
        let inner = spans.iter().find(|s| s.name == "inner").expect("inner span");
        assert_eq!(inner.parent, outer.id);
        assert_eq!(inner.rows, 7);
        assert!(inner.start_ns >= outer.start_ns && inner.end_ns <= outer.end_ns);
    }
}
