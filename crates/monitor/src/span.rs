//! The one telemetry event: the span.
//!
//! The paper's monitoring suite collects "the duration and I/O size of each
//! operation, along with ... rank, file path and step"; a [`SpanRecord`] is
//! that measurement plus the *structure* offline straggler diagnosis needs —
//! which storage write ran under which upload, what overlapped with what. It
//! is a timed region with a span id, an optional parent id, free-form
//! attributes, and point-in-time events; together the spans of one step form
//! a navigable trace tree that exports directly to Chrome trace-event JSON
//! (see [`crate::export`]). A measurement with no extent (a retry, a
//! throttled request) is a *point span*: an uncounted span created and
//! dropped at once, carrying its payload in `io_bytes`/`path`/`attrs`.
//! Counters, gauges and histograms are folds over spans
//! ([`crate::MetricsRegistry::fold`]); heat maps, breakdowns and alerts are
//! queries over them ([`crate::analysis`]).
//!
//! Spans are produced by [`SpanGuard`]s (RAII; the Rust analogue of the
//! paper's context-manager/decorator metrics syntax) and flow over a
//! channel into the [`crate::MetricsHub`]. Parentage is explicit: pass a
//! [`SpanContext`] across threads, or push one onto the thread-local context
//! stack with [`SpanGuard::enter`] / [`enter_context`] so deeper layers
//! (e.g. instrumented storage backends) can attach without plumbing.

use crate::metrics::MetricsSink;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Process-wide monotonically increasing span ids (0 is never issued).
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

fn next_span_id() -> u64 {
    NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed)
}

/// The instant all span start offsets are measured from. Fixed at first use
/// so spans from every thread share one timeline.
fn process_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds since the process epoch.
fn now_us() -> u64 {
    process_epoch().elapsed().as_micros() as u64
}

/// A point-in-time annotation inside a span ("retry 2 started").
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanEvent {
    /// Event label.
    pub name: String,
    /// Microseconds since the process epoch.
    pub at_us: u64,
}

/// One completed span: a timed region in the trace tree of a step.
/// `Default` is the empty, *uncounted* span (a decoded line that omits
/// `counted` reads as counted).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// Unique (per process) span id.
    pub id: u64,
    /// Parent span id, `None` for a root span.
    #[serde(default)]
    pub parent: Option<u64>,
    /// Phase/operation name, e.g. `"save/upload"` or `"storage/disk/write"`.
    pub name: String,
    /// Worker rank that produced the span.
    pub rank: usize,
    /// Global training step at the time of the operation.
    pub step: u64,
    /// Start offset in microseconds since the process epoch (a shared
    /// monotonic timeline, *not* wall-clock time).
    pub start_us: u64,
    /// Wall-clock duration of the region.
    pub duration: Duration,
    /// Bytes moved, when the operation is an I/O.
    #[serde(default)]
    pub io_bytes: u64,
    /// File path involved, when applicable.
    #[serde(default)]
    pub path: Option<String>,
    /// Free-form key/value annotations (backend config, error text, ...).
    #[serde(default)]
    pub attrs: BTreeMap<String, String>,
    /// Point-in-time events observed while the span was open.
    #[serde(default)]
    pub events: Vec<SpanEvent>,
    /// Whether aggregations that sum durations (heat maps, breakdowns)
    /// should count this span. Roots and per-item detail spans are marked
    /// uncounted so a phase is never double-counted with its children.
    #[serde(default = "default_true")]
    pub counted: bool,
}

fn default_true() -> bool {
    true
}

impl SpanRecord {
    /// Effective throughput in bytes/second (None when no I/O or no time).
    pub fn throughput(&self) -> Option<f64> {
        if self.io_bytes == 0 || self.duration.is_zero() {
            None
        } else {
            Some(self.io_bytes as f64 / self.duration.as_secs_f64())
        }
    }

    /// A numeric attribute (0 when absent or not a number).
    pub fn attr_num(&self, key: &str) -> f64 {
        self.attrs.get(key).and_then(|v| v.parse().ok()).unwrap_or(0.0)
    }
}

/// For each span, the index of its root: the topmost ancestor present in
/// `spans` (itself when its parent is absent or it has none). Each chain is
/// walked once; spans above an already-resolved one reuse its answer.
pub(crate) fn root_of_each(spans: &[SpanRecord]) -> Vec<usize> {
    const UNRESOLVED: usize = usize::MAX;
    let index: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut root = vec![UNRESOLVED; spans.len()];
    let mut path = Vec::new();
    for start in 0..spans.len() {
        let mut at = start;
        while root[at] == UNRESOLVED {
            path.push(at);
            // Ids are issued in creation order and a parent exists before
            // its child, which also rules out a cycle.
            match spans[at].parent.filter(|&p| p < spans[at].id).and_then(|p| index.get(&p)) {
                Some(&up) => at = up,
                None => root[at] = at,
            }
        }
        let resolved = root[at];
        for i in path.drain(..) {
            root[i] = resolved;
        }
    }
    root
}

/// A copyable reference to an open span, used to parent spans across
/// threads and call boundaries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanContext {
    id: Option<u64>,
    rank: usize,
    step: u64,
}

impl SpanContext {
    /// A context with no parent: spans created under it become roots.
    pub fn none() -> SpanContext {
        SpanContext::default()
    }

    /// The referenced span id (None = no parent).
    pub fn id(&self) -> Option<u64> {
        self.id
    }

    /// Rank of the referenced span (0 when none).
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Step of the referenced span (0 when none).
    pub fn step(&self) -> u64 {
        self.step
    }
}

// ---------------------------------------------------------------------------
// Thread-local context stack.
// ---------------------------------------------------------------------------

thread_local! {
    static ACTIVE: RefCell<Vec<SpanContext>> = const { RefCell::new(Vec::new()) };
}

/// The innermost entered span context on this thread, if any.
pub fn current_context() -> Option<SpanContext> {
    ACTIVE.with(|s| s.borrow().last().copied())
}

/// Push an explicit context onto this thread's stack (for worker threads
/// that received a [`SpanContext`] from their spawner). Popped when the
/// returned guard drops.
pub fn enter_context(ctx: SpanContext) -> EnterGuard {
    ACTIVE.with(|s| s.borrow_mut().push(ctx));
    EnterGuard { ctx }
}

/// RAII guard returned by [`SpanGuard::enter`] / [`enter_context`]; pops the
/// context from the thread-local stack on drop.
pub struct EnterGuard {
    ctx: SpanContext,
}

impl Drop for EnterGuard {
    fn drop(&mut self) {
        ACTIVE.with(|s| {
            let mut stack = s.borrow_mut();
            // Pop *this* entry specifically: guards may be dropped out of
            // order if a span guard outlives an inner enter.
            if let Some(pos) = stack.iter().rposition(|c| c == &self.ctx) {
                stack.remove(pos);
            }
        });
    }
}

// ---------------------------------------------------------------------------
// SpanGuard.
// ---------------------------------------------------------------------------

/// RAII guard emitting a [`SpanRecord`] on drop.
pub struct SpanGuard {
    sink: MetricsSink,
    rec: SpanRecord,
    start: Instant,
}

impl MetricsSink {
    /// Start a root span (no parent).
    pub fn span(&self, name: impl Into<String>, rank: usize, step: u64) -> SpanGuard {
        self.span_under(name, rank, step, SpanContext::none())
    }

    /// Start a span under an explicit parent context.
    pub fn span_under(
        &self,
        name: impl Into<String>,
        rank: usize,
        step: u64,
        parent: SpanContext,
    ) -> SpanGuard {
        SpanGuard {
            sink: self.clone(),
            rec: SpanRecord {
                id: next_span_id(),
                parent: parent.id(),
                name: name.into(),
                rank,
                step,
                start_us: now_us(),
                duration: Duration::ZERO,
                io_bytes: 0,
                path: None,
                attrs: BTreeMap::new(),
                events: Vec::new(),
                counted: true,
            },
            start: Instant::now(),
        }
    }

    /// Start a span parented on this thread's innermost entered context
    /// (see [`SpanGuard::enter`]); rank and step are inherited from it.
    /// Falls back to a root span at `fallback_rank`, step 0, when no
    /// context is entered — e.g. storage calls outside any workflow.
    pub fn span_in_context(&self, name: impl Into<String>, fallback_rank: usize) -> SpanGuard {
        match current_context() {
            Some(ctx) => self.span_under(name, ctx.rank(), ctx.step(), ctx),
            None => self.span(name, fallback_rank, 0),
        }
    }
}

impl SpanGuard {
    /// Unique id of this span.
    pub fn id(&self) -> u64 {
        self.rec.id
    }

    /// A copyable handle other threads/calls can parent spans under.
    pub fn context(&self) -> SpanContext {
        SpanContext { id: Some(self.rec.id), rank: self.rec.rank, step: self.rec.step }
    }

    /// Push this span onto the thread-local context stack so nested code
    /// (e.g. instrumented storage backends) attaches under it without
    /// explicit plumbing.
    pub fn enter(&self) -> EnterGuard {
        enter_context(self.context())
    }

    /// Start a child span on the same rank/step.
    pub fn child(&self, name: impl Into<String>) -> SpanGuard {
        self.sink.span_under(name, self.rec.rank, self.rec.step, self.context())
    }

    /// Attach an I/O size to the eventual record.
    pub fn bytes(mut self, n: u64) -> SpanGuard {
        self.rec.io_bytes = n;
        self
    }

    /// Attach (or accumulate) I/O bytes on a guard held by reference.
    pub fn add_bytes(&mut self, n: u64) {
        self.rec.io_bytes += n;
    }

    /// Attach a file path to the eventual record.
    pub fn path(mut self, p: impl Into<String>) -> SpanGuard {
        self.rec.path = Some(p.into());
        self
    }

    /// Attach an attribute (builder form).
    pub fn attr(mut self, key: impl Into<String>, value: impl Into<String>) -> SpanGuard {
        self.rec.attrs.insert(key.into(), value.into());
        self
    }

    /// Attach an attribute on a guard held by reference.
    pub fn set_attr(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.rec.attrs.insert(key.into(), value.into());
    }

    /// Record a point-in-time event inside this span.
    pub fn event(&mut self, name: impl Into<String>) {
        self.rec.events.push(SpanEvent { name: name.into(), at_us: now_us() });
    }

    /// Exclude this span from duration-summing aggregations (builder form);
    /// use for roots and per-item detail spans whose time is already covered
    /// by a counted phase span.
    pub fn uncounted(mut self) -> SpanGuard {
        self.rec.counted = false;
        self
    }

    /// Re-stamp the step, e.g. once a load learns the real step from the
    /// checkpoint metadata. Does not retroactively re-stamp children.
    pub fn set_step(&mut self, step: u64) {
        self.rec.step = step;
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.rec.duration = self.start.elapsed();
        self.sink.emit(std::mem::take(&mut self.rec));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricsHub;

    #[test]
    fn span_parentage_and_fields() {
        let hub = MetricsHub::new();
        let sink = hub.sink();
        {
            let mut root = sink.span("save", 2, 7).uncounted().attr("backend", "mem");
            root.event("started");
            {
                let _child = root.child("save/upload").bytes(4096).path("f.bin");
            }
        }
        let spans = hub.spans();
        assert_eq!(spans.len(), 2);
        let root = spans.iter().find(|s| s.name == "save").unwrap();
        let child = spans.iter().find(|s| s.name == "save/upload").unwrap();
        assert_eq!(root.parent, None);
        assert!(!root.counted);
        assert_eq!(root.attrs["backend"], "mem");
        assert_eq!(root.events.len(), 1);
        assert_eq!(child.parent, Some(root.id));
        assert_eq!((child.rank, child.step), (2, 7));
        assert_eq!(child.io_bytes, 4096);
        assert_eq!(child.path.as_deref(), Some("f.bin"));
        assert!(child.counted);
        assert!(child.start_us >= root.start_us);
    }

    #[test]
    fn context_stack_parents_nested_spans() {
        let hub = MetricsHub::new();
        let sink = hub.sink();
        {
            let phase = sink.span("save/upload", 1, 5);
            let _e = phase.enter();
            let _io = sink.span_in_context("storage/disk/write", 99);
        }
        // Stack unwound: a fresh span falls back to the given rank.
        {
            let _orphan = sink.span_in_context("storage/disk/read", 3);
        }
        let spans = hub.spans();
        let phase = spans.iter().find(|s| s.name == "save/upload").unwrap();
        let io = spans.iter().find(|s| s.name == "storage/disk/write").unwrap();
        let orphan = spans.iter().find(|s| s.name == "storage/disk/read").unwrap();
        assert_eq!(io.parent, Some(phase.id));
        assert_eq!((io.rank, io.step), (1, 5));
        assert_eq!(orphan.parent, None);
        assert_eq!((orphan.rank, orphan.step), (3, 0));
    }

    #[test]
    fn enter_context_carries_parent_across_threads() {
        let hub = MetricsHub::new();
        let sink = hub.sink();
        let phase = sink.span("save/loader", 0, 9);
        let ctx = phase.context();
        let worker_sink = sink.clone();
        std::thread::spawn(move || {
            let _e = enter_context(ctx);
            let _io = worker_sink.span_in_context("storage/disk/write", 0);
        })
        .join()
        .unwrap();
        drop(phase);
        let spans = hub.spans();
        let phase = spans.iter().find(|s| s.name == "save/loader").unwrap();
        let io = spans.iter().find(|s| s.name == "storage/disk/write").unwrap();
        assert_eq!(io.parent, Some(phase.id));
        assert_eq!(io.step, 9);
    }

    #[test]
    fn set_step_restamps() {
        let hub = MetricsHub::new();
        let sink = hub.sink();
        {
            let mut root = sink.span("load", 0, 0);
            root.set_step(42);
        }
        assert_eq!(hub.spans()[0].step, 42);
    }
}
