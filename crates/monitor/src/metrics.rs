//! Span collection: the sinks producers emit into and the hub that stores
//! what they push onto its queue.

use crate::registry::{Labels, MetricsRegistry};
use crate::span::SpanRecord;
use crate::sync::lock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Weak};

#[derive(Clone)]
enum SinkInner {
    /// The queue of one hub (or of none, for disabled sinks). Weak, so a
    /// sink does not keep a dropped hub's queue alive.
    Hub(Weak<Queue>),
    /// Duplicate every span into several sinks (user hub + private
    /// telemetry hub).
    Fanout(Arc<Vec<MetricsSink>>),
    /// Fold every span straight into a live [`MetricsRegistry`] under a
    /// fixed label set (no buffering, no drain step).
    Fold(Arc<FoldTarget>),
}

struct FoldTarget {
    registry: Arc<MetricsRegistry>,
    labels: Labels,
}

/// Spans emitted into a hub and not yet moved into its store.
struct Queue {
    pending: Mutex<Vec<SpanRecord>>,
    /// Most spans `pending` holds (an emit beyond it is dropped); also what
    /// [`MetricsHub::take_where`] lets stay behind in the store.
    capacity: usize,
}

/// Cloneable producer handle. Cheap enough to pass to every worker thread.
/// Spans are started with [`MetricsSink::span`] and friends (see
/// [`crate::span`]) and emitted when their guard drops.
#[derive(Clone)]
pub struct MetricsSink {
    inner: SinkInner,
    dropped: Arc<AtomicU64>,
}

impl MetricsSink {
    /// A sink whose spans go nowhere (for code paths where monitoring is
    /// disabled): it reaches no hub, so every span is dropped.
    pub fn disabled() -> MetricsSink {
        MetricsSink { inner: SinkInner::Hub(Weak::new()), dropped: Arc::new(AtomicU64::new(0)) }
    }

    /// A sink duplicating every span into each of `sinks` (e.g. the user's
    /// hub plus the checkpointer's private telemetry hub).
    pub fn fanout(sinks: Vec<MetricsSink>) -> MetricsSink {
        MetricsSink {
            inner: SinkInner::Fanout(Arc::new(sinks)),
            dropped: Arc::new(AtomicU64::new(0)),
        }
    }

    /// A sink folding every span directly into `registry` under `labels`
    /// (live time-series view; see [`MetricsRegistry::fold`]).
    pub fn folding(registry: Arc<MetricsRegistry>, labels: Labels) -> MetricsSink {
        MetricsSink {
            inner: SinkInner::Fold(Arc::new(FoldTarget { registry, labels })),
            dropped: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Emit a completed span. Never blocks: on a full bounded hub (or a hub
    /// that is gone) the span is dropped and counted in
    /// [`MetricsHub::dropped_records`].
    pub fn emit(&self, span: SpanRecord) {
        match &self.inner {
            SinkInner::Hub(queue) => {
                if let Some(q) = queue.upgrade() {
                    let mut pending = lock(&q.pending);
                    if pending.len() < q.capacity {
                        return pending.push(span);
                    }
                }
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
            SinkInner::Fanout(sinks) => {
                for sink in sinks.iter() {
                    sink.emit(span.clone());
                }
            }
            SinkInner::Fold(target) => target.registry.fold(&span, &target.labels),
        }
    }
}

/// Consumer side: drains its queue and holds the spans until they are
/// taken. Aggregate queries over what it holds are the free functions of
/// [`crate::analysis`] applied to [`MetricsHub::spans`].
pub struct MetricsHub {
    queue: Arc<Queue>,
    store: Mutex<Vec<SpanRecord>>,
    dropped: Arc<AtomicU64>,
}

impl Default for MetricsHub {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsHub {
    /// Create a hub with an unbounded queue.
    pub fn new() -> MetricsHub {
        Self::bounded(usize::MAX)
    }

    /// Create a hub whose queue holds at most `capacity` undrained spans.
    /// Producers never block: overflowing spans are dropped and counted in
    /// [`MetricsHub::dropped_records`], bounding memory on runs that never
    /// drain.
    pub fn bounded(capacity: usize) -> MetricsHub {
        MetricsHub {
            queue: Arc::new(Queue { pending: Mutex::new(Vec::new()), capacity }),
            store: Mutex::new(Vec::new()),
            dropped: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Producer handle for worker threads.
    pub fn sink(&self) -> MetricsSink {
        MetricsSink {
            inner: SinkInner::Hub(Arc::downgrade(&self.queue)),
            dropped: self.dropped.clone(),
        }
    }

    /// Spans dropped by this hub's sinks (bounded queue full, or the hub
    /// already gone) since the last [`MetricsHub::take_dropped`]. Non-zero
    /// means the collected data is incomplete.
    pub fn dropped_records(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Return the drop count and reset it to zero: each drop is reported by
    /// exactly one caller, so a per-step artifact carries the drops of its
    /// own interval, not the run's running total.
    pub fn take_dropped(&self) -> u64 {
        self.dropped.swap(0, Ordering::Relaxed)
    }

    /// Move everything pending off the queue into the store, oldest first.
    fn drain(&self) -> MutexGuard<'_, Vec<SpanRecord>> {
        let mut store = lock(&self.store);
        store.append(&mut lock(&self.queue.pending));
        store
    }

    /// Drain the queue, then move out of the hub the spans whose *root*
    /// `root` accepts, leaving the rest for whoever they belong to (an
    /// operation still in flight on the same handle). A span's root is its
    /// topmost ancestor the hub holds, resolved once per span. This is how a
    /// per-step artifact is cut: what it takes is gone, so a long-lived hub
    /// does not grow with every step.
    ///
    /// What no cut ever claims (a failed operation's spans, storage calls
    /// made outside any operation) would still pile up, so on a bounded hub
    /// at most `capacity` spans stay behind; the oldest beyond that are
    /// dropped and counted in [`MetricsHub::dropped_records`].
    pub fn take_where(&self, root: impl Fn(&SpanRecord) -> bool) -> Vec<SpanRecord> {
        let mut store = self.drain();
        // Decide every span before moving any, so a predicate that panics
        // leaves the store as it was.
        let roots = crate::span::root_of_each(&store);
        let take: Vec<bool> = roots.iter().map(|&r| root(&store[r])).collect();
        let (mut taken, mut kept) = (Vec::new(), Vec::new());
        for (span, take) in std::mem::take(&mut *store).into_iter().zip(take) {
            if take { &mut taken } else { &mut kept }.push(span);
        }
        let excess = kept.len().saturating_sub(self.queue.capacity);
        kept.drain(..excess);
        self.dropped.fetch_add(excess as u64, Ordering::Relaxed);
        *store = kept;
        taken
    }

    /// Snapshot of all spans collected so far.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.drain().clone()
    }

    /// Discard everything collected so far.
    pub fn clear(&self) {
        self.drain().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{breakdown_for_rank, slow_ios, total_by_rank};
    use std::time::Duration;

    #[test]
    fn disabled_sink_drops_spans() {
        let sink = MetricsSink::disabled();
        let _s = sink.span("x", 0, 0); // must not panic on drop
    }

    #[test]
    fn concurrent_producers() {
        let hub = MetricsHub::new();
        let mut handles = Vec::new();
        for rank in 0..8 {
            let sink = hub.sink();
            handles.push(std::thread::spawn(move || {
                for step in 0..100u64 {
                    let _s = sink.span("p", rank, step);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(hub.spans().len(), 800);
    }

    #[test]
    fn counted_spans_feed_aggregations_once() {
        let hub = MetricsHub::new();
        let sink = hub.sink();
        {
            let root = sink.span("save", 0, 1).uncounted();
            let phase = root.child("save/upload");
            {
                let _detail = phase.child("save/upload-file").uncounted();
            }
        }
        // All three spans are retained in full, but only the counted phase
        // span contributes to the heat map / breakdown.
        let spans = hub.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(total_by_rank(&spans, "save/").len(), 1);
        let breakdown = breakdown_for_rank(&spans, 0);
        assert_eq!(breakdown.len(), 1);
        assert!(breakdown.contains_key("save/upload"));
    }

    #[test]
    fn uncounted_spans_still_trip_slow_io_alerts() {
        let hub = MetricsHub::new();
        let sink = hub.sink();
        {
            let mut s = sink.span("storage/disk/write", 0, 1).uncounted().path("slow.bin");
            std::thread::sleep(Duration::from_millis(10));
            s.add_bytes(10); // ~1 KB/s
        }
        let spans = hub.spans();
        let slow = slow_ios(&spans, 1024.0 * 1024.0);
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].path.as_deref(), Some("slow.bin"));
    }

    #[test]
    fn bounded_hub_counts_dropped_spans_once() {
        let hub = MetricsHub::bounded(2);
        let sink = hub.sink();
        for step in 0..5u64 {
            drop(sink.span("p", 0, step));
        }
        assert_eq!(hub.spans().len(), 2);
        assert_eq!(hub.dropped_records(), 3);
        // Draining frees capacity for later spans.
        drop(sink.span("p", 0, 9));
        assert_eq!(hub.spans().len(), 3);
        assert_eq!(hub.dropped_records(), 3);
        // The return-and-reset read hands each drop to exactly one caller.
        assert_eq!(hub.take_dropped(), 3);
        assert_eq!(hub.take_dropped(), 0);
        assert_eq!(hub.dropped_records(), 0);
    }

    #[test]
    fn take_where_cuts_whole_trees_and_caps_what_stays() {
        let hub = MetricsHub::bounded(4);
        let sink = hub.sink();
        let open_phase = sink.span("save/upload", 0, 2); // still in flight
        {
            let root = sink.span("load", 0, 1).uncounted();
            // A child stamped before the load knew its step follows its root.
            let _early = sink.span_under("load/metadata", 0, 0, root.context());
            let _late = open_phase.child("save/upload-file");
        }
        let cut = hub.take_where(|root| root.name == "load" && root.step == 1);
        let mut names: Vec<&str> = cut.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        assert_eq!(names, ["load", "load/metadata"]);
        // The in-flight save's span stays for its own cut.
        assert_eq!(hub.spans().len(), 1);
        // What nothing claims is capped at the hub's capacity, oldest first.
        for _ in 0..3 {
            for step in 10..14 {
                drop(sink.span("orphan", 0, step));
            }
            hub.take_where(|_| false);
        }
        assert_eq!(hub.spans().len(), 4);
        assert_eq!(hub.dropped_records(), 9);
        assert!(hub.spans().iter().all(|s| s.name == "orphan"));
    }

    #[test]
    fn folding_sink_updates_registry_live() {
        let registry = Arc::new(MetricsRegistry::new());
        let sink = MetricsSink::folding(registry.clone(), crate::registry::labels([("job", "j1")]));
        drop(sink.span("save/upload", 2, 1).bytes(4096));
        let labels = crate::registry::labels([
            ("job", "j1"),
            ("op", "save"),
            ("phase", "save/upload"),
            ("rank", "2"),
        ]);
        assert_eq!(registry.value("phase_io_bytes_total", &labels), Some(4096.0));
        assert!(registry.histogram("phase_ms", &labels).is_some());
    }

    #[test]
    fn fanout_duplicates_into_all_hubs() {
        let user = MetricsHub::new();
        let private = MetricsHub::new();
        let sink = MetricsSink::fanout(vec![user.sink(), private.sink()]);
        drop(sink.span("save/plan", 0, 1));
        drop(sink.span("save", 0, 1).uncounted());
        assert_eq!(user.spans().len(), 2);
        assert_eq!(private.spans(), user.spans());
    }
}
