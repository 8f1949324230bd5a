//! Span collection: the sinks producers emit into and the hub that stores
//! what arrives over the background channel.

use crate::registry::{Labels, MetricsRegistry};
use crate::span::SpanRecord;
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[derive(Clone)]
enum SinkInner {
    /// Channel into one hub (or into nowhere, for disabled sinks).
    Chan(Sender<SpanRecord>),
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
    /// disabled). Spans are dropped when the paired receiver is gone.
    pub fn disabled() -> MetricsSink {
        let (tx, _rx) = unbounded();
        MetricsSink { inner: SinkInner::Chan(tx), dropped: Arc::new(AtomicU64::new(0)) }
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
            SinkInner::Chan(tx) => {
                if tx.try_send(span).is_err() {
                    self.dropped.fetch_add(1, Ordering::Relaxed);
                }
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

/// Consumer side: drains the channel and holds the spans until they are
/// taken. Aggregate queries over what it holds are the free functions of
/// [`crate::analysis`] applied to [`MetricsHub::spans`].
pub struct MetricsHub {
    tx: Sender<SpanRecord>,
    rx: Receiver<SpanRecord>,
    store: Mutex<Vec<SpanRecord>>,
    dropped: Arc<AtomicU64>,
    /// Channel capacity of a bounded hub; also what [`MetricsHub::take_where`]
    /// lets stay behind.
    capacity: usize,
}

impl Default for MetricsHub {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsHub {
    /// Create a hub with its own unbounded channel.
    pub fn new() -> MetricsHub {
        Self::over(unbounded(), usize::MAX)
    }

    /// Create a hub whose channel holds at most `capacity` undrained spans.
    /// Producers never block: overflowing spans are dropped and counted in
    /// [`MetricsHub::dropped_records`], bounding memory on runs that never
    /// drain.
    pub fn bounded(capacity: usize) -> MetricsHub {
        Self::over(bounded(capacity), capacity)
    }

    fn over((tx, rx): (Sender<SpanRecord>, Receiver<SpanRecord>), capacity: usize) -> MetricsHub {
        let dropped = Arc::new(AtomicU64::new(0));
        MetricsHub { tx, rx, store: Mutex::new(Vec::new()), dropped, capacity }
    }

    /// Producer handle for worker threads.
    pub fn sink(&self) -> MetricsSink {
        MetricsSink { inner: SinkInner::Chan(self.tx.clone()), dropped: self.dropped.clone() }
    }

    /// Spans dropped by this hub's sinks (bounded channel full, or the hub
    /// already gone) since the last [`MetricsHub::take_dropped`]. Non-zero
    /// means the collected data is incomplete.
    pub fn dropped_records(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Return the drop count and reset it to zero: each drop is reported by
    /// exactly one caller, so a per-step artifact or a pushed frame carries
    /// the drops of its own interval, not the run's running total.
    pub fn take_dropped(&self) -> u64 {
        self.dropped.swap(0, Ordering::Relaxed)
    }

    /// Pull everything pending off the channel into the store.
    fn drain(&self) -> parking_lot::MutexGuard<'_, Vec<SpanRecord>> {
        let mut store = self.store.lock();
        while let Ok(span) = self.rx.try_recv() {
            store.push(span);
        }
        store
    }

    /// Drain the channel, then move everything collected out of the hub,
    /// leaving it empty. The batching primitive behind
    /// [`crate::push::TelemetryPump`]: each call yields exactly the spans
    /// that arrived since the previous one.
    pub fn take(&self) -> Vec<SpanRecord> {
        std::mem::take(&mut *self.drain())
    }

    /// Drain the channel, then move out of the hub the spans whose *root*
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
        let all = std::mem::take(&mut *store);
        let roots = crate::span::root_of_each(&all);
        let take: Vec<bool> = roots.iter().map(|&r| root(&all[r])).collect();
        let (mut taken, mut kept) = (Vec::new(), Vec::new());
        for (span, take) in all.into_iter().zip(take) {
            if take { &mut taken } else { &mut kept }.push(span);
        }
        let excess = kept.len().saturating_sub(self.capacity);
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
    fn take_moves_spans_out_exactly_once() {
        let hub = MetricsHub::new();
        let sink = hub.sink();
        drop(sink.span("p", 0, 1));
        drop(sink.span("save", 0, 1).uncounted());
        assert_eq!(hub.take().len(), 2);
        assert!(hub.take().is_empty());
        // New spans after a take are picked up by the next take.
        drop(sink.span("q", 0, 2));
        assert_eq!(hub.take().len(), 1);
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
