//! Metric collection: scoped timers and spans flowing over a background
//! channel.

use crate::registry::{Labels, MetricsRegistry};
use crate::span::SpanRecord;
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One collected measurement: "the duration and I/O size of each operation,
/// along with relevant metadata such as each worker's rank, the file path,
/// and the current step".
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricRecord {
    /// Phase/operation name, e.g. `"save/upload"`.
    pub name: String,
    /// Worker rank that produced the record.
    pub rank: usize,
    /// Global training step at the time of the operation.
    pub step: u64,
    /// Wall-clock duration of the operation.
    pub duration: Duration,
    /// Bytes moved, when the operation is an I/O.
    pub io_bytes: u64,
    /// File path involved, when applicable.
    pub path: Option<String>,
}

impl MetricRecord {
    /// Effective throughput in bytes/second (None when no I/O or no time).
    pub fn throughput(&self) -> Option<f64> {
        if self.io_bytes == 0 || self.duration.is_zero() {
            None
        } else {
            Some(self.io_bytes as f64 / self.duration.as_secs_f64())
        }
    }

    /// Flatten a span into the record form the aggregations consume.
    pub fn from_span(span: &SpanRecord) -> MetricRecord {
        MetricRecord {
            name: span.name.clone(),
            rank: span.rank,
            step: span.step,
            duration: span.duration,
            io_bytes: span.io_bytes,
            path: span.path.clone(),
        }
    }
}

/// What flows over the channel: flat records (legacy timers) and spans.
#[derive(Debug, Clone)]
pub enum TelemetryEvent {
    /// A flat metric record from [`MetricsSink::record`] / [`TimerGuard`].
    Metric(MetricRecord),
    /// A completed span from a [`crate::SpanGuard`].
    Span(SpanRecord),
}

#[derive(Clone)]
enum SinkInner {
    /// Channel into one hub (or into nowhere, for disabled sinks).
    Chan(Sender<TelemetryEvent>),
    /// Duplicate every event into several sinks (user hub + private
    /// telemetry hub).
    Fanout(Arc<Vec<MetricsSink>>),
    /// Fold every event straight into a live [`MetricsRegistry`] under a
    /// fixed label set (no buffering, no drain step).
    Fold(Arc<FoldTarget>),
}

struct FoldTarget {
    registry: Arc<MetricsRegistry>,
    labels: Labels,
}

/// Cloneable producer handle. Cheap enough to pass to every worker thread.
#[derive(Clone)]
pub struct MetricsSink {
    inner: SinkInner,
    dropped: Arc<AtomicU64>,
}

impl MetricsSink {
    /// A sink whose records go nowhere (for code paths where monitoring is
    /// disabled). Records are dropped when the paired receiver is gone.
    pub fn disabled() -> MetricsSink {
        let (tx, _rx) = unbounded();
        MetricsSink { inner: SinkInner::Chan(tx), dropped: Arc::new(AtomicU64::new(0)) }
    }

    /// A sink duplicating every event into each of `sinks` (e.g. the user's
    /// hub plus the checkpointer's private telemetry hub).
    pub fn fanout(sinks: Vec<MetricsSink>) -> MetricsSink {
        MetricsSink {
            inner: SinkInner::Fanout(Arc::new(sinks)),
            dropped: Arc::new(AtomicU64::new(0)),
        }
    }

    /// A sink folding every event directly into `registry` under `labels`
    /// (live time-series view; see [`MetricsRegistry::fold_event`]).
    pub fn folding(registry: Arc<MetricsRegistry>, labels: Labels) -> MetricsSink {
        MetricsSink {
            inner: SinkInner::Fold(Arc::new(FoldTarget { registry, labels })),
            dropped: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Emit an event. Never blocks: on a full bounded hub (or a hub that is
    /// gone) the event is dropped and counted in
    /// [`MetricsHub::dropped_records`].
    pub fn emit(&self, ev: TelemetryEvent) {
        match &self.inner {
            SinkInner::Chan(tx) => {
                if tx.try_send(ev).is_err() {
                    self.dropped.fetch_add(1, Ordering::Relaxed);
                }
            }
            SinkInner::Fanout(sinks) => {
                for sink in sinks.iter() {
                    sink.emit(ev.clone());
                }
            }
            SinkInner::Fold(target) => {
                target.registry.fold_event(&ev, &target.labels);
            }
        }
    }

    /// Emit a pre-built record.
    pub fn record(&self, rec: MetricRecord) {
        self.emit(TelemetryEvent::Metric(rec));
    }

    /// Start a scoped timer; the record is emitted when the guard drops.
    ///
    /// ```
    /// # let hub = bcp_monitor::MetricsHub::new();
    /// # let sink = hub.sink();
    /// {
    ///     let _t = sink.timer("save/serialize", 0, 100).bytes(1 << 20);
    ///     // ... do the work ...
    /// } // record emitted here
    /// ```
    pub fn timer(&self, name: impl Into<String>, rank: usize, step: u64) -> TimerGuard {
        TimerGuard {
            sink: self.clone(),
            name: name.into(),
            rank,
            step,
            io_bytes: 0,
            path: None,
            start: Instant::now(),
        }
    }
}

/// RAII guard emitting a [`MetricRecord`] on drop.
pub struct TimerGuard {
    sink: MetricsSink,
    name: String,
    rank: usize,
    step: u64,
    io_bytes: u64,
    path: Option<String>,
    start: Instant,
}

impl TimerGuard {
    /// Attach an I/O size to the eventual record.
    pub fn bytes(mut self, n: u64) -> TimerGuard {
        self.io_bytes = n;
        self
    }

    /// Attach (or accumulate) I/O bytes on a guard held by reference.
    pub fn add_bytes(&mut self, n: u64) {
        self.io_bytes += n;
    }

    /// Attach a file path to the eventual record.
    pub fn path(mut self, p: impl Into<String>) -> TimerGuard {
        self.path = Some(p.into());
        self
    }
}

impl Drop for TimerGuard {
    fn drop(&mut self) {
        self.sink.record(MetricRecord {
            name: std::mem::take(&mut self.name),
            rank: self.rank,
            step: self.step,
            duration: self.start.elapsed(),
            io_bytes: self.io_bytes,
            path: self.path.take(),
        });
    }
}

/// Consumer side: drains the channel and serves aggregate queries.
pub struct MetricsHub {
    tx: Sender<TelemetryEvent>,
    rx: Receiver<TelemetryEvent>,
    flat: Mutex<Vec<MetricRecord>>,
    span_store: Mutex<Vec<SpanRecord>>,
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
        let (tx, rx) = unbounded();
        MetricsHub {
            tx,
            rx,
            flat: Mutex::new(Vec::new()),
            span_store: Mutex::new(Vec::new()),
            dropped: Arc::new(AtomicU64::new(0)),
            capacity: usize::MAX,
        }
    }

    /// Create a hub whose channel holds at most `capacity` undrained events.
    /// Producers never block: overflowing events are dropped and counted in
    /// [`MetricsHub::dropped_records`], bounding memory on runs that never
    /// drain.
    pub fn bounded(capacity: usize) -> MetricsHub {
        let (tx, rx) = bounded(capacity);
        MetricsHub {
            tx,
            rx,
            flat: Mutex::new(Vec::new()),
            span_store: Mutex::new(Vec::new()),
            dropped: Arc::new(AtomicU64::new(0)),
            capacity,
        }
    }

    /// Producer handle for worker threads.
    pub fn sink(&self) -> MetricsSink {
        MetricsSink { inner: SinkInner::Chan(self.tx.clone()), dropped: self.dropped.clone() }
    }

    /// Events dropped by this hub's sinks (bounded channel full, or the hub
    /// already gone). Non-zero means the collected data is incomplete.
    pub fn dropped_records(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Pull everything pending off the channel into the store.
    pub fn drain(&self) {
        let mut flat = self.flat.lock();
        let mut spans = self.span_store.lock();
        while let Ok(ev) = self.rx.try_recv() {
            match ev {
                TelemetryEvent::Metric(rec) => flat.push(rec),
                TelemetryEvent::Span(span) => spans.push(span),
            }
        }
    }

    /// Drain the channel, then move everything collected out of the hub
    /// (flat records and spans), leaving it empty. The batching primitive
    /// behind [`crate::push::TelemetryPump`]: each call yields exactly the
    /// events that arrived since the previous one.
    pub fn take(&self) -> (Vec<MetricRecord>, Vec<SpanRecord>) {
        let mut flat = self.flat.lock();
        let mut spans = self.span_store.lock();
        while let Ok(ev) = self.rx.try_recv() {
            match ev {
                TelemetryEvent::Metric(rec) => flat.push(rec),
                TelemetryEvent::Span(span) => spans.push(span),
            }
        }
        (std::mem::take(&mut *flat), std::mem::take(&mut *spans))
    }

    /// Drain the channel, then move out of the hub the flat records `record`
    /// accepts and the spans whose *root* `root` accepts, leaving the rest
    /// for whoever they belong to (an operation still in flight on the same
    /// handle). A span's root is its topmost ancestor the hub holds,
    /// resolved once per span. This is how a per-step artifact is cut: what
    /// it takes is gone, so a long-lived hub does not grow with every step.
    ///
    /// What no cut ever claims (a failed operation's spans, storage calls
    /// made outside any operation) would still pile up, so on a bounded hub
    /// at most `capacity` records and `capacity` spans stay behind; the
    /// oldest beyond that are dropped and counted in
    /// [`MetricsHub::dropped_records`].
    pub fn take_where(
        &self,
        record: impl Fn(&MetricRecord) -> bool,
        root: impl Fn(&SpanRecord) -> bool,
    ) -> (Vec<MetricRecord>, Vec<SpanRecord>) {
        self.drain();
        let mut flat = self.flat.lock();
        let mut spans = self.span_store.lock();
        let (taken_flat, mut kept_flat): (Vec<_>, Vec<_>) =
            std::mem::take(&mut *flat).into_iter().partition(|r| record(r));
        let all = std::mem::take(&mut *spans);
        let roots = crate::span::root_of_each(&all);
        let take: Vec<bool> = roots.iter().map(|&r| root(&all[r])).collect();
        let (mut taken_spans, mut kept_spans) = (Vec::new(), Vec::new());
        for (span, take) in all.into_iter().zip(take) {
            if take { &mut taken_spans } else { &mut kept_spans }.push(span);
        }
        let excess = kept_flat.len().saturating_sub(self.capacity);
        kept_flat.drain(..excess);
        let excess_spans = kept_spans.len().saturating_sub(self.capacity);
        kept_spans.drain(..excess_spans);
        self.dropped.fetch_add((excess + excess_spans) as u64, Ordering::Relaxed);
        *flat = kept_flat;
        *spans = kept_spans;
        (taken_flat, taken_spans)
    }

    /// Snapshot of all records collected so far: flat records plus every
    /// *counted* span flattened to record form, so span-instrumented phases
    /// feed the same heat-map/breakdown queries as legacy timers.
    pub fn records(&self) -> Vec<MetricRecord> {
        self.drain();
        let mut out = self.flat.lock().clone();
        out.extend(
            self.span_store.lock().iter().filter(|s| s.counted).map(MetricRecord::from_span),
        );
        out
    }

    /// Snapshot of only the flat (timer/record) metrics, excluding spans.
    pub fn flat_records(&self) -> Vec<MetricRecord> {
        self.drain();
        self.flat.lock().clone()
    }

    /// Snapshot of all spans collected so far.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.drain();
        self.span_store.lock().clone()
    }

    /// Discard everything collected so far.
    pub fn clear(&self) {
        self.drain();
        self.flat.lock().clear();
        self.span_store.lock().clear();
    }

    /// Total duration per rank for records whose name has `prefix`.
    /// Feeds the Fig. 11 heat map ("end-to-end checkpoint saving time").
    pub fn total_by_rank(&self, prefix: &str) -> BTreeMap<usize, Duration> {
        total_by_rank_from(&self.records(), prefix)
    }

    /// Total duration per phase name for one rank (Fig. 12 breakdown).
    pub fn breakdown_for_rank(&self, rank: usize) -> BTreeMap<String, Duration> {
        breakdown_from(&self.records(), rank)
    }

    /// Records with throughput below `min_bps` — the alerting rule the paper
    /// applies on the storage-client side ("unexpectedly high latency or low
    /// bandwidth triggers alerts"). Scans flat records, counted spans, *and*
    /// uncounted detail spans (per-file uploads, per-op storage I/Os), so a
    /// single slow write is caught even when its phase total looks healthy.
    pub fn slow_ios(&self, min_bps: f64) -> Vec<MetricRecord> {
        let mut all = self.records();
        all.extend(self.spans().iter().filter(|s| !s.counted).map(MetricRecord::from_span));
        slow_ios_from(all, min_bps)
    }
}

/// Total duration per rank over `records` whose name has `prefix`.
pub fn total_by_rank_from(records: &[MetricRecord], prefix: &str) -> BTreeMap<usize, Duration> {
    let mut out = BTreeMap::new();
    for rec in records {
        if rec.name.starts_with(prefix) {
            *out.entry(rec.rank).or_insert(Duration::ZERO) += rec.duration;
        }
    }
    out
}

/// Total duration per phase name for one rank over `records`.
pub fn breakdown_from(records: &[MetricRecord], rank: usize) -> BTreeMap<String, Duration> {
    let mut out = BTreeMap::new();
    for rec in records {
        if rec.rank == rank {
            *out.entry(rec.name.clone()).or_insert(Duration::ZERO) += rec.duration;
        }
    }
    out
}

/// Records from `records` with throughput below `min_bps`.
pub fn slow_ios_from(records: Vec<MetricRecord>, min_bps: f64) -> Vec<MetricRecord> {
    records.into_iter().filter(|r| matches!(r.throughput(), Some(t) if t < min_bps)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_guard_records_on_drop() {
        let hub = MetricsHub::new();
        let sink = hub.sink();
        {
            let _t = sink.timer("phase/a", 3, 100).bytes(1024).path("f.bin");
            std::thread::sleep(Duration::from_millis(5));
        }
        let recs = hub.records();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].name, "phase/a");
        assert_eq!(recs[0].rank, 3);
        assert_eq!(recs[0].step, 100);
        assert_eq!(recs[0].io_bytes, 1024);
        assert_eq!(recs[0].path.as_deref(), Some("f.bin"));
        assert!(recs[0].duration >= Duration::from_millis(4));
    }

    #[test]
    fn aggregation_by_rank_and_phase() {
        let hub = MetricsHub::new();
        let sink = hub.sink();
        for rank in 0..4 {
            sink.record(MetricRecord {
                name: "save/upload".into(),
                rank,
                step: 1,
                duration: Duration::from_millis(10 * (rank as u64 + 1)),
                io_bytes: 100,
                path: None,
            });
            sink.record(MetricRecord {
                name: "save/d2h".into(),
                rank,
                step: 1,
                duration: Duration::from_millis(1),
                io_bytes: 0,
                path: None,
            });
        }
        let by_rank = hub.total_by_rank("save/");
        assert_eq!(by_rank[&3], Duration::from_millis(41));
        let breakdown = hub.breakdown_for_rank(0);
        assert_eq!(breakdown["save/upload"], Duration::from_millis(10));
        assert_eq!(breakdown["save/d2h"], Duration::from_millis(1));
    }

    #[test]
    fn slow_io_detection() {
        let hub = MetricsHub::new();
        let sink = hub.sink();
        sink.record(MetricRecord {
            name: "upload".into(),
            rank: 0,
            step: 0,
            duration: Duration::from_secs(1),
            io_bytes: 100, // 100 B/s: pathologically slow
            path: Some("slow.bin".into()),
        });
        sink.record(MetricRecord {
            name: "upload".into(),
            rank: 1,
            step: 0,
            duration: Duration::from_secs(1),
            io_bytes: 1 << 30, // 1 GiB/s: healthy
            path: Some("fast.bin".into()),
        });
        let slow = hub.slow_ios(1024.0 * 1024.0);
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].path.as_deref(), Some("slow.bin"));
    }

    #[test]
    fn disabled_sink_drops_records() {
        let sink = MetricsSink::disabled();
        let _t = sink.timer("x", 0, 0); // must not panic on drop
    }

    #[test]
    fn concurrent_producers() {
        let hub = MetricsHub::new();
        let mut handles = Vec::new();
        for rank in 0..8 {
            let sink = hub.sink();
            handles.push(std::thread::spawn(move || {
                for step in 0..100u64 {
                    let _t = sink.timer("p", rank, step);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(hub.records().len(), 800);
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
        // Only the counted phase span contributes to the heat map / breakdown.
        let by_rank = hub.total_by_rank("save/");
        assert_eq!(by_rank.len(), 1);
        let breakdown = hub.breakdown_for_rank(0);
        assert_eq!(breakdown.len(), 1);
        assert!(breakdown.contains_key("save/upload"));
        // But all three spans are retained in full.
        assert_eq!(hub.spans().len(), 3);
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
        let slow = hub.slow_ios(1024.0 * 1024.0);
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].path.as_deref(), Some("slow.bin"));
    }

    #[test]
    fn bounded_hub_counts_dropped_events() {
        let hub = MetricsHub::bounded(2);
        let sink = hub.sink();
        for i in 0..5u64 {
            sink.record(MetricRecord {
                name: "p".into(),
                rank: 0,
                step: i,
                duration: Duration::from_millis(1),
                io_bytes: 0,
                path: None,
            });
        }
        assert_eq!(hub.records().len(), 2);
        assert_eq!(hub.dropped_records(), 3);
        // Draining frees capacity for later events.
        sink.record(MetricRecord {
            name: "p".into(),
            rank: 0,
            step: 9,
            duration: Duration::from_millis(1),
            io_bytes: 0,
            path: None,
        });
        assert_eq!(hub.records().len(), 3);
        assert_eq!(hub.dropped_records(), 3);
    }

    #[test]
    fn take_moves_events_out_exactly_once() {
        let hub = MetricsHub::new();
        let sink = hub.sink();
        {
            let _t = sink.timer("p", 0, 1);
        }
        {
            let _s = sink.span("save", 0, 1).uncounted();
        }
        let (flat, spans) = hub.take();
        assert_eq!(flat.len(), 1);
        assert_eq!(spans.len(), 1);
        let (flat2, spans2) = hub.take();
        assert!(flat2.is_empty() && spans2.is_empty());
        // New events after a take are picked up by the next take.
        {
            let _t = sink.timer("q", 0, 2);
        }
        assert_eq!(hub.take().0.len(), 1);
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
        let (_, cut) = hub.take_where(|_| false, |root| root.name == "load" && root.step == 1);
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
            hub.take_where(|_| false, |_| false);
        }
        assert_eq!(hub.spans().len(), 4);
        assert_eq!(hub.dropped_records(), 9);
        assert!(hub.spans().iter().all(|s| s.name == "orphan"));
    }

    #[test]
    fn folding_sink_updates_registry_live() {
        let registry = Arc::new(MetricsRegistry::new());
        let sink = MetricsSink::folding(registry.clone(), crate::registry::labels([("job", "j1")]));
        {
            let _t = sink.timer("save/upload", 2, 1).bytes(4096);
        }
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
        {
            let _t = sink.timer("save/plan", 0, 1);
        }
        {
            let _s = sink.span("save", 0, 1);
        }
        assert_eq!(user.flat_records().len(), 1);
        assert_eq!(user.spans().len(), 1);
        assert_eq!(private.flat_records().len(), 1);
        assert_eq!(private.spans().len(), 1);
    }
}
