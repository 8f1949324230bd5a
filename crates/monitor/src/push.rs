//! Batched telemetry push: spans flow from a rank's [`MetricsSink`] into a
//! bounded hub, and a background pump drains them into [`TelemetryFrame`]s
//! handed to a [`FrameSink`] (in-process coordinator or a wire client).
//!
//! The critical-path guarantee: producers call `sink.emit(..)` which is a
//! bounded `try_send` — **never** a blocking push. Overflow is dropped and
//! counted; each frame carries the drop delta so the receiving registry can
//! surface `telemetry_dropped_total` truthfully. The pump thread is the only
//! place that touches the (possibly slow) frame sink.

use crate::metrics::{MetricsHub, MetricsSink};
use crate::span::SpanRecord;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// One batched telemetry push: everything a rank collected since the last
/// flush, plus lineage (job, rank, frame sequence) so the receiver can
/// merge frames from many ranks and detect gaps.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct TelemetryFrame {
    /// Producing job.
    pub job: String,
    /// Producing rank.
    pub rank: usize,
    /// Per-pump frame sequence number (gaps = lost frames).
    pub seq: u64,
    /// Spans (counted and detail) collected since the previous frame.
    #[serde(default)]
    pub spans: Vec<SpanRecord>,
    /// Spans dropped at the bounded hub since the previous frame.
    #[serde(default)]
    pub dropped: u64,
}

impl TelemetryFrame {
    /// Whether the frame carries neither spans nor a drop report.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.dropped == 0
    }
}

/// Where frames go: the coordinator service in-process, a TCP client, or a
/// test collector. `push_frame` returns `false` when the frame was lost
/// (the pump counts it and keeps going — telemetry loss never fails a job).
pub trait FrameSink: Send + Sync {
    /// Deliver one frame. Runs on the pump thread, never on a save path.
    fn push_frame(&self, frame: TelemetryFrame) -> bool;
}

/// Shared frame-sink handle.
pub type DynFrameSink = Arc<dyn FrameSink>;

/// A [`FrameSink`] that collects frames in memory (tests, tooling).
#[derive(Default)]
pub struct CollectingFrameSink {
    frames: Mutex<Vec<TelemetryFrame>>,
}

impl CollectingFrameSink {
    /// An empty collector.
    pub fn new() -> CollectingFrameSink {
        CollectingFrameSink::default()
    }

    /// Everything pushed so far.
    pub fn frames(&self) -> Vec<TelemetryFrame> {
        self.frames.lock().unwrap().clone()
    }
}

impl FrameSink for CollectingFrameSink {
    fn push_frame(&self, frame: TelemetryFrame) -> bool {
        self.frames.lock().unwrap().push(frame);
        true
    }
}

/// Pump tuning.
#[derive(Debug, Clone, Copy)]
pub struct PumpConfig {
    /// Bounded hub capacity (events buffered between flushes).
    pub capacity: usize,
    /// How often the background thread flushes.
    pub flush_interval: Duration,
}

impl Default for PumpConfig {
    fn default() -> PumpConfig {
        PumpConfig { capacity: 1 << 14, flush_interval: Duration::from_millis(25) }
    }
}

struct PumpInner {
    hub: MetricsHub,
    out: DynFrameSink,
    job: String,
    rank: usize,
    seq: AtomicU64,
    /// Frames the sink refused/lost.
    push_failures: AtomicU64,
    /// Serializes flushes so frame seq order matches send order.
    flush_lock: Mutex<()>,
}

impl PumpInner {
    /// Drain the hub and push one frame; returns whether a frame was sent.
    fn flush(&self) -> bool {
        let _guard = self.flush_lock.lock().unwrap();
        let frame = TelemetryFrame {
            job: self.job.clone(),
            rank: self.rank,
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            spans: self.hub.take(),
            dropped: self.hub.take_dropped(),
        };
        if frame.is_empty() {
            // Nothing to say; give the seq back so gaps mean real loss.
            self.seq.fetch_sub(1, Ordering::Relaxed);
            return false;
        }
        if !self.out.push_frame(frame) {
            self.push_failures.fetch_add(1, Ordering::Relaxed);
        }
        true
    }
}

/// Background flusher turning one rank's telemetry stream into batched
/// frames. Producers get a cheap [`MetricsSink`] ([`TelemetryPump::sink`]);
/// the pump thread periodically drains and pushes. Dropping the pump stops
/// the thread after a final flush.
pub struct TelemetryPump {
    inner: Arc<PumpInner>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl TelemetryPump {
    /// Start a pump for `(job, rank)` delivering to `out`.
    pub fn new(
        job: impl Into<String>,
        rank: usize,
        out: DynFrameSink,
        cfg: PumpConfig,
    ) -> TelemetryPump {
        let inner = Arc::new(PumpInner {
            hub: MetricsHub::bounded(cfg.capacity.max(1)),
            out,
            job: job.into(),
            rank,
            seq: AtomicU64::new(0),
            push_failures: AtomicU64::new(0),
            flush_lock: Mutex::new(()),
        });
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let inner = inner.clone();
            let stop = stop.clone();
            let interval = cfg.flush_interval.max(Duration::from_millis(1));
            std::thread::Builder::new()
                .name("bcp-telemetry-pump".into())
                .spawn(move || {
                    // try_recv + sleep cadence (the vendored channel has no
                    // recv_timeout); the interval bounds staleness. Sleep in
                    // short slices so Drop never waits out a long interval.
                    let slice = interval.min(Duration::from_millis(10));
                    'outer: while !stop.load(Ordering::Acquire) {
                        let mut slept = Duration::ZERO;
                        while slept < interval {
                            if stop.load(Ordering::Acquire) {
                                break 'outer;
                            }
                            std::thread::sleep(slice);
                            slept += slice;
                        }
                        inner.flush();
                    }
                    inner.flush(); // final drain
                })
                .ok()
        };
        TelemetryPump { inner, stop, thread }
    }

    /// Producer handle: bounded, drop-not-block.
    pub fn sink(&self) -> MetricsSink {
        self.inner.hub.sink()
    }

    /// The job this pump reports for.
    pub fn job(&self) -> &str {
        &self.inner.job
    }

    /// Synchronously drain and push pending events now.
    pub fn flush(&self) {
        self.inner.flush();
    }

    /// Frames the sink lost (connection gone, receiver refused).
    pub fn push_failures(&self) -> u64 {
        self.inner.push_failures.load(Ordering::Relaxed)
    }
}

impl Drop for TelemetryPump {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        } else {
            self.inner.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_serde_round_trip() {
        let frame = TelemetryFrame {
            job: "j".into(),
            rank: 2,
            seq: 7,
            spans: vec![crate::SpanRecord {
                name: "save/upload".into(),
                rank: 2,
                step: 1,
                duration: Duration::from_millis(5),
                io_bytes: 64,
                counted: true,
                ..Default::default()
            }],
            dropped: 3,
        };
        let json = serde_json::to_string(&frame).unwrap();
        let back: TelemetryFrame = serde_json::from_str(&json).unwrap();
        assert_eq!(back, frame);
        assert!(!back.is_empty());
    }

    #[test]
    fn pump_batches_events_into_frames() {
        let out = Arc::new(CollectingFrameSink::new());
        let pump = TelemetryPump::new(
            "job-a",
            1,
            out.clone(),
            PumpConfig { capacity: 64, flush_interval: Duration::from_millis(5) },
        );
        let sink = pump.sink();
        drop(sink.span("save/plan", 1, 3));
        drop(sink.span("save", 1, 3).uncounted());
        pump.flush();
        let frames = out.frames();
        assert!(!frames.is_empty());
        let spans: usize = frames.iter().map(|f| f.spans.len()).sum();
        assert_eq!(spans, 2);
        assert!(frames.iter().all(|f| f.job == "job-a" && f.rank == 1));
        // Seqs are consecutive from 0 (empty flushes do not burn one).
        for (i, f) in frames.iter().enumerate() {
            assert_eq!(f.seq, i as u64);
        }
        drop(pump);
    }

    #[test]
    fn drop_delta_rides_the_frame() {
        let out = Arc::new(CollectingFrameSink::new());
        // Capacity 2: most of the burst drops.
        let pump = TelemetryPump::new(
            "job-b",
            0,
            out.clone(),
            // Long interval: the test drives flushes explicitly.
            PumpConfig { capacity: 2, flush_interval: Duration::from_secs(60) },
        );
        let sink = pump.sink();
        let burst = || (0..10u64).for_each(|step| drop(sink.span("p", 0, step)));
        burst();
        pump.flush();
        assert_eq!(out.frames().last().unwrap().dropped, 8, "10 spans into 2 slots");
        // Nothing new: a second flush sends nothing.
        let before = out.frames().len();
        pump.flush();
        assert_eq!(out.frames().len(), before);
        // Each frame reports its own interval: the deltas sum to the total.
        burst();
        pump.flush();
        let per_frame: Vec<u64> = out.frames().iter().map(|f| f.dropped).collect();
        assert_eq!(per_frame, [8, 8]);
        drop(pump);
    }

    struct RefusingSink;
    impl FrameSink for RefusingSink {
        fn push_frame(&self, _frame: TelemetryFrame) -> bool {
            false
        }
    }

    #[test]
    fn sink_failures_are_counted_not_fatal() {
        let pump = TelemetryPump::new(
            "job-c",
            0,
            Arc::new(RefusingSink),
            PumpConfig { capacity: 16, flush_interval: Duration::from_secs(60) },
        );
        drop(pump.sink().span("p", 0, 0));
        pump.flush();
        assert_eq!(pump.push_failures(), 1);
    }

    #[test]
    fn final_flush_on_drop() {
        let out = Arc::new(CollectingFrameSink::new());
        let pump = TelemetryPump::new(
            "job-d",
            0,
            out.clone(),
            PumpConfig { capacity: 16, flush_interval: Duration::from_secs(60) },
        );
        drop(pump.sink().span("p", 0, 1));
        drop(pump); // must not hang; must flush the pending span
        let spans: usize = out.frames().iter().map(|f| f.spans.len()).sum();
        assert_eq!(spans, 1);
    }
}
