//! The coordinator's live telemetry plane: pushed frames and commit
//! reports fold into a global [`MetricsRegistry`], SLO rules are evaluated
//! on every ingest, and a bounded event ring feeds streaming subscribers.
//!
//! Drop semantics, enforced end to end:
//!
//! * producers (ranks) never block — the pump's hub is bounded, overflow
//!   is dropped and counted, and the drop delta rides each frame into
//!   `telemetry_dropped_total{job,source="client"}`;
//! * subscribers never block the plane — each gets a bounded channel,
//!   `try_send` overflow is dropped and counted in
//!   `telemetry_dropped_total{source="subscriber"}`;
//! * the ring is bounded — old events fall off; a late subscriber replays
//!   at most the retained tail.

use bcp_monitor::push::TelemetryFrame;
use bcp_monitor::registry::{labels, Labels, MetricsRegistry};
use bcp_monitor::rules::{AlertEngine, AlertEvent, AlertRule};
use bcp_monitor::MetricsSink;
use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One event in the plane's ring / subscription stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PlaneEvent {
    /// A telemetry frame arrived (summarized — the series hold the data).
    Frame {
        /// Producing job.
        job: String,
        /// Producing rank.
        rank: usize,
        /// The frame's own sequence number.
        frame_seq: u64,
        /// Spans carried.
        spans: usize,
        /// Client-side drops reported by the frame.
        dropped: u64,
    },
    /// A step committed.
    Commit {
        /// Committing job.
        job: String,
        /// Committed step.
        step: u64,
        /// Bytes persisted.
        bytes: u64,
        /// End-to-end wall time, milliseconds.
        wall_ms: u64,
    },
    /// An SLO rule fired.
    Alert {
        /// The fired alert.
        alert: AlertEvent,
    },
}

/// The standing rule set every plane starts with.
pub fn default_rules() -> Vec<AlertRule> {
    [
        // A commit's p99 wall time above 2 minutes = save stall.
        ("save_stall", "p99:save_stall_ms > 120000"),
        // Hot-tier recovery health (TierCheck's operational signal).
        ("hot_hit_rate_low", "hot_hit_rate < 0.9"),
        // Any telemetry loss anywhere is worth an alert: data undercounts.
        ("telemetry_drops", "telemetry_dropped_total > 0"),
        // Sustained admission backpressure: the fleet is over capacity.
        ("admission_backpressure", "rate:admission_backpressure_total > 1"),
        // A job went dark past its lease TTL: its scheduler share was
        // released and its client is presumed crashed or partitioned.
        ("lease_expired", "coordinator_lease_expired_total > 0"),
    ]
    .into_iter()
    .map(|(name, expr)| AlertRule::parse(name, expr).expect("default rule parses"))
    .collect()
}

/// Plane tuning.
#[derive(Clone)]
pub struct PlaneConfig {
    /// SLO rules evaluated on every ingest.
    pub rules: Vec<AlertRule>,
    /// Events retained in the replay ring.
    pub ring_capacity: usize,
    /// Per-subscriber channel bound (overflow drops, counted).
    pub subscriber_capacity: usize,
    /// Most spans one pushed frame may carry.
    pub max_frame_events: usize,
}

impl Default for PlaneConfig {
    fn default() -> PlaneConfig {
        PlaneConfig {
            rules: default_rules(),
            ring_capacity: 1024,
            subscriber_capacity: 256,
            max_frame_events: 1 << 16,
        }
    }
}

struct Subscriber {
    id: u64,
    tx: Sender<(u64, PlaneEvent)>,
}

/// A live subscription: the replayed ring tail plus a bounded channel of
/// events published after subscription. Dedup by the event sequence number
/// (an event may appear in both the replay and the channel).
pub struct PlaneSubscription {
    /// Subscriber id (pass to [`TelemetryPlane::unsubscribe`]).
    pub id: u64,
    /// Ring tail at subscribe time, sequence-ascending.
    pub replayed: Vec<(u64, PlaneEvent)>,
    /// Live events (bounded; overflow was dropped and counted).
    pub rx: Receiver<(u64, PlaneEvent)>,
}

/// The live telemetry plane.
pub struct TelemetryPlane {
    cfg: PlaneConfig,
    registry: Arc<MetricsRegistry>,
    engine: AlertEngine,
    ring: Mutex<VecDeque<(u64, PlaneEvent)>>,
    next_seq: AtomicU64,
    subscribers: Mutex<Vec<Subscriber>>,
    next_sub_id: AtomicU64,
    sub_dropped: AtomicU64,
}

impl Default for TelemetryPlane {
    fn default() -> Self {
        TelemetryPlane::new(PlaneConfig::default())
    }
}

impl TelemetryPlane {
    /// A plane with `cfg`.
    pub fn new(cfg: PlaneConfig) -> TelemetryPlane {
        let registry = Arc::new(MetricsRegistry::new());
        // The subscriber-drop series exists from the start so the standing
        // `telemetry_drops` rule (and scrapes) always see it.
        registry.add("telemetry_dropped_total", labels([("source", "subscriber")]), 0.0);
        let engine = AlertEngine::new(cfg.rules.clone());
        TelemetryPlane {
            cfg,
            registry,
            engine,
            ring: Mutex::new(VecDeque::new()),
            next_seq: AtomicU64::new(0),
            subscribers: Mutex::new(Vec::new()),
            next_sub_id: AtomicU64::new(0),
            sub_dropped: AtomicU64::new(0),
        }
    }

    /// The plane's configuration.
    pub fn config(&self) -> &PlaneConfig {
        &self.cfg
    }

    /// The global time-series registry.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// A [`MetricsSink`] folding straight into this plane's registry under
    /// `base` labels (in-process jobs skip the wire entirely).
    pub fn fold_sink(&self, base: Labels) -> MetricsSink {
        MetricsSink::folding(self.registry.clone(), base)
    }

    /// Ingest one pushed frame: fold every span into the registry
    /// under `{job}`, account client-side drops, publish a ring event, and
    /// evaluate the rules. Returns the alerts that fired.
    pub fn ingest_frame(&self, frame: &TelemetryFrame) -> Vec<AlertEvent> {
        let base = labels([("job", frame.job.as_str())]);
        self.registry.add("telemetry_frames_total", base.clone(), 1.0);
        if frame.dropped > 0 {
            let mut l = base.clone();
            l.insert("source".into(), "client".into());
            self.registry.add("telemetry_dropped_total", l, frame.dropped as f64);
        }
        for span in &frame.spans {
            self.registry.fold(span, &base);
        }
        self.publish(PlaneEvent::Frame {
            job: frame.job.clone(),
            rank: frame.rank,
            frame_seq: frame.seq,
            spans: frame.spans.len(),
            dropped: frame.dropped,
        });
        self.evaluate()
    }

    /// Ingest one commit report: bump `commit_total`/`commit_bytes_total`,
    /// observe `save_stall_ms`, publish, evaluate.
    pub fn ingest_commit(&self, job: &str, step: u64, bytes: u64, wall_ms: u64) -> Vec<AlertEvent> {
        let base = labels([("job", job)]);
        self.registry.add("commit_total", base.clone(), 1.0);
        self.registry.add("commit_bytes_total", base.clone(), bytes as f64);
        self.registry.observe_ms("save_stall_ms", base, wall_ms as f64);
        self.publish(PlaneEvent::Commit { job: job.to_string(), step, bytes, wall_ms });
        self.evaluate()
    }

    /// Account one admission decision (`outcome` ∈ `admitted`,
    /// `backpressure`, `rejected`) and evaluate the rules.
    pub fn note_admission(&self, job: &str, outcome: &str) -> Vec<AlertEvent> {
        let mut l = labels([("job", job)]);
        l.insert("outcome".into(), outcome.to_string());
        self.registry.add("admission_total", l, 1.0);
        if outcome == "backpressure" {
            self.registry.add("admission_backpressure_total", labels([("job", job)]), 1.0);
        }
        self.evaluate()
    }

    /// Evaluate the rules now; fired alerts are published to the ring and
    /// returned (the caller routes them into per-job history).
    pub fn evaluate(&self) -> Vec<AlertEvent> {
        let fired = self.engine.evaluate(&self.registry);
        for alert in &fired {
            self.publish(PlaneEvent::Alert { alert: alert.clone() });
        }
        fired
    }

    /// Every currently active (unrecovered) alert.
    pub fn active_alerts(&self) -> Vec<AlertEvent> {
        self.engine.active()
    }

    /// The newest `n` ring events, sequence-ascending.
    pub fn recent_events(&self, n: usize) -> Vec<(u64, PlaneEvent)> {
        let ring = self.ring.lock();
        let skip = ring.len().saturating_sub(n);
        ring.iter().skip(skip).cloned().collect()
    }

    /// Prometheus exposition of every series.
    pub fn render_prometheus(&self) -> String {
        self.registry.render_prometheus()
    }

    /// Events dropped at subscriber channels so far.
    pub fn subscriber_dropped(&self) -> u64 {
        self.sub_dropped.load(Ordering::Relaxed)
    }

    /// Register a subscriber; replay at most `replay` retained events.
    /// Registration happens before the ring snapshot, so no event is lost
    /// in between — at worst one is duplicated (dedup by sequence).
    pub fn subscribe(&self, replay: usize) -> PlaneSubscription {
        let (tx, rx) = bounded(self.cfg.subscriber_capacity.max(1));
        let id = self.next_sub_id.fetch_add(1, Ordering::Relaxed);
        self.subscribers.lock().push(Subscriber { id, tx });
        let replayed = self.recent_events(replay);
        PlaneSubscription { id, replayed, rx }
    }

    /// Remove a subscriber (its channel closes).
    pub fn unsubscribe(&self, id: u64) {
        self.subscribers.lock().retain(|s| s.id != id);
    }

    fn publish(&self, event: PlaneEvent) {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        {
            let mut ring = self.ring.lock();
            ring.push_back((seq, event.clone()));
            while ring.len() > self.cfg.ring_capacity.max(1) {
                ring.pop_front();
            }
        }
        let mut dropped = 0u64;
        {
            let mut subs = self.subscribers.lock();
            subs.retain(|s| match s.tx.try_send((seq, event.clone())) {
                Ok(()) => true,
                Err(TrySendError::Full(_)) => {
                    // Slow subscriber: drop the event for them, never block.
                    dropped += 1;
                    true
                }
                Err(TrySendError::Disconnected(_)) => false, // forget the subscriber
            });
        }
        if dropped > 0 {
            self.sub_dropped.fetch_add(dropped, Ordering::Relaxed);
            self.registry.add(
                "telemetry_dropped_total",
                labels([("source", "subscriber")]),
                dropped as f64,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcp_monitor::SpanRecord;
    use std::time::Duration;

    fn frame(job: &str, dropped: u64) -> TelemetryFrame {
        TelemetryFrame {
            job: job.into(),
            rank: 0,
            seq: 0,
            spans: vec![SpanRecord {
                name: "save/upload".into(),
                step: 1,
                duration: Duration::from_millis(10),
                io_bytes: 512,
                counted: true,
                ..SpanRecord::default()
            }],
            dropped,
        }
    }

    #[test]
    fn frames_fold_into_labeled_series() {
        let plane = TelemetryPlane::default();
        plane.ingest_frame(&frame("j1", 0));
        plane.ingest_frame(&frame("j1", 3));
        let base = labels([("job", "j1")]);
        assert_eq!(plane.registry().value("telemetry_frames_total", &base), Some(2.0));
        let mut client = base.clone();
        client.insert("source".into(), "client".into());
        assert_eq!(plane.registry().value("telemetry_dropped_total", &client), Some(3.0));
        // The standing drop rule fires on the client drops.
        assert!(
            plane.active_alerts().iter().any(|a| a.rule == "telemetry_drops"),
            "{:?}",
            plane.active_alerts()
        );
    }

    #[test]
    fn commits_feed_counters_and_the_stall_rule() {
        let plane = TelemetryPlane::default();
        let fired = plane.ingest_commit("j2", 5, 4096, 10);
        assert!(fired.is_empty(), "10ms commit is healthy");
        // A pathological commit trips save_stall (p99 over 2 minutes).
        let fired = plane.ingest_commit("j2", 6, 4096, 600_000);
        assert!(fired.iter().any(|a| a.rule == "save_stall"), "{fired:?}");
        let base = labels([("job", "j2")]);
        assert_eq!(plane.registry().value("commit_total", &base), Some(2.0));
        assert_eq!(plane.registry().value("commit_bytes_total", &base), Some(8192.0));
    }

    #[test]
    fn ring_is_bounded_and_replays_the_tail() {
        let plane = TelemetryPlane::new(PlaneConfig { ring_capacity: 4, ..PlaneConfig::default() });
        for step in 0..10 {
            plane.ingest_commit("j", step, 1, 1);
        }
        let recent = plane.recent_events(100);
        assert_eq!(recent.len(), 4, "ring bounded");
        // Sequences ascend and are the newest ones.
        let seqs: Vec<u64> = recent.iter().map(|(s, _)| *s).collect();
        assert!(seqs.windows(2).all(|w| w[0] < w[1]));
        let sub = plane.subscribe(2);
        assert_eq!(sub.replayed.len(), 2);
        plane.unsubscribe(sub.id);
    }

    #[test]
    fn slow_subscriber_drops_are_bounded_and_counted() {
        let plane =
            TelemetryPlane::new(PlaneConfig { subscriber_capacity: 2, ..PlaneConfig::default() });
        let sub = plane.subscribe(0);
        for step in 0..50 {
            plane.ingest_commit("j", step, 1, 1);
        }
        // The subscriber never drained: only `capacity` events buffered,
        // the rest dropped and counted — ingest never blocked.
        assert_eq!(sub.rx.len(), 2);
        assert!(plane.subscriber_dropped() > 0);
        let subl = labels([("source", "subscriber")]);
        assert_eq!(
            plane.registry().value("telemetry_dropped_total", &subl),
            Some(plane.subscriber_dropped() as f64)
        );
        plane.unsubscribe(sub.id);
        // After unsubscribe the channel closes and publishes forget it.
        plane.ingest_commit("j", 99, 1, 1);
        assert!(plane.subscribers.lock().is_empty());
    }

    #[test]
    fn live_subscriber_sees_events_in_order() {
        let plane = TelemetryPlane::default();
        plane.ingest_commit("a", 1, 1, 1);
        let sub = plane.subscribe(10);
        plane.ingest_commit("a", 2, 1, 1);
        let mut seen: Vec<(u64, PlaneEvent)> = sub.replayed.clone();
        while let Ok(ev) = sub.rx.try_recv() {
            if seen.last().map(|(s, _)| *s < ev.0).unwrap_or(true) {
                seen.push(ev);
            }
        }
        assert!(seen.len() >= 2);
        assert!(matches!(seen.last().unwrap().1, PlaneEvent::Commit { step: 2, .. }), "{seen:?}");
        plane.unsubscribe(sub.id);
    }

    #[test]
    fn backpressure_rate_rule() {
        let plane = TelemetryPlane::default();
        plane.note_admission("j", "backpressure"); // baseline observation
        std::thread::sleep(Duration::from_millis(20));
        for _ in 0..10 {
            plane.note_admission("j", "backpressure");
        }
        assert!(
            plane.active_alerts().iter().any(|a| a.rule == "admission_backpressure"),
            "{:?}",
            plane.active_alerts()
        );
    }

    #[test]
    fn plane_event_serde_round_trip() {
        let events = vec![
            PlaneEvent::Frame { job: "j".into(), rank: 1, frame_seq: 2, spans: 4, dropped: 5 },
            PlaneEvent::Commit { job: "j".into(), step: 1, bytes: 2, wall_ms: 3 },
        ];
        for ev in events {
            let json = serde_json::to_string(&ev).unwrap();
            let back: PlaneEvent = serde_json::from_str(&json).unwrap();
            assert_eq!(back, ev);
        }
    }
}
