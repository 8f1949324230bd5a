//! Latency accumulation with percentile snapshots.
//!
//! The control plane tracks per-job commit latency with a
//! [`LatencyAccumulator`]; [`LatencySnapshot`] is the serializable summary
//! that crosses the coordinator wire and lands in `bcpctl status`.
//! Exact percentiles over the recorded samples (bounded; the accumulator
//! keeps the most recent [`LatencyAccumulator::capacity`] samples).

use serde::{Deserialize, Serialize};
use std::sync::Mutex;
use std::time::Duration;

/// Serializable percentile summary of a latency population.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct LatencySnapshot {
    /// Samples ever recorded (may exceed the retained window).
    pub count: u64,
    /// Mean over the retained window, in milliseconds.
    pub mean_ms: f64,
    /// 50th percentile, milliseconds.
    pub p50_ms: f64,
    /// 90th percentile, milliseconds.
    pub p90_ms: f64,
    /// 99th percentile, milliseconds.
    pub p99_ms: f64,
    /// Maximum over the retained window, milliseconds.
    pub max_ms: f64,
}

/// Bounded-window latency recorder: threads record durations, snapshots
/// compute exact percentiles over the retained window.
pub struct LatencyAccumulator {
    samples: Mutex<Window>,
    capacity: usize,
}

struct Window {
    ring: Vec<f64>,
    next: usize,
    total: u64,
}

impl LatencyAccumulator {
    /// An accumulator retaining the most recent `capacity` samples
    /// (clamped to ≥ 1).
    pub fn new(capacity: usize) -> LatencyAccumulator {
        LatencyAccumulator {
            samples: Mutex::new(Window { ring: Vec::new(), next: 0, total: 0 }),
            capacity: capacity.max(1),
        }
    }

    /// The retained-window size.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Record one latency sample.
    pub fn record(&self, latency: Duration) {
        let ms = latency.as_secs_f64() * 1e3;
        let mut w = self.samples.lock().unwrap();
        w.total += 1;
        if w.ring.len() < self.capacity {
            w.ring.push(ms);
        } else {
            let at = w.next;
            w.ring[at] = ms;
        }
        w.next = (w.next + 1) % self.capacity;
    }

    /// The retained window in insertion order (oldest first) plus the
    /// total-ever-recorded count — the durable form a control-plane
    /// snapshot persists so percentiles survive a coordinator restart.
    pub fn export_window(&self) -> (Vec<f64>, u64) {
        let w = self.samples.lock().unwrap();
        let ordered = if w.ring.len() < self.capacity {
            w.ring.clone()
        } else {
            let mut v = Vec::with_capacity(w.ring.len());
            v.extend_from_slice(&w.ring[w.next..]);
            v.extend_from_slice(&w.ring[..w.next]);
            v
        };
        (ordered, w.total)
    }

    /// Rebuild an accumulator from an [`export_window`](Self::export_window)
    /// dump, keeping only the newest `capacity` samples.
    pub fn restore(capacity: usize, window: &[f64], total: u64) -> LatencyAccumulator {
        let capacity = capacity.max(1);
        let keep = window.len().saturating_sub(capacity);
        let ring: Vec<f64> = window[keep..].to_vec();
        let next = if ring.len() < capacity { ring.len() } else { 0 };
        LatencyAccumulator {
            samples: Mutex::new(Window { ring, next, total: total.max(window.len() as u64) }),
            capacity,
        }
    }

    /// Percentile summary of the retained window (all zeros when empty).
    pub fn snapshot(&self) -> LatencySnapshot {
        let w = self.samples.lock().unwrap();
        if w.ring.is_empty() {
            return LatencySnapshot { count: w.total, ..LatencySnapshot::default() };
        }
        let mut sorted = w.ring.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("latency samples are finite"));
        let pct = |p: f64| -> f64 {
            // Nearest-rank percentile over the sorted window.
            let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
            sorted[rank.clamp(1, sorted.len()) - 1]
        };
        LatencySnapshot {
            count: w.total,
            mean_ms: sorted.iter().sum::<f64>() / sorted.len() as f64,
            p50_ms: pct(50.0),
            p90_ms: pct(90.0),
            p99_ms: pct(99.0),
            max_ms: *sorted.last().expect("non-empty"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_snapshot_is_zeroed() {
        let acc = LatencyAccumulator::new(16);
        let s = acc.snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.p99_ms, 0.0);
    }

    #[test]
    fn percentiles_over_a_known_population() {
        let acc = LatencyAccumulator::new(1000);
        for i in 1..=100u64 {
            acc.record(Duration::from_millis(i));
        }
        let s = acc.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.p50_ms, 50.0);
        assert_eq!(s.p90_ms, 90.0);
        assert_eq!(s.p99_ms, 99.0);
        assert_eq!(s.max_ms, 100.0);
        assert!((s.mean_ms - 50.5).abs() < 1e-9);
    }

    #[test]
    fn window_retains_only_the_most_recent_samples() {
        let acc = LatencyAccumulator::new(10);
        for i in 0..100u64 {
            acc.record(Duration::from_millis(i));
        }
        let s = acc.snapshot();
        assert_eq!(s.count, 100);
        // Window holds 90..=99.
        assert_eq!(s.max_ms, 99.0);
        assert!(s.p50_ms >= 90.0, "window should have evicted old samples: {s:?}");
    }

    #[test]
    fn export_restore_round_trips_exact_percentiles() {
        let acc = LatencyAccumulator::new(10);
        for i in 0..100u64 {
            acc.record(Duration::from_millis(i));
        }
        let (window, total) = acc.export_window();
        assert_eq!(window.len(), 10);
        assert_eq!(total, 100);
        // Oldest-first order: the surviving window is 90..=99.
        assert_eq!(window[0], 90.0);
        assert_eq!(*window.last().unwrap(), 99.0);
        let back = LatencyAccumulator::restore(10, &window, total);
        assert_eq!(back.snapshot(), acc.snapshot());
        // Restoring into a smaller capacity keeps the newest samples.
        let small = LatencyAccumulator::restore(4, &window, total);
        let s = small.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.max_ms, 99.0);
        assert!(s.p50_ms >= 96.0, "restore should keep the newest samples: {s:?}");
    }

    #[test]
    fn snapshot_serde_round_trip() {
        let acc = LatencyAccumulator::new(8);
        acc.record(Duration::from_millis(7));
        let s = acc.snapshot();
        let json = serde_json::to_string(&s).unwrap();
        let back: LatencySnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
