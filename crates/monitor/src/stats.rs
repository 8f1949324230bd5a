//! Latency accumulation with percentile snapshots.
//!
//! The registry's histograms are [`LatencyAccumulator`]s;
//! [`LatencySnapshot`] is the summary a query returns.
//! Exact percentiles over the recorded samples (bounded; the accumulator
//! keeps the most recent [`LatencyAccumulator::capacity`] samples).

use crate::sync::lock;
use std::sync::Mutex;
use std::time::Duration;

/// Percentile summary of a latency population.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
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
        let mut w = lock(&self.samples);
        w.total += 1;
        if w.ring.len() < self.capacity {
            w.ring.push(ms);
        } else {
            let at = w.next;
            w.ring[at] = ms;
        }
        w.next = (w.next + 1) % self.capacity;
    }

    /// Percentile summary of the retained window (all zeros when empty).
    pub fn snapshot(&self) -> LatencySnapshot {
        let w = lock(&self.samples);
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
}
