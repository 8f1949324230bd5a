//! Analysis over collected spans: per-rank and per-phase totals, slow-I/O
//! detection, per-phase percentile histograms, cross-rank critical-path
//! detection, and regression checks against a rolling baseline of prior
//! steps (paper §5.3's "analysis" half — the queries an oncall runs on a
//! slow job's persisted traces). Every query takes the spans as collected
//! ([`crate::MetricsHub::spans`], [`crate::StepTelemetry::all_spans`]) and
//! sums durations over the *counted* ones only, so a phase is never
//! double-counted with its root or its per-item details.

use crate::span::SpanRecord;
use std::collections::BTreeMap;
use std::time::Duration;

/// Total duration per rank over counted spans whose name has `prefix`.
/// Feeds the Fig. 11 heat map ("end-to-end checkpoint saving time").
pub fn total_by_rank(spans: &[SpanRecord], prefix: &str) -> BTreeMap<usize, Duration> {
    let mut out = BTreeMap::new();
    for span in spans.iter().filter(|s| s.counted && s.name.starts_with(prefix)) {
        *out.entry(span.rank).or_insert(Duration::ZERO) += span.duration;
    }
    out
}

/// Total duration per phase name over one rank's counted spans (Fig. 12
/// breakdown).
pub fn breakdown_for_rank(spans: &[SpanRecord], rank: usize) -> BTreeMap<String, Duration> {
    let mut out = BTreeMap::new();
    for span in spans.iter().filter(|s| s.counted && s.rank == rank) {
        *out.entry(span.name.clone()).or_insert(Duration::ZERO) += span.duration;
    }
    out
}

/// The byte floor of [`slow_ios`]: an op that moves fewer bytes is judged
/// as if it had moved this many. Below it an op's time is its fixed cost
/// (an open, an fsync, a rename), not bandwidth: at 10 MB/s a 2-byte commit
/// marker gets the 6.5 ms that 64 KiB would take. 64 KiB is also where the
/// disk backend starts mapping reads instead of copying them.
pub const SLOW_IO_MIN_BYTES: u64 = 64 * 1024;

/// Spans with throughput below `min_bps` — the alerting rule the paper
/// applies on the storage-client side ("unexpectedly high latency or low
/// bandwidth triggers alerts"). Scans counted spans *and* uncounted detail
/// spans (per-file uploads, per-op storage I/Os), so a single slow write is
/// caught even when its phase total looks healthy. A span of fewer than
/// [`SLOW_IO_MIN_BYTES`] is flagged only when it took longer than that many
/// bytes would at `min_bps`: a small op is judged by its latency, not by a
/// throughput its fixed cost makes meaningless.
pub fn slow_ios(spans: &[SpanRecord], min_bps: f64) -> Vec<&SpanRecord> {
    spans
        .iter()
        .filter(|s| {
            s.throughput().is_some()
                && (s.io_bytes.max(SLOW_IO_MIN_BYTES) as f64) < min_bps * s.duration.as_secs_f64()
        })
        .collect()
}

/// Percentile summary of one phase's durations across ranks/occurrences.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseStats {
    /// Number of samples.
    pub count: usize,
    /// Sum of all samples.
    pub total: Duration,
    /// Median duration.
    pub p50: Duration,
    /// 95th-percentile duration.
    pub p95: Duration,
    /// 99th-percentile duration.
    pub p99: Duration,
    /// Slowest sample.
    pub max: Duration,
}

/// Nearest-rank percentile of a sorted sample set (q in [0, 1]).
fn percentile(sorted: &[Duration], q: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let idx = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// Per-phase p50/p95/p99 over the counted spans, keyed by phase name.
pub fn phase_percentiles(spans: &[SpanRecord]) -> BTreeMap<String, PhaseStats> {
    let mut samples: BTreeMap<String, Vec<Duration>> = BTreeMap::new();
    for span in spans.iter().filter(|s| s.counted) {
        samples.entry(span.name.clone()).or_default().push(span.duration);
    }
    samples
        .into_iter()
        .map(|(name, mut durs)| {
            durs.sort();
            let stats = PhaseStats {
                count: durs.len(),
                total: durs.iter().sum(),
                p50: percentile(&durs, 0.50),
                p95: percentile(&durs, 0.95),
                p99: percentile(&durs, 0.99),
                max: *durs.last().unwrap(),
            };
            (name, stats)
        })
        .collect()
}

/// The rank (and its dominant phase) that gated a step — since every rank
/// waits at the commit barrier, the slowest rank's total *is* the step's
/// critical path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalPath {
    /// Slowest rank.
    pub rank: usize,
    /// That rank's total time under the analyzed prefix.
    pub total: Duration,
    /// The phase contributing most to the slowest rank's total.
    pub dominant_phase: String,
    /// Time spent in the dominant phase.
    pub dominant: Duration,
    /// Median per-rank total, for contrast.
    pub median_total: Duration,
}

/// Find the critical-path rank for phases under `prefix` (e.g. `"save/"`).
/// Returns `None` when no counted span matches.
pub fn critical_path(spans: &[SpanRecord], prefix: &str) -> Option<CriticalPath> {
    let by_rank = total_by_rank(spans, prefix);
    let (&rank, &total) = by_rank.iter().max_by_key(|(_, d)| **d)?;
    let mut totals: Vec<Duration> = by_rank.values().copied().collect();
    totals.sort();
    let median_total = totals[totals.len() / 2];
    let (dominant_phase, dominant) = breakdown_for_rank(spans, rank)
        .into_iter()
        .filter(|(name, _)| name.starts_with(prefix))
        .max_by_key(|(_, d)| *d)?;
    Some(CriticalPath { rank, total, dominant_phase, dominant, median_total })
}

/// A phase that slowed down relative to the rolling baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Phase name.
    pub phase: String,
    /// Duration in the step under analysis.
    pub current: Duration,
    /// Mean duration across the baseline steps.
    pub baseline: Duration,
    /// `current / baseline`.
    pub factor: f64,
}

/// Compare one step's per-phase totals against a rolling baseline (the
/// per-phase totals of prior steps); report phases whose current total
/// exceeds `factor` × the baseline mean. Phases absent from every baseline
/// step are skipped (nothing to regress against).
pub fn regressions(
    current: &BTreeMap<String, Duration>,
    baseline: &[BTreeMap<String, Duration>],
    factor: f64,
) -> Vec<Regression> {
    let mut out = Vec::new();
    for (phase, &cur) in current {
        let samples: Vec<Duration> =
            baseline.iter().filter_map(|step| step.get(phase).copied()).collect();
        if samples.is_empty() {
            continue;
        }
        let mean = samples.iter().sum::<Duration>() / samples.len() as u32;
        if mean.is_zero() {
            continue;
        }
        let ratio = cur.as_secs_f64() / mean.as_secs_f64();
        if ratio > factor {
            out.push(Regression {
                phase: phase.clone(),
                current: cur,
                baseline: mean,
                factor: ratio,
            });
        }
    }
    out.sort_by(|a, b| b.factor.total_cmp(&a.factor));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &str, rank: usize, ms: u64) -> SpanRecord {
        SpanRecord {
            name: name.into(),
            rank,
            step: 1,
            duration: Duration::from_millis(ms),
            counted: true,
            ..SpanRecord::default()
        }
    }

    #[test]
    fn aggregation_by_rank_and_phase() {
        let mut spans = Vec::new();
        for rank in 0..4 {
            spans.push(rec("save/upload", rank, 10 * (rank as u64 + 1)));
            spans.push(rec("save/d2h", rank, 1));
            spans.push(SpanRecord { counted: false, ..rec("save/upload-file", rank, 9) });
        }
        assert_eq!(total_by_rank(&spans, "save/")[&3], Duration::from_millis(41));
        let breakdown = breakdown_for_rank(&spans, 0);
        assert_eq!(breakdown["save/upload"], Duration::from_millis(10));
        assert_eq!(breakdown["save/d2h"], Duration::from_millis(1));
        assert_eq!(breakdown.len(), 2, "uncounted details stay out: {breakdown:?}");
        assert_eq!(phase_percentiles(&spans).len(), 2);
    }

    #[test]
    fn slow_io_detection() {
        let io = |path: &str, io_bytes: u64| SpanRecord {
            io_bytes,
            path: Some(path.into()),
            ..rec("upload", 0, 1000)
        };
        // 100 B/s is pathologically slow, 1 GiB/s healthy.
        let spans = [io("slow.bin", 100), io("fast.bin", 1 << 30)];
        let slow = slow_ios(&spans, 1024.0 * 1024.0);
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].path.as_deref(), Some("slow.bin"));
    }

    #[test]
    fn a_small_op_is_judged_by_its_latency_and_a_large_one_by_its_throughput() {
        const MBPS_10: f64 = 10e6; // `bcpctl report`'s default threshold
        let io = |io_bytes: u64, us: u64| SpanRecord {
            io_bytes,
            duration: Duration::from_micros(us),
            ..rec("storage/disk/write", 0, 0)
        };
        // A 2-byte commit marker, fsync'd in 0.3 ms (6.7 KB/s), or in 3 ms.
        assert!(slow_ios(&[io(2, 300), io(2, 3_000)], MBPS_10).is_empty());
        // A multi-MiB write at 1 MB/s is slow, and so is a small op whose
        // latency alone exceeds what 64 KiB would take at the threshold.
        assert_eq!(slow_ios(&[io(4 << 20, 4_194_304), io(2, 50_000)], MBPS_10).len(), 2);
        // At the floor and above, throughput alone decides.
        let floor = SLOW_IO_MIN_BYTES;
        assert_eq!(slow_ios(&[io(floor, 6_000), io(floor, 7_000)], MBPS_10).len(), 1);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let records: Vec<SpanRecord> =
            (1..=100).map(|i| rec("save/upload", i as usize, i)).collect();
        let stats = &phase_percentiles(&records)["save/upload"];
        assert_eq!(stats.count, 100);
        assert_eq!(stats.p50, Duration::from_millis(50));
        assert_eq!(stats.p95, Duration::from_millis(95));
        assert_eq!(stats.p99, Duration::from_millis(99));
        assert_eq!(stats.max, Duration::from_millis(100));
    }

    #[test]
    fn percentiles_single_sample() {
        let stats = &phase_percentiles(&[rec("p", 0, 8)])["p"];
        assert_eq!(stats.p50, Duration::from_millis(8));
        assert_eq!(stats.p99, Duration::from_millis(8));
    }

    #[test]
    fn critical_path_finds_straggler_and_phase() {
        let mut records = Vec::new();
        for rank in 0..4 {
            records.push(rec("save/serialize", rank, 10));
            records.push(rec("save/upload", rank, if rank == 2 { 500 } else { 20 }));
        }
        let cp = critical_path(&records, "save/").unwrap();
        assert_eq!(cp.rank, 2);
        assert_eq!(cp.total, Duration::from_millis(510));
        assert_eq!(cp.dominant_phase, "save/upload");
        assert_eq!(cp.dominant, Duration::from_millis(500));
        assert_eq!(cp.median_total, Duration::from_millis(30));
        assert!(critical_path(&records, "load/").is_none());
    }

    #[test]
    fn regression_against_rolling_baseline() {
        let baseline: Vec<BTreeMap<String, Duration>> = (0..3)
            .map(|_| {
                let mut m = BTreeMap::new();
                m.insert("save/upload".to_string(), Duration::from_millis(100));
                m.insert("save/serialize".to_string(), Duration::from_millis(10));
                m
            })
            .collect();
        let mut current = BTreeMap::new();
        current.insert("save/upload".to_string(), Duration::from_millis(450));
        current.insert("save/serialize".to_string(), Duration::from_millis(11));
        current.insert("save/new-phase".to_string(), Duration::from_millis(99));
        let regs = regressions(&current, &baseline, 2.0);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].phase, "save/upload");
        assert!((regs[0].factor - 4.5).abs() < 1e-9);
        // Empty baseline: nothing to compare against.
        assert!(regressions(&current, &[], 2.0).is_empty());
    }
}
