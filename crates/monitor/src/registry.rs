//! Live time-series registry: labeled counters, gauges, and bounded-window
//! histograms that [`SpanRecord`]s fold into *incrementally*, instead of
//! only at artifact-drain time.
//!
//! The registry is the in-memory model behind the coordinator's live
//! telemetry plane: every span of every pushed frame and every commit
//! report updates a labeled series here, and the whole thing renders as
//! Prometheus exposition text (`GET /metrics`) or is queried by the
//! [`crate::rules::AlertEngine`].
//!
//! Series are keyed by `(name, labels)` where labels is a sorted map — the
//! conventional keys are `{job, rank, op, backend, tier, phase, source}`.
//! Histograms reuse [`LatencyAccumulator`], so they are bounded-window with
//! exact nearest-rank percentiles, not unbounded reservoirs.

use crate::span::SpanRecord;
use crate::stats::{LatencyAccumulator, LatencySnapshot};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Duration;

/// Sorted label set identifying one series of a metric.
pub type Labels = BTreeMap<String, String>;

/// Build a [`Labels`] map from `(key, value)` pairs.
pub fn labels<K: Into<String>, V: Into<String>>(pairs: impl IntoIterator<Item = (K, V)>) -> Labels {
    pairs.into_iter().map(|(k, v)| (k.into(), v.into())).collect()
}

/// One series' current value, snapshot form.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SeriesValue {
    /// Monotonically increasing sum.
    Counter(f64),
    /// Last-write-wins level.
    Gauge(f64),
    /// Bounded-window percentile summary (milliseconds).
    Histogram(LatencySnapshot),
}

impl SeriesValue {
    /// The scalar value for counters/gauges (`None` for histograms).
    pub fn scalar(&self) -> Option<f64> {
        match self {
            SeriesValue::Counter(v) | SeriesValue::Gauge(v) => Some(*v),
            SeriesValue::Histogram(_) => None,
        }
    }
}

/// A `(name, labels, value)` triple — the query/snapshot unit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeriesSample {
    /// Metric name, e.g. `"commit_total"`.
    pub name: String,
    /// The series' label set.
    pub labels: Labels,
    /// Current value.
    pub value: SeriesValue,
}

enum Series {
    Counter(f64),
    Gauge(f64),
    Histogram(LatencyAccumulator),
}

/// Histogram window: samples retained per labeled series.
const HISTOGRAM_WINDOW: usize = 512;

/// Thread-safe labeled time-series registry.
///
/// ```
/// use bcp_monitor::registry::{labels, MetricsRegistry};
/// let reg = MetricsRegistry::new();
/// reg.add("commit_total", labels([("job", "llm-7b")]), 1.0);
/// reg.observe_ms("save_stall_ms", labels([("job", "llm-7b")]), 42.0);
/// assert_eq!(reg.value("commit_total", &labels([("job", "llm-7b")])), Some(1.0));
/// assert!(reg.render_prometheus().contains("commit_total{job=\"llm-7b\"} 1"));
/// ```
#[derive(Default)]
pub struct MetricsRegistry {
    series: Mutex<BTreeMap<(String, Labels), Series>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Add `delta` to the counter `(name, labels)`, creating it at zero
    /// first. Counters only ever go up; negative deltas are ignored.
    pub fn add(&self, name: &str, labels: Labels, delta: f64) {
        if delta < 0.0 || !delta.is_finite() {
            return;
        }
        let mut s = self.series.lock().unwrap();
        // On a type mismatch (name reused), keep the existing series rather
        // than corrupting it.
        if let Series::Counter(v) =
            s.entry((name.to_string(), labels)).or_insert(Series::Counter(0.0))
        {
            *v += delta;
        }
    }

    /// Set the gauge `(name, labels)` to `value`.
    pub fn set(&self, name: &str, labels: Labels, value: f64) {
        if !value.is_finite() {
            return;
        }
        let mut s = self.series.lock().unwrap();
        let e = s.entry((name.to_string(), labels)).or_insert(Series::Gauge(0.0));
        if let Series::Gauge(v) = e {
            *v = value;
        }
    }

    /// Record one sample (milliseconds) into the bounded-window histogram
    /// `(name, labels)`.
    pub fn observe_ms(&self, name: &str, labels: Labels, ms: f64) {
        if !ms.is_finite() || ms < 0.0 {
            return;
        }
        let mut s = self.series.lock().unwrap();
        let e = s
            .entry((name.to_string(), labels))
            .or_insert_with(|| Series::Histogram(LatencyAccumulator::new(HISTOGRAM_WINDOW)));
        if let Series::Histogram(acc) = e {
            acc.record(Duration::from_secs_f64(ms / 1e3));
        }
    }

    /// Scalar value of a counter/gauge series, when present.
    pub fn value(&self, name: &str, labels: &Labels) -> Option<f64> {
        let s = self.series.lock().unwrap();
        match s.get(&(name.to_string(), labels.clone()))? {
            Series::Counter(v) | Series::Gauge(v) => Some(*v),
            Series::Histogram(_) => None,
        }
    }

    /// Percentile snapshot of a histogram series, when present.
    pub fn histogram(&self, name: &str, labels: &Labels) -> Option<LatencySnapshot> {
        let s = self.series.lock().unwrap();
        match s.get(&(name.to_string(), labels.clone()))? {
            Series::Histogram(acc) => Some(acc.snapshot()),
            _ => None,
        }
    }

    /// Number of series currently registered.
    pub fn len(&self) -> usize {
        self.series.lock().unwrap().len()
    }

    /// Whether no series exist yet.
    pub fn is_empty(&self) -> bool {
        self.series.lock().unwrap().is_empty()
    }

    /// Snapshot every series.
    pub fn samples(&self) -> Vec<SeriesSample> {
        let s = self.series.lock().unwrap();
        s.iter().map(|((name, labels), v)| sample(name, labels, v)).collect()
    }

    /// Snapshot every series of one metric name (the alert engine's query).
    pub fn samples_for(&self, name: &str) -> Vec<SeriesSample> {
        let s = self.series.lock().unwrap();
        s.iter()
            .filter(|((n, _), _)| n == name)
            .map(|((name, labels), v)| sample(name, labels, v))
            .collect()
    }

    /// Sum of the scalar values of every series of `name` (counters/gauges).
    pub fn sum(&self, name: &str) -> f64 {
        self.samples_for(name).iter().filter_map(|s| s.value.scalar()).sum()
    }

    // -- Span folding -----------------------------------------------------

    /// Fold one span into the registry under `base` labels (typically
    /// `{job}`; the span's own rank/phase/backend labels are derived here) —
    /// the one mapping from spans to series, whether the span arrives
    /// through a folding sink, a pushed frame or a persisted artifact.
    ///
    /// * `storage/<backend>/<op>` lands in the `storage_op_*` series keyed
    ///   `{backend, op, rank}`; `storage/governed/wait` also feeds the
    ///   per-job `governor_wait_seconds` counter.
    /// * `dist/…` point spans feed per-job counters (summed over ranks):
    ///   `read_cache/hit` → `read_cache_hits_total` +1 and
    ///   `read_cache_bytes_saved_total` += io_bytes; `read_cache/miss` →
    ///   `read_cache_misses_total` +1 (either refreshes the cumulative
    ///   `read_cache_hit_rate` gauge, the input of the
    ///   `read_cache_hit_rate_low` alert rule); `fanout/peer` and
    ///   `fanout/backend` → `fanout_{peer,backend}_bytes_total` += io_bytes.
    /// * `resil/…` point spans feed per-job series. The engine's retry loop
    ///   (`bcp-core`'s `integrity::with_retries`, on every stack) emits
    ///   `retry` → `storage_retries_total` and `throttled` →
    ///   `storage_throttled_total`, its `retry_after_ms` attribute carrying
    ///   the server's hint into `storage_retry_after_seconds_total`; the
    ///   rest come from an assembled stack's `ResilientBackend`:
    ///   `hedge` / `hedge_win` → `storage_hedges_total` /
    ///   `storage_hedge_wins_total`; `circuit_open` / `circuit_close` /
    ///   `circuit_reject` → `storage_circuit_{open,closed,rejected}_total`
    ///   (the default `circuit_open` alert fires on the open counter alone);
    ///   `brownout_enter` / `brownout_exit` flip the `storage_brownout`
    ///   gauge to 1 / 0, enters also counting in
    ///   `storage_brownout_entered_total`.
    /// * Everything else — unrecognized `dist/`/`resil/` names included —
    ///   lands in the `phase_*` series keyed `{phase, op, rank}`; `load/tier`
    ///   also feeds hot-tier health: `tier_files_total{tier}`,
    ///   `tier_bytes_total{tier}`, and the per-job `hot_hit_rate` gauge (hot
    ///   files over all files, cumulative).
    pub fn fold(&self, span: &SpanRecord, base: &Labels) {
        let secs = span.duration.as_secs_f64();
        let known_point = match span.name.split_once('/') {
            Some(("dist", rest)) => self.fold_dist(rest, span.io_bytes as f64, base),
            Some(("resil", rest)) => self.fold_resilience(rest, span, base),
            _ => false,
        };
        if known_point {
            return;
        }
        if let Some(rest) = span.name.strip_prefix("storage/") {
            let (backend, op) = rest.split_once('/').unwrap_or((rest, "op"));
            let mut l = base.clone();
            l.insert("backend".into(), backend.to_string());
            l.insert("op".into(), op.to_string());
            l.insert("rank".into(), span.rank.to_string());
            self.add("storage_op_total", l.clone(), 1.0);
            self.add("storage_op_seconds_total", l.clone(), secs);
            if span.io_bytes > 0 {
                self.add("storage_io_bytes_total", l, span.io_bytes as f64);
            }
            if backend == "governed" && op == "wait" {
                // Scheduler-induced latency, distinguishable from backend
                // latency: per-job only (summed over ranks).
                self.add("governor_wait_seconds", base.clone(), secs);
            }
            return;
        }
        let op = span.name.split('/').next().unwrap_or("other").to_string();
        let mut l = base.clone();
        l.insert("phase".into(), span.name.clone());
        l.insert("op".into(), op);
        l.insert("rank".into(), span.rank.to_string());
        self.observe_ms("phase_ms", l.clone(), secs * 1e3);
        self.add("phase_seconds_total", l.clone(), secs);
        if span.io_bytes > 0 {
            self.add("phase_io_bytes_total", l, span.io_bytes as f64);
        }
        if span.name == "load/tier" {
            let tier = |tier: &str| {
                let mut l = base.clone();
                l.insert("tier".into(), tier.to_string());
                l
            };
            for t in ["hot", "cold"] {
                self.add("tier_files_total", tier(t), span.attr_num(&format!("{t}_files")));
                self.add("tier_bytes_total", tier(t), span.attr_num(&format!("{t}_bytes")));
            }
            let files = |t: &str| self.value("tier_files_total", &tier(t)).unwrap_or(0.0);
            let (hot, cold) = (files("hot"), files("cold"));
            if hot + cold > 0.0 {
                self.set("hot_hit_rate", base.clone(), hot / (hot + cold));
            }
        }
    }

    /// The `dist/` branch of [`Self::fold`] (`rest` is the name minus the
    /// prefix); `false` for an unrecognized name.
    fn fold_dist(&self, rest: &str, bytes: f64, base: &Labels) -> bool {
        match rest {
            "read_cache/hit" => {
                self.add("read_cache_hits_total", base.clone(), 1.0);
                self.add("read_cache_bytes_saved_total", base.clone(), bytes);
            }
            "read_cache/miss" => {
                self.add("read_cache_misses_total", base.clone(), 1.0);
            }
            "fanout/peer" => {
                self.add("fanout_peer_bytes_total", base.clone(), bytes);
                return true;
            }
            "fanout/backend" => {
                self.add("fanout_backend_bytes_total", base.clone(), bytes);
                return true;
            }
            _ => return false,
        }
        let hits = self.value("read_cache_hits_total", base).unwrap_or(0.0);
        let misses = self.value("read_cache_misses_total", base).unwrap_or(0.0);
        if hits + misses > 0.0 {
            self.set("read_cache_hit_rate", base.clone(), hits / (hits + misses));
        }
        true
    }

    /// The `resil/` branch of [`Self::fold`]; `false` for an unrecognized
    /// name.
    fn fold_resilience(&self, rest: &str, span: &SpanRecord, base: &Labels) -> bool {
        match rest {
            "retry" => self.add("storage_retries_total", base.clone(), 1.0),
            "throttled" => {
                self.add("storage_throttled_total", base.clone(), 1.0);
                self.add(
                    "storage_retry_after_seconds_total",
                    base.clone(),
                    span.attr_num("retry_after_ms") / 1e3,
                );
            }
            "hedge" => self.add("storage_hedges_total", base.clone(), 1.0),
            "hedge_win" => self.add("storage_hedge_wins_total", base.clone(), 1.0),
            "circuit_open" => {
                self.add("storage_circuit_open_total", base.clone(), 1.0);
            }
            "circuit_close" => self.add("storage_circuit_closed_total", base.clone(), 1.0),
            "circuit_reject" => self.add("storage_circuit_rejected_total", base.clone(), 1.0),
            "brownout_enter" => {
                self.add("storage_brownout_entered_total", base.clone(), 1.0);
                self.set("storage_brownout", base.clone(), 1.0);
            }
            "brownout_exit" => self.set("storage_brownout", base.clone(), 0.0),
            _ => return false,
        }
        true
    }

    // -- Exposition --------------------------------------------------------

    /// Render every series as Prometheus text exposition. Counters render
    /// as `counter`, gauges as `gauge`, histograms as `summary` quantile
    /// series (values in milliseconds) plus a `_count` line.
    pub fn render_prometheus(&self) -> String {
        let s = self.series.lock().unwrap();
        let mut out = String::new();
        let mut last_name = "";
        for ((name, labels), series) in s.iter() {
            let metric = sanitize_name(name);
            if name != last_name {
                let kind = match series {
                    Series::Counter(_) => "counter",
                    Series::Gauge(_) => "gauge",
                    Series::Histogram(_) => "summary",
                };
                let _ = writeln!(out, "# TYPE {metric} {kind}");
                last_name = name;
            }
            match series {
                Series::Counter(v) | Series::Gauge(v) => {
                    let _ =
                        writeln!(out, "{metric}{} {}", render_labels(labels, None), fmt_f64(*v));
                }
                Series::Histogram(acc) => {
                    let snap = acc.snapshot();
                    for (q, v) in
                        [("0.5", snap.p50_ms), ("0.9", snap.p90_ms), ("0.99", snap.p99_ms)]
                    {
                        let _ = writeln!(
                            out,
                            "{metric}{} {}",
                            render_labels(labels, Some(q)),
                            fmt_f64(v)
                        );
                    }
                    let _ = writeln!(
                        out,
                        "{metric}_count{} {}",
                        render_labels(labels, None),
                        snap.count
                    );
                }
            }
        }
        out
    }
}

fn sample(name: &str, labels: &Labels, v: &Series) -> SeriesSample {
    SeriesSample {
        name: name.to_string(),
        labels: labels.clone(),
        value: match v {
            Series::Counter(v) => SeriesValue::Counter(*v),
            Series::Gauge(v) => SeriesValue::Gauge(*v),
            Series::Histogram(acc) => SeriesValue::Histogram(acc.snapshot()),
        },
    }
}

/// Prometheus metric names are `[a-zA-Z_:][a-zA-Z0-9_:]*`.
fn sanitize_name(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '_' || c == ':' { c } else { '_' })
        .collect();
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

fn render_labels(labels: &Labels, quantile: Option<&str>) -> String {
    if labels.is_empty() && quantile.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{}=\"{}\"", sanitize_name(k), escape_label(v)))
        .collect();
    if let Some(q) = quantile {
        parts.push(format!("quantile=\"{q}\""));
    }
    format!("{{{}}}", parts.join(","))
}

/// Render without float noise: integers print as integers.
fn fmt_f64(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_histograms() {
        let reg = MetricsRegistry::new();
        let l = labels([("job", "a")]);
        reg.add("commit_total", l.clone(), 1.0);
        reg.add("commit_total", l.clone(), 2.0);
        assert_eq!(reg.value("commit_total", &l), Some(3.0));
        reg.set("hot_hit_rate", l.clone(), 0.75);
        reg.set("hot_hit_rate", l.clone(), 0.5);
        assert_eq!(reg.value("hot_hit_rate", &l), Some(0.5));
        for ms in [10.0, 20.0, 30.0] {
            reg.observe_ms("save_stall_ms", l.clone(), ms);
        }
        let h = reg.histogram("save_stall_ms", &l).unwrap();
        assert_eq!(h.count, 3);
        assert_eq!(h.p50_ms, 20.0);
        // Distinct labels are distinct series.
        reg.add("commit_total", labels([("job", "b")]), 7.0);
        assert_eq!(reg.value("commit_total", &l), Some(3.0));
        assert_eq!(reg.samples_for("commit_total").len(), 2);
        assert_eq!(reg.sum("commit_total"), 10.0);
    }

    #[test]
    fn counter_ignores_negative_and_type_confusion() {
        let reg = MetricsRegistry::new();
        let l = Labels::new();
        reg.add("c", l.clone(), 5.0);
        reg.add("c", l.clone(), -3.0);
        assert_eq!(reg.value("c", &l), Some(5.0));
        // A set() against an existing counter does not clobber it.
        reg.set("c", l.clone(), 0.0);
        assert_eq!(reg.value("c", &l), Some(5.0));
    }

    fn span(name: &str, rank: usize, ms: u64, io_bytes: u64) -> SpanRecord {
        SpanRecord {
            name: name.into(),
            rank,
            duration: Duration::from_millis(ms),
            io_bytes,
            ..SpanRecord::default()
        }
    }

    #[test]
    fn fold_storage_and_phase_spans() {
        let reg = MetricsRegistry::new();
        let base = labels([("job", "j")]);
        reg.fold(&span("storage/disk/write", 1, 100, 1 << 20), &base);
        reg.fold(&span("save/upload", 1, 50, 0), &base);
        let sl = labels([("job", "j"), ("backend", "disk"), ("op", "write"), ("rank", "1")]);
        assert_eq!(reg.value("storage_op_total", &sl), Some(1.0));
        assert_eq!(reg.value("storage_io_bytes_total", &sl), Some((1 << 20) as f64));
        let pl = labels([("job", "j"), ("phase", "save/upload"), ("op", "save"), ("rank", "1")]);
        assert_eq!(reg.histogram("phase_ms", &pl).unwrap().count, 1);
        assert!(reg.value("governor_wait_seconds", &base).is_none());
    }

    #[test]
    fn dist_spans_feed_read_cache_and_fanout_series() {
        let reg = MetricsRegistry::new();
        let base = labels([("job", "j")]);
        for _ in 0..3 {
            reg.fold(&span("dist/read_cache/hit", 0, 0, 100), &base);
        }
        reg.fold(&span("dist/read_cache/miss", 0, 0, 400), &base);
        reg.fold(&span("dist/fanout/peer", 0, 0, 1 << 20), &base);
        reg.fold(&span("dist/fanout/backend", 0, 0, 1 << 10), &base);
        assert_eq!(reg.value("read_cache_hits_total", &base), Some(3.0));
        assert_eq!(reg.value("read_cache_misses_total", &base), Some(1.0));
        assert_eq!(reg.value("read_cache_bytes_saved_total", &base), Some(300.0));
        assert_eq!(reg.value("read_cache_hit_rate", &base), Some(0.75));
        assert_eq!(reg.value("fanout_peer_bytes_total", &base), Some((1 << 20) as f64));
        assert_eq!(reg.value("fanout_backend_bytes_total", &base), Some((1 << 10) as f64));
        // dist spans are per-job counters, not phases.
        assert!(reg.samples_for("phase_seconds_total").is_empty());
        // Unrecognized dist names fall through to the phase branch.
        reg.fold(&span("dist/unknown/thing", 0, 1, 0), &base);
        assert_eq!(reg.samples_for("phase_seconds_total").len(), 1);
    }

    #[test]
    fn resilience_spans_feed_storage_series() {
        let reg = MetricsRegistry::new();
        let base = labels([("job", "j")]);
        let point = |name: &str| span(name, 0, 0, 0);
        for _ in 0..3 {
            reg.fold(&point("resil/retry"), &base);
        }
        let mut throttled = point("resil/throttled");
        throttled.attrs.insert("retry_after_ms".into(), "250".into());
        reg.fold(&throttled, &base);
        reg.fold(&point("resil/hedge"), &base);
        reg.fold(&point("resil/hedge_win"), &base);
        reg.fold(&point("resil/circuit_open"), &base);
        reg.fold(&point("resil/circuit_reject"), &base);
        reg.fold(&point("resil/brownout_enter"), &base);
        assert_eq!(reg.value("storage_retries_total", &base), Some(3.0));
        assert_eq!(reg.value("storage_throttled_total", &base), Some(1.0));
        assert_eq!(reg.value("storage_retry_after_seconds_total", &base), Some(0.25));
        assert_eq!(reg.value("storage_hedges_total", &base), Some(1.0));
        assert_eq!(reg.value("storage_hedge_wins_total", &base), Some(1.0));
        assert_eq!(reg.value("storage_circuit_open_total", &base), Some(1.0));
        assert_eq!(reg.value("storage_circuit_rejected_total", &base), Some(1.0));
        assert_eq!(reg.value("storage_brownout", &base), Some(1.0));
        reg.fold(&point("resil/brownout_exit"), &base);
        assert_eq!(reg.value("storage_brownout", &base), Some(0.0));
        // resil spans are per-job counters, not phases; unknown names
        // fall through to the phase branch.
        assert!(reg.samples_for("phase_seconds_total").is_empty());
        reg.fold(&point("resil/unknown"), &base);
        assert_eq!(reg.samples_for("phase_seconds_total").len(), 1);
    }

    #[test]
    fn governed_wait_feeds_per_job_counter() {
        let reg = MetricsRegistry::new();
        let base = labels([("job", "j")]);
        for _ in 0..2 {
            reg.fold(&span("storage/governed/wait", 0, 250, 0), &base);
        }
        let v = reg.value("governor_wait_seconds", &base).unwrap();
        assert!((v - 0.5).abs() < 1e-6, "got {v}");
    }

    #[test]
    fn tier_spans_feed_hot_hit_rate() {
        let reg = MetricsRegistry::new();
        let base = labels([("job", "j")]);
        let mut tier = span("load/tier", 0, 2, 0);
        for (k, v) in [("hot_files", "3"), ("cold_files", "1"), ("hot_bytes", "300")] {
            tier.attrs.insert(k.to_string(), v.to_string());
        }
        reg.fold(&tier, &base);
        assert_eq!(reg.value("hot_hit_rate", &base), Some(0.75));
        let hl = labels([("job", "j"), ("tier", "hot")]);
        assert_eq!(reg.value("tier_files_total", &hl), Some(3.0));
        assert_eq!(reg.value("tier_bytes_total", &hl), Some(300.0));
    }

    #[test]
    fn prometheus_exposition_is_well_formed() {
        let reg = MetricsRegistry::new();
        reg.add("commit_total", labels([("job", "a-1")]), 4.0);
        reg.set("hot_hit_rate", labels([("job", "a-1")]), 0.9);
        reg.observe_ms("save_stall_ms", labels([("job", "a-1")]), 12.5);
        reg.add("odd name!", labels([("k", "va\"lue")]), 1.0);
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE commit_total counter"), "{text}");
        assert!(text.contains("commit_total{job=\"a-1\"} 4"), "{text}");
        assert!(text.contains("# TYPE hot_hit_rate gauge"), "{text}");
        assert!(text.contains("hot_hit_rate{job=\"a-1\"} 0.9"), "{text}");
        assert!(text.contains("# TYPE save_stall_ms summary"), "{text}");
        assert!(text.contains("save_stall_ms{job=\"a-1\",quantile=\"0.99\"} 12.5"), "{text}");
        assert!(text.contains("save_stall_ms_count{job=\"a-1\"} 1"), "{text}");
        assert!(text.contains("odd_name_{k=\"va\\\"lue\"} 1"), "{text}");
        // Every non-comment line is `name{...} value` or `name value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (_, value) = line.rsplit_once(' ').expect("line has a value");
            assert!(value.parse::<f64>().is_ok(), "bad exposition line: {line}");
        }
    }

    #[test]
    fn series_sample_serde_round_trip() {
        let reg = MetricsRegistry::new();
        reg.add("c", labels([("job", "x")]), 2.0);
        reg.observe_ms("h", labels([("job", "x")]), 5.0);
        let samples = reg.samples();
        let json = serde_json::to_string(&samples).unwrap();
        let back: Vec<SeriesSample> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, samples);
    }
}
