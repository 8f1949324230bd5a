//! Live time-series registry: labeled counters and bounded-window
//! histograms that [`SpanRecord`]s fold into *incrementally*, instead of
//! only at artifact-drain time.
//!
//! `bcpctl metrics` and `bcpctl top` fold a committed step's persisted
//! spans into one registry and render it as Prometheus exposition text or
//! a per-phase table; a [`crate::MetricsSink::folding`] sink keeps one live.
//!
//! Series are keyed by `(name, labels)` where labels is a sorted map — the
//! conventional keys are `{job, rank, op, backend, phase}`.
//! Histograms reuse [`LatencyAccumulator`], so they are bounded-window with
//! exact nearest-rank percentiles, not unbounded reservoirs.

use crate::span::SpanRecord;
use crate::stats::{LatencyAccumulator, LatencySnapshot};
use crate::sync::lock;
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
#[derive(Debug, Clone, PartialEq)]
pub enum SeriesValue {
    /// Monotonically increasing sum.
    Counter(f64),
    /// Bounded-window percentile summary (milliseconds).
    Histogram(LatencySnapshot),
}

impl SeriesValue {
    /// The scalar value for counters (`None` for histograms).
    pub fn scalar(&self) -> Option<f64> {
        match self {
            SeriesValue::Counter(v) => Some(*v),
            SeriesValue::Histogram(_) => None,
        }
    }
}

/// A `(name, labels, value)` triple — the query/snapshot unit.
#[derive(Debug, Clone, PartialEq)]
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
        let mut s = lock(&self.series);
        // On a type mismatch (name reused), keep the existing series rather
        // than corrupting it.
        if let Series::Counter(v) =
            s.entry((name.to_string(), labels)).or_insert(Series::Counter(0.0))
        {
            *v += delta;
        }
    }

    /// Record one sample (milliseconds) into the bounded-window histogram
    /// `(name, labels)`.
    pub fn observe_ms(&self, name: &str, labels: Labels, ms: f64) {
        if !ms.is_finite() || ms < 0.0 {
            return;
        }
        let mut s = lock(&self.series);
        let e = s
            .entry((name.to_string(), labels))
            .or_insert_with(|| Series::Histogram(LatencyAccumulator::new(HISTOGRAM_WINDOW)));
        if let Series::Histogram(acc) = e {
            acc.record(Duration::from_secs_f64(ms / 1e3));
        }
    }

    /// Scalar value of a counter series, when present.
    pub fn value(&self, name: &str, labels: &Labels) -> Option<f64> {
        let s = lock(&self.series);
        match s.get(&(name.to_string(), labels.clone()))? {
            Series::Counter(v) => Some(*v),
            Series::Histogram(_) => None,
        }
    }

    /// Percentile snapshot of a histogram series, when present.
    pub fn histogram(&self, name: &str, labels: &Labels) -> Option<LatencySnapshot> {
        let s = lock(&self.series);
        match s.get(&(name.to_string(), labels.clone()))? {
            Series::Histogram(acc) => Some(acc.snapshot()),
            _ => None,
        }
    }

    /// Snapshot every series of one metric name.
    pub fn samples_for(&self, name: &str) -> Vec<SeriesSample> {
        let s = lock(&self.series);
        s.iter()
            .filter(|((n, _), _)| n == name)
            .map(|((name, labels), v)| sample(name, labels, v))
            .collect()
    }

    // -- Span folding -----------------------------------------------------

    /// Fold one span into the registry under `base` labels (typically
    /// `{job}`; the span's own rank/phase/backend labels are derived here) —
    /// the one mapping from spans to series, whether the span arrives
    /// through a folding sink or a persisted artifact.
    ///
    /// * `storage/<backend>/<op>` lands in the `storage_op_*` series keyed
    ///   `{backend, op, rank}`.
    /// * `resil/…` point spans feed per-job series. The engine's retry loop
    ///   (`bcp-core`'s `integrity::with_retries`, on every stack) emits
    ///   `retry` → `storage_retries_total` and `throttled` →
    ///   `storage_throttled_total`, its `retry_after_ms` attribute carrying
    ///   the server's hint into `storage_retry_after_seconds_total`.
    /// * Everything else — unrecognized `resil/` names included —
    ///   lands in the `phase_*` series keyed `{phase, op, rank}`.
    pub fn fold(&self, span: &SpanRecord, base: &Labels) {
        let secs = span.duration.as_secs_f64();
        if let Some(rest) = span.name.strip_prefix("resil/") {
            if self.fold_resilience(rest, span, base) {
                return;
            }
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
            _ => return false,
        }
        true
    }

    // -- Exposition --------------------------------------------------------

    /// Render every series as Prometheus text exposition. Counters render
    /// as `counter`, histograms as `summary` quantile
    /// series (values in milliseconds) plus a `_count` line.
    pub fn render_prometheus(&self) -> String {
        let s = lock(&self.series);
        let mut out = String::new();
        let mut last_name = "";
        for ((name, labels), series) in s.iter() {
            let metric = sanitize_name(name);
            if name != last_name {
                let kind = match series {
                    Series::Counter(_) => "counter",
                    Series::Histogram(_) => "summary",
                };
                let _ = writeln!(out, "# TYPE {metric} {kind}");
                last_name = name;
            }
            match series {
                Series::Counter(v) => {
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
    fn counters_and_histograms() {
        let reg = MetricsRegistry::new();
        let l = labels([("job", "a")]);
        reg.add("commit_total", l.clone(), 1.0);
        reg.add("commit_total", l.clone(), 2.0);
        assert_eq!(reg.value("commit_total", &l), Some(3.0));
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
    }

    #[test]
    fn counter_ignores_negative_and_type_confusion() {
        let reg = MetricsRegistry::new();
        let l = Labels::new();
        reg.add("c", l.clone(), 5.0);
        reg.add("c", l.clone(), -3.0);
        assert_eq!(reg.value("c", &l), Some(5.0));
        // A histogram sample against an existing counter does not clobber it.
        reg.observe_ms("c", l.clone(), 1.0);
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
        assert_eq!(reg.value("storage_retries_total", &base), Some(3.0));
        assert_eq!(reg.value("storage_throttled_total", &base), Some(1.0));
        assert_eq!(reg.value("storage_retry_after_seconds_total", &base), Some(0.25));
        // resil spans are per-job counters, not phases; unknown names
        // fall through to the phase branch.
        assert!(reg.samples_for("phase_seconds_total").is_empty());
        reg.fold(&point("resil/unknown"), &base);
        assert_eq!(reg.samples_for("phase_seconds_total").len(), 1);
    }

    #[test]
    fn prometheus_exposition_is_well_formed() {
        let reg = MetricsRegistry::new();
        reg.add("commit_total", labels([("job", "a-1")]), 4.0);
        reg.observe_ms("save_stall_ms", labels([("job", "a-1")]), 12.5);
        reg.add("odd name!", labels([("k", "va\"lue")]), 1.0);
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE commit_total counter"), "{text}");
        assert!(text.contains("commit_total{job=\"a-1\"} 4"), "{text}");
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
}
