//! Machine-readable telemetry report (`bcpctl report --json`).
//!
//! The same analysis the human report renders — per-phase percentiles,
//! critical path, slow-I/O / failure / drop / regression alerts — as one
//! serializable document, so CI and the bench harness can diff reports
//! without scraping the table layout.

use crate::analysis::{critical_path, phase_percentiles, regressions, slow_ios};
use crate::telemetry::StepTelemetry;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::time::Duration;

/// One phase's percentile row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JsonPhase {
    /// Phase name, e.g. `"save/upload"`.
    pub name: String,
    /// Number of samples across ranks/occurrences.
    pub count: usize,
    /// Sum of all samples, milliseconds.
    pub total_ms: f64,
    /// Median, milliseconds.
    pub p50_ms: f64,
    /// 95th percentile, milliseconds.
    pub p95_ms: f64,
    /// 99th percentile, milliseconds.
    pub p99_ms: f64,
    /// Slowest sample, milliseconds.
    pub max_ms: f64,
}

/// The straggler rank that gated the step.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JsonCriticalPath {
    /// Slowest rank.
    pub rank: usize,
    /// Its total under the op prefix, milliseconds.
    pub total_ms: f64,
    /// Median per-rank total, milliseconds.
    pub median_total_ms: f64,
    /// Phase dominating the slowest rank.
    pub dominant_phase: String,
    /// Time in the dominant phase, milliseconds.
    pub dominant_ms: f64,
}

/// One alert row (`kind` ∈ `slow_io`, `failure`, `dropped_events`,
/// `regression`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JsonAlert {
    /// Alert category.
    pub kind: String,
    /// Rank involved, when the alert is rank-scoped.
    #[serde(default)]
    pub rank: Option<usize>,
    /// Human-readable description.
    pub detail: String,
}

/// The full machine-readable report for one step's artifact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JsonReport {
    /// Step analyzed.
    pub step: u64,
    /// `"save"` or `"load"`.
    pub op: String,
    /// Artifact lines (ranks) present.
    pub ranks: usize,
    /// Per-phase percentile table, name-ascending.
    pub phases: Vec<JsonPhase>,
    /// Straggler analysis (absent when no op-prefixed counted spans exist).
    #[serde(default)]
    pub critical_path: Option<JsonCriticalPath>,
    /// Slow-I/O / failure / drop / regression alerts.
    #[serde(default)]
    pub alerts: Vec<JsonAlert>,
    /// Telemetry events dropped at the bounded hubs (undercount marker).
    #[serde(default)]
    pub dropped_records: u64,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

impl JsonReport {
    /// Assemble the report from a step's artifact. `min_bps` is the slow-I/O
    /// threshold; `baseline` holds the per-phase totals of other committed
    /// steps (empty slice = skip the regression check); `regression_factor`
    /// is the slowdown ratio that trips a regression alert.
    pub fn build(
        step: u64,
        op: &str,
        doc: &StepTelemetry,
        min_bps: f64,
        baseline: &[BTreeMap<String, Duration>],
        regression_factor: f64,
    ) -> JsonReport {
        let spans = doc.all_spans();
        let stats = phase_percentiles(&spans);
        let phases = stats
            .iter()
            .map(|(name, st)| JsonPhase {
                name: name.clone(),
                count: st.count,
                total_ms: ms(st.total),
                p50_ms: ms(st.p50),
                p95_ms: ms(st.p95),
                p99_ms: ms(st.p99),
                max_ms: ms(st.max),
            })
            .collect();
        let cp = critical_path(&spans, &format!("{op}/")).map(|cp| JsonCriticalPath {
            rank: cp.rank,
            total_ms: ms(cp.total),
            median_total_ms: ms(cp.median_total),
            dominant_phase: cp.dominant_phase,
            dominant_ms: ms(cp.dominant),
        });

        let mut alerts = Vec::new();
        for rec in slow_ios(&spans, min_bps) {
            alerts.push(JsonAlert {
                kind: "slow_io".into(),
                rank: Some(rec.rank),
                detail: format!(
                    "{} {} bytes at {:.1} MB/s (path {})",
                    rec.name,
                    rec.io_bytes,
                    rec.io_bytes as f64 / rec.duration.as_secs_f64().max(1e-9) / 1e6,
                    rec.path.as_deref().unwrap_or("-")
                ),
            });
        }
        for f in doc.all_failures() {
            alerts.push(JsonAlert {
                kind: "failure".into(),
                rank: Some(f.rank),
                detail: format!(
                    "{} attempt {}{} — {}",
                    f.stage,
                    f.attempt,
                    if f.retried { " (retried)" } else { "" },
                    f.error
                ),
            });
        }
        let dropped_records = doc.dropped_records();
        if dropped_records > 0 {
            alerts.push(JsonAlert {
                kind: "dropped_events".into(),
                rank: None,
                detail: format!("{dropped_records} telemetry events dropped; totals undercount"),
            });
        }
        if !baseline.is_empty() {
            let totals = stats.into_iter().map(|(name, st)| (name, st.total)).collect();
            for r in regressions(&totals, baseline, regression_factor) {
                alerts.push(JsonAlert {
                    kind: "regression".into(),
                    rank: None,
                    detail: format!(
                        "{} at {:.1} ms is {:.2}x the baseline mean {:.1} ms",
                        r.phase,
                        ms(r.current),
                        r.factor,
                        ms(r.baseline)
                    ),
                });
            }
        }

        JsonReport {
            step,
            op: op.to_string(),
            ranks: doc.ranks.len(),
            phases,
            critical_path: cp,
            alerts,
            dropped_records,
        }
    }

    /// Pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("JsonReport serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanRecord;
    use crate::telemetry::RankTelemetry;

    fn rec(name: &str, rank: usize, ms: u64, io: u64) -> SpanRecord {
        SpanRecord {
            name: name.into(),
            rank,
            step: 4,
            duration: Duration::from_millis(ms),
            io_bytes: io,
            counted: true,
            ..SpanRecord::default()
        }
    }

    fn doc() -> StepTelemetry {
        StepTelemetry {
            ranks: vec![
                RankTelemetry {
                    rank: 0,
                    step: 4,
                    op: "save".into(),
                    spans: vec![rec("save/upload", 0, 20, 1 << 20)],
                    failures: Vec::new(),
                    dropped_records: 2,
                },
                RankTelemetry {
                    rank: 1,
                    step: 4,
                    op: "save".into(),
                    // 1000 bytes over 1s: pathologically slow.
                    spans: vec![rec("save/upload", 1, 1000, 1000)],
                    failures: Vec::new(),
                    dropped_records: 0,
                },
            ],
        }
    }

    #[test]
    fn report_assembles_phases_critical_path_and_alerts() {
        let r = JsonReport::build(4, "save", &doc(), 1e6, &[], 1.5);
        assert_eq!(r.step, 4);
        assert_eq!(r.ranks, 2);
        assert_eq!(r.phases.len(), 1);
        assert_eq!(r.phases[0].name, "save/upload");
        assert_eq!(r.phases[0].count, 2);
        let cp = r.critical_path.as_ref().unwrap();
        assert_eq!(cp.rank, 1);
        assert_eq!(cp.dominant_phase, "save/upload");
        assert_eq!(r.dropped_records, 2);
        let kinds: Vec<&str> = r.alerts.iter().map(|a| a.kind.as_str()).collect();
        assert!(kinds.contains(&"slow_io"), "{kinds:?}");
        assert!(kinds.contains(&"dropped_events"), "{kinds:?}");
    }

    #[test]
    fn regression_alerts_against_baseline() {
        let mut base = BTreeMap::new();
        base.insert("save/upload".to_string(), Duration::from_millis(10));
        let r = JsonReport::build(4, "save", &doc(), 0.0, &[base], 1.5);
        assert!(
            r.alerts.iter().any(|a| a.kind == "regression" && a.detail.contains("save/upload")),
            "{:?}",
            r.alerts
        );
    }

    #[test]
    fn json_round_trips() {
        let r = JsonReport::build(4, "save", &doc(), 1e6, &[], 1.5);
        let back: JsonReport = serde_json::from_str(&r.to_json()).unwrap();
        assert_eq!(back, r);
    }
}
