//! Persisted per-step telemetry artifacts.
//!
//! Every committed step writes a `_telemetry.jsonl` file next to the
//! checkpoint (via the normal storage backend): one JSON line per rank,
//! holding that rank's span tree, its failure log, and the count of spans
//! dropped while the step ran. The artifact is what makes the paper's §5.3
//! diagnosis workflow *offline* — `bcpctl report` and the analysis/export
//! modules consume it long after the training processes are gone.
//!
//! Lines written before spans became the only event also carried a `records`
//! array of flat metric records; the decoder looks fields up by name, so
//! such a line still parses and the array is ignored (its records came from
//! subsystems that no longer exist).

use crate::span::SpanRecord;
use serde::{Deserialize, Serialize};

/// Telemetry artifact written next to each committed save.
pub const TELEMETRY_SAVE_FILE: &str = "_telemetry.jsonl";
/// Telemetry artifact written after each completed load of a step.
pub const TELEMETRY_LOAD_FILE: &str = "_telemetry_load.jsonl";

/// One logged failure inside a checkpoint pipeline (re-exported as
/// `bcp_core::integrity::FailureRecord`, whose `FailureLog` collects them).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FailureRecord {
    /// Rank where the failure happened.
    pub rank: usize,
    /// Pipeline stage name (e.g. `"save/upload"`).
    pub stage: String,
    /// Path involved, when applicable.
    #[serde(default)]
    pub path: Option<String>,
    /// Attempt number (1-based).
    pub attempt: u32,
    /// Error description.
    pub error: String,
    /// Whether a retry followed.
    pub retried: bool,
}

/// One rank's telemetry for one step — one JSON line of the artifact.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RankTelemetry {
    /// Producing rank.
    pub rank: usize,
    /// Step the telemetry describes.
    pub step: u64,
    /// `"save"` or `"load"`.
    pub op: String,
    /// The rank's span tree for the step.
    #[serde(default)]
    pub spans: Vec<SpanRecord>,
    /// Failures logged by this rank.
    #[serde(default)]
    pub failures: Vec<FailureRecord>,
    /// Spans dropped at this rank (bounded hub overflow) since its previous
    /// artifact line; non-zero means this line undercounts.
    #[serde(default)]
    pub dropped_records: u64,
}

/// A full step's telemetry: every rank's line, coordinator-gathered.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct StepTelemetry {
    /// Per-rank telemetry, in gather order (rank-ascending).
    pub ranks: Vec<RankTelemetry>,
}

impl StepTelemetry {
    /// Serialize as JSON-lines: one rank per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for rank in &self.ranks {
            // RankTelemetry contains no unserializable types; failure here
            // would be a bug, and a lost line is worse than a panic in the
            // writer's error path — so fall back to an empty line never.
            out.push_str(&serde_json::to_string(rank).expect("serialize RankTelemetry"));
            out.push('\n');
        }
        out
    }

    /// Parse a JSON-lines artifact (blank lines ignored).
    pub fn from_jsonl(text: &str) -> Result<StepTelemetry, String> {
        let mut ranks = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let rank: RankTelemetry =
                serde_json::from_str(line).map_err(|e| format!("telemetry line {}: {e}", i + 1))?;
            ranks.push(rank);
        }
        Ok(StepTelemetry { ranks })
    }

    /// The step described, from the first line.
    pub fn step(&self) -> Option<u64> {
        self.ranks.first().map(|r| r.step)
    }

    /// The operation described (`"save"` / `"load"`), from the first line.
    pub fn op(&self) -> Option<&str> {
        self.ranks.first().map(|r| r.op.as_str())
    }

    /// Every span from every rank — the input of the [`crate::analysis`]
    /// queries and the exporters.
    pub fn all_spans(&self) -> Vec<SpanRecord> {
        self.ranks.iter().flat_map(|r| r.spans.iter().cloned()).collect()
    }

    /// Every logged failure from every rank.
    pub fn all_failures(&self) -> Vec<FailureRecord> {
        self.ranks.iter().flat_map(|r| r.failures.iter().cloned()).collect()
    }

    /// Sum of dropped-span counters across ranks.
    pub fn dropped_records(&self) -> u64 {
        self.ranks.iter().map(|r| r.dropped_records).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{breakdown_for_rank, total_by_rank};
    use std::time::Duration;

    fn span(
        id: u64,
        parent: Option<u64>,
        name: &str,
        rank: usize,
        ms: u64,
        counted: bool,
    ) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: name.into(),
            rank,
            step: 7,
            start_us: id * 10,
            duration: Duration::from_millis(ms),
            counted,
            ..SpanRecord::default()
        }
    }

    fn artifact() -> StepTelemetry {
        StepTelemetry {
            ranks: vec![
                RankTelemetry {
                    rank: 0,
                    step: 7,
                    op: "save".into(),
                    spans: vec![
                        span(1, None, "save", 0, 50, false),
                        span(2, Some(1), "save/upload", 0, 40, true),
                        span(3, Some(1), "save/plan", 0, 2, true),
                    ],
                    failures: vec![FailureRecord {
                        rank: 0,
                        stage: "save/upload".into(),
                        path: Some("f.bin".into()),
                        attempt: 1,
                        error: "flaky".into(),
                        retried: true,
                    }],
                    dropped_records: 3,
                },
                RankTelemetry {
                    rank: 1,
                    step: 7,
                    op: "save".into(),
                    spans: vec![
                        span(10, None, "save", 1, 90, false),
                        span(11, Some(10), "save/upload", 1, 80, true),
                    ],
                    failures: vec![],
                    dropped_records: 0,
                },
            ],
        }
    }

    #[test]
    fn jsonl_roundtrip() {
        let art = artifact();
        let text = art.to_jsonl();
        assert_eq!(text.lines().count(), 2);
        let back = StepTelemetry::from_jsonl(&text).unwrap();
        assert_eq!(back.ranks.len(), 2);
        assert_eq!(back.step(), Some(7));
        assert_eq!(back.op(), Some("save"));
        assert_eq!(back.ranks[0].spans, art.ranks[0].spans);
        assert_eq!(back.ranks[0].failures, art.ranks[0].failures);
        assert_eq!(back.dropped_records(), 3);
    }

    #[test]
    fn from_jsonl_rejects_garbage() {
        assert!(StepTelemetry::from_jsonl("not json\n").is_err());
        assert!(StepTelemetry::from_jsonl("\n\n").unwrap().ranks.is_empty());
    }

    #[test]
    fn aggregations_skip_uncounted_roots() {
        let spans = artifact().all_spans();
        let by_rank = total_by_rank(&spans, "save/");
        // Root "save" spans (uncounted) are excluded; the counted upload and
        // plan spans remain.
        assert_eq!(by_rank[&0], Duration::from_millis(42));
        assert_eq!(by_rank[&1], Duration::from_millis(80));
        let breakdown = breakdown_for_rank(&spans, 0);
        assert_eq!(breakdown["save/upload"], Duration::from_millis(40));
        assert_eq!(breakdown["save/plan"], Duration::from_millis(2));
        assert!(!breakdown.contains_key("save"));
    }
}
