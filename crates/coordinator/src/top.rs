//! The `bcpctl top` payload and renderer: a point-in-time snapshot of
//! every job's checkpoint traffic — commit counts and latency percentiles,
//! granted bandwidth shares, governor/scheduler wait, alert history — plus
//! the plane's currently active alerts.
//!
//! The snapshot is a wire type ([`crate::wire::Response::Top`]); the CLI
//! polls it and diffs consecutive snapshots to derive live rates.

use crate::registry::JobSummary;
use bcp_monitor::AlertEvent;
use serde::{Deserialize, Serialize};

/// One job's row in the top view.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobTopRow {
    /// Everything the job registry knows (commits, latency, alerts, ...).
    pub summary: JobSummary,
    /// Bytes the fair-share scheduler has granted this job so far.
    #[serde(default)]
    pub granted_bytes: u64,
    /// This job's share of all granted bytes (0..=1; 0 when nothing granted).
    #[serde(default)]
    pub bandwidth_share: f64,
    /// Total seconds this job's transfers waited in the scheduler.
    #[serde(default)]
    pub sched_wait_s: f64,
    /// Total governed-wait seconds folded from the job's telemetry
    /// (`governor_wait_seconds{job}`).
    #[serde(default)]
    pub governor_wait_s: f64,
    /// Storage retries folded from the job's telemetry
    /// (`storage_retries_total{job}`).
    #[serde(default)]
    pub storage_retries: u64,
    /// Throttled (slow-down) responses (`storage_throttled_total{job}`).
    #[serde(default)]
    pub storage_throttled: u64,
}

/// The compact RESIL cell: `-` when the retry loop has nothing to report,
/// otherwise `{retries}r/{throttled}t`.
fn resil_cell(row: &JobTopRow) -> String {
    if row.storage_retries == 0 && row.storage_throttled == 0 {
        return "-".into();
    }
    format!("{}r/{}t", row.storage_retries, row.storage_throttled)
}

/// The full `bcpctl top` snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct TopSnapshot {
    /// Per-job rows, job-id ascending.
    pub jobs: Vec<JobTopRow>,
    /// Alerts currently active (unrecovered) in the plane.
    #[serde(default)]
    pub active_alerts: Vec<AlertEvent>,
    /// Live series in the metrics registry.
    #[serde(default)]
    pub series: usize,
    /// Telemetry events dropped at slow subscribers.
    #[serde(default)]
    pub subscriber_dropped: u64,
    /// Coordinator restarts recovered from the journal lineage.
    #[serde(default)]
    pub restarts: u64,
    /// Control-plane records durably journaled so far.
    #[serde(default)]
    pub journal_records: u64,
    /// Leases that expired (jobs flipped to `Lost`).
    #[serde(default)]
    pub lease_expired: u64,
    /// Requests rejected with [`crate::wire::Response::Fenced`].
    #[serde(default)]
    pub fenced_requests: u64,
    /// Client reconnects reported via heartbeats.
    #[serde(default)]
    pub client_reconnects: u64,
}

fn human_bytes(n: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = n as f64;
    let mut unit = 0;
    while v >= 1024.0 && unit < UNITS.len() - 1 {
        v /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{n} B")
    } else {
        format!("{v:.1} {}", UNITS[unit])
    }
}

/// Render a snapshot as the `bcpctl top` text view. When `prev` holds the
/// previous snapshot and the seconds between the two, per-job commit and
/// byte rates are derived from the diff; otherwise the rate columns show
/// `-`.
pub fn render_top(cur: &TopSnapshot, prev: Option<(&TopSnapshot, f64)>) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "bcp-coordinator top — {} job(s), {} series, {} subscriber drop(s)\n",
        cur.jobs.len(),
        cur.series,
        cur.subscriber_dropped
    ));
    out.push_str(&format!(
        "survivability: {} restart(s) · {} journal record(s) · {} lease(s) expired · {} fenced request(s) · {} client reconnect(s)\n",
        cur.restarts, cur.journal_records, cur.lease_expired, cur.fenced_requests, cur.client_reconnects
    ));
    out.push_str(&format!(
        "{:<14} {:>6} {:>5} {:>7} {:>9} {:>9} {:>10} {:>8} {:>8} {:>8} {:>6} {:>9} {:>9} {:>12} {:>6}\n",
        "JOB",
        "STATE",
        "GEN",
        "COMMITS",
        "COMMIT/S",
        "LAST",
        "BYTES",
        "MB/S",
        "P50ms",
        "P99ms",
        "SHARE",
        "SCHED-W s",
        "GOV-W s",
        "RESIL",
        "ALERTS"
    ));
    for row in &cur.jobs {
        let s = &row.summary;
        let (commit_rate, byte_rate) = prev
            .and_then(|(p, dt)| {
                if dt <= 0.0 {
                    return None;
                }
                let old = p.jobs.iter().find(|r| r.summary.job_id == s.job_id)?;
                Some((
                    (s.commits.saturating_sub(old.summary.commits)) as f64 / dt,
                    (s.bytes_committed.saturating_sub(old.summary.bytes_committed)) as f64 / dt,
                ))
            })
            .map(|(c, b)| (format!("{c:.2}"), format!("{:.1}", b / 1e6)))
            .unwrap_or_else(|| ("-".into(), "-".into()));
        out.push_str(&format!(
            "{:<14} {:>6} {:>5} {:>7} {:>9} {:>9} {:>10} {:>8} {:>8.1} {:>8.1} {:>5.0}% {:>9.3} {:>9.3} {:>12} {:>6}\n",
            s.job_id,
            s.state.label(),
            s.generation,
            s.commits,
            commit_rate,
            s.last_step.map_or_else(|| "-".to_string(), |v| v.to_string()),
            human_bytes(s.bytes_committed),
            byte_rate,
            s.latency.p50_ms,
            s.latency.p99_ms,
            row.bandwidth_share * 100.0,
            row.sched_wait_s,
            row.governor_wait_s,
            resil_cell(row),
            s.alerts_fired,
        ));
    }
    if cur.active_alerts.is_empty() {
        out.push_str("alerts: none active\n");
    } else {
        out.push_str(&format!("alerts: {} active\n", cur.active_alerts.len()));
        for a in &cur.active_alerts {
            out.push_str(&format!("  [{}] {}\n", a.rule, a.message));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcp_monitor::{labels, LatencySnapshot};

    fn row(job: &str, commits: u64, bytes: u64) -> JobTopRow {
        JobTopRow {
            summary: JobSummary {
                job_id: job.into(),
                world_size: 4,
                weight: 2,
                generation: 1,
                registered_for_s: 10.0,
                commits,
                last_step: Some(30),
                bytes_committed: bytes,
                latency: LatencySnapshot {
                    count: commits,
                    mean_ms: 11.0,
                    p50_ms: 10.0,
                    p90_ms: 20.0,
                    p99_ms: 40.0,
                    max_ms: 50.0,
                },
                alerts_fired: 1,
                recent_alerts: Vec::new(),
                state: Default::default(),
                lease_age_s: 0.0,
            },
            granted_bytes: bytes,
            bandwidth_share: 0.5,
            sched_wait_s: 0.25,
            governor_wait_s: 0.125,
            storage_retries: 4,
            storage_throttled: 7,
        }
    }

    /// One job with retries and throttles, and one active alert.
    fn snapshot() -> TopSnapshot {
        TopSnapshot {
            jobs: vec![row("a", 3, 3 << 20)],
            active_alerts: vec![AlertEvent {
                rule: "save_stall".into(),
                metric: "save_stall_ms".into(),
                labels: labels([("job", "a")]),
                stat: "p99".into(),
                value: 200000.0,
                threshold: 120000.0,
                message: "p99:save_stall_ms{job=a} = 200000 > 120000".into(),
            }],
            series: 12,
            subscriber_dropped: 2,
            restarts: 1,
            journal_records: 42,
            lease_expired: 1,
            fenced_requests: 2,
            client_reconnects: 3,
        }
    }

    #[test]
    fn snapshot_serde_round_trip() {
        let snap = snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: TopSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    /// [`snapshot`] as a `serve` of the parent revision sent it: its rows
    /// also carried a read-cache hit rate and a fan-out peer byte count.
    const PARENT_FORMAT_LINE: &str = r#"{"jobs":[{"summary":{"job_id":"a","world_size":4,"weight":2,"generation":1,"registered_for_s":10.0,"commits":3,"last_step":30,"bytes_committed":3145728,"latency":{"count":3,"mean_ms":11.0,"p50_ms":10.0,"p90_ms":20.0,"p99_ms":40.0,"max_ms":50.0},"alerts_fired":1,"recent_alerts":[],"state":"Active","lease_age_s":0.0},"granted_bytes":3145728,"bandwidth_share":0.5,"sched_wait_s":0.25,"governor_wait_s":0.125,"read_cache_hit_rate":0.75,"fanout_peer_bytes":2097152,"storage_retries":4,"storage_throttled":7}],"active_alerts":[{"rule":"save_stall","metric":"save_stall_ms","labels":{"job":"a"},"stat":"p99","value":200000.0,"threshold":120000.0,"message":"p99:save_stall_ms{job=a} = 200000 > 120000"}],"series":12,"subscriber_dropped":2,"restarts":1,"journal_records":42,"lease_expired":1,"fenced_requests":2,"client_reconnects":3}"#;

    /// A new `bcpctl top` polling a `serve` that has not been upgraded: the
    /// two dropped fields are skipped, everything else decodes and renders.
    #[test]
    fn a_parent_snapshot_decodes_and_renders() {
        let back: TopSnapshot = serde_json::from_str(PARENT_FORMAT_LINE).expect("old line decodes");
        assert_eq!(back, snapshot());
        let text = render_top(&back, None);
        assert!(text.contains("4r/7t"), "{text}");
        assert!(text.contains("alerts: 1 active"), "{text}");
        assert!(text.contains("[save_stall] p99:save_stall_ms{job=a} = 200000 > 120000"), "{text}");
    }

    #[test]
    fn render_shows_jobs_rates_and_alerts() {
        let prev = TopSnapshot { jobs: vec![row("a", 1, 1 << 20)], ..TopSnapshot::default() };
        let cur = TopSnapshot {
            jobs: vec![row("a", 3, 3 << 20)],
            active_alerts: vec![AlertEvent {
                rule: "save_stall".into(),
                metric: "save_stall_ms".into(),
                labels: labels([("job", "a")]),
                stat: "p99".into(),
                value: 2.0,
                threshold: 1.0,
                message: "stalled".into(),
            }],
            series: 9,
            subscriber_dropped: 0,
            restarts: 1,
            lease_expired: 2,
            ..TopSnapshot::default()
        };
        let text = render_top(&cur, Some((&prev, 2.0)));
        assert!(text.contains("JOB"), "{text}");
        assert!(text.contains("STATE"), "{text}");
        assert!(text.contains("active"), "{text}");
        assert!(text.contains("1 restart(s)"), "{text}");
        assert!(text.contains("2 lease(s) expired"), "{text}");
        assert!(text.contains('a'), "{text}");
        // 2 commits over 2 seconds = 1.00/s; 2 MiB over 2s ≈ 1.0 MB/s.
        assert!(text.contains("1.00"), "{text}");
        assert!(text.contains("[save_stall] stalled"), "{text}");
        assert!(text.contains("50%"), "{text}");
        assert!(text.contains("RESIL"), "{text}");
        assert!(text.contains("4r/7t"), "{text}");
        // A quiet job shows a dash in the RESIL column.
        let mut calm = row("b", 1, 1);
        calm.storage_retries = 0;
        calm.storage_throttled = 0;
        assert_eq!(resil_cell(&calm), "-");
        let mut throttled = calm.clone();
        throttled.storage_throttled = 1;
        assert_eq!(resil_cell(&throttled), "0r/1t");

        let first = render_top(&cur, None);
        assert!(first.contains(" - "), "no-prev renders dashes: {first}");
        let quiet = render_top(&TopSnapshot::default(), None);
        assert!(quiet.contains("alerts: none active"), "{quiet}");
    }
}
