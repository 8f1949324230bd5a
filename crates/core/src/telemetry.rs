//! Per-step telemetry persistence (§5.3).
//!
//! After a checkpoint commits, every rank snapshots its private metrics hub
//! into a [`RankTelemetry`] line, the coordinator gathers all lines, and the
//! artifact is written *next to the checkpoint* through the same storage
//! backend as the data itself (`_telemetry.jsonl` for saves,
//! `_telemetry_load.jsonl` for loads). `bcpctl report` reconstructs heat
//! maps, breakdowns, critical paths, and alerts entirely offline from these
//! artifacts — no live process required.
//!
//! Persistence is strictly best-effort and happens only *after* the
//! `COMPLETE` marker exists: a torn save never leaves a telemetry file
//! behind (so GC of torn steps needs no special casing), and a telemetry
//! write failure degrades observability without failing the checkpoint.

use crate::integrity::FailureLog;
use crate::{BcpError, Result};
use bcp_collectives::Communicator;
use bcp_monitor::{MetricsHub, RankTelemetry, SpanRecord, StepTelemetry};
use bcp_storage::DynBackend;
use bytes::Bytes;

/// Cut one rank's contribution to the step artifact out of its private hub
/// and failure log. A span belongs to the cut when its root span (the
/// workflow's `op` root; for direct engine use without one, an orphaned
/// phase span under the op's prefix) is stamped with `rank` and `step`, so
/// back-to-back steps — and a save then a load of the same step — through
/// one `Checkpointer` stay separated, while a span that started before a
/// load knew its step (the metadata read) follows its root and is restamped.
/// What is cut leaves the hub ([`MetricsHub::take_where`]): a handle that
/// lives for a whole training run holds the operations in flight, not every
/// step it ever ran. The line's drop count is likewise cut, not copied
/// ([`MetricsHub::take_dropped`]): it counts the spans lost since this
/// rank's previous line.
pub fn collect_rank_telemetry(
    hub: &MetricsHub,
    log: &FailureLog,
    rank: usize,
    step: u64,
    op: &str,
) -> RankTelemetry {
    let barrier = format!("sync/{op}_barrier");
    let op_prefix = format!("{op}/");
    let phase = |name: &str| name.starts_with(&op_prefix) || name == barrier;
    // A parentless storage span (always a leaf) is a call made outside any
    // operation — the previous artifact's own write, dataloader reads after
    // a load. No cut will ever claim it, so this one takes it and drops it.
    let stray = |s: &SpanRecord| s.parent.is_none() && s.name.starts_with("storage/");
    let mut spans = hub.take_where(|root| {
        stray(root)
            || root.step == step && root.rank == rank && (root.name == op || phase(&root.name))
    });
    spans.retain(|s| !stray(s));
    spans.iter_mut().for_each(|s| s.step = step);
    let failures = log.records().into_iter().filter(|f| f.rank == rank).collect();
    RankTelemetry {
        rank,
        step,
        op: op.to_string(),
        spans,
        failures,
        dropped_records: hub.take_dropped(),
    }
}

/// Gather every rank's [`RankTelemetry`] at the coordinator and write the
/// JSONL artifact `{prefix}/{file}` through `backend`. Collective: every
/// member of `comm` must call it (telemetry must therefore be enabled
/// uniformly across ranks).
pub fn persist_step_telemetry(
    comm: &Communicator,
    backend: &DynBackend,
    prefix: &str,
    mine: RankTelemetry,
    file: &str,
) -> Result<()> {
    let coordinator = comm.members()[0];
    if let Some(lines) = comm.gather(coordinator, mine)? {
        let doc = StepTelemetry { ranks: lines };
        backend
            .write(&format!("{prefix}/{file}"), Bytes::from(doc.to_jsonl()))
            .map_err(BcpError::Storage)?;
    }
    Ok(())
}

/// Read a persisted step artifact back, if present. Returns `Ok(None)` when
/// the step has no artifact (telemetry disabled, or saved by an older
/// version) and `Err` only on storage/parse failures.
pub fn read_step_telemetry(
    backend: &DynBackend,
    prefix: &str,
    file: &str,
) -> Result<Option<StepTelemetry>> {
    let path = format!("{prefix}/{file}");
    if !backend.exists(&path).map_err(BcpError::Storage)? {
        return Ok(None);
    }
    let raw = backend.read(&path).map_err(BcpError::Storage)?;
    let text = String::from_utf8(raw.to_vec())
        .map_err(|_| BcpError::Corrupt(format!("{path} is not UTF-8")))?;
    StepTelemetry::from_jsonl(&text)
        .map(Some)
        .map_err(|e| BcpError::Corrupt(format!("{path}: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::integrity::FailureRecord;
    use bcp_collectives::{Backend, CommWorld};
    use bcp_storage::MemoryBackend;
    use std::sync::Arc;

    #[test]
    fn collect_filters_by_step_and_keeps_own_failures() {
        let hub = MetricsHub::new();
        let sink = hub.sink();
        drop(sink.span("save/dump", 0, 7).bytes(64));
        drop(sink.span("save/dump", 0, 8)); // different step: excluded
        let log = FailureLog::new();
        log.log(FailureRecord {
            rank: 0,
            stage: "save/upload".into(),
            path: Some("ckpt/x.bin".into()),
            attempt: 1,
            error: "timeout".into(),
            retried: true,
        });
        log.log(FailureRecord {
            rank: 3,
            stage: "save/upload".into(),
            path: None,
            attempt: 1,
            error: "other rank".into(),
            retried: false,
        });
        let t = collect_rank_telemetry(&hub, &log, 0, 7, "save");
        assert_eq!(t.spans.len(), 1);
        assert_eq!(t.spans[0].step, 7);
        assert_eq!(t.failures.len(), 1);
        assert_eq!(t.failures[0].path.as_deref(), Some("ckpt/x.bin"));
        assert_eq!(t.op, "save");
    }

    #[test]
    fn each_line_reports_the_drops_of_its_own_step() {
        let hub = MetricsHub::bounded(2);
        let (sink, log) = (hub.sink(), FailureLog::new());
        for _ in 0..5 {
            drop(sink.span("save/dump", 0, 1)); // 2 fit, 3 overflow
        }
        assert_eq!(collect_rank_telemetry(&hub, &log, 0, 1, "save").dropped_records, 3);
        drop(sink.span("save/dump", 0, 2));
        let second = collect_rank_telemetry(&hub, &log, 0, 2, "save");
        assert_eq!((second.spans.len(), second.dropped_records), (1, 0));
    }

    #[test]
    fn persist_and_read_roundtrip_across_ranks() {
        let world = CommWorld::new(2, Backend::Flat);
        let backend: DynBackend = Arc::new(MemoryBackend::new());
        let handles: Vec<_> = (0..2)
            .map(|rank| {
                let comm = world.communicator(rank).unwrap();
                let backend = backend.clone();
                std::thread::spawn(move || {
                    let hub = MetricsHub::new();
                    drop(hub.sink().span("save/dump", rank, 5).bytes(128));
                    let mine = collect_rank_telemetry(&hub, &FailureLog::new(), rank, 5, "save");
                    persist_step_telemetry(&comm, &backend, "job/step_5", mine, "_telemetry.jsonl")
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap().unwrap();
        }
        let doc = read_step_telemetry(&backend, "job/step_5", "_telemetry.jsonl")
            .unwrap()
            .expect("artifact written");
        assert_eq!(doc.ranks.len(), 2);
        assert_eq!(doc.step(), Some(5));
        assert!(read_step_telemetry(&backend, "job/step_9", "_telemetry.jsonl").unwrap().is_none());
    }
}
