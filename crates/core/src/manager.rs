//! Checkpoint lifecycle management: step discovery, retention, and garbage
//! collection.
//!
//! "Given that various hardware failures and software bugs are inevitable
//! during training, storing checkpoints at different global training steps
//! is necessary to safeguard training" (§2.1) — and §5.1's cool-down story
//! implies managed retention. This module provides the job-level view over a
//! checkpoint root: `<root>/step_<N>/...`, one committed checkpoint per
//! step, newest steps kept, stale ones garbage-collected.

use crate::metadata::{GlobalMetadata, COMPLETE_MARKER, METADATA_FILE};
use crate::{BcpError, Result};
use bcp_storage::{DynBackend, StorageError};

/// A discovered checkpoint under a root prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointRef {
    /// Global training step.
    pub step: u64,
    /// Full prefix (`<root>/step_<N>`).
    pub prefix: String,
    /// Whether the `COMPLETE` marker is present.
    pub committed: bool,
}

/// A step set aside by verified-fallback loading because it failed
/// verification — surfaced through `LoadOutcome` so the trainer knows why
/// it resumed from an older step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedStep {
    /// The step that failed verification.
    pub step: u64,
    /// Human-readable reason (first scrub issue, typically).
    pub reason: String,
}

/// Manages the checkpoints of one job under a root prefix.
pub struct CheckpointManager {
    backend: DynBackend,
    root: String,
}

impl CheckpointManager {
    /// Manage checkpoints under `root` (no trailing slash).
    pub fn new(backend: DynBackend, root: impl Into<String>) -> CheckpointManager {
        CheckpointManager { backend, root: root.into() }
    }

    /// The canonical prefix for a step.
    pub fn prefix_for(&self, step: u64) -> String {
        format!("{}/step_{step}", self.root)
    }

    /// The step a `step_<N>` directory name names, if it is one.
    pub fn step_of(dir_name: &str) -> Option<u64> {
        dir_name.strip_prefix("step_")?.parse().ok()
    }

    /// Discover all checkpoints under the root, ascending by step.
    /// Uncommitted (torn / in-progress) checkpoints are included with
    /// `committed = false` so callers can garbage-collect them.
    pub fn list(&self) -> bcp_storage::Result<Vec<CheckpointRef>> {
        let keys = self.backend.list(&format!("{}/step_", self.root))?;
        let mut steps: Vec<u64> = keys
            .iter()
            .filter_map(|k| {
                let rest = k.strip_prefix(&format!("{}/", self.root))?;
                Self::step_of(rest.split_once('/')?.0)
            })
            .collect();
        steps.sort_unstable();
        steps.dedup();
        steps
            .into_iter()
            .map(|step| {
                let prefix = self.prefix_for(step);
                let committed = self.backend.exists(&format!("{prefix}/{COMPLETE_MARKER}"))?;
                Ok(CheckpointRef { step, committed, prefix })
            })
            .collect()
    }

    /// The newest *committed* checkpoint, if any — what training resumption
    /// loads after a failure.
    pub fn latest(&self) -> bcp_storage::Result<Option<CheckpointRef>> {
        Ok(self.list()?.into_iter().rev().find(|c| c.committed))
    }

    /// Read a checkpoint's global metadata.
    pub fn metadata(&self, step: u64) -> Result<GlobalMetadata> {
        let bytes = self.backend.read(&format!("{}/{METADATA_FILE}", self.prefix_for(step)))?;
        GlobalMetadata::from_bytes(&bytes).map_err(BcpError::Corrupt)
    }

    /// Delete a checkpoint entirely (all files under its prefix). The
    /// `COMPLETE` marker is removed *first*, so a reader racing with the
    /// deletion sees an uncommitted checkpoint, never a torn "committed"
    /// one. Already-missing files are treated as deleted — a GC pass that
    /// crashed mid-deletion must be re-runnable, not error on the files the
    /// first pass already reclaimed.
    pub fn delete(&self, step: u64) -> bcp_storage::Result<()> {
        let prefix = self.prefix_for(step);
        let marker = format!("{prefix}/{COMPLETE_MARKER}");
        if self.backend.exists(&marker)? {
            ignore_not_found(self.backend.delete(&marker))?;
        }
        for key in self.backend.list(&format!("{prefix}/"))? {
            ignore_not_found(self.backend.delete(&key))?;
        }
        Ok(())
    }

    /// Move every file of a step aside to `<root>/quarantine/step_<N>/`
    /// instead of deleting it, for post-mortem analysis of a checkpoint
    /// that failed verification. The marker is deleted first (same
    /// reader-race argument as [`CheckpointManager::delete`]), so the step
    /// is never half-visible as committed; the quarantine prefix does not
    /// match `step_<N>` discovery, so quarantined data is invisible to
    /// [`CheckpointManager::list`]. Returns the quarantine prefix.
    pub fn quarantine(&self, step: u64) -> bcp_storage::Result<String> {
        let prefix = self.prefix_for(step);
        let dest_prefix = format!("{}/quarantine/step_{step}", self.root);
        let marker = format!("{prefix}/{COMPLETE_MARKER}");
        if self.backend.exists(&marker)? {
            ignore_not_found(self.backend.delete(&marker))?;
        }
        for key in self.backend.list(&format!("{prefix}/"))? {
            let rel = key.strip_prefix(&format!("{prefix}/")).unwrap_or(&key);
            ignore_not_found(self.backend.rename(&key, &format!("{dest_prefix}/{rel}")))?;
        }
        Ok(dest_prefix)
    }

    /// Retention pass: keep the newest `keep_last` committed checkpoints,
    /// delete older committed ones and every uncommitted leftover. Returns
    /// the steps deleted. `keep_last` must be ≥ 1 — a job must always keep a
    /// recovery point.
    pub fn retain_last(&self, keep_last: usize) -> Result<Vec<u64>> {
        if keep_last == 0 {
            return Err(BcpError::Plan("retain_last(0) would delete every recovery point".into()));
        }
        let all = self.list()?;
        let committed: Vec<&CheckpointRef> = all.iter().filter(|c| c.committed).collect();
        let cutoff = committed.len().saturating_sub(keep_last);
        let mut deleted = Vec::new();
        for c in &committed[..cutoff] {
            self.delete(c.step)?;
            deleted.push(c.step);
        }
        // Torn checkpoints are never useful; collect them too — except the
        // newest step overall, which may be a save still in flight.
        let newest = all.last().map(|c| c.step);
        for c in all.iter().filter(|c| !c.committed) {
            if Some(c.step) != newest {
                self.delete(c.step)?;
                deleted.push(c.step);
            }
        }
        deleted.sort_unstable();
        Ok(deleted)
    }

    /// Crash-recovery GC: delete *every* uncommitted step prefix, including
    /// the newest. Unlike [`CheckpointManager::retain_last`] — which spares
    /// the newest uncommitted step because a save may still be in flight —
    /// this runs on restart, when the crash guarantees no save is in flight
    /// and any torn prefix is garbage. Returns the steps deleted, ascending.
    pub fn gc_torn(&self) -> bcp_storage::Result<Vec<u64>> {
        let mut deleted = Vec::new();
        for c in self.list()?.iter().filter(|c| !c.committed) {
            self.delete(c.step)?;
            deleted.push(c.step);
        }
        Ok(deleted)
    }

    /// The job root this manager operates on.
    pub fn root(&self) -> &str {
        &self.root
    }

    /// Total stored bytes per checkpoint (capacity accounting; the paper's
    /// storage-side monitoring watches exactly this).
    pub fn stored_bytes(&self, step: u64) -> Result<u64> {
        let mut total = 0;
        for key in self.backend.list(&format!("{}/", self.prefix_for(step)))? {
            total += self.backend.size(&key)?;
        }
        Ok(total)
    }
}

/// Map `NotFound` to success: deletion/rename of an already-reclaimed file
/// is the outcome the caller wanted.
fn ignore_not_found(r: bcp_storage::Result<()>) -> bcp_storage::Result<()> {
    match r {
        Err(StorageError::NotFound(_)) => Ok(()),
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcp_storage::MemoryBackend;
    use bytes::Bytes;
    use std::sync::Arc;

    fn fake_checkpoint(backend: &DynBackend, root: &str, step: u64, committed: bool) {
        let prefix = format!("{root}/step_{step}");
        backend.write(&format!("{prefix}/model_0.bin"), Bytes::from(vec![0u8; 64])).unwrap();
        let meta = GlobalMetadata::new("ddp", step, "TP=1,DP=1,PP=1", 1);
        backend.write(&format!("{prefix}/{METADATA_FILE}"), Bytes::from(meta.to_bytes())).unwrap();
        if committed {
            backend
                .write(&format!("{prefix}/{COMPLETE_MARKER}"), Bytes::from_static(b"ok"))
                .unwrap();
        }
    }

    fn manager_with(steps: &[(u64, bool)]) -> (CheckpointManager, DynBackend) {
        let backend: DynBackend = Arc::new(MemoryBackend::new());
        for &(step, committed) in steps {
            fake_checkpoint(&backend, "job", step, committed);
        }
        (CheckpointManager::new(backend.clone(), "job"), backend)
    }

    #[test]
    fn list_orders_and_flags_commit_state() {
        let (m, _) = manager_with(&[(300, true), (100, true), (200, false)]);
        let list = m.list().unwrap();
        assert_eq!(
            list.iter().map(|c| (c.step, c.committed)).collect::<Vec<_>>(),
            vec![(100, true), (200, false), (300, true)]
        );
    }

    #[test]
    fn latest_skips_uncommitted() {
        let (m, _) = manager_with(&[(100, true), (200, true), (300, false)]);
        assert_eq!(m.latest().unwrap().unwrap().step, 200);
        let (m, _) = manager_with(&[(100, false)]);
        assert!(m.latest().unwrap().is_none());
    }

    #[test]
    fn retain_last_deletes_old_and_torn() {
        let (m, backend) =
            manager_with(&[(100, true), (150, false), (200, true), (300, true), (400, false)]);
        let deleted = m.retain_last(2).unwrap();
        // 100 is old-committed; 150 is torn; 400 is the newest step (an
        // in-flight save) and survives.
        assert_eq!(deleted, vec![100, 150]);
        let remaining: Vec<u64> = m.list().unwrap().iter().map(|c| c.step).collect();
        assert_eq!(remaining, vec![200, 300, 400]);
        assert!(!backend.exists("job/step_100/model_0.bin").unwrap());
        assert!(backend.exists("job/step_200/COMPLETE").unwrap());
    }

    #[test]
    fn gc_torn_deletes_every_uncommitted_step() {
        let (m, backend) = manager_with(&[(100, true), (150, false), (200, true), (400, false)]);
        let deleted = m.gc_torn().unwrap();
        // Restart semantics: even the newest uncommitted step goes — the
        // crash means nothing is in flight.
        assert_eq!(deleted, vec![150, 400]);
        let remaining: Vec<u64> = m.list().unwrap().iter().map(|c| c.step).collect();
        assert_eq!(remaining, vec![100, 200]);
        assert!(backend.list("job/step_150/").unwrap().is_empty());
        assert!(backend.list("job/step_400/").unwrap().is_empty());
        // Idempotent on a clean root.
        assert!(m.gc_torn().unwrap().is_empty());
    }

    #[test]
    fn gc_torn_is_idempotent_under_partial_deletion() {
        // Model a GC that crashed mid-deletion: the marker and some files
        // of a torn step are already gone. A second pass must reclaim the
        // rest and succeed, not error on the missing files.
        let (m, backend) = manager_with(&[(100, true), (200, false)]);
        backend.delete("job/step_200/model_0.bin").unwrap();
        let deleted = m.gc_torn().unwrap();
        assert_eq!(deleted, vec![200]);
        assert!(backend.list("job/step_200/").unwrap().is_empty());
        // And again on the now-clean root.
        assert!(m.gc_torn().unwrap().is_empty());
    }

    #[test]
    fn delete_tolerates_concurrently_missing_files() {
        let (m, backend) = manager_with(&[(100, true)]);
        backend.delete("job/step_100/COMPLETE").unwrap();
        backend.delete("job/step_100/model_0.bin").unwrap();
        m.delete(100).unwrap();
        assert!(backend.list("job/step_100/").unwrap().is_empty());
    }

    #[test]
    fn quarantine_moves_step_aside_and_hides_it() {
        let (m, backend) = manager_with(&[(100, true), (200, true)]);
        let dest = m.quarantine(200).unwrap();
        assert_eq!(dest, "job/quarantine/step_200");
        // Original prefix is empty; quarantine holds the files (minus the
        // marker, which is deleted so the data can never read as committed).
        assert!(backend.list("job/step_200/").unwrap().is_empty());
        let moved = backend.list("job/quarantine/step_200/").unwrap();
        assert!(moved.contains(&"job/quarantine/step_200/model_0.bin".to_string()));
        assert!(!moved.contains(&"job/quarantine/step_200/COMPLETE".to_string()));
        // Discovery no longer sees the step; latest falls back.
        assert_eq!(m.latest().unwrap().unwrap().step, 100);
    }

    #[test]
    fn retain_zero_is_refused() {
        let (m, _) = manager_with(&[(1, true)]);
        assert!(m.retain_last(0).is_err());
    }

    #[test]
    fn delete_removes_marker_first_then_files() {
        let (m, backend) = manager_with(&[(100, true)]);
        m.delete(100).unwrap();
        assert!(m.list().unwrap().is_empty());
        assert!(backend.list("job/step_100/").unwrap().is_empty());
    }

    #[test]
    fn metadata_and_size_accounting() {
        let (m, _) = manager_with(&[(100, true)]);
        assert_eq!(m.metadata(100).unwrap().step, 100);
        assert!(m.stored_bytes(100).unwrap() > 64);
        assert!(m.metadata(999).is_err());
    }
}
