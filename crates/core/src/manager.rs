//! Checkpoint lifecycle management: step discovery, retention, and garbage
//! collection.
//!
//! "Given that various hardware failures and software bugs are inevitable
//! during training, storing checkpoints at different global training steps
//! is necessary to safeguard training" (§2.1) — and §5.1's cool-down story
//! implies managed retention. This module provides the job-level view over a
//! checkpoint root: `<root>/step_<N>/...`, one committed checkpoint per
//! step, newest steps kept, stale ones garbage-collected.

use crate::metadata::GlobalMetadata;
use crate::step::{self, StepView};
use crate::{BcpError, Result};
use bcp_storage::{DynBackend, StorageError};
use std::collections::BTreeSet;

/// A discovered checkpoint under a root prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointRef {
    /// Global training step.
    pub step: u64,
    /// Full prefix (`<root>/step_<N>`).
    pub prefix: String,
    /// Whether the step is committed, by [`step::committed`].
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

    /// Every checkpoint under the root, ascending, uncommitted (torn or in
    /// flight) ones included: one listing of the root, and the commit rule
    /// ([`step::committed`]) per step, so a marker it shows costs no probe.
    pub fn list(&self) -> bcp_storage::Result<Vec<CheckpointRef>> {
        let root = format!("{}/", self.root);
        let keys: BTreeSet<String> =
            self.backend.list(&format!("{root}step_"))?.into_iter().collect();
        let dirs = keys.iter().filter_map(|k| k.strip_prefix(&root)?.split_once('/'));
        let steps: BTreeSet<u64> = dirs.filter_map(|(dir, _)| Self::step_of(dir)).collect();
        let exists = |marker: &str| self.backend.exists(marker);
        let refs = steps.into_iter().map(|step| {
            let prefix = self.prefix_for(step);
            let committed = step::committed(&prefix, |m| keys.contains(m), exists)?;
            Ok(CheckpointRef { step, committed, prefix })
        });
        refs.collect()
    }

    /// The newest *committed* checkpoint, if any — what training resumption
    /// loads after a failure.
    pub fn latest(&self) -> bcp_storage::Result<Option<CheckpointRef>> {
        Ok(self.list()?.into_iter().rev().find(|c| c.committed))
    }

    /// A committed checkpoint's global metadata ([`StepView`]).
    pub fn metadata(&self, step: u64) -> Result<GlobalMetadata> {
        StepView::open(&self.backend, &self.prefix_for(step), Some(step), &step::once)?
            .committed_metadata()
            .map_err(BcpError::Corrupt)
    }

    /// Delete a checkpoint entirely, its marker first, so a racing reader
    /// never sees a torn "committed" step; a missing file counts as deleted.
    pub fn delete(&self, step: u64) -> bcp_storage::Result<()> {
        self.take_down(step, |key, _| self.backend.delete(key))
    }

    /// Move a step that failed verification aside, marker first, to
    /// `<root>/quarantine/step_<N>/` (returned) for post-mortem analysis,
    /// where [`CheckpointManager::list`] does not see it.
    pub fn quarantine(&self, step: u64) -> bcp_storage::Result<String> {
        let dest = format!("{}/quarantine/step_{step}", self.root);
        self.take_down(step, |key, name| self.backend.rename(key, &format!("{dest}/{name}")))?;
        Ok(dest)
    }

    /// Delete a step's marker — a racing reader then sees an uncommitted
    /// step, never a torn "committed" one — then run `each` on every file
    /// under it (and its name there). A missing file counts as done, so a
    /// pass that crashed midway can be re-run.
    fn take_down(
        &self,
        step: u64,
        each: impl Fn(&str, &str) -> bcp_storage::Result<()>,
    ) -> bcp_storage::Result<()> {
        let prefix = self.prefix_for(step);
        let dir = format!("{prefix}/");
        let done = |r| match r {
            Err(StorageError::NotFound(_)) => Ok(()),
            other => other,
        };
        done(self.backend.delete(&step::marker_path(&prefix)))?;
        for key in self.backend.list(&dir)? {
            done(each(&key, &key[dir.len()..]))?;
        }
        Ok(())
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
        let committed: Vec<u64> = all.iter().filter(|c| c.committed).map(|c| c.step).collect();
        // Torn checkpoints are never useful; collect them too — except the
        // newest step overall, which may be a save still in flight.
        let newest = all.last().map(|c| c.step);
        let torn = all.iter().filter(|c| !c.committed && Some(c.step) != newest).map(|c| c.step);
        let old = &committed[..committed.len().saturating_sub(keep_last)];
        let mut deleted: Vec<u64> = old.iter().copied().chain(torn).collect();
        deleted.sort_unstable();
        deleted.iter().try_for_each(|&step| self.delete(step))?;
        Ok(deleted)
    }

    /// Crash-recovery GC: delete *every* uncommitted step, the newest too
    /// ([`CheckpointManager::retain_last`] spares it as a save in flight; on
    /// restart none is). Returns the steps deleted, ascending.
    pub fn gc_torn(&self) -> bcp_storage::Result<Vec<u64>> {
        let torn: Vec<u64> = self.list()?.iter().filter(|c| !c.committed).map(|c| c.step).collect();
        torn.iter().try_for_each(|&step| self.delete(step))?;
        Ok(torn)
    }

    /// Total stored bytes per checkpoint (capacity accounting; the paper's
    /// storage-side monitoring watches exactly this).
    pub fn stored_bytes(&self, step: u64) -> Result<u64> {
        let keys = self.backend.list(&format!("{}/", self.prefix_for(step)))?;
        Ok(keys.iter().map(|key| self.backend.size(key)).sum::<bcp_storage::Result<u64>>()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metadata::{COMPLETE_MARKER, METADATA_FILE};
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
