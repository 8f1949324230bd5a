//! The one reader of a step's layout: shard and state files, metadata,
//! telemetry and — written last — the commit marker, under `<root>/step_<N>`.
//! Readers open a step with [`StepView::open`]; writers take
//! [`metadata_path`] and [`marker_path`]. Nothing else names either file.
//!
//! The commit rule ([`committed`]): the listing proves a commit it shows;
//! `exists` confirms one it does not (a listing may lag behind writes).

use crate::manager::CheckpointManager;
use crate::metadata::{GlobalMetadata, COMPLETE_MARKER, METADATA_FILE};
use crate::scrub::{IssueKind, ScrubIssue};
use crate::{BcpError, Result};
use bcp_monitor::{TELEMETRY_LOAD_FILE, TELEMETRY_SAVE_FILE};
use bcp_storage::{DynBackend, Result as StorageResult, StorageError, StorageErrorKind};
use std::collections::BTreeSet;

/// Where a step's global metadata is stored.
pub fn metadata_path(prefix: &str) -> String {
    format!("{prefix}/{METADATA_FILE}")
}

/// Where a step's commit marker is stored.
pub fn marker_path(prefix: &str) -> String {
    format!("{prefix}/{COMPLETE_MARKER}")
}

/// The commit rule: the step under `prefix` is committed when `listed`
/// shows its marker, or else when `exists` finds it.
pub fn committed<E>(
    prefix: &str,
    listed: impl Fn(&str) -> bool,
    exists: impl FnOnce(&str) -> std::result::Result<bool, E>,
) -> std::result::Result<bool, E> {
    let marker = marker_path(prefix);
    Ok(listed(&marker) || exists(&marker)?)
}

/// Runs one storage operation on a path — once, or under a retry policy —
/// returning its last error; the operation keeps its own result.
pub type Attempt<'a> = dyn Fn(&str, &mut dyn FnMut() -> StorageResult<()>) -> Result<()> + 'a;

/// The [`Attempt`] that runs each operation once.
pub fn once(_: &str, op: &mut dyn FnMut() -> StorageResult<()>) -> Result<()> {
    Ok(op()?)
}

pub(crate) fn attempted<T>(
    at: &Attempt,
    path: &str,
    mut op: impl FnMut() -> StorageResult<T>,
) -> Result<T> {
    let mut out = None;
    at(path, &mut || op().map(|v| out = Some(v)))?;
    Ok(out.expect("a successful attempt keeps its result"))
}

/// What a listed file of a step is. Shard and state files are known only
/// through valid metadata; without it they are `Other` (the scrub's orphans).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    Metadata,
    Marker,
    Telemetry,
    Shard,
    State,
    Other,
}

/// One step as its storage shows it.
#[derive(Debug)]
pub struct StepView {
    /// The step's prefix.
    pub prefix: String,
    /// Every file the listing shows.
    pub listed: BTreeSet<String>,
    /// Whether the step is committed, by [`committed`] over the listing.
    pub committed: bool,
    /// The decoded, validated, step-checked metadata, or its defect:
    /// `MissingFile` or `BadMetadata`.
    pub metadata: std::result::Result<GlobalMetadata, ScrubIssue>,
    /// Bytes of the metadata file as read (0 when it could not be).
    pub metadata_bytes: u64,
}

impl StepView {
    /// List `prefix`, decide its commit and read its metadata, each storage
    /// operation through `attempt`. The metadata's step must be `step`, else
    /// the prefix's `step_<N>`; a prefix with neither skips the check.
    pub fn open(
        backend: &DynBackend,
        prefix: &str,
        step: Option<u64>,
        attempt: &Attempt<'_>,
    ) -> Result<StepView> {
        let dir = format!("{prefix}/");
        let listed: BTreeSet<String> =
            attempted(attempt, &dir, || backend.list(&dir))?.into_iter().collect();
        let committed = committed(
            prefix,
            |marker| listed.contains(marker),
            |marker| attempted(attempt, marker, || backend.exists(marker)),
        )?;
        let path = metadata_path(prefix);
        let expected = step.or_else(|| CheckpointManager::step_of(prefix.rsplit('/').next()?));
        let read = attempted(attempt, &path, || backend.read(&path));
        let metadata_bytes = read.as_ref().map_or(0, |bytes| bytes.len() as u64);
        let metadata = match read {
            Ok(bytes) => decode(&bytes, expected).map_err(|e| (IssueKind::BadMetadata, e)),
            Err(BcpError::Storage(StorageError::NotFound(_))) => {
                Err((IssueKind::MissingFile, "global metadata file is missing".into()))
            }
            // A file the backend cannot produce is a defect of the step; a
            // transient or throttled read says nothing about it.
            Err(BcpError::Storage(e)) if e.kind() == StorageErrorKind::Terminal => {
                Err((IssueKind::BadMetadata, format!("unreadable: {e}")))
            }
            Err(e) => return Err(e),
        };
        let metadata = metadata.map_err(|(kind, detail)| ScrubIssue { path, kind, detail });
        Ok(StepView { prefix: prefix.to_string(), listed, committed, metadata, metadata_bytes })
    }

    /// Every listed file with what it is.
    pub fn files(&self) -> impl Iterator<Item = (&str, FileKind)> {
        let meta = self.metadata.as_ref().ok();
        let shards: BTreeSet<&str> = meta
            .iter()
            .flat_map(|m| m.tensor_map.values().flatten())
            .map(|e| &*e.byte.file)
            .collect();
        let dir = format!("{}/", self.prefix);
        self.listed.iter().map(move |path| {
            let kind = match path.strip_prefix(&dir).unwrap_or(path) {
                METADATA_FILE => FileKind::Metadata,
                COMPLETE_MARKER => FileKind::Marker,
                TELEMETRY_SAVE_FILE | TELEMETRY_LOAD_FILE => FileKind::Telemetry,
                name if shards.contains(name) => FileKind::Shard,
                name if meta.is_some_and(|m| m.state_files.iter().any(|s| s == name)) => {
                    FileKind::State
                }
                _ => FileKind::Other,
            };
            (path.as_str(), kind)
        })
    }

    /// The metadata of a committed step, or why a load refuses the step
    /// (returned as [`BcpError::Corrupt`]): first an absent commit, then a
    /// metadata defect.
    pub fn committed_metadata(self) -> std::result::Result<GlobalMetadata, String> {
        if !self.committed {
            let prefix = self.prefix;
            return Err(format!(
                "checkpoint {prefix} has no {COMPLETE_MARKER} marker (torn or in-progress save)"
            ));
        }
        self.metadata.map_err(|issue| issue.to_string())
    }
}

/// Decode and validate a metadata image, then check its step.
fn decode(bytes: &[u8], step: Option<u64>) -> std::result::Result<GlobalMetadata, String> {
    let meta = GlobalMetadata::from_bytes(bytes)?;
    meta.validate()?;
    match step.filter(|&step| step != meta.step) {
        Some(step) => Err(format!("metadata step {} does not match prefix step {step}", meta.step)),
        None => Ok(meta),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcp_storage::{Fault, FaultLayer, FaultRule, MemoryBackend, OpSet};
    use bytes::Bytes;
    use std::sync::Arc;

    fn step(backend: &DynBackend, prefix: &str, step: u64, committed: bool) {
        let meta = GlobalMetadata::new("ddp", step, "TP=1,DP=1,PP=1", 1);
        backend.write(&metadata_path(prefix), Bytes::from(meta.to_bytes())).unwrap();
        backend.write(&format!("{prefix}/stray.tmp"), Bytes::from_static(b"x")).unwrap();
        if committed {
            backend.write(&marker_path(prefix), Bytes::from_static(b"ok")).unwrap();
        }
    }

    #[test]
    fn a_view_sorts_the_listing_and_checks_the_step() {
        let b: DynBackend = Arc::new(MemoryBackend::new());
        step(&b, "j/step_3", 3, true);
        let view = StepView::open(&b, "j/step_3", None, &once).unwrap();
        assert!(view.committed && view.metadata.is_ok());
        let kinds: Vec<FileKind> = view.files().map(|(_, k)| k).collect();
        assert_eq!(kinds, [FileKind::Marker, FileKind::Metadata, FileKind::Other]);
        // The prefix names step 3, so another expected step is a defect; a
        // prefix that names no step skips the check.
        let err = StepView::open(&b, "j/step_3", Some(4), &once).unwrap().metadata.unwrap_err();
        assert_eq!(err.detail, "metadata step 3 does not match prefix step 4");
        step(&b, "j/c", 3, false);
        let view = StepView::open(&b, "j/c", None, &once).unwrap();
        assert!(!view.committed && view.metadata.is_ok());
        assert!(view.committed_metadata().unwrap_err().contains("no COMPLETE marker"));
        let view = StepView::open(&b, "j/step_9", None, &once).unwrap();
        assert_eq!(view.metadata.unwrap_err().kind, IssueKind::MissingFile);
    }

    #[test]
    fn a_marker_the_listing_misses_costs_one_probe_and_a_listed_one_none() {
        let b: DynBackend = Arc::new(MemoryBackend::new());
        step(&b, "j/step_3", 3, true);
        // Every probe fails: a listed marker needs none.
        let no_probes: DynBackend = Arc::new(FaultLayer::new(
            b.clone(),
            0,
            vec![FaultRule::new(OpSet::Meta, Fault::Fail { times: 1 }).on("COMPLETE")],
        ));
        assert!(StepView::open(&no_probes, "j/step_3", None, &once).unwrap().committed);
        let probes = std::cell::Cell::new(0);
        let missed = |m: &str| {
            probes.set(probes.get() + 1);
            b.exists(m)
        };
        assert!(committed("j/step_3", |_| false, missed).unwrap());
        assert!(committed("j/step_3", |_| true, missed).unwrap());
        assert_eq!(probes.get(), 1);
    }
}
