//! Offline checkpoint verification ("scrub"): the full-sweep integrity
//! check behind `bcpctl scrub` and the verified-fallback load path.
//!
//! A scrub opens a step through [`StepView`] (its metadata decoded,
//! validated and step-checked) and proves the commit protocol's promise end
//! to end: every [`crate::ByteMeta`] points at a listed file whose frames
//! verify and land exactly on the recorded payloads, and every state file
//! decodes into its one CRC-verified frame. Orphans (files nothing
//! references) are reported but do not dirty a step.

use crate::format::{decode_frames, header_len, Frame};
use crate::manager::CheckpointManager;
use crate::metadata::TensorShardEntry;
use crate::state_files;
use crate::step::{self, attempted, Attempt, FileKind, StepView};
use crate::Result;
use bcp_storage::DynBackend;
use std::collections::BTreeMap;

/// Classification of one scrub finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IssueKind {
    /// A referenced file does not exist.
    MissingFile,
    /// The global metadata is unreadable, unparsable, or fails validation.
    BadMetadata,
    /// A storage file fails frame decoding or CRC verification.
    BadFrame,
    /// A `ByteMeta` range does not land on a decoded frame payload.
    RangeMismatch,
    /// A file under the prefix that nothing references (benign).
    Orphan,
}

impl std::fmt::Display for IssueKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            IssueKind::MissingFile => "missing-file",
            IssueKind::BadMetadata => "bad-metadata",
            IssueKind::BadFrame => "bad-frame",
            IssueKind::RangeMismatch => "range-mismatch",
            IssueKind::Orphan => "orphan",
        };
        f.write_str(s)
    }
}

/// One scrub finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScrubIssue {
    /// Full path of the offending object.
    pub path: String,
    /// What is wrong.
    pub kind: IssueKind,
    /// Human-readable detail.
    pub detail: String,
}

impl std::fmt::Display for ScrubIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.path, self.detail)
    }
}

/// Result of scrubbing one step.
#[derive(Debug, Clone)]
pub struct ScrubReport {
    /// The step scrubbed.
    pub step: u64,
    /// Its full prefix.
    pub prefix: String,
    /// Whether the step is committed, by [`crate::step::committed`].
    pub committed: bool,
    /// Everything found wrong (orphans included).
    pub issues: Vec<ScrubIssue>,
    /// Number of files whose existence/decoding was checked.
    pub files_checked: usize,
    /// Number of frames whose CRC verified.
    pub frames_verified: usize,
}

impl ScrubReport {
    /// Whether the step verifies: no issues besides benign orphans.
    pub fn is_clean(&self) -> bool {
        self.issues.iter().all(|i| i.kind == IssueKind::Orphan)
    }

    /// The non-orphan issues (what fails CI / triggers fallback).
    pub fn defects(&self) -> Vec<&ScrubIssue> {
        self.issues.iter().filter(|i| i.kind != IssueKind::Orphan).collect()
    }

    /// One-line summary for logs and CLI output.
    pub fn summary(&self) -> String {
        let defects = self.defects().len();
        let orphans = self.issues.len() - defects;
        format!(
            "step {}: {} files, {} frames verified, {} defect(s), {} orphan(s){}",
            self.step,
            self.files_checked,
            self.frames_verified,
            defects,
            orphans,
            if self.committed { "" } else { " [uncommitted]" }
        )
    }
}

/// Scrub one checkpoint prefix. Collects issues instead of failing fast;
/// only infrastructure errors (the backend itself failing) return `Err`.
pub fn scrub_step(backend: &DynBackend, prefix: &str, step: u64) -> Result<ScrubReport> {
    let view = StepView::open(backend, prefix, Some(step), &step::once)?;
    scrub_view(backend, &view, step, &step::once)
}

/// Scrub a step as [`StepView::open`] opened it, checked against `step`:
/// the view holds its listing, commit and metadata; every file read runs
/// through `attempt`, so a transient failure repeats that one read, never
/// the sweep. A resume hands the view on to its load.
pub(crate) fn scrub_view(
    backend: &DynBackend,
    view: &StepView,
    step: u64,
    attempt: &Attempt<'_>,
) -> Result<ScrubReport> {
    let prefix = view.prefix.as_str();
    let (mut issues, mut frames_verified) = (Vec::new(), 0);
    let mut files_checked = usize::from(view.metadata_bytes > 0);
    let mut flag = |path: &str, kind, detail: String| {
        issues.push(ScrubIssue { path: path.to_string(), kind, detail })
    };
    match &view.metadata {
        Err(issue) => flag(&issue.path, issue.kind, issue.detail.clone()),
        Ok(meta) => {
            // 2. Group tensor references by storage file.
            let mut by_file: BTreeMap<&str, Vec<(&str, &TensorShardEntry)>> = BTreeMap::new();
            for (fqn, e) in
                meta.tensor_map.iter().flat_map(|(f, es)| es.iter().map(move |e| (f, e)))
            {
                by_file.entry(&e.byte.file).or_default().push((fqn.as_str(), e));
            }

            // 3. Every referenced file must exist and decode into
            // CRC-verified frames: a state file into its one frame, named as
            // the file; a storage file into frames that cover every ByteMeta
            // range with a payload at exactly the recorded offset/length.
            let state = meta.state_files.iter().map(|name| (name.as_str(), None));
            for (file, refs) in by_file.iter().map(|(file, refs)| (*file, Some(refs))).chain(state)
            {
                let path = format!("{prefix}/{file}");
                if !view.listed.contains(&path) {
                    let detail = match refs {
                        Some(refs) => {
                            format!("{} shard(s) reference this missing file", refs.len())
                        }
                        None => "state file listed in the metadata is missing".into(),
                    };
                    flag(&path, IssueKind::MissingFile, detail);
                    continue;
                }
                files_checked += 1;
                let data = attempted(attempt, &path, || backend.read(&path))?;
                let Some(refs) = refs else {
                    match state_files::decode(file, &data) {
                        Ok(_) => frames_verified += 1,
                        Err(e) => flag(&path, IssueKind::BadFrame, e.to_string()),
                    }
                    continue;
                };
                let frames = match decode_frames(&data) {
                    Ok(f) => f,
                    Err(e) => {
                        flag(&path, IssueKind::BadFrame, e.to_string());
                        continue;
                    }
                };
                frames_verified += frames.len();
                // Recompute each frame's payload location by walking the file.
                let mut payloads: BTreeMap<(u64, u64), &Frame> = BTreeMap::new();
                let mut pos = 0u64;
                for f in &frames {
                    let off = pos + header_len(&f.shard) as u64;
                    payloads.insert((off, f.payload.len() as u64), f);
                    pos = off + f.payload.len() as u64 + 4;
                }
                for &(fqn, entry) in refs {
                    let (offset, length) = (entry.byte.offset, entry.byte.length);
                    let end = u128::from(offset) + u128::from(length);
                    let (kind, detail) = match payloads.get(&(offset, length)) {
                        None => (
                            IssueKind::RangeMismatch,
                            format!(
                                "recorded payload [{offset}, {end}) does not match any decoded \
                                 frame payload"
                            ),
                        ),
                        // The frame header is not covered by the payload CRC,
                        // so cross-check it against the metadata: a flipped
                        // fqn byte or forged shard coordinates cannot hide.
                        Some(f)
                            if *f.shard.fqn != *fqn
                                || f.shard != entry.shard
                                || f.dtype != entry.basic.dtype =>
                        {
                            (
                                IssueKind::BadFrame,
                                format!(
                                    "frame header at payload offset {offset} disagrees with \
                                     checkpoint metadata"
                                ),
                            )
                        }
                        Some(_) => continue,
                    };
                    flag(&path, kind, format!("{fqn}: {detail}"));
                }
                if frames.len() != refs.len() {
                    let (held, referenced) = (frames.len(), refs.len());
                    let detail =
                        format!("file holds {held} frame(s) but metadata references {referenced}");
                    flag(&path, IssueKind::BadFrame, detail);
                }
            }
        }
    }

    // 4. Everything else under the prefix is an orphan.
    for (path, _) in view.files().filter(|(_, kind)| *kind == FileKind::Other) {
        flag(path, IssueKind::Orphan, "file not referenced by checkpoint metadata".into());
    }
    let committed = view.committed;
    let prefix = prefix.to_string();
    Ok(ScrubReport { step, prefix, committed, issues, files_checked, frames_verified })
}

/// Scrub every step under a job root, ascending. Uncommitted steps are
/// included (marked in the report) so `bcpctl scrub` can name torn debris;
/// callers decide whether those count as failures.
pub fn scrub_tree(backend: &DynBackend, root: &str) -> Result<Vec<ScrubReport>> {
    let mgr = CheckpointManager::new(backend.clone(), root);
    mgr.list()?.iter().map(|c| scrub_step(backend, &c.prefix, c.step)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metadata::{
        BasicMeta, ByteMeta, GlobalMetadata, ShardMeta, TensorShardEntry, COMPLETE_MARKER,
        METADATA_FILE,
    };
    use crate::BcpError;
    use bcp_storage::{MemoryBackend, Result as StorageResult, StorageErrorKind};
    use bcp_tensor::DType;
    use bytes::Bytes;
    use std::sync::Arc;

    /// Build a minimal real checkpoint: one shard, one frame file, valid
    /// metadata, committed marker.
    fn build_checkpoint(backend: &DynBackend, root: &str, step: u64) -> (String, String) {
        let prefix = format!("{root}/step_{step}");
        let shard =
            ShardMeta { fqn: "w".into(), offsets: vec![0, 0].into(), lengths: vec![2, 4].into() };
        let payload: Vec<u8> = (0..32).collect(); // 8 elements × f32
        let (frame, payload_off) =
            crate::format::encode_frame(&shard, DType::F32, &payload).unwrap();
        backend.write(&format!("{prefix}/model_0.bin"), frame.freeze()).unwrap();
        let mut meta = GlobalMetadata::new("ddp", step, "TP=1,DP=1,PP=1", 1);
        meta.tensor_map.entry("w".into()).or_default().push(TensorShardEntry {
            shard,
            basic: BasicMeta::contiguous(DType::F32, vec![2, 4], "cpu"),
            byte: ByteMeta { file: "model_0.bin".into(), offset: payload_off, length: 32 },
        });
        backend.write(&format!("{prefix}/{METADATA_FILE}"), Bytes::from(meta.to_bytes())).unwrap();
        backend.write(&format!("{prefix}/{COMPLETE_MARKER}"), Bytes::from_static(b"ok")).unwrap();
        (prefix.clone(), format!("{prefix}/model_0.bin"))
    }

    fn mem() -> DynBackend {
        Arc::new(MemoryBackend::new())
    }

    #[test]
    fn clean_checkpoint_scrubs_clean() {
        let b = mem();
        let (prefix, _) = build_checkpoint(&b, "job", 10);
        let r = scrub_step(&b, &prefix, 10).unwrap();
        assert!(r.is_clean(), "unexpected issues: {:?}", r.issues);
        assert!(r.committed);
        assert_eq!(r.frames_verified, 1);
        assert!(r.files_checked >= 2);
    }

    #[test]
    fn bit_flip_in_shard_is_named() {
        let b = mem();
        let (prefix, shard_file) = build_checkpoint(&b, "job", 10);
        let mut bytes = b.read(&shard_file).unwrap().to_vec();
        let payload_at = bytes.len() - 10; // inside the payload, before CRC
        bytes[payload_at] ^= 0x01;
        b.write(&shard_file, Bytes::from(bytes)).unwrap();
        let r = scrub_step(&b, &prefix, 10).unwrap();
        assert!(!r.is_clean());
        let defect = &r.defects()[0];
        assert_eq!(defect.kind, IssueKind::BadFrame);
        assert_eq!(defect.path, shard_file, "defect must name the corrupt shard file");
    }

    #[test]
    fn header_fqn_flip_is_caught_despite_valid_crc() {
        let b = mem();
        let (prefix, shard_file) = build_checkpoint(&b, "job", 10);
        let mut bytes = b.read(&shard_file).unwrap().to_vec();
        // Flip a bit inside the frame's fqn bytes (offset 6 = after magic +
        // fqn_len): the payload CRC still verifies, only the header lies.
        bytes[6] ^= 0x01;
        b.write(&shard_file, Bytes::from(bytes)).unwrap();
        let r = scrub_step(&b, &prefix, 10).unwrap();
        assert!(!r.is_clean());
        assert!(r
            .defects()
            .iter()
            .any(|i| i.kind == IssueKind::BadFrame && i.detail.contains("header")));
    }

    #[test]
    fn missing_shard_file_is_reported() {
        let b = mem();
        let (prefix, shard_file) = build_checkpoint(&b, "job", 10);
        b.delete(&shard_file).unwrap();
        let r = scrub_step(&b, &prefix, 10).unwrap();
        assert!(r
            .defects()
            .iter()
            .any(|i| i.kind == IssueKind::MissingFile && i.path == shard_file));
    }

    #[test]
    fn byte_meta_offset_mismatch_is_reported() {
        let b = mem();
        let (prefix, _) = build_checkpoint(&b, "job", 10);
        let meta_path = format!("{prefix}/{METADATA_FILE}");
        let mut meta = GlobalMetadata::from_bytes(&b.read(&meta_path).unwrap()).unwrap();
        meta.tensor_map.get_mut("w").unwrap()[0].byte.offset += 1;
        b.write(&meta_path, Bytes::from(meta.to_bytes())).unwrap();
        let r = scrub_step(&b, &prefix, 10).unwrap();
        assert!(r.defects().iter().any(|i| i.kind == IssueKind::RangeMismatch));
    }

    #[test]
    fn corrupt_metadata_is_reported() {
        let b = mem();
        let (prefix, _) = build_checkpoint(&b, "job", 10);
        b.write(&format!("{prefix}/{METADATA_FILE}"), Bytes::from_static(b"{ not json")).unwrap();
        let r = scrub_step(&b, &prefix, 10).unwrap();
        assert!(r.defects().iter().any(|i| i.kind == IssueKind::BadMetadata));
    }

    #[test]
    fn transient_metadata_read_is_an_error_not_a_defect() {
        use bcp_storage::{Fault, FaultLayer, FaultRule, OpSet};
        let b = mem();
        let (prefix, _) = build_checkpoint(&b, "job", 10);
        let once = FaultRule::new(OpSet::Reads, Fault::Fail { times: 1 }).on(METADATA_FILE);
        let flaky: DynBackend = Arc::new(FaultLayer::new(b, 0, vec![once]));
        let err = scrub_step(&flaky, &prefix, 10).unwrap_err();
        assert!(
            matches!(&err, BcpError::Storage(e) if e.kind() == StorageErrorKind::Retryable),
            "{err}"
        );
        assert!(scrub_step(&flaky, &prefix, 10).unwrap().is_clean());
    }

    #[test]
    fn a_transient_failure_repeats_one_operation_not_the_sweep() {
        use bcp_storage::{Fault, FaultLayer, FaultRule, OpSet};
        let b = mem();
        let (prefix, _) = build_checkpoint(&b, "job", 10);
        // The listing and the first read of each file fail once.
        let rules = [OpSet::Reads, OpSet::Meta]
            .map(|ops| FaultRule::new(ops, Fault::Fail { times: 1 }))
            .to_vec();
        let flaky: DynBackend = Arc::new(FaultLayer::new(b, 0, rules));
        let attempts = std::cell::Cell::new(0);
        let twice = |_: &str, op: &mut dyn FnMut() -> StorageResult<()>| {
            attempts.set(attempts.get() + 1);
            op().or_else(|_| op()).map_err(BcpError::Storage)
        };
        let view = StepView::open(&flaky, &prefix, Some(10), &twice).unwrap();
        let r = scrub_view(&flaky, &view, 10, &twice).unwrap();
        assert!(r.is_clean(), "{:?}", r.issues);
        // The listing, the metadata, the shard file: each tried on its own.
        assert_eq!(attempts.get(), 3);
        assert!(scrub_step(&flaky, &prefix, 10).unwrap().is_clean());
    }

    #[test]
    fn a_state_file_is_decoded_not_just_found() {
        let b = mem();
        let (prefix, _) = build_checkpoint(&b, "job", 10);
        let meta_path = format!("{prefix}/{METADATA_FILE}");
        let mut meta = GlobalMetadata::from_bytes(&b.read(&meta_path).unwrap()).unwrap();
        meta.state_files = vec!["extra_0.bin".into(), "loader/replicated.bin".into()];
        b.write(&meta_path, Bytes::from(meta.to_bytes())).unwrap();
        let path = format!("{prefix}/extra_0.bin");
        let segments = state_files::frame("extra_0.bin", Bytes::from_static(b"{}")).unwrap();
        b.write_segments(&path, &segments).unwrap();
        let r = scrub_step(&b, &prefix, 10).unwrap();
        let defects: Vec<_> = r.defects().iter().map(|i| (i.kind, i.path.clone())).collect();
        let replicated = format!("{prefix}/loader/replicated.bin");
        assert_eq!(defects, [(IssueKind::MissingFile, replicated)]);
        assert_eq!(r.frames_verified, 2);
        // Its own frame under another name fails as a shard file's would.
        b.write_segments(&format!("{prefix}/loader/replicated.bin"), &segments).unwrap();
        let r = scrub_step(&b, &prefix, 10).unwrap();
        let defects: Vec<_> = r.defects().iter().map(|i| (i.kind, i.path.clone())).collect();
        assert_eq!(defects, [(IssueKind::BadFrame, format!("{prefix}/loader/replicated.bin"))]);
    }

    #[test]
    fn orphans_are_benign() {
        let b = mem();
        let (prefix, _) = build_checkpoint(&b, "job", 10);
        b.write(&format!("{prefix}/stray.tmp"), Bytes::from_static(b"junk")).unwrap();
        let r = scrub_step(&b, &prefix, 10).unwrap();
        assert!(r.is_clean());
        assert!(r.issues.iter().any(|i| i.kind == IssueKind::Orphan));
    }

    #[test]
    fn tree_scrub_covers_all_steps() {
        let b = mem();
        build_checkpoint(&b, "job", 10);
        let (_, f20) = build_checkpoint(&b, "job", 20);
        let mut bytes = b.read(&f20).unwrap().to_vec();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF; // corrupt the stored CRC
        b.write(&f20, Bytes::from(bytes)).unwrap();
        let reports = scrub_tree(&b, "job").unwrap();
        assert_eq!(reports.len(), 2);
        assert!(reports[0].is_clean());
        assert!(!reports[1].is_clean());
    }
}
