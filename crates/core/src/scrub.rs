//! Offline checkpoint verification ("scrub"): the full-sweep integrity
//! check behind `bcpctl scrub` and the verified-fallback load path.
//!
//! A scrub walks a checkpoint prefix and proves the commit protocol's
//! promise end to end: the global metadata parses and validates, every
//! [`crate::ByteMeta`] points at a real file, every storage file decodes
//! into CRC-verified frames, every referenced payload region lands exactly
//! on a frame payload, every state file (dataloader, extra state) decodes
//! into its one CRC-verified frame, and every file under the prefix is
//! accounted for.
//! Orphans (files nothing references) are reported but do not dirty a
//! step — extra observability artifacts must not fail CI.

use crate::format::{decode_frames, header_len, Frame};
use crate::manager::CheckpointManager;
use crate::metadata::{GlobalMetadata, TensorShardEntry, COMPLETE_MARKER, METADATA_FILE};
use crate::state_files;
use crate::{BcpError, Result};
use bcp_monitor::{TELEMETRY_LOAD_FILE, TELEMETRY_SAVE_FILE};
use bcp_storage::{DynBackend, Result as StorageResult, StorageErrorKind};
use std::collections::{BTreeMap, BTreeSet};

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

/// Result of scrubbing one step.
#[derive(Debug, Clone)]
pub struct ScrubReport {
    /// The step scrubbed.
    pub step: u64,
    /// Its full prefix.
    pub prefix: String,
    /// Whether the `COMPLETE` marker was present.
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

/// Runs one storage operation of a scrub on a path — once, or under a retry
/// policy — returning its last error; the operation keeps its own result.
pub type Attempt<'a> = dyn Fn(&str, &mut dyn FnMut() -> StorageResult<()>) -> Result<()> + 'a;

fn attempted<T>(at: &Attempt, path: &str, mut op: impl FnMut() -> StorageResult<T>) -> Result<T> {
    let mut out = None;
    at(path, &mut || op().map(|v| out = Some(v)))?;
    Ok(out.expect("a successful attempt keeps its result"))
}

/// Scrub one checkpoint prefix. Collects issues instead of failing fast;
/// only infrastructure errors (the backend itself failing) return `Err`.
pub fn scrub_step(backend: &DynBackend, prefix: &str, step: u64) -> Result<ScrubReport> {
    scrub_step_with(backend, prefix, step, &|_, op| Ok(op()?))
}

/// [`scrub_step`] with each storage operation — the listing, every file
/// read — run through `attempt`: a transient failure repeats that one
/// operation, never the sweep.
pub fn scrub_step_with(
    backend: &DynBackend,
    prefix: &str,
    step: u64,
    attempt: &Attempt<'_>,
) -> Result<ScrubReport> {
    let listed = format!("{prefix}/");
    let present: BTreeSet<String> =
        attempted(attempt, &listed, || backend.list(&listed))?.into_iter().collect();
    let marker = format!("{prefix}/{COMPLETE_MARKER}");
    let mut report = ScrubReport {
        step,
        prefix: prefix.to_string(),
        committed: present.contains(&marker),
        issues: Vec::new(),
        files_checked: 0,
        frames_verified: 0,
    };
    let meta_path = format!("{prefix}/{METADATA_FILE}");

    // 1. Metadata must exist, parse, and validate.
    let meta = if present.contains(&meta_path) {
        report.files_checked += 1;
        match attempted(attempt, &meta_path, || backend.read(&meta_path)) {
            Ok(bytes) => match GlobalMetadata::from_bytes(&bytes) {
                Ok(meta) => {
                    if let Err(e) = meta.validate() {
                        report.issues.push(ScrubIssue {
                            path: meta_path.clone(),
                            kind: IssueKind::BadMetadata,
                            detail: e,
                        });
                    }
                    if meta.step != step {
                        report.issues.push(ScrubIssue {
                            path: meta_path.clone(),
                            kind: IssueKind::BadMetadata,
                            detail: format!(
                                "metadata step {} does not match prefix step {step}",
                                meta.step
                            ),
                        });
                    }
                    Some(meta)
                }
                Err(e) => {
                    report.issues.push(ScrubIssue {
                        path: meta_path.clone(),
                        kind: IssueKind::BadMetadata,
                        detail: e,
                    });
                    None
                }
            },
            // A listed file the backend cannot produce is a defect of the
            // step; a transient or throttled read says nothing about it.
            Err(BcpError::Storage(e)) if e.kind() == StorageErrorKind::Terminal => {
                report.issues.push(ScrubIssue {
                    path: meta_path.clone(),
                    kind: IssueKind::BadMetadata,
                    detail: format!("unreadable: {e}"),
                });
                None
            }
            Err(e) => return Err(e),
        }
    } else {
        report.issues.push(ScrubIssue {
            path: meta_path.clone(),
            kind: IssueKind::MissingFile,
            detail: "global metadata file is missing".into(),
        });
        None
    };

    let mut known: BTreeSet<String> = BTreeSet::new();
    known.insert(meta_path);
    known.insert(marker);
    known.insert(format!("{prefix}/{TELEMETRY_SAVE_FILE}"));
    known.insert(format!("{prefix}/{TELEMETRY_LOAD_FILE}"));

    if let Some(meta) = &meta {
        // 2. Group tensor references by storage file.
        let mut by_file: BTreeMap<&str, Vec<(&str, &TensorShardEntry)>> = BTreeMap::new();
        for (fqn, entries) in &meta.tensor_map {
            for e in entries {
                by_file.entry(&e.byte.file).or_default().push((fqn.as_str(), e));
            }
        }

        // 3. Every referenced file must exist and decode into CRC-verified
        // frames: a state file into its one frame, named as the file; a
        // storage file into frames that cover every ByteMeta range with a
        // payload at exactly the recorded offset/length.
        let state = meta.state_files.iter().map(|name| (name.as_str(), None));
        for (file, refs) in by_file.iter().map(|(file, refs)| (*file, Some(refs))).chain(state) {
            let path = format!("{prefix}/{file}");
            known.insert(path.clone());
            if !present.contains(&path) {
                let detail = match refs {
                    Some(refs) => format!("{} shard(s) reference this missing file", refs.len()),
                    None => "state file listed in the metadata is missing".into(),
                };
                report.issues.push(ScrubIssue { path, kind: IssueKind::MissingFile, detail });
                continue;
            }
            report.files_checked += 1;
            let data = attempted(attempt, &path, || backend.read(&path))?;
            let Some(refs) = refs else {
                match state_files::decode(file, &data) {
                    Ok(_) => report.frames_verified += 1,
                    Err(e) => report.issues.push(ScrubIssue {
                        path,
                        kind: IssueKind::BadFrame,
                        detail: e.to_string(),
                    }),
                }
                continue;
            };
            let frames = match decode_frames(&data) {
                Ok(f) => f,
                Err(e) => {
                    report.issues.push(ScrubIssue {
                        path,
                        kind: IssueKind::BadFrame,
                        detail: e.to_string(),
                    });
                    continue;
                }
            };
            report.frames_verified += frames.len();
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
                match payloads.get(&(offset, length)) {
                    None => report.issues.push(ScrubIssue {
                        path: path.clone(),
                        kind: IssueKind::RangeMismatch,
                        detail: format!(
                            "{fqn}: recorded payload [{offset}, {}) does not match any \
                             decoded frame payload",
                            u128::from(offset) + u128::from(length)
                        ),
                    }),
                    // The frame header is not covered by the payload CRC, so
                    // cross-check it against the metadata: a flipped fqn
                    // byte or forged shard coordinates cannot hide.
                    Some(frame)
                        if *frame.shard.fqn != *fqn
                            || frame.shard != entry.shard
                            || frame.dtype != entry.basic.dtype =>
                    {
                        report.issues.push(ScrubIssue {
                            path: path.clone(),
                            kind: IssueKind::BadFrame,
                            detail: format!(
                                "{fqn}: frame header at payload offset {offset} disagrees \
                                 with checkpoint metadata"
                            ),
                        });
                    }
                    Some(_) => {}
                }
            }
            if frames.len() != refs.len() {
                report.issues.push(ScrubIssue {
                    path: path.clone(),
                    kind: IssueKind::BadFrame,
                    detail: format!(
                        "file holds {} frame(s) but metadata references {}",
                        frames.len(),
                        refs.len()
                    ),
                });
            }
        }
    }

    // 4. Everything else under the prefix is an orphan.
    for path in &present {
        if !known.contains(path) {
            report.issues.push(ScrubIssue {
                path: path.clone(),
                kind: IssueKind::Orphan,
                detail: "file not referenced by checkpoint metadata".into(),
            });
        }
    }
    Ok(report)
}

/// Scrub every step under a job root, ascending. Uncommitted steps are
/// included (marked in the report) so `bcpctl scrub` can name torn debris;
/// callers decide whether those count as failures.
pub fn scrub_tree(backend: &DynBackend, root: &str) -> Result<Vec<ScrubReport>> {
    let mgr = CheckpointManager::new(backend.clone(), root);
    let mut reports = Vec::new();
    for c in mgr.list()? {
        reports.push(scrub_step(backend, &c.prefix, c.step)?);
    }
    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metadata::{BasicMeta, ByteMeta, ShardMeta, TensorShardEntry};
    use bcp_storage::MemoryBackend;
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
        let r = scrub_step_with(&flaky, &prefix, 10, &twice).unwrap();
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
