//! Mutation journal: a backend wrapper that records every successful
//! mutating operation — `write`, `write_segments`, `append`, `delete`,
//! `rename`, `concat` — and can materialize *any* post-crash storage state:
//! every prefix of the mutation log (crash between ops) plus torn variants
//! of the in-flight final op (crash mid-write, truncating the new content at
//! an arbitrary byte offset, including mid-segment inside a
//! `write_segments` gather-write).
//!
//! Each logged op is a durability point: the wrapped backend applies ops
//! atomically, so the crash model is "some prefix of the log is durable,
//! and the next op may be torn". `rename` and `delete` are themselves
//! atomic (rename is the commit point of the checkpoint protocol), so they
//! contribute prefix states but no torn variants.

use crate::layer::{self, Op, Reply};
use crate::memory::MemoryBackend;
use crate::{DynBackend, Result, StorageBackend};
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One recorded mutating operation, with enough payload to replay it.
#[derive(Debug, Clone)]
pub enum JournalOp {
    /// Whole-object create-or-replace.
    Write { path: String, data: Bytes },
    /// Gather-write: segments concatenated in order.
    WriteSegments { path: String, segments: Vec<Bytes> },
    /// Append to an existing (or new) object.
    Append { path: String, data: Bytes },
    /// Object removal.
    Delete { path: String },
    /// Atomic rename (the commit-protocol primitive).
    Rename { from: String, to: String },
    /// Merge parts into target, removing the parts.
    Concat { target: String, parts: Vec<String> },
}

impl JournalOp {
    /// Short label for matrix/debug output, e.g. `write step_2/COMPLETE`.
    pub fn label(&self) -> String {
        match self {
            JournalOp::Write { path, .. } => format!("write {path}"),
            JournalOp::WriteSegments { path, segments } => {
                format!("write_segments {path} ({} segs)", segments.len())
            }
            JournalOp::Append { path, .. } => format!("append {path}"),
            JournalOp::Delete { path } => format!("delete {path}"),
            JournalOp::Rename { from, to } => format!("rename {from} -> {to}"),
            JournalOp::Concat { target, parts } => {
                format!("concat {target} ({} parts)", parts.len())
            }
        }
    }
}

/// Records every mutating op against the wrapped backend and replays
/// arbitrary prefixes (plus torn final writes) into fresh
/// [`MemoryBackend`]s for crash-consistency exploration.
pub struct JournalBackend {
    inner: DynBackend,
    log: Mutex<Vec<JournalOp>>,
    baseline: Mutex<BTreeMap<String, Bytes>>,
}

impl JournalBackend {
    /// Wrap `inner`, snapshotting its current contents as the baseline all
    /// materialized crash states start from.
    pub fn new(inner: DynBackend) -> Result<JournalBackend> {
        let baseline = Self::snapshot(&inner)?;
        Ok(JournalBackend { inner, log: Mutex::new(Vec::new()), baseline: Mutex::new(baseline) })
    }

    fn snapshot(inner: &DynBackend) -> Result<BTreeMap<String, Bytes>> {
        let mut map = BTreeMap::new();
        for path in inner.list("")? {
            map.insert(path.clone(), inner.read(&path)?);
        }
        Ok(map)
    }

    /// Re-snapshot the wrapped backend as the new baseline and clear the
    /// log. Call between "known good" saves so every enumerated crash state
    /// contains the committed prior step.
    pub fn rebase(&self) -> Result<()> {
        let snap = Self::snapshot(&self.inner)?;
        *self.baseline.lock() = snap;
        self.log.lock().clear();
        Ok(())
    }

    /// The recorded mutation log, in order.
    pub fn ops(&self) -> Vec<JournalOp> {
        self.log.lock().clone()
    }

    /// Materialize the storage state after the first `n` ops (crash between
    /// op `n-1` and op `n`). `n == 0` is the baseline; `n == ops().len()`
    /// is the fully-applied state.
    pub fn materialize_prefix(&self, n: usize) -> Result<Arc<MemoryBackend>> {
        let mem = Arc::new(MemoryBackend::new());
        for (path, data) in self.baseline.lock().iter() {
            mem.write(path, data.clone())?;
        }
        let ops = self.log.lock();
        for op in ops.iter().take(n) {
            replay(mem.as_ref(), op)?;
        }
        Ok(mem)
    }

    /// Materialize the state where ops `0..n` are durable and op `n`'s new
    /// content was torn after `cut` bytes. For `write`/`write_segments`
    /// the object exists truncated to `cut` bytes (a `cut` of 0 models a
    /// created-but-empty file — the torn-marker state); for `append` only
    /// `cut` bytes of the new data landed; for `concat` the merged target
    /// is truncated and the parts were *not* removed. `delete`/`rename`
    /// are atomic and have no torn variants.
    pub fn materialize_torn(&self, n: usize, cut: u64) -> Result<Arc<MemoryBackend>> {
        let mem = self.materialize_prefix(n)?;
        let op = {
            let ops = self.log.lock();
            ops.get(n).cloned()
        };
        let Some(op) = op else { return Ok(mem) };
        let cut = cut as usize;
        match op {
            JournalOp::Write { path, data } => {
                let cut = cut.min(data.len());
                mem.write(&path, data.slice(0..cut))?;
            }
            JournalOp::WriteSegments { path, segments } => {
                let total: usize = segments.iter().map(Bytes::len).sum();
                let cut = cut.min(total);
                let mut buf = Vec::with_capacity(cut);
                for seg in &segments {
                    if buf.len() >= cut {
                        break;
                    }
                    let take = (cut - buf.len()).min(seg.len());
                    buf.extend_from_slice(&seg[..take]);
                }
                mem.write(&path, Bytes::from(buf))?;
            }
            JournalOp::Append { path, data } => {
                let cut = cut.min(data.len());
                mem.append(&path, &data[..cut])?;
            }
            JournalOp::Concat { target, parts } => {
                let mut buf = Vec::new();
                for part in &parts {
                    buf.extend_from_slice(&mem.read(part)?);
                }
                buf.truncate(cut.min(buf.len()));
                mem.write(&target, Bytes::from(buf))?;
            }
            JournalOp::Delete { .. } | JournalOp::Rename { .. } => {}
        }
        Ok(mem)
    }

    /// Interesting truncation offsets for op `n`: first/last byte, midpoint,
    /// and — for gather-writes and concats — every part boundary plus each
    /// part's midpoint, so crashes *inside* a `write_segments` segment are
    /// covered. Offsets are strictly less than the op's total new-byte
    /// count (the full write is the next prefix state). Atomic ops
    /// (`delete`, `rename`) return an empty set.
    pub fn torn_points(&self, n: usize) -> Result<Vec<u64>> {
        let op = {
            let ops = self.log.lock();
            ops.get(n).cloned()
        };
        let Some(op) = op else { return Ok(Vec::new()) };
        let (total, part_lens): (u64, Vec<u64>) = match &op {
            JournalOp::Write { data, .. } | JournalOp::Append { data, .. } => {
                (data.len() as u64, Vec::new())
            }
            JournalOp::WriteSegments { segments, .. } => {
                let lens: Vec<u64> = segments.iter().map(|s| s.len() as u64).collect();
                (lens.iter().sum(), lens)
            }
            JournalOp::Concat { parts, .. } => {
                // Part sizes depend on the state at op `n`; measure them.
                let mem = self.materialize_prefix(n)?;
                let lens: Vec<u64> = parts.iter().map(|p| mem.size(p)).collect::<Result<_>>()?;
                (lens.iter().sum(), lens)
            }
            JournalOp::Delete { .. } | JournalOp::Rename { .. } => return Ok(Vec::new()),
        };
        let mut cuts = vec![0, 1, total / 2, total.saturating_sub(1)];
        let mut pos = 0u64;
        for len in part_lens {
            cuts.push(pos + len / 2);
            pos += len;
            cuts.push(pos);
        }
        cuts.retain(|&c| c < total);
        cuts.sort_unstable();
        cuts.dedup();
        Ok(cuts)
    }
}

fn replay(mem: &MemoryBackend, op: &JournalOp) -> Result<()> {
    match op {
        JournalOp::Write { path, data } => mem.write(path, data.clone()),
        JournalOp::WriteSegments { path, segments } => mem.write_segments(path, segments),
        JournalOp::Append { path, data } => mem.append(path, data),
        JournalOp::Delete { path } => mem.delete(path),
        JournalOp::Rename { from, to } => mem.rename(from, to),
        JournalOp::Concat { target, parts } => mem.concat(target, parts),
    }
}

impl layer::Layer for JournalBackend {
    fn inner(&self) -> &dyn StorageBackend {
        self.inner.as_ref()
    }

    /// Log the mutation once the inner backend has applied it.
    fn around<T: Reply>(&self, op: &Op<'_>, call: &mut dyn FnMut() -> Result<T>) -> Result<T> {
        let reply = call()?;
        let entry = match *op {
            Op::Write { path, data } => JournalOp::Write { path: path.into(), data: data.clone() },
            Op::WriteSegments { path, segments } => {
                JournalOp::WriteSegments { path: path.into(), segments: segments.to_vec() }
            }
            Op::Append { path, data } => {
                JournalOp::Append { path: path.into(), data: Bytes::copy_from_slice(data) }
            }
            Op::Delete { path } => JournalOp::Delete { path: path.into() },
            Op::Rename { from, to } => JournalOp::Rename { from: from.into(), to: to.into() },
            Op::Concat { target, parts } => {
                JournalOp::Concat { target: target.into(), parts: parts.to_vec() }
            }
            _ => return Ok(reply),
        };
        self.log.lock().push(entry);
        Ok(reply)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn journaled() -> JournalBackend {
        JournalBackend::new(Arc::new(MemoryBackend::new())).unwrap()
    }

    #[test]
    fn records_only_successful_mutations() {
        let j = journaled();
        j.write("a", Bytes::from_static(b"one")).unwrap();
        assert!(j.delete("missing").is_err());
        j.append("a", b"two").unwrap();
        let ops = j.ops();
        assert_eq!(ops.len(), 2);
        assert!(matches!(&ops[0], JournalOp::Write { path, .. } if path == "a"));
        assert!(matches!(&ops[1], JournalOp::Append { path, .. } if path == "a"));
    }

    #[test]
    fn prefix_materialization_replays_log_over_baseline() {
        let inner: DynBackend = Arc::new(MemoryBackend::new());
        inner.write("pre/existing", Bytes::from_static(b"base")).unwrap();
        let j = JournalBackend::new(inner).unwrap();
        j.write("a", Bytes::from_static(b"111")).unwrap();
        j.write("b", Bytes::from_static(b"222")).unwrap();
        j.delete("a").unwrap();

        let s0 = j.materialize_prefix(0).unwrap();
        assert_eq!(&s0.read("pre/existing").unwrap()[..], b"base");
        assert!(!s0.exists("a").unwrap());

        let s2 = j.materialize_prefix(2).unwrap();
        assert!(s2.exists("a").unwrap());
        assert_eq!(&s2.read("b").unwrap()[..], b"222");

        let s3 = j.materialize_prefix(3).unwrap();
        assert!(!s3.exists("a").unwrap());
    }

    #[test]
    fn torn_write_truncates_new_content() {
        let j = journaled();
        j.write("f", Bytes::from_static(b"0123456789")).unwrap();
        let torn = j.materialize_torn(0, 4).unwrap();
        assert_eq!(&torn.read("f").unwrap()[..], b"0123");
        // cut = 0 models the created-but-empty file.
        let empty = j.materialize_torn(0, 0).unwrap();
        assert!(empty.exists("f").unwrap());
        assert_eq!(empty.size("f").unwrap(), 0);
    }

    #[test]
    fn torn_gather_write_cuts_mid_segment() {
        let j = journaled();
        let segs = vec![Bytes::from_static(b"AAAA"), Bytes::from_static(b"BBBB")];
        j.write_segments("g", &segs).unwrap();
        // Cut inside the second segment.
        let torn = j.materialize_torn(0, 6).unwrap();
        assert_eq!(&torn.read("g").unwrap()[..], b"AAAABB");
        // Torn points include the segment boundary (4) and mid-segment cuts.
        let cuts = j.torn_points(0).unwrap();
        assert!(cuts.contains(&4), "segment boundary missing from {cuts:?}");
        assert!(cuts.contains(&2) && cuts.contains(&6), "mid-segment cuts missing: {cuts:?}");
        assert!(cuts.len() >= 3);
        assert!(cuts.iter().all(|&c| c < 8));
    }

    #[test]
    fn torn_append_keeps_old_content() {
        let j = journaled();
        j.write("log", Bytes::from_static(b"old")).unwrap();
        j.append("log", b"new").unwrap();
        let torn = j.materialize_torn(1, 1).unwrap();
        assert_eq!(&torn.read("log").unwrap()[..], b"oldn");
    }

    #[test]
    fn torn_concat_keeps_parts() {
        let j = journaled();
        j.write("p0", Bytes::from_static(b"AA")).unwrap();
        j.write("p1", Bytes::from_static(b"BB")).unwrap();
        j.concat("merged", &["p0".into(), "p1".into()]).unwrap();
        let torn = j.materialize_torn(2, 3).unwrap();
        assert_eq!(&torn.read("merged").unwrap()[..], b"AAB");
        assert!(torn.exists("p0").unwrap(), "crash before part removal keeps parts");
        assert!(torn.exists("p1").unwrap());
    }

    #[test]
    fn atomic_ops_have_no_torn_variants() {
        let j = journaled();
        j.write("a", Bytes::from_static(b"x")).unwrap();
        j.rename("a", "b").unwrap();
        j.delete("b").unwrap();
        assert!(j.torn_points(1).unwrap().is_empty());
        assert!(j.torn_points(2).unwrap().is_empty());
    }

    #[test]
    fn rebase_clears_log_and_resnapshots() {
        let j = journaled();
        j.write("kept", Bytes::from_static(b"v1")).unwrap();
        j.rebase().unwrap();
        assert!(j.ops().is_empty());
        let s0 = j.materialize_prefix(0).unwrap();
        assert_eq!(&s0.read("kept").unwrap()[..], b"v1");
    }
}
