//! Simulated HDFS: the paper's primary storage backend (§4.3, §5.1, §6.4).
//!
//! What is modeled, and why it matters to the checkpointing system:
//!
//! * **Append-only writes.** HDFS cannot patch a file at an offset, so the
//!   engine's multi-threaded upload must split a file into sub-files and
//!   merge them with a *metadata-level concat* — the §4.3 write path. The
//!   backend enforces this: `write` creates/replaces whole objects,
//!   `append` extends, there is no ranged write.
//! * **NameNode metadata operations.** Every metadata operation (create,
//!   open, exists, size, list, rename, concat, delete) is counted
//!   ([`NameNodeStats`]); a concat costs one per participating file plus
//!   one. The backend charges no time of its own: a test that wants
//!   NameNode latency puts a `Fault::Delay` rule in front of it, as the NAS
//!   profile does.
//! * **Ranged multi-threaded reads.** Reads are served from the object
//!   store without NameNode involvement beyond an open, mirroring the SDK's
//!   random-read capability the paper exploits for 2-3 GB/s downloads.
//!
//! Not modeled: §5.1's NNProxy metadata cache (no workflow asks the
//! NameNode the same question twice: a step is opened once per load, a
//! marker is probed only when its listing misses it, and a file's size is
//! asked once), §5.1's SSD→HDD cool-down (nothing reads a storage class),
//! §6.4's serial concat under a NameNode-wide lock and the NameNode QPS
//! throttle (no caller configured either): the simulation keeps one tier,
//! concatenates in parallel and never throttles.
//!
//! Data sits in in-process memory — the *behavioural* contract (who pays
//! which metadata ops, what must be concatenated, what can be read in
//! parallel) is what the engine exercises, per the DESIGN.md substitution
//! table.

use crate::{checked_range, Result, StorageBackend, StorageError};
use bcp_monitor::sync::{read, write};
use bytes::{Bytes, BytesMut};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

/// Counters exposed by the NameNode for storage-side monitoring (§5.3).
#[derive(Debug, Default)]
pub struct NameNodeStats {
    /// Total metadata operations served by the NameNode.
    pub meta_ops: AtomicU64,
    /// Concat operations executed.
    pub concats: AtomicU64,
}

impl NameNodeStats {
    /// Snapshot (meta_ops, concats).
    pub fn snapshot(&self) -> (u64, u64) {
        (self.meta_ops.load(Ordering::Relaxed), self.concats.load(Ordering::Relaxed))
    }

    /// Count one NameNode metadata operation.
    fn meta_op(&self) {
        self.meta_ops.fetch_add(1, Ordering::Relaxed);
    }
}

/// The simulated HDFS backend. Cheap to share: wrap in `Arc`.
#[derive(Default)]
pub struct HdfsBackend {
    namenode: NameNodeStats,
    objects: RwLock<BTreeMap<String, Bytes>>,
}

impl HdfsBackend {
    /// An empty cluster.
    pub fn new() -> HdfsBackend {
        HdfsBackend::default()
    }

    /// NameNode statistics for storage-side monitoring.
    pub fn namenode_stats(&self) -> &NameNodeStats {
        &self.namenode
    }

    /// A file's length, if it exists: one NameNode operation.
    fn stat(&self, path: &str) -> Option<u64> {
        self.namenode.meta_op();
        read(&self.objects).get(path).map(|o| o.len() as u64)
    }
}

impl StorageBackend for HdfsBackend {
    fn name(&self) -> &str {
        "hdfs"
    }

    fn op_attrs(&self) -> Vec<(&'static str, String)> {
        vec![("meta_ops", self.namenode.meta_ops.load(Ordering::Relaxed).to_string())]
    }

    fn concat_is_metadata_op(&self) -> bool {
        // The NameNode relinks the parts' blocks under the target (the copy
        // in `concat` below is this simulation's bookkeeping, not the cost
        // model: what a concat is charged is metadata operations).
        true
    }

    fn write(&self, path: &str, data: Bytes) -> Result<()> {
        // Create = one metadata op (the paper's §6.4 lesson: avoid the SDK's
        // redundant parent-dir checks; we charge exactly one op).
        self.namenode.meta_op();
        write(&self.objects).insert(path.to_string(), data);
        Ok(())
    }

    fn append(&self, path: &str, data: &[u8]) -> Result<()> {
        self.namenode.meta_op();
        let mut objects = write(&self.objects);
        let obj = objects.entry(path.to_string()).or_default();
        let mut buf = BytesMut::with_capacity(obj.len() + data.len());
        buf.extend_from_slice(obj);
        buf.extend_from_slice(data);
        *obj = buf.freeze();
        Ok(())
    }

    fn read(&self, path: &str) -> Result<Bytes> {
        // Open = one metadata op; the data path bypasses the NameNode.
        self.namenode.meta_op();
        read(&self.objects)
            .get(path)
            .cloned()
            .ok_or_else(|| StorageError::NotFound(path.to_string()))
    }

    fn read_range(&self, path: &str, offset: u64, len: u64) -> Result<Bytes> {
        // Ranged reads are the multi-threaded download fast path: no
        // NameNode op per chunk (block locations are cached client-side).
        let objects = read(&self.objects);
        let obj = objects.get(path).ok_or_else(|| StorageError::NotFound(path.to_string()))?;
        Ok(obj.slice(checked_range(path, obj.len() as u64, offset, len)?))
    }

    fn size(&self, path: &str) -> Result<u64> {
        self.stat(path).ok_or_else(|| StorageError::NotFound(path.to_string()))
    }

    fn exists(&self, path: &str) -> Result<bool> {
        Ok(self.stat(path).is_some())
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        self.namenode.meta_op();
        Ok(read(&self.objects)
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, _)| k.clone())
            .collect())
    }

    fn delete(&self, path: &str) -> Result<()> {
        self.namenode.meta_op();
        write(&self.objects)
            .remove(path)
            .map(|_| ())
            .ok_or_else(|| StorageError::NotFound(path.to_string()))
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        self.namenode.meta_op();
        let mut objects = write(&self.objects);
        let obj = objects.remove(from).ok_or_else(|| StorageError::NotFound(from.to_string()))?;
        objects.insert(to.to_string(), obj);
        Ok(())
    }

    fn concat(&self, target: &str, parts: &[String]) -> Result<()> {
        self.namenode.concats.fetch_add(1, Ordering::Relaxed);
        // Metadata-level merge: one metadata op per participating file plus
        // one for the target — concat cost scales with the number of parts.
        for _ in 0..=parts.len() {
            self.namenode.meta_op();
        }
        let mut objects = write(&self.objects);
        let mut buf = BytesMut::new();
        for p in parts {
            let obj = objects.get(p).ok_or_else(|| StorageError::NotFound(p.clone()))?;
            buf.extend_from_slice(obj);
        }
        for p in parts {
            objects.remove(p);
        }
        objects.insert(target.to_string(), buf.freeze());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conformance() {
        crate::conformance::run_all(&HdfsBackend::new());
    }

    #[test]
    fn split_upload_then_concat_matches_whole_write() {
        // The §4.3 write path: split into sub-files, upload concurrently,
        // metadata-concat back into one object.
        let h = std::sync::Arc::new(HdfsBackend::new());
        let payload: Vec<u8> = (0..4096u32).flat_map(|i| i.to_le_bytes()).collect();
        let chunk = payload.len() / 4;
        let mut handles = Vec::new();
        for i in 0..4 {
            let h = h.clone();
            let part = Bytes::copy_from_slice(&payload[i * chunk..(i + 1) * chunk]);
            handles.push(std::thread::spawn(move || {
                h.write(&format!("up/file.part{i}"), part).unwrap();
            }));
        }
        for hd in handles {
            hd.join().unwrap();
        }
        let parts: Vec<String> = (0..4).map(|i| format!("up/file.part{i}")).collect();
        h.concat("up/file", &parts).unwrap();
        assert_eq!(&h.read("up/file").unwrap()[..], &payload[..]);
        assert!(h.list("up/").unwrap() == vec!["up/file".to_string()]);
    }

    #[test]
    fn ranged_reads_bypass_namenode() {
        let h = HdfsBackend::new();
        h.write("big", Bytes::from(vec![7u8; 1024])).unwrap();
        let (ops0, _) = h.namenode_stats().snapshot();
        for i in 0..16 {
            let _ = h.read_range("big", i * 64, 64).unwrap();
        }
        let (ops1, _) = h.namenode_stats().snapshot();
        assert_eq!(ops1, ops0, "ranged reads must not hit the NameNode");
    }
}
