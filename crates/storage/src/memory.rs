//! In-memory object store.
//!
//! Serves three roles: unit-test backend, the engine's shared-memory staging
//! area (the paper dumps serialized files into `/dev/shm` before upload),
//! and Gemini-style in-memory checkpoint storage for fast failure recovery.

use crate::{checked_range, Result, StorageBackend, StorageError};
use bytes::{Bytes, BytesMut};
use parking_lot::RwLock;
use std::collections::BTreeMap;

/// A thread-safe in-memory object store keyed by path.
#[derive(Default)]
pub struct MemoryBackend {
    objects: RwLock<BTreeMap<String, Bytes>>,
}

impl MemoryBackend {
    /// Create an empty store.
    pub fn new() -> MemoryBackend {
        MemoryBackend::default()
    }

    /// Total bytes currently stored (capacity monitoring).
    pub fn total_bytes(&self) -> u64 {
        self.objects.read().values().map(|b| b.len() as u64).sum()
    }

    /// Number of objects stored.
    pub fn num_objects(&self) -> usize {
        self.objects.read().len()
    }
}

/// One object holding `segments` in order. A single segment is stored as the
/// caller's `Bytes` zero-copy; more pay exactly one copy into a buffer sized
/// up front (growing by doubling would touch twice the bytes).
fn stitch(segments: &[Bytes]) -> Bytes {
    match segments {
        [one] => one.clone(),
        _ => {
            let total: usize = segments.iter().map(Bytes::len).sum();
            let mut buf = BytesMut::with_capacity(total);
            for seg in segments {
                buf.extend_from_slice(seg);
            }
            buf.freeze()
        }
    }
}

impl StorageBackend for MemoryBackend {
    fn name(&self) -> &str {
        "memory"
    }

    fn write(&self, path: &str, data: Bytes) -> Result<()> {
        self.objects.write().insert(path.to_string(), data);
        Ok(())
    }

    fn write_segments(&self, path: &str, segments: &[Bytes]) -> Result<()> {
        let data = stitch(segments);
        self.objects.write().insert(path.to_string(), data);
        Ok(())
    }

    fn zero_copy_reads(&self) -> bool {
        // `read_range` returns `Bytes::slice` views of the single stored
        // allocation, so adjacent ranges of one object share a parent.
        true
    }

    fn append(&self, path: &str, data: &[u8]) -> Result<()> {
        let mut objects = self.objects.write();
        let entry = objects.entry(path.to_string()).or_default();
        let mut buf = BytesMut::with_capacity(entry.len() + data.len());
        buf.extend_from_slice(entry);
        buf.extend_from_slice(data);
        *entry = buf.freeze();
        Ok(())
    }

    fn read(&self, path: &str) -> Result<Bytes> {
        self.objects
            .read()
            .get(path)
            .cloned()
            .ok_or_else(|| StorageError::NotFound(path.to_string()))
    }

    fn read_range(&self, path: &str, offset: u64, len: u64) -> Result<Bytes> {
        let objects = self.objects.read();
        let obj = objects.get(path).ok_or_else(|| StorageError::NotFound(path.to_string()))?;
        Ok(obj.slice(checked_range(path, obj.len() as u64, offset, len)?))
    }

    fn size(&self, path: &str) -> Result<u64> {
        self.objects
            .read()
            .get(path)
            .map(|b| b.len() as u64)
            .ok_or_else(|| StorageError::NotFound(path.to_string()))
    }

    fn exists(&self, path: &str) -> Result<bool> {
        Ok(self.objects.read().contains_key(path))
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        Ok(self
            .objects
            .read()
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, _)| k.clone())
            .collect())
    }

    fn delete(&self, path: &str) -> Result<()> {
        self.objects
            .write()
            .remove(path)
            .map(|_| ())
            .ok_or_else(|| StorageError::NotFound(path.to_string()))
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        let mut objects = self.objects.write();
        let data = objects.remove(from).ok_or_else(|| StorageError::NotFound(from.to_string()))?;
        objects.insert(to.to_string(), data);
        Ok(())
    }

    fn concat(&self, target: &str, parts: &[String]) -> Result<()> {
        // Only handle clones and map edits happen under the store-wide lock:
        // the copy — tens of MB for a split shard file — runs outside it, so
        // one rank's concat never blocks another rank's part writes.
        let handles: Vec<Bytes> = {
            let objects = self.objects.read();
            parts
                .iter()
                .map(|p| objects.get(p).cloned().ok_or_else(|| StorageError::NotFound(p.clone())))
                .collect::<Result<_>>()?
        };
        let merged = stitch(&handles);
        let mut objects = self.objects.write();
        for p in parts {
            objects.remove(p);
        }
        objects.insert(target.to_string(), merged);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conformance() {
        crate::conformance::run_all(&MemoryBackend::new());
    }

    #[test]
    fn capacity_accounting() {
        let m = MemoryBackend::new();
        m.write("a", Bytes::from_static(b"1234")).unwrap();
        m.write("b", Bytes::from_static(b"56")).unwrap();
        assert_eq!(m.total_bytes(), 6);
        assert_eq!(m.num_objects(), 2);
        m.delete("a").unwrap();
        assert_eq!(m.total_bytes(), 2);
    }

    #[test]
    fn concat_and_concurrent_unrelated_writes_both_land() {
        // `concat` copies outside the store lock and re-takes it to publish;
        // a writer to other keys racing that window must lose nothing, and
        // neither may the merged object.
        let m = MemoryBackend::new();
        let names: Vec<String> = (0..4).map(|i| format!("f.bin.part{i}")).collect();
        let part = |i: usize| Bytes::from(vec![i as u8 + 1; 256 * 1024]);
        for round in 0..8 {
            for (i, name) in names.iter().enumerate() {
                m.write(name, part(i)).unwrap();
            }
            let gate = std::sync::Barrier::new(2);
            std::thread::scope(|s| {
                s.spawn(|| {
                    gate.wait();
                    m.concat("f.bin", &names).unwrap();
                });
                s.spawn(|| {
                    gate.wait();
                    for k in 0..64 {
                        m.write(&format!("other/{round}/{k}"), Bytes::from(vec![k as u8; 64]))
                            .unwrap();
                    }
                });
            });
            let merged = m.read("f.bin").unwrap();
            let want: Vec<u8> = (0..4).flat_map(|i| part(i).to_vec()).collect();
            assert!(merged[..] == want[..], "round {round}: merged object differs");
            assert!(names.iter().all(|n| !m.exists(n).unwrap()), "round {round}: parts remain");
            for k in 0..64 {
                assert_eq!(m.read(&format!("other/{round}/{k}")).unwrap()[..], [k as u8; 64]);
            }
        }
    }

    #[test]
    fn concurrent_ranged_reads() {
        let m = std::sync::Arc::new(MemoryBackend::new());
        let data: Vec<u8> = (0..=255u8).cycle().take(1 << 16).collect();
        m.write("big", Bytes::from(data.clone())).unwrap();
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let m = m.clone();
            let expected = data.clone();
            handles.push(std::thread::spawn(move || {
                let chunk = (1u64 << 16) / 8;
                let got = m.read_range("big", t * chunk, chunk).unwrap();
                assert_eq!(&got[..], &expected[(t * chunk) as usize..((t + 1) * chunk) as usize]);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}
