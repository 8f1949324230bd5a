//! A layer that counts backend read operations and bytes — the instrument
//! the O(runs) load tests use to prove how often, and how much, a load
//! reads.

use crate::layer::{self, Op, Reply};
use crate::{DynBackend, Result, StorageBackend};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts successful `read` / `read_range` calls and the bytes they return;
/// every other operation, and a failed read, passes through uncounted.
pub struct OpCountingBackend {
    inner: DynBackend,
    reads: AtomicU64,
    read_bytes: AtomicU64,
}

impl OpCountingBackend {
    /// Wrap `inner`.
    pub fn new(inner: DynBackend) -> OpCountingBackend {
        OpCountingBackend { inner, reads: AtomicU64::new(0), read_bytes: AtomicU64::new(0) }
    }

    /// Read operations (whole + ranged) observed so far.
    pub fn reads(&self) -> u64 {
        self.reads.load(Ordering::SeqCst)
    }

    /// Bytes returned by read operations so far.
    pub fn read_bytes(&self) -> u64 {
        self.read_bytes.load(Ordering::SeqCst)
    }
}

impl layer::Layer for OpCountingBackend {
    fn inner(&self) -> &dyn StorageBackend {
        self.inner.as_ref()
    }

    fn around<T: Reply>(&self, _op: &Op<'_>, call: &mut dyn FnMut() -> Result<T>) -> Result<T> {
        let mut reply = call()?;
        if let Some(data) = reply.payload() {
            self.reads.fetch_add(1, Ordering::SeqCst);
            self.read_bytes.fetch_add(data.len() as u64, Ordering::SeqCst);
        }
        Ok(reply)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemoryBackend;
    use bytes::Bytes;
    use std::sync::Arc;

    #[test]
    fn counts_successful_reads_and_their_bytes_only() {
        let counting = OpCountingBackend::new(Arc::new(MemoryBackend::new()));
        let count = || (counting.reads(), counting.read_bytes());
        counting.write("f", Bytes::from(vec![7u8; 1000])).unwrap();
        let segments = [Bytes::from_static(b"ab"), Bytes::from_static(b"c")];
        counting.write_segments("g", &segments).unwrap();
        assert!(counting.exists("f").unwrap());
        assert_eq!(counting.list("").unwrap().len(), 2);
        assert_eq!(count(), (0, 0), "writes and probes are not reads");

        assert_eq!(counting.read("f").unwrap().len(), 1000);
        assert_eq!(count(), (1, 1000));
        assert_eq!(&counting.read_range("g", 1, 2).unwrap()[..], b"bc");
        assert_eq!(count(), (2, 1002));

        assert!(counting.read("missing").is_err());
        assert!(counting.read_range("f", 999, 2).is_err());
        assert_eq!(count(), (2, 1002), "a failed read returns no bytes and is not counted");
    }
}
