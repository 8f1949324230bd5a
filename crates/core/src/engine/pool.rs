//! Pinned host-memory pool with ping-pong reuse (§4.2).
//!
//! "To mitigate the performance impact of D2H copy on training, we employ a
//! pinned CPU memory pool combined with a Ping-Pong buffering mechanism."
//! In CUDA terms the pool amortizes `cudaHostAlloc`; here it amortizes
//! allocator traffic and page faults: a capture into a retained buffer
//! writes pages that are already resident, where a fresh allocation faults
//! every page inside the training-blocking `save()`. Its accounting lets
//! tests and the simulator distinguish pooled (reused) captures from cold
//! allocations.
//!
//! **Depth is counted in saves.** [`PinnedPool::new`]`(d)` keeps up to `d`
//! saves' worth of buffers: a save takes all its buffers (one per shard
//! file: the file's whole image) in one [`PinnedPool::acquire_batch`], which
//! tells the pool how many buffers of each size one save needs, and the pool
//! then retains at most `d` × that many per size (and none of a size the
//! latest batch did not ask for). With `d = 2`, a same-plan save finds every
//! buffer it needs while the previous one may still be uploading from its
//! own set — ping and pong.
//!
//! **Sizes are exact.** A buffer is kept under the byte size it was asked
//! for, not rounded up to a size class: a same-plan save asks for the same
//! file sizes again, so exact sizes always hit, and a shard file image never
//! carries up to twice its length in unused capacity.
//!
//! **Reclaim by owner.** [`PooledBuf::freeze`] turns a filled buffer into
//! `Bytes` that *own* it ([`bytes::Bytes::from_owner`]). Whoever holds the
//! last view — an upload job, a `MemoryBackend` that stored the image, a
//! tensor restored by adopting a slice of it — frees it by dropping that
//! view, and the buffer's own `Drop` hands the allocation back to the
//! pool. So a backend that keeps a step's images holds them until the step
//! is deleted, and the next save reuses them from then on.
//!
//! **Payload goes in sealed.** [`PooledBuf::extend_sealed`] is the only way
//! payload enters a buffer: it copies and returns the payload's CRC32 in one
//! read of the source (`bcp_tensor::checksum::extend_crc32`), so a capture
//! leaves its image sealed. The buffer is a plain `Vec<u8>`, which the
//! kernel appends to directly.
//!
//! The pool also counts every payload byte copied *into* its buffers
//! ([`PinnedPool::copied_bytes`]), which tests and the benchmark use to show
//! each tensor byte is copied exactly once between state dict and backend.

use bcp_monitor::sync::lock;
use bcp_tensor::checksum::extend_crc32;
use bytes::BufMut;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A reusable buffer pool, keyed by exact buffer size.
pub struct PinnedPool {
    sizes: Mutex<BTreeMap<usize, Free>>,
    depth: usize,
    allocs: AtomicU64,
    reuses: AtomicU64,
    copied: AtomicU64,
}

/// The free buffers of one size.
#[derive(Default)]
struct Free {
    bufs: Vec<Vec<u8>>,
    /// Most free buffers kept: depth × this size's count in the latest batch.
    keep: usize,
}

impl PinnedPool {
    /// A pool retaining up to `depth` saves' worth of buffers (2 = classic
    /// ping-pong).
    pub fn new(depth: usize) -> Arc<PinnedPool> {
        Arc::new(PinnedPool {
            sizes: Mutex::new(BTreeMap::new()),
            depth,
            allocs: AtomicU64::new(0),
            reuses: AtomicU64::new(0),
            copied: AtomicU64::new(0),
        })
    }

    /// Acquire one save's buffers: a zero-length buffer with capacity
    /// `size` for each of `sizes`, in order. The batch sets the pool's
    /// retention to `depth` × its per-size counts and releases the free
    /// buffers of every size it does not ask for. Each buffer returns to the
    /// pool when it drops — after [`PooledBuf::freeze`], when the last
    /// `Bytes` view of it drops.
    pub fn acquire_batch(
        self: &Arc<Self>,
        sizes: impl IntoIterator<Item = usize>,
    ) -> Vec<PooledBuf> {
        let wanted: Vec<usize> = sizes.into_iter().collect();
        let reused: Vec<Option<Vec<u8>>> = {
            let mut free = lock(&self.sizes);
            free.values_mut().for_each(|f| f.keep = 0);
            for &size in &wanted {
                free.entry(size).or_default().keep += self.depth;
            }
            free.retain(|_, f| {
                f.bufs.truncate(f.keep);
                f.keep > 0
            });
            wanted.iter().map(|size| free.get_mut(size).and_then(|f| f.bufs.pop())).collect()
        };
        let reuses = reused.iter().filter(|b| b.is_some()).count();
        self.reuses.fetch_add(reuses as u64, Ordering::Relaxed);
        self.allocs.fetch_add((wanted.len() - reuses) as u64, Ordering::Relaxed);
        wanted
            .into_iter()
            .zip(reused)
            .map(|(size, buf)| {
                let buf = match buf {
                    Some(mut b) => {
                        b.clear();
                        b
                    }
                    None => Vec::with_capacity(size),
                };
                PooledBuf { buf, pool: self.clone(), size }
            })
            .collect()
    }

    /// (fresh allocations, reuses) so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.allocs.load(Ordering::Relaxed), self.reuses.load(Ordering::Relaxed))
    }

    /// Total payload bytes copied into pooled buffers so far. On the
    /// single-copy save path this equals the plan's total payload bytes —
    /// the one capture copy — with no further per-byte copies downstream.
    pub fn copied_bytes(&self) -> u64 {
        self.copied.load(Ordering::Relaxed)
    }

    fn give_back(&self, size: usize, buf: Vec<u8>) {
        let mut free = lock(&self.sizes);
        if let Some(f) = free.get_mut(&size).filter(|f| f.bufs.len() < f.keep) {
            f.bufs.push(buf);
        }
    }
}

/// A pooled buffer: filled through [`PooledBuf::extend_sealed`] (payload,
/// counted) and [`BufMut`] (framing, not counted), append-only, and
/// returned to the pool when it drops.
pub struct PooledBuf {
    buf: Vec<u8>,
    pool: Arc<PinnedPool>,
    size: usize,
}

impl PooledBuf {
    /// Copy payload bytes into the buffer and return their CRC32, reading
    /// them once ([`extend_crc32`]), and count them in the pool's copy
    /// accounting.
    pub fn extend_sealed(&mut self, payload: &[u8]) -> u32 {
        let crc = extend_crc32(&mut self.buf, payload);
        self.pool.copied.fetch_add(payload.len() as u64, Ordering::Relaxed);
        crc
    }

    /// Current capacity.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Freeze the filled buffer into sharable, immutable `Bytes` that own
    /// it: the allocation returns to the pool when the last view (or slice
    /// of a view) drops, wherever that is.
    pub fn freeze(self) -> bytes::Bytes {
        bytes::Bytes::from_owner(self)
    }
}

impl BufMut for PooledBuf {
    /// Framing bytes (frame headers, CRCs): not payload copies, so not
    /// counted in [`PinnedPool::copied_bytes`].
    fn put_slice(&mut self, src: &[u8]) {
        self.buf.extend_from_slice(src);
    }
}

impl std::ops::Deref for PooledBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl AsRef<[u8]> for PooledBuf {
    fn as_ref(&self) -> &[u8] {
        &self.buf
    }
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        let buf = std::mem::take(&mut self.buf);
        self.pool.give_back(self.size, buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcp_tensor::checksum::crc32;

    /// One save's worth of sizes: two of one size, one of another.
    const SAVE: [usize; 3] = [1000, 1000, 5000];

    #[test]
    fn a_same_plan_batch_reuses_every_buffer() {
        let pool = PinnedPool::new(2);
        {
            let mut first = pool.acquire_batch(SAVE);
            assert_eq!(first[0].extend_sealed(&[1, 2, 3]), crc32(&[1, 2, 3]));
            first[1].put_slice(&[4, 5]);
        } // all three return
        assert_eq!(pool.stats(), (3, 0));
        for _ in 0..4 {
            drop(pool.acquire_batch(SAVE));
        }
        assert_eq!(pool.stats(), (3, 12), "warm batches allocate nothing");
        assert_eq!(pool.copied_bytes(), 3, "framing bytes are not copies");
    }

    #[test]
    fn overlapping_batches_are_retained_up_to_depth_saves() {
        let pool = PinnedPool::new(2);
        // Three saves in flight at once: nine buffers, all fresh.
        drop([pool.acquire_batch(SAVE), pool.acquire_batch(SAVE), pool.acquire_batch(SAVE)]);
        assert_eq!(pool.stats(), (9, 0));
        // Only two saves' worth came back to stay: a third overlapping save
        // allocates again.
        drop([pool.acquire_batch(SAVE), pool.acquire_batch(SAVE), pool.acquire_batch(SAVE)]);
        assert_eq!(pool.stats(), (9 + 3, 6));
    }

    #[test]
    fn a_smaller_plan_releases_the_sizes_it_no_longer_uses() {
        let pool = PinnedPool::new(2);
        drop([pool.acquire_batch(SAVE), pool.acquire_batch(SAVE)]);
        // A plan of one 1000-byte buffer: keeps two of the four 1000-byte
        // buffers, releases both 5000-byte ones.
        drop(pool.acquire_batch([1000]));
        assert_eq!(pool.stats(), (6, 1));
        drop([pool.acquire_batch([1000]), pool.acquire_batch([1000]), pool.acquire_batch([5000])]);
        assert_eq!(pool.stats(), (6 + 1, 1 + 2), "the 5000-byte size was released");
    }

    #[test]
    fn acquired_buffers_start_empty_with_capacity() {
        let pool = PinnedPool::new(2);
        pool.acquire_batch([100])[0].extend_sealed(&[9; 50]);
        let b = pool.acquire_batch([100]);
        assert!(b[0].is_empty());
        assert_eq!(pool.stats(), (1, 1));
    }

    #[test]
    fn buffers_are_reused_at_exactly_the_size_asked_for() {
        let pool = PinnedPool::new(2);
        let sizes = [1024, 1025, 1, 0, 3];
        let caps: Vec<usize> = pool.acquire_batch(sizes).iter().map(PooledBuf::capacity).collect();
        assert_eq!(caps, sizes, "no rounding up");
        // The same sizes again: every one is a reuse, at the same capacity.
        let again = pool.acquire_batch(sizes);
        assert_eq!(again.iter().map(PooledBuf::capacity).collect::<Vec<_>>(), sizes);
        assert_eq!(pool.stats(), (5, 5));
        // A size one byte off is a different buffer.
        drop(again);
        drop(pool.acquire_batch([1023]));
        assert_eq!(pool.stats(), (6, 5));
    }

    #[test]
    fn a_frozen_buffer_returns_to_the_pool_when_its_last_view_drops() {
        let pool = PinnedPool::new(2);
        let mut a = pool.acquire_batch([512]).pop().unwrap();
        a.extend_sealed(&[7; 512]);
        let at = a.as_ptr();
        let frozen = a.freeze();
        let tail = frozen.slice(500..);
        drop(frozen);
        // A slice still pins the allocation: a batch now allocates afresh.
        let busy = pool.acquire_batch([512]);
        assert_eq!(pool.stats(), (2, 0));
        assert_eq!(&tail[..], &[7; 12]);
        drop(busy);
        drop(tail);
        // Both came back; the next batch takes one of them.
        let again = pool.acquire_batch([512]);
        assert_eq!(pool.stats(), (2, 1));
        let back = pool.acquire_batch([512]);
        assert_eq!(pool.stats(), (2, 2));
        assert!([again[0].as_ptr(), back[0].as_ptr()].contains(&at));
    }
}
