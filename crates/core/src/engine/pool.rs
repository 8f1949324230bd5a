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
//! saves' worth of buffers: a save takes all its capture buffers in one
//! [`PinnedPool::acquire_batch`], which tells the pool how many buffers per
//! size class one save needs, and the pool then retains at most `d` × that
//! many per class (and none of a class the latest batch did not use). With
//! `d = 2`, a same-plan save finds every buffer it needs while the previous
//! one may still be uploading from its own set — ping and pong.
//!
//! Buffers are `BytesMut`-backed so a filled capture can be *frozen* into a
//! [`PooledBytes`]: cheaply sharable `Bytes` views that flow through
//! serialization and upload without further copies, and that hand the
//! allocation back to the pool once the last view drops (single-copy save
//! path). The pool also counts every byte copied *into* its buffers
//! ([`PinnedPool::copied_bytes`]), which the engine benchmarks use to prove
//! each tensor byte is touched exactly once between state dict and backend.

use bytes::BytesMut;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A reusable buffer pool. Buffers are size-classed by rounding up to the
/// next power of two.
pub struct PinnedPool {
    classes: Mutex<BTreeMap<u32, Class>>,
    depth: usize,
    allocs: AtomicU64,
    reuses: AtomicU64,
    copied: AtomicU64,
}

/// The free buffers of one size class.
#[derive(Default)]
struct Class {
    free: Vec<BytesMut>,
    /// Most free buffers kept: depth × this class's count in the latest batch.
    keep: usize,
}

impl PinnedPool {
    /// A pool retaining up to `depth` saves' worth of buffers (2 = classic
    /// ping-pong).
    pub fn new(depth: usize) -> Arc<PinnedPool> {
        Arc::new(PinnedPool {
            classes: Mutex::new(BTreeMap::new()),
            depth,
            allocs: AtomicU64::new(0),
            reuses: AtomicU64::new(0),
            copied: AtomicU64::new(0),
        })
    }

    /// Smallest class whose capacity (`1 << class`) holds `size` bytes.
    /// Exact powers of two map to their own class: `class_of(1024) == 10`.
    fn class_of(size: usize) -> u32 {
        if size <= 1 {
            0
        } else {
            usize::BITS - (size - 1).leading_zeros()
        }
    }

    /// Acquire one save's buffers: a zero-length buffer with capacity
    /// ≥ each of `sizes`, in order. The batch sets the pool's retention to
    /// `depth` × its per-class counts and releases the free buffers of every
    /// class it does not use. Each buffer returns to the pool when its guard
    /// drops (or, after [`PooledBuf::freeze`], when the last `Bytes` view
    /// drops).
    pub fn acquire_batch(
        self: &Arc<Self>,
        sizes: impl IntoIterator<Item = usize>,
    ) -> Vec<PooledBuf> {
        let wanted: Vec<u32> = sizes.into_iter().map(Self::class_of).collect();
        let reused: Vec<Option<BytesMut>> = {
            let mut classes = self.classes.lock();
            classes.values_mut().for_each(|c| c.keep = 0);
            for &class in &wanted {
                classes.entry(class).or_default().keep += self.depth;
            }
            classes.retain(|_, c| {
                c.free.truncate(c.keep);
                c.keep > 0
            });
            wanted.iter().map(|class| classes.get_mut(class).and_then(|c| c.free.pop())).collect()
        };
        let reuses = reused.iter().filter(|b| b.is_some()).count();
        self.reuses.fetch_add(reuses as u64, Ordering::Relaxed);
        self.allocs.fetch_add((wanted.len() - reuses) as u64, Ordering::Relaxed);
        wanted
            .into_iter()
            .zip(reused)
            .map(|(class, buf)| {
                let buf = match buf {
                    Some(mut b) => {
                        b.clear();
                        b
                    }
                    None => BytesMut::with_capacity(1usize << class),
                };
                PooledBuf { buf, pool: self.clone(), class }
            })
            .collect()
    }

    /// (fresh allocations, reuses) so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.allocs.load(Ordering::Relaxed), self.reuses.load(Ordering::Relaxed))
    }

    /// Total bytes copied into pooled buffers so far. On the single-copy
    /// save path this equals the plan's total payload bytes — the one
    /// capture copy — with no further per-byte copies downstream.
    pub fn copied_bytes(&self) -> u64 {
        self.copied.load(Ordering::Relaxed)
    }

    fn give_back(&self, class: u32, buf: BytesMut) {
        // Reject husks (e.g. a frozen buffer whose allocation could not be
        // reclaimed) so pooled buffers always have their class's capacity.
        if buf.capacity() < (1usize << class) {
            return;
        }
        let mut classes = self.classes.lock();
        if let Some(c) = classes.get_mut(&class).filter(|c| c.free.len() < c.keep) {
            c.free.push(buf);
        }
    }
}

/// RAII guard over a pooled buffer.
pub struct PooledBuf {
    buf: BytesMut,
    pool: Arc<PinnedPool>,
    class: u32,
}

impl PooledBuf {
    /// Copy `src` into the buffer, counting the bytes in the pool's
    /// copy accounting.
    pub fn extend_from_slice(&mut self, src: &[u8]) {
        self.buf.extend_from_slice(src);
        self.pool.copied.fetch_add(src.len() as u64, Ordering::Relaxed);
    }

    /// Read access.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Bytes filled so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been filled yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Current capacity.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Freeze the filled buffer into sharable, immutable [`PooledBytes`].
    /// The allocation returns to the pool when the last view drops.
    pub fn freeze(mut self) -> PooledBytes {
        let buf = std::mem::take(&mut self.buf);
        let pool = self.pool.clone();
        let class = self.class;
        // `self` now holds an empty husk; its Drop hands back a
        // zero-capacity BytesMut that `give_back` rejects.
        PooledBytes { bytes: buf.freeze(), pool, class }
    }
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        let buf = std::mem::take(&mut self.buf);
        self.pool.give_back(self.class, buf);
    }
}

/// An immutable, sharable view over a frozen pooled buffer. Cloned views
/// ([`PooledBytes::share`]) reference the same allocation; when the last
/// reference drops the allocation is reclaimed into the pool.
pub struct PooledBytes {
    bytes: bytes::Bytes,
    pool: Arc<PinnedPool>,
    class: u32,
}

impl PooledBytes {
    /// A zero-copy `Bytes` view of the payload.
    pub fn share(&self) -> bytes::Bytes {
        self.bytes.clone()
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

impl AsRef<[u8]> for PooledBytes {
    fn as_ref(&self) -> &[u8] {
        &self.bytes
    }
}

impl Drop for PooledBytes {
    fn drop(&mut self) {
        let bytes = std::mem::take(&mut self.bytes);
        // Reclaim only if no outstanding shared views reference the
        // allocation; otherwise the allocation frees normally when the last
        // `Bytes` clone drops.
        if let Ok(buf) = bytes.try_into_mut() {
            self.pool.give_back(self.class, buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One save's worth of sizes: two in the 1 KiB class, one in 8 KiB.
    const SAVE: [usize; 3] = [1000, 900, 5000];

    #[test]
    fn a_same_plan_batch_reuses_every_buffer() {
        let pool = PinnedPool::new(2);
        {
            let mut first = pool.acquire_batch(SAVE);
            first[0].extend_from_slice(&[1, 2, 3]);
        } // all three return
        assert_eq!(pool.stats(), (3, 0));
        for _ in 0..4 {
            drop(pool.acquire_batch(SAVE));
        }
        assert_eq!(pool.stats(), (3, 12), "warm batches allocate nothing");
        assert_eq!(pool.copied_bytes(), 3);
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
    fn a_smaller_plan_releases_the_classes_it_no_longer_uses() {
        let pool = PinnedPool::new(2);
        drop([pool.acquire_batch(SAVE), pool.acquire_batch(SAVE)]);
        // A plan of one 1 KiB buffer: keeps two of the four 1 KiB buffers,
        // releases both 8 KiB ones.
        drop(pool.acquire_batch([1000]));
        assert_eq!(pool.stats(), (6, 1));
        drop([pool.acquire_batch([1000]), pool.acquire_batch([1000]), pool.acquire_batch([5000])]);
        assert_eq!(pool.stats(), (6 + 1, 1 + 2), "the 8 KiB class was released");
    }

    #[test]
    fn acquired_buffers_start_empty_with_capacity() {
        let pool = PinnedPool::new(2);
        pool.acquire_batch([100])[0].extend_from_slice(&[9; 50]);
        let b = pool.acquire_batch([100]);
        assert!(b[0].as_slice().is_empty());
        assert_eq!(pool.stats(), (1, 1));
    }

    #[test]
    fn exact_powers_of_two_do_not_round_up() {
        // Regression: class_of used to round 1024 up to the 2048 class,
        // doubling capture memory for exactly-sized tensors.
        let pool = PinnedPool::new(2);
        let caps: Vec<usize> =
            pool.acquire_batch([1024, 1025, 1, 0, 3]).iter().map(PooledBuf::capacity).collect();
        assert_eq!(caps, vec![1024, 2048, 1, 1, 4]);
    }

    #[test]
    fn frozen_buffers_return_to_the_pool_after_last_view_drops() {
        let pool = PinnedPool::new(2);
        {
            let mut a = pool.acquire_batch([512]).pop().unwrap();
            a.extend_from_slice(&[7; 512]);
            let frozen = a.freeze();
            {
                let view = frozen.share();
                assert_eq!(&view[..4], &[7; 4]);
            } // shared view drops first...
        } // ...then the guard: unique again -> allocation reclaimed
        let _again = pool.acquire_batch([512]);
        assert_eq!(pool.stats(), (1, 1));
    }
}
