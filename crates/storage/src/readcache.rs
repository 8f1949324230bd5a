//! Single-flight coalescing read cache.
//!
//! [`ReadCache`] wraps any [`StorageBackend`] with a bounded-bytes LRU of
//! decoded [`Bytes`] plus *single-flight* fetch coalescing: when K readers
//! miss on the same key concurrently, exactly one of them (the *leader*)
//! performs the backend fetch while the other K-1 park on a condvar and
//! share the leader's result. The leader election is drop-safe: if the
//! leader unwinds (panic, cancellation) before producing a result, its
//! guard clears the leader flag and wakes the waiters, one of which
//! self-elects as the new leader and retries the fetch — no reader is ever
//! stranded behind a dead leader.
//!
//! Two key spaces share one cache and one flight table:
//!
//! * **Path keys** — the [`StorageBackend`] impl routes `read` /
//!   `read_range` through the cache keyed by `(path, offset, len)`, so the
//!   wrapper is a drop-in accelerator for any read-heavy consumer.
//! * **Content keys** — [`ReadCache::get_with`] accepts an arbitrary key
//!   (the distribution layer passes chunk *content hashes*), so identical
//!   chunks across ranks, files and steps dedupe onto one cached copy even
//!   when they live at different byte ranges.
//!
//! Counters ([`ReadCacheStats`]) follow the PR 7 metrics vocabulary:
//! `hits`/`misses`/`bytes_saved` (bytes served from cache that would
//! otherwise have hit the backend, coalesced waiters included) and
//! `bytes_fetched` (actual backend traffic). With a sink attached
//! ([`ReadCache::with_sink`], which [`crate::stack::assemble`] does for an
//! instrumented stack) every resolution also emits a
//! `dist/read_cache/{hit,miss}` point span that
//! `bcp_monitor::registry::MetricsRegistry` folds into the
//! `read_cache_*_total` series.

use crate::layer::{self, Op, Reply};
use crate::{DynBackend, Result, StorageBackend};
use bcp_monitor::MetricsSink;
use bytes::Bytes;
use parking_lot::{Condvar, Mutex};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};

/// Point-in-time counters of a [`ReadCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReadCacheStats {
    /// Requests served from the cache (coalesced waiters included).
    pub hits: u64,
    /// Requests that went to the backend (one per single-flight group).
    pub misses: u64,
    /// Bytes served from cache instead of the backend.
    pub bytes_saved: u64,
    /// Bytes actually fetched from the backend.
    pub bytes_fetched: u64,
    /// Entries currently resident.
    pub entries: u64,
    /// Resident bytes.
    pub resident_bytes: u64,
}

impl ReadCacheStats {
    /// Hit rate over all resolved requests (0 when none yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One in-flight fetch: `leader_alive` is false only in the window between
/// a leader dying (guard drop) and a waiter self-electing.
struct Flight {
    leader_alive: bool,
}

struct CacheState {
    /// Resident entries: key → (bytes, recency sequence).
    entries: HashMap<String, (Bytes, u64)>,
    /// Recency index: sequence → key (oldest first).
    recency: BTreeMap<u64, String>,
    /// Path → path-derived keys, for invalidation on mutation.
    by_path: HashMap<String, HashSet<String>>,
    /// Keys with a fetch in flight.
    inflight: HashMap<String, Flight>,
    resident_bytes: u64,
    next_seq: u64,
}

impl CacheState {
    fn touch(&mut self, key: &str) -> Option<Bytes> {
        let seq = self.next_seq;
        let (bytes, old) = self.entries.get_mut(key)?;
        let data = bytes.clone();
        self.recency.remove(old);
        *old = seq;
        self.next_seq += 1;
        self.recency.insert(seq, key.to_string());
        Some(data)
    }

    fn insert(&mut self, key: &str, data: Bytes, cap: u64) {
        if data.len() as u64 > cap {
            return; // larger than the whole cache: serve but don't retain
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        if let Some((old, oseq)) = self.entries.insert(key.to_string(), (data.clone(), seq)) {
            self.resident_bytes -= old.len() as u64;
            self.recency.remove(&oseq);
        }
        self.resident_bytes += data.len() as u64;
        self.recency.insert(seq, key.to_string());
        while self.resident_bytes > cap {
            let Some(oldest) = self.recency.keys().next().copied() else { break };
            let victim = self.recency.remove(&oldest).expect("recency entry");
            if let Some((bytes, _)) = self.entries.remove(&victim) {
                self.resident_bytes -= bytes.len() as u64;
            }
        }
    }

    fn remove(&mut self, key: &str) {
        if let Some((bytes, seq)) = self.entries.remove(key) {
            self.resident_bytes -= bytes.len() as u64;
            self.recency.remove(&seq);
        }
    }
}

/// The single-flight coalescing cache; see the module docs.
pub struct ReadCache {
    inner: DynBackend,
    capacity: u64,
    state: Mutex<CacheState>,
    resolved: Condvar,
    hits: AtomicU64,
    misses: AtomicU64,
    bytes_saved: AtomicU64,
    bytes_fetched: AtomicU64,
    sink: MetricsSink,
    rank: usize,
}

/// Drop-safe leadership token: if the leader unwinds before disarming, the
/// flight's `leader_alive` flag is cleared and every waiter is woken so one
/// can take over.
struct LeaderGuard<'a> {
    cache: &'a ReadCache,
    key: &'a str,
    armed: bool,
}

impl Drop for LeaderGuard<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let mut st = self.cache.state.lock();
        if let Some(f) = st.inflight.get_mut(self.key) {
            f.leader_alive = false;
        }
        drop(st);
        self.cache.resolved.notify_all();
    }
}

impl ReadCache {
    /// Wrap `inner` with a cache bounded at `capacity_bytes` resident bytes.
    pub fn new(inner: DynBackend, capacity_bytes: u64) -> ReadCache {
        ReadCache {
            inner,
            capacity: capacity_bytes,
            state: Mutex::new(CacheState {
                entries: HashMap::new(),
                recency: BTreeMap::new(),
                by_path: HashMap::new(),
                inflight: HashMap::new(),
                resident_bytes: 0,
                next_seq: 0,
            }),
            resolved: Condvar::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            bytes_saved: AtomicU64::new(0),
            bytes_fetched: AtomicU64::new(0),
            sink: MetricsSink::disabled(),
            rank: 0,
        }
    }

    /// Emit a `dist/read_cache/{hit,miss}` point span into `sink` for every
    /// resolution, so the live plane's `read_cache_*_total` series and the
    /// `read_cache_hit_rate` gauge track this cache.
    pub fn with_sink(mut self, sink: MetricsSink, rank: usize) -> ReadCache {
        self.sink = sink;
        self.rank = rank;
        self
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &DynBackend {
        &self.inner
    }

    /// Current counters.
    pub fn stats(&self) -> ReadCacheStats {
        let st = self.state.lock();
        ReadCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            bytes_saved: self.bytes_saved.load(Ordering::Relaxed),
            bytes_fetched: self.bytes_fetched.load(Ordering::Relaxed),
            entries: st.entries.len() as u64,
            resident_bytes: st.resident_bytes,
        }
    }

    fn note(&self, hit: bool, bytes: u64) {
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.bytes_saved.fetch_add(bytes, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            self.bytes_fetched.fetch_add(bytes, Ordering::Relaxed);
        }
        let name = if hit { "dist/read_cache/hit" } else { "dist/read_cache/miss" };
        drop(self.sink.span_in_context(name, self.rank).uncounted().bytes(bytes));
    }

    /// Resolve `key` through the cache with single-flight coalescing:
    /// concurrent callers of one key share one `fetch`. `path` (when the
    /// key is derived from an object path) registers the key for
    /// invalidation when that object is mutated through this wrapper.
    ///
    /// Fetch errors are not cached: the failing leader steps down and the
    /// next waiter retries the fetch itself.
    pub fn get_with(
        &self,
        key: &str,
        path: Option<&str>,
        fetch: impl FnOnce() -> Result<Bytes>,
    ) -> Result<Bytes> {
        {
            let mut st = self.state.lock();
            loop {
                if let Some(data) = st.touch(key) {
                    drop(st);
                    self.note(true, data.len() as u64);
                    return Ok(data);
                }
                match st.inflight.get_mut(key) {
                    None => {
                        st.inflight.insert(key.to_string(), Flight { leader_alive: true });
                        break; // became the leader
                    }
                    Some(f) if !f.leader_alive => {
                        f.leader_alive = true;
                        break; // took over from a dead leader
                    }
                    Some(_) => self.resolved.wait(&mut st),
                }
            }
        }
        // Leader path: fetch outside the lock, under a drop-safe guard.
        let mut guard = LeaderGuard { cache: self, key, armed: true };
        let result = fetch();
        guard.armed = false;
        let mut st = self.state.lock();
        st.inflight.remove(key);
        match result {
            Ok(data) => {
                st.insert(key, data.clone(), self.capacity);
                if let Some(p) = path {
                    st.by_path.entry(p.to_string()).or_default().insert(key.to_string());
                }
                drop(st);
                self.resolved.notify_all();
                self.note(false, data.len() as u64);
                Ok(data)
            }
            Err(e) => {
                drop(st);
                self.resolved.notify_all();
                Err(e)
            }
        }
    }

    /// Drop every cached entry derived from `path` (called on mutation).
    fn invalidate_path(&self, path: &str) {
        let mut st = self.state.lock();
        if let Some(keys) = st.by_path.remove(path) {
            for key in keys {
                st.remove(&key);
            }
        }
    }
}

impl layer::Layer for ReadCache {
    fn inner(&self) -> &dyn StorageBackend {
        self.inner.as_ref()
    }

    fn op_attrs(&self) -> Vec<(&'static str, String)> {
        let mut attrs = vec![("read_cache", format!("{}B", self.capacity))];
        attrs.extend(self.inner.op_attrs());
        attrs
    }

    /// A mutation drops every cached entry derived from the paths it touches.
    fn around<T: Reply>(&self, op: &Op<'_>, call: &mut dyn FnMut() -> Result<T>) -> Result<T> {
        if !op.is_probe() {
            self.invalidate_path(op.path());
        }
        match *op {
            Op::Rename { to, .. } => self.invalidate_path(to),
            Op::Concat { parts, .. } => parts.iter().for_each(|p| self.invalidate_path(p)),
            _ => {}
        }
        call()
    }

    fn read(&self, path: &str) -> Result<Bytes> {
        let key = format!("r:{path}");
        self.get_with(&key, Some(path), || self.inner.read(path))
    }

    fn read_range(&self, path: &str, offset: u64, len: u64) -> Result<Bytes> {
        let key = format!("rr:{path}@{offset}+{len}");
        self.get_with(&key, Some(path), || self.inner.read_range(path, offset, len))
    }
}

/// A test layer that counts backend read operations and bytes — the
/// instrument the single-flight tests (`tests/readcache.rs`) and the
/// O(runs) load tests use to prove "exactly one backend fetch per chunk".
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
    use std::sync::Arc;

    fn cached(cap: u64) -> (Arc<ReadCache>, Arc<OpCountingBackend>) {
        let mem: DynBackend = Arc::new(MemoryBackend::new());
        mem.write("f", Bytes::from(vec![7u8; 1000])).unwrap();
        mem.write("g", Bytes::from(vec![9u8; 1000])).unwrap();
        let counting = Arc::new(OpCountingBackend::new(mem));
        let cache = Arc::new(ReadCache::new(counting.clone() as DynBackend, cap));
        (cache, counting)
    }

    #[test]
    fn repeat_reads_hit_cache() {
        let (cache, counting) = cached(1 << 20);
        for _ in 0..5 {
            assert_eq!(cache.read("f").unwrap().len(), 1000);
        }
        assert_eq!(counting.reads(), 1);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (4, 1));
        assert_eq!(s.bytes_saved, 4000);
        assert_eq!(s.bytes_fetched, 1000);
        assert!((s.hit_rate() - 0.8).abs() < 1e-12);
        // Distinct ranges are distinct keys.
        cache.read_range("f", 0, 10).unwrap();
        cache.read_range("f", 0, 10).unwrap();
        assert_eq!(counting.reads(), 2);
    }

    #[test]
    fn mutation_invalidates_cached_entries() {
        let (cache, counting) = cached(1 << 20);
        assert_eq!(cache.read("f").unwrap()[0], 7);
        cache.write("f", Bytes::from(vec![8u8; 4])).unwrap();
        assert_eq!(cache.read("f").unwrap()[0], 8);
        assert_eq!(counting.reads(), 2, "stale entry must not be served");
        // Unrelated paths stay cached.
        cache.read("g").unwrap();
        cache.write("f", Bytes::from(vec![1u8; 4])).unwrap();
        cache.read("g").unwrap();
        assert_eq!(counting.reads(), 3);
    }

    #[test]
    fn lru_evicts_oldest_when_over_capacity() {
        let (cache, counting) = cached(2000); // fits two 1000-byte objects
        cache.read("f").unwrap();
        cache.read("g").unwrap();
        assert_eq!(cache.stats().resident_bytes, 2000);
        // Touch f so g is the LRU victim when a third entry arrives.
        cache.read("f").unwrap();
        cache.read_range("f", 0, 900).unwrap(); // third entry, evicts g
        cache.read("g").unwrap(); // must re-fetch
        assert_eq!(counting.reads(), 4);
        assert!(cache.stats().resident_bytes <= 2000);
    }

    #[test]
    fn oversized_objects_are_served_but_not_retained() {
        let (cache, counting) = cached(10);
        assert_eq!(cache.read("f").unwrap().len(), 1000);
        assert_eq!(cache.stats().resident_bytes, 0);
        cache.read("f").unwrap();
        assert_eq!(counting.reads(), 2);
    }

    #[test]
    fn content_keys_dedupe_across_paths() {
        let (cache, counting) = cached(1 << 20);
        let hash = "h:deadbeef";
        let a = cache.get_with(hash, None, || cache.inner().read_range("f", 0, 64)).unwrap();
        let b = cache.get_with(hash, None, || cache.inner().read_range("g", 0, 64)).unwrap();
        assert_eq!(a, b, "second fetch never ran: content key hit");
        assert_eq!(counting.reads(), 1);
    }

    #[test]
    fn fetch_errors_are_not_cached() {
        let (cache, _) = cached(1 << 20);
        let r = cache.read("missing");
        assert!(r.is_err());
        // A later successful write/read works and the error was not pinned.
        cache.write("missing", Bytes::from_static(b"now")).unwrap();
        assert_eq!(&cache.read("missing").unwrap()[..], b"now");
    }
}
