//! Simulated HDFS: the paper's primary storage backend (§4.3, §5.1, §6.4).
//!
//! What is modeled, and why it matters to the checkpointing system:
//!
//! * **Append-only writes.** HDFS cannot patch a file at an offset, so the
//!   engine's multi-threaded upload must split a file into sub-files and
//!   merge them with a *metadata-level concat* — the §4.3 write path. The
//!   backend enforces this: `write` creates/replaces whole objects,
//!   `append` extends, there is no ranged write.
//! * **NameNode metadata costs.** Every metadata operation (create, exists,
//!   list, rename, concat, delete) pays a configurable latency and passes a
//!   QPS throttle, reproducing "massive read/write requests ... can overload
//!   the master node". Concat is serial under a NameNode-wide lock unless
//!   [`HdfsConfig::parallel_concat`] is set — the §6.4 bottleneck and fix.
//! * **NNProxy.** A metadata cache in front of the NameNode serving
//!   `exists`/`size` hits without paying NameNode latency, with
//!   write-path invalidation (§5.1).
//! * **Ranged multi-threaded reads.** Reads are served from the object
//!   store without NameNode involvement beyond an open, mirroring the SDK's
//!   random-read capability the paper exploits for 2-3 GB/s downloads.
//! * **SSD→HDD cool-down.** [`HdfsBackend::cool_down`] migrates objects not
//!   touched within a retention window to the cold tier via pure metadata
//!   remapping; original paths keep working (§5.1).
//!
//! Data sits in in-process memory — the *behavioural* contract (who pays
//! which metadata ops, what must be concatenated, what can be read in
//! parallel) is what the engine exercises, per the DESIGN.md substitution
//! table.

use crate::{checked_range, Result, StorageBackend, StorageError};
use bytes::{Bytes, BytesMut};
use parking_lot::{Mutex, RwLock};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Tunables for the simulated HDFS cluster.
#[derive(Debug, Clone)]
pub struct HdfsConfig {
    /// Latency charged per NameNode metadata operation.
    pub meta_latency: Duration,
    /// Maximum metadata operations per second (token bucket); `None`
    /// disables throttling.
    pub meta_qps_limit: Option<u32>,
    /// Whether concat executes in parallel (the §6.4 fix) or serially under
    /// the NameNode lock (the bottleneck as found).
    pub parallel_concat: bool,
    /// Whether the NNProxy metadata cache is enabled.
    pub nnproxy_cache: bool,
    /// Cool-down retention: objects idle longer than this are eligible for
    /// SSD→HDD migration.
    pub cooldown_retention: Duration,
}

impl Default for HdfsConfig {
    fn default() -> HdfsConfig {
        HdfsConfig {
            // Keep simulated latencies tiny so tests stay fast; benches and
            // monitoring demos raise them to realistic values.
            meta_latency: Duration::from_micros(50),
            meta_qps_limit: None,
            parallel_concat: true,
            nnproxy_cache: true,
            cooldown_retention: Duration::from_secs(3600),
        }
    }
}

/// Counters exposed by the NameNode for storage-side monitoring (§5.3).
#[derive(Debug, Default)]
pub struct NameNodeStats {
    /// Total metadata operations served by the NameNode.
    pub meta_ops: AtomicU64,
    /// Metadata operations absorbed by the NNProxy cache.
    pub proxy_hits: AtomicU64,
    /// Concat operations executed.
    pub concats: AtomicU64,
    /// Total time spent waiting on the QPS throttle, in microseconds.
    pub throttle_wait_us: AtomicU64,
}

impl NameNodeStats {
    /// Snapshot (meta_ops, proxy_hits, concats, throttle_wait_us).
    pub fn snapshot(&self) -> (u64, u64, u64, u64) {
        (
            self.meta_ops.load(Ordering::Relaxed),
            self.proxy_hits.load(Ordering::Relaxed),
            self.concats.load(Ordering::Relaxed),
            self.throttle_wait_us.load(Ordering::Relaxed),
        )
    }
}

/// Storage tier an object currently lives on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Hot SSD tier (fresh checkpoints; evaluation tasks read from here).
    Ssd,
    /// Cold HDD tier (older checkpoints kept for traceability).
    Hdd,
}

struct Object {
    data: Bytes,
    tier: Tier,
    last_access: Instant,
}

struct NameNode {
    /// QPS token bucket state: (tokens, last refill).
    bucket: Mutex<(f64, Instant)>,
    /// Serial-concat lock (held across the whole concat when
    /// `parallel_concat` is false).
    concat_lock: Mutex<()>,
    stats: NameNodeStats,
}

impl NameNode {
    fn new() -> NameNode {
        NameNode {
            bucket: Mutex::new((0.0, Instant::now())),
            concat_lock: Mutex::new(()),
            stats: NameNodeStats::default(),
        }
    }

    /// Pay for one metadata operation: QPS throttle + latency.
    fn meta_op(&self, cfg: &HdfsConfig) {
        self.stats.meta_ops.fetch_add(1, Ordering::Relaxed);
        if let Some(qps) = cfg.meta_qps_limit {
            let wait = {
                let mut bucket = self.bucket.lock();
                let (ref mut tokens, ref mut last) = *bucket;
                let now = Instant::now();
                // Deficit-based limiter: tokens may go negative; each op
                // consumes one and sleeps off its share of the deficit, so
                // sustained throughput converges to exactly `qps`.
                *tokens = (*tokens + now.duration_since(*last).as_secs_f64() * qps as f64).min(1.0);
                *last = now;
                *tokens -= 1.0;
                if *tokens < 0.0 {
                    Duration::from_secs_f64(-*tokens / qps as f64)
                } else {
                    Duration::ZERO
                }
            };
            if !wait.is_zero() {
                self.stats.throttle_wait_us.fetch_add(wait.as_micros() as u64, Ordering::Relaxed);
                std::thread::sleep(wait);
            }
        }
        if !cfg.meta_latency.is_zero() {
            std::thread::sleep(cfg.meta_latency);
        }
    }
}

/// The simulated HDFS backend. Cheap to share: wrap in `Arc`.
pub struct HdfsBackend {
    cfg: HdfsConfig,
    namenode: NameNode,
    objects: RwLock<BTreeMap<String, Object>>,
    /// NNProxy metadata cache: path -> size (None = known-absent).
    proxy_cache: Mutex<BTreeMap<String, Option<u64>>>,
}

impl HdfsBackend {
    /// Create a cluster with the given configuration.
    pub fn new(cfg: HdfsConfig) -> HdfsBackend {
        HdfsBackend {
            cfg,
            namenode: NameNode::new(),
            objects: RwLock::new(BTreeMap::new()),
            proxy_cache: Mutex::new(BTreeMap::new()),
        }
    }

    /// Create with defaults (fast metadata, parallel concat, proxy on).
    pub fn with_defaults() -> HdfsBackend {
        HdfsBackend::new(HdfsConfig::default())
    }

    /// NameNode statistics for storage-side monitoring.
    pub fn namenode_stats(&self) -> &NameNodeStats {
        &self.namenode.stats
    }

    /// Tier an object currently resides on.
    pub fn tier_of(&self, path: &str) -> Result<Tier> {
        self.objects
            .read()
            .get(path)
            .map(|o| o.tier)
            .ok_or_else(|| StorageError::NotFound(path.to_string()))
    }

    /// Run one cool-down pass: migrate every SSD object whose last access
    /// is older than the retention threshold to HDD. Paths are preserved
    /// ("remap ... through pure metadata operations"), so readers notice
    /// nothing. Returns the number of objects migrated.
    pub fn cool_down(&self) -> usize {
        self.namenode.meta_op(&self.cfg);
        let now = Instant::now();
        let mut migrated = 0;
        for obj in self.objects.write().values_mut() {
            if obj.tier == Tier::Ssd
                && now.duration_since(obj.last_access) >= self.cfg.cooldown_retention
            {
                obj.tier = Tier::Hdd;
                migrated += 1;
            }
        }
        migrated
    }

    /// Force an object's last-access far into the past (tests).
    pub fn age_object(&self, path: &str, by: Duration) -> Result<()> {
        let mut objects = self.objects.write();
        let obj = objects.get_mut(path).ok_or_else(|| StorageError::NotFound(path.to_string()))?;
        obj.last_access = obj.last_access.checked_sub(by).unwrap_or(obj.last_access);
        Ok(())
    }

    fn invalidate_proxy(&self, path: &str) {
        if self.cfg.nnproxy_cache {
            self.proxy_cache.lock().remove(path);
        }
    }

    /// Size lookup through the NNProxy: cache hit skips the NameNode.
    fn proxied_size(&self, path: &str) -> Option<u64> {
        if !self.cfg.nnproxy_cache {
            self.namenode.meta_op(&self.cfg);
            return self.objects.read().get(path).map(|o| o.data.len() as u64);
        }
        {
            let cache = self.proxy_cache.lock();
            if let Some(entry) = cache.get(path) {
                self.namenode.stats.proxy_hits.fetch_add(1, Ordering::Relaxed);
                return *entry;
            }
        }
        self.namenode.meta_op(&self.cfg);
        let result = self.objects.read().get(path).map(|o| o.data.len() as u64);
        self.proxy_cache.lock().insert(path.to_string(), result);
        result
    }
}

impl StorageBackend for HdfsBackend {
    fn name(&self) -> &str {
        "hdfs"
    }

    fn op_attrs(&self) -> Vec<(&'static str, String)> {
        vec![
            ("parallel_concat", self.cfg.parallel_concat.to_string()),
            ("nnproxy_cache", self.cfg.nnproxy_cache.to_string()),
            ("meta_ops", self.namenode.stats.meta_ops.load(Ordering::Relaxed).to_string()),
        ]
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
        self.namenode.meta_op(&self.cfg);
        self.objects.write().insert(
            path.to_string(),
            Object { data, tier: Tier::Ssd, last_access: Instant::now() },
        );
        self.invalidate_proxy(path);
        Ok(())
    }

    fn append(&self, path: &str, data: &[u8]) -> Result<()> {
        self.namenode.meta_op(&self.cfg);
        let mut objects = self.objects.write();
        let obj = objects.entry(path.to_string()).or_insert_with(|| Object {
            data: Bytes::new(),
            tier: Tier::Ssd,
            last_access: Instant::now(),
        });
        let mut buf = BytesMut::with_capacity(obj.data.len() + data.len());
        buf.extend_from_slice(&obj.data);
        buf.extend_from_slice(data);
        obj.data = buf.freeze();
        obj.last_access = Instant::now();
        drop(objects);
        self.invalidate_proxy(path);
        Ok(())
    }

    fn read(&self, path: &str) -> Result<Bytes> {
        // Open = one metadata op; the data path bypasses the NameNode.
        self.namenode.meta_op(&self.cfg);
        let mut objects = self.objects.write();
        let obj = objects.get_mut(path).ok_or_else(|| StorageError::NotFound(path.to_string()))?;
        obj.last_access = Instant::now();
        Ok(obj.data.clone())
    }

    fn read_range(&self, path: &str, offset: u64, len: u64) -> Result<Bytes> {
        // Ranged reads are the multi-threaded download fast path: no
        // NameNode op per chunk (block locations are cached client-side).
        let objects = self.objects.read();
        let obj = objects.get(path).ok_or_else(|| StorageError::NotFound(path.to_string()))?;
        Ok(obj.data.slice(checked_range(path, obj.data.len() as u64, offset, len)?))
    }

    fn size(&self, path: &str) -> Result<u64> {
        self.proxied_size(path).ok_or_else(|| StorageError::NotFound(path.to_string()))
    }

    fn exists(&self, path: &str) -> Result<bool> {
        Ok(self.proxied_size(path).is_some())
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        self.namenode.meta_op(&self.cfg);
        Ok(self
            .objects
            .read()
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, _)| k.clone())
            .collect())
    }

    fn delete(&self, path: &str) -> Result<()> {
        self.namenode.meta_op(&self.cfg);
        self.invalidate_proxy(path);
        self.objects
            .write()
            .remove(path)
            .map(|_| ())
            .ok_or_else(|| StorageError::NotFound(path.to_string()))
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        self.namenode.meta_op(&self.cfg);
        self.invalidate_proxy(from);
        self.invalidate_proxy(to);
        let mut objects = self.objects.write();
        let obj = objects.remove(from).ok_or_else(|| StorageError::NotFound(from.to_string()))?;
        objects.insert(to.to_string(), obj);
        Ok(())
    }

    fn concat(&self, target: &str, parts: &[String]) -> Result<()> {
        self.namenode.stats.concats.fetch_add(1, Ordering::Relaxed);
        // Metadata-level merge. Serial mode holds the NameNode-wide lock for
        // the entire operation (the §6.4 bottleneck); parallel mode only
        // pays its own metadata latency.
        let _guard =
            if self.cfg.parallel_concat { None } else { Some(self.namenode.concat_lock.lock()) };
        // One metadata op per participating file plus one for the target —
        // concat cost scales with the number of sub-files.
        for _ in 0..=parts.len() {
            self.namenode.meta_op(&self.cfg);
        }
        {
            let mut objects = self.objects.write();
            let mut buf = BytesMut::new();
            for p in parts {
                let obj = objects.get(p).ok_or_else(|| StorageError::NotFound(p.clone()))?;
                buf.extend_from_slice(&obj.data);
            }
            for p in parts {
                objects.remove(p);
            }
            objects.insert(
                target.to_string(),
                Object { data: buf.freeze(), tier: Tier::Ssd, last_access: Instant::now() },
            );
        }
        for p in parts {
            self.invalidate_proxy(p);
        }
        self.invalidate_proxy(target);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast() -> HdfsBackend {
        HdfsBackend::new(HdfsConfig {
            meta_latency: Duration::ZERO,
            meta_qps_limit: None,
            parallel_concat: true,
            nnproxy_cache: true,
            cooldown_retention: Duration::from_millis(10),
        })
    }

    #[test]
    fn conformance() {
        crate::conformance::run_all(&fast());
    }

    #[test]
    fn nnproxy_cache_absorbs_repeat_metadata_queries() {
        let h = fast();
        h.write("ckpt/file", Bytes::from_static(b"abc")).unwrap();
        let (ops0, hits0, _, _) = h.namenode_stats().snapshot();
        for _ in 0..10 {
            assert_eq!(h.size("ckpt/file").unwrap(), 3);
        }
        let (ops1, hits1, _, _) = h.namenode_stats().snapshot();
        assert_eq!(ops1 - ops0, 1, "only the first size() should hit the NameNode");
        assert_eq!(hits1 - hits0, 9);
    }

    #[test]
    fn proxy_cache_invalidated_on_write() {
        let h = fast();
        h.write("f", Bytes::from_static(b"1")).unwrap();
        assert_eq!(h.size("f").unwrap(), 1);
        h.write("f", Bytes::from_static(b"22")).unwrap();
        assert_eq!(h.size("f").unwrap(), 2, "stale proxy entry must be invalidated");
    }

    #[test]
    fn qps_throttle_delays_metadata_ops() {
        let h = HdfsBackend::new(HdfsConfig {
            meta_latency: Duration::ZERO,
            meta_qps_limit: Some(100),
            parallel_concat: true,
            nnproxy_cache: false,
            cooldown_retention: Duration::from_secs(3600),
        });
        let start = Instant::now();
        for i in 0..20 {
            h.write(&format!("f{i}"), Bytes::from_static(b"x")).unwrap();
        }
        // 20 ops at 100 QPS needs ~190ms beyond the first token.
        assert!(
            start.elapsed() >= Duration::from_millis(150),
            "throttle too weak: {:?}",
            start.elapsed()
        );
        let (_, _, _, wait) = h.namenode_stats().snapshot();
        assert!(wait > 0);
    }

    #[test]
    fn cool_down_migrates_idle_objects_and_preserves_paths() {
        let h = fast();
        h.write("old", Bytes::from_static(b"old-data")).unwrap();
        h.write("new", Bytes::from_static(b"new-data")).unwrap();
        h.age_object("old", Duration::from_secs(100)).unwrap();
        let migrated = h.cool_down();
        assert_eq!(migrated, 1);
        assert_eq!(h.tier_of("old").unwrap(), Tier::Hdd);
        assert_eq!(h.tier_of("new").unwrap(), Tier::Ssd);
        // Original path keeps working.
        assert_eq!(&h.read("old").unwrap()[..], b"old-data");
    }

    #[test]
    fn split_upload_then_concat_matches_whole_write() {
        // The §4.3 write path: split into sub-files, upload concurrently,
        // metadata-concat back into one object.
        let h = std::sync::Arc::new(fast());
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
    fn serial_concat_serializes() {
        // Two concats in serial mode cannot overlap; with per-op latency L
        // and k parts each, total time >= 2 * (k+1) * L.
        let h = std::sync::Arc::new(HdfsBackend::new(HdfsConfig {
            meta_latency: Duration::from_millis(5),
            meta_qps_limit: None,
            parallel_concat: false,
            nnproxy_cache: false,
            cooldown_retention: Duration::from_secs(3600),
        }));
        for j in 0..2 {
            for i in 0..4 {
                h.write(&format!("s{j}/p{i}"), Bytes::from_static(b"z")).unwrap();
            }
        }
        let start = Instant::now();
        let mut handles = Vec::new();
        for j in 0..2 {
            let h = h.clone();
            handles.push(std::thread::spawn(move || {
                let parts: Vec<String> = (0..4).map(|i| format!("s{j}/p{i}")).collect();
                h.concat(&format!("s{j}/merged"), &parts).unwrap();
            }));
        }
        for hd in handles {
            hd.join().unwrap();
        }
        // Each concat: 5 meta ops * 5ms = 25ms; serial => >= 50ms.
        assert!(start.elapsed() >= Duration::from_millis(45), "got {:?}", start.elapsed());
    }

    #[test]
    fn ranged_reads_bypass_namenode() {
        let h = fast();
        h.write("big", Bytes::from(vec![7u8; 1024])).unwrap();
        let (ops0, _, _, _) = h.namenode_stats().snapshot();
        for i in 0..16 {
            let _ = h.read_range("big", i * 64, 64).unwrap();
        }
        let (ops1, _, _, _) = h.namenode_stats().snapshot();
        assert_eq!(ops1, ops0, "ranged reads must not hit the NameNode");
    }
}
