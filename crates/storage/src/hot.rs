//! The in-process hot checkpoint tier (TierCheck / DataStates-LLM style):
//! a bounded ring of the last K steps' shard frame files, held in memory so
//! a recovery becomes a memory copy instead of a cold-storage read.
//!
//! Each rank owns one [`HotTier`]. On every committed save a rank inserts
//! its own files and ships a replica to `R` peers (placement decided by
//! `bcp_topology::ReplicaPlacement`, never on the source host), so any
//! single-host loss leaves at least one copy alive. On recovery the
//! survivors assemble the chosen step's files into a [`TieredReadBackend`]
//! overlay: reads hit the verified hot copies first and fall through to the
//! persistent (cold) backend on any miss.

use crate::layer;
use crate::{checked_range, DynBackend, Result, StorageBackend};
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};

/// One source rank's shard files for one step, as held in the hot tier.
pub type HotFiles = Vec<(String, Bytes)>;

#[derive(Default)]
struct HotState {
    /// step → source rank → that rank's shard files.
    steps: BTreeMap<u64, HashMap<usize, HotFiles>>,
    inserts: u64,
    evictions: u64,
}

/// A bounded ring of the last K steps' hot checkpoint copies (own shards +
/// peer replicas). Thread-safe; shared between a rank's save finalize tail
/// and its recovery path, and kept alive across process restarts by the
/// harness (modeling host memory that outlives a worker process).
pub struct HotTier {
    capacity_steps: usize,
    state: Mutex<HotState>,
}

impl HotTier {
    /// A tier retaining the newest `capacity_steps` steps (minimum 1).
    pub fn new(capacity_steps: usize) -> HotTier {
        HotTier { capacity_steps: capacity_steps.max(1), state: Mutex::new(HotState::default()) }
    }

    /// Retained-step capacity.
    pub fn capacity_steps(&self) -> usize {
        self.capacity_steps
    }

    /// Insert (or replace) `source_rank`'s files for `step`, evicting the
    /// oldest steps beyond capacity.
    pub fn insert(&self, step: u64, source_rank: usize, files: HotFiles) {
        let mut s = self.state.lock();
        s.steps.entry(step).or_default().insert(source_rank, files);
        s.inserts += 1;
        while s.steps.len() > self.capacity_steps {
            let oldest = *s.steps.keys().next().expect("non-empty ring");
            s.steps.remove(&oldest);
            s.evictions += 1;
        }
    }

    /// The files `source_rank` saved at `step`, when resident.
    pub fn get(&self, step: u64, source_rank: usize) -> Option<HotFiles> {
        self.state.lock().steps.get(&step).and_then(|m| m.get(&source_rank)).cloned()
    }

    /// Source ranks with resident files for `step`, sorted.
    pub fn sources(&self, step: u64) -> Vec<usize> {
        let mut v: Vec<usize> = self
            .state
            .lock()
            .steps
            .get(&step)
            .map(|m| m.keys().copied().collect())
            .unwrap_or_default();
        v.sort_unstable();
        v
    }

    /// Steps currently resident, oldest first.
    pub fn steps(&self) -> Vec<u64> {
        self.state.lock().steps.keys().copied().collect()
    }

    /// Total resident payload bytes.
    pub fn resident_bytes(&self) -> u64 {
        let s = self.state.lock();
        s.steps
            .values()
            .flat_map(|m| m.values())
            .flat_map(|files| files.iter().map(|(_, b)| b.len() as u64))
            .sum()
    }

    /// Drop everything — the host-loss event of the chaos harness.
    pub fn wipe(&self) {
        self.state.lock().steps.clear();
    }

    /// `(inserts, evictions)` since construction.
    pub fn stats(&self) -> (u64, u64) {
        let s = self.state.lock();
        (s.inserts, s.evictions)
    }
}

/// One read served during a tiered load, for the recovery-tier breakdown.
#[derive(Debug, Clone)]
pub struct TierHit {
    /// Object path as the engine requested it.
    pub path: String,
    /// Whether the hot overlay served it (false = cold backend).
    pub hot: bool,
    /// Bytes returned.
    pub bytes: u64,
}

/// A read-through overlay backend for the recovery ladder: reads are served
/// from a verified in-memory map of the chosen step's files when present,
/// falling through to the cold backend on any miss. Mutations always go to
/// the cold backend (the hot tier is maintained by the save path, not
/// through this wrapper). Every read is logged with the tier that served it.
pub struct TieredReadBackend {
    hot: HashMap<String, Bytes>,
    cold: DynBackend,
    hits: Mutex<Vec<TierHit>>,
    hot_bytes: AtomicU64,
    cold_bytes: AtomicU64,
}

impl TieredReadBackend {
    /// Overlay `hot` (full object paths → verified file bytes) over `cold`.
    pub fn new(hot: HashMap<String, Bytes>, cold: DynBackend) -> TieredReadBackend {
        TieredReadBackend {
            hot,
            cold,
            hits: Mutex::new(Vec::new()),
            hot_bytes: AtomicU64::new(0),
            cold_bytes: AtomicU64::new(0),
        }
    }

    /// Number of objects resident in the hot overlay.
    pub fn hot_objects(&self) -> usize {
        self.hot.len()
    }

    /// Every read served so far, in order.
    pub fn tier_log(&self) -> Vec<TierHit> {
        self.hits.lock().clone()
    }

    /// `(hot_bytes, cold_bytes)` served so far.
    pub fn bytes_served(&self) -> (u64, u64) {
        (self.hot_bytes.load(Ordering::Relaxed), self.cold_bytes.load(Ordering::Relaxed))
    }

    fn record(&self, path: &str, hot: bool, bytes: u64) {
        if hot {
            self.hot_bytes.fetch_add(bytes, Ordering::Relaxed);
        } else {
            self.cold_bytes.fetch_add(bytes, Ordering::Relaxed);
        }
        self.hits.lock().push(TierHit { path: path.to_string(), hot, bytes });
    }
}

/// A layer over `cold`: mutations, `name` and the capability flags forward
/// (hot reads are zero-copy slices of one parent allocation per object, so
/// the zero-copy contract holds exactly when it holds for cold reads).
impl layer::Layer for TieredReadBackend {
    fn inner(&self) -> &dyn StorageBackend {
        self.cold.as_ref()
    }

    fn op_attrs(&self) -> Vec<(&'static str, String)> {
        let mut attrs = self.cold.op_attrs();
        attrs.push(("hot_overlay_objects", self.hot.len().to_string()));
        attrs
    }

    fn read(&self, path: &str) -> Result<Bytes> {
        if let Some(b) = self.hot.get(path) {
            self.record(path, true, b.len() as u64);
            return Ok(b.clone());
        }
        let b = self.cold.read(path)?;
        self.record(path, false, b.len() as u64);
        Ok(b)
    }

    fn read_range(&self, path: &str, offset: u64, len: u64) -> Result<Bytes> {
        if let Some(b) = self.hot.get(path) {
            let range = checked_range(path, b.len() as u64, offset, len)?;
            self.record(path, true, len);
            return Ok(b.slice(range));
        }
        let b = self.cold.read_range(path, offset, len)?;
        self.record(path, false, b.len() as u64);
        Ok(b)
    }

    fn size(&self, path: &str) -> Result<u64> {
        match self.hot.get(path) {
            Some(b) => Ok(b.len() as u64),
            None => self.cold.size(path),
        }
    }

    fn exists(&self, path: &str) -> Result<bool> {
        if self.hot.contains_key(path) {
            return Ok(true);
        }
        self.cold.exists(path)
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        let mut out = self.cold.list(prefix)?;
        for p in self.hot.keys() {
            if p.starts_with(prefix) && !out.contains(p) {
                out.push(p.clone());
            }
        }
        out.sort();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::MemoryBackend;
    use crate::StorageError;
    use std::sync::Arc;

    fn files(tag: &str) -> HotFiles {
        vec![(format!("model_{tag}.bin"), Bytes::from(format!("payload-{tag}")))]
    }

    #[test]
    fn ring_evicts_oldest_beyond_capacity() {
        let tier = HotTier::new(2);
        tier.insert(1, 0, files("a"));
        tier.insert(2, 0, files("b"));
        tier.insert(3, 0, files("c"));
        assert_eq!(tier.steps(), vec![2, 3]);
        assert!(tier.get(1, 0).is_none());
        assert!(tier.get(3, 0).is_some());
        assert_eq!(tier.stats(), (3, 1));
    }

    #[test]
    fn replicas_of_multiple_sources_coexist_per_step() {
        let tier = HotTier::new(2);
        tier.insert(5, 0, files("own"));
        tier.insert(5, 3, files("peer"));
        assert_eq!(tier.sources(5), vec![0, 3]);
        assert_eq!(tier.get(5, 3).unwrap()[0].1, Bytes::from("payload-peer"));
        assert!(tier.resident_bytes() > 0);
        tier.wipe();
        assert!(tier.sources(5).is_empty());
        assert_eq!(tier.resident_bytes(), 0);
    }

    #[test]
    fn tiered_reads_prefer_hot_and_fall_through_cold() {
        let cold: DynBackend = Arc::new(MemoryBackend::new());
        cold.write("step_1/model_0.bin", Bytes::from_static(b"cold-bytes")).unwrap();
        cold.write("step_1/meta.json", Bytes::from_static(b"meta")).unwrap();
        let mut hot = HashMap::new();
        hot.insert("step_1/model_0.bin".to_string(), Bytes::from_static(b"hot-bytes!"));
        let t = TieredReadBackend::new(hot, cold);
        assert_eq!(&t.read("step_1/model_0.bin").unwrap()[..], b"hot-bytes!");
        assert_eq!(&t.read("step_1/meta.json").unwrap()[..], b"meta");
        assert_eq!(&t.read_range("step_1/model_0.bin", 0, 3).unwrap()[..], b"hot");
        let log = t.tier_log();
        assert_eq!(log.len(), 3);
        assert!(log[0].hot && !log[1].hot && log[2].hot);
        let (hot_b, cold_b) = t.bytes_served();
        assert_eq!(hot_b, 13);
        assert_eq!(cold_b, 4);
    }

    #[test]
    fn hot_range_reads_are_bounds_checked() {
        let cold: DynBackend = Arc::new(MemoryBackend::new());
        let mut hot = HashMap::new();
        hot.insert("f".to_string(), Bytes::from_static(b"abc"));
        let t = TieredReadBackend::new(hot, cold);
        assert!(matches!(t.read_range("f", 2, 5), Err(StorageError::RangeOutOfBounds { .. })));
        assert_eq!(t.size("f").unwrap(), 3);
        assert!(t.exists("f").unwrap());
    }

    #[test]
    fn listing_merges_hot_overlay_paths() {
        let cold: DynBackend = Arc::new(MemoryBackend::new());
        cold.write("p/cold.bin", Bytes::from_static(b"x")).unwrap();
        let mut hot = HashMap::new();
        hot.insert("p/hot.bin".to_string(), Bytes::from_static(b"y"));
        let t = TieredReadBackend::new(hot, cold);
        assert_eq!(t.list("p/").unwrap(), vec!["p/cold.bin".to_string(), "p/hot.bin".to_string()]);
    }
}
