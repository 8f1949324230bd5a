//! Plan and metadata caching (§4.1).
//!
//! "Both the save plans and the global metadata file, although coupled with
//! specific parallelism, remain constant throughout a single training
//! session ... Once established for the first time, the save plans and
//! global metadata file are cached for future reuse, eliminating repetitive
//! planning." Planning a 405B model across 8960 GPUs costs 62 s without the
//! cache — it is the dominant first-save cost in the Table 9 breakdown.
//!
//! What is cached is the finished product, not an intermediate: the rank's
//! deduplicated [`SavePlan`] and, on the coordinator, the *sealed file image*
//! of the global metadata. A hit borrows the plan through the `Arc` and
//! re-stamps the image ([`crate::GlobalMetadata::restamp_step`]); nothing is
//! cloned, encoded or shipped. The key must therefore cover everything the
//! image depends on: [`PlanCache::signature`] hashes the state's structure,
//! and `workflow::save_checkpoint` folds in the shape of the request (extra
//! state present, loader present, its reader count and DP rank), because
//! the metadata names those files too.

use crate::plan::SavePlan;
use bcp_model::TrainState;
use bcp_tensor::fill::splitmix64;
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The signature's hasher: one rotate-xor-multiply per 8-byte word instead
/// of SipHash's buffered short writes (the signature runs on the training
/// thread on every save, over a few thousand short fields). Each step is a
/// bijection of the state for a fixed word and of the word for a fixed
/// state, so two inputs that differ in one word never collide. Not
/// flood-resistant, and need not be: the input is this process's own state
/// dict and the output is not a table index.
#[derive(Default)]
struct WordHasher(u64);

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        // The length first: zero-padding the tail would otherwise make
        // "ab" and "ab\0" the same word.
        self.write_u64(bytes.len() as u64);
        let (words, tail) = bytes.as_chunks::<8>();
        for word in words {
            self.write_u64(u64::from_le_bytes(*word));
        }
        if !tail.is_empty() {
            let mut last = [0u8; 8];
            last[..tail.len()].copy_from_slice(tail);
            self.write_u64(u64::from_le_bytes(last));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    fn finish(&self) -> u64 {
        splitmix64(self.0)
    }
}

/// What one rank caches after a full planning round.
#[derive(Debug, Clone)]
pub struct CachedSave {
    /// The rank's final (deduplicated) save plan.
    pub plan: SavePlan,
    /// The sealed global-metadata file image, whose step is re-stamped per
    /// checkpoint. `Some` on the coordinator only: no other rank ever holds
    /// the metadata.
    pub metadata: Option<Bytes>,
}

/// Per-process plan cache with hit/miss accounting.
#[derive(Default)]
pub struct PlanCache {
    entries: Mutex<HashMap<u64, Arc<CachedSave>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PlanCache {
    /// Empty cache.
    pub fn new() -> PlanCache {
        PlanCache::default()
    }

    /// Cache signature of a rank's state-dict *structure*: FQNs, shapes,
    /// dtypes and shard specs — everything the plan depends on except the
    /// tensor values. Any structural change (new parallelism, different
    /// model) changes the signature and misses the cache.
    pub fn signature(framework: &str, parallelism: &str, rank: usize, state: &TrainState) -> u64 {
        let mut h = WordHasher::default();
        (rank, framework, parallelism).hash(&mut h);
        for dict in [&state.model, &state.optimizer] {
            for e in dict.entries.values() {
                (&e.fqn, e.dtype, &e.global_shape, &e.spec).hash(&mut h);
            }
        }
        h.finish()
    }

    /// Look up a cached plan.
    pub fn get(&self, sig: u64) -> Option<Arc<CachedSave>> {
        let got = self.entries.lock().get(&sig).cloned();
        match &got {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        got
    }

    /// Insert a freshly planned result.
    pub fn insert(&self, sig: u64, cached: CachedSave) -> Arc<CachedSave> {
        let arc = Arc::new(cached);
        self.entries.lock().insert(sig, arc.clone());
        arc
    }

    /// (hits, misses) so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits.load(Ordering::Relaxed), self.misses.load(Ordering::Relaxed))
    }

    /// Drop all cached plans (e.g. after an in-session model surgery).
    pub fn clear(&self) {
        self.entries.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcp_model::states::{build_train_state, Framework};
    use bcp_model::zoo;
    use bcp_topology::{Parallelism, ShardSpec};

    #[test]
    fn signature_stable_under_value_changes_but_not_structure() {
        let arch = zoo::tiny_gpt();
        let par = Parallelism::new(2, 1, 1).unwrap();
        let fw = Framework::Megatron { distributed_optimizer: false };
        let mut a = build_train_state(&arch, fw, par, 0, true);
        let sig1 = PlanCache::signature("megatron", &par.describe(), 0, &a);
        // Train a few steps: values change, structure does not.
        bcp_model::TrainerConfig::default().run(&mut a, 0, 3);
        let sig2 = PlanCache::signature("megatron", &par.describe(), 0, &a);
        assert_eq!(sig1, sig2);
        // Different rank, parallelism, or framework changes the signature.
        let b = build_train_state(&arch, fw, par, 1, false);
        assert_ne!(sig1, PlanCache::signature("megatron", &par.describe(), 1, &b));
        assert_ne!(sig1, PlanCache::signature("megatron", "TP=1,DP=2,PP=1", 0, &a));
        assert_ne!(sig1, PlanCache::signature("fsdp", &par.describe(), 0, &a));
        // Same names, shapes, dtypes and spec kinds: one entry differs only
        // inside its sharding spec.
        let with_flat_length = |length: usize| {
            let mut s = a.clone();
            s.model.entries.values_mut().next().unwrap().spec =
                ShardSpec::Flat { offset: 0, length };
            PlanCache::signature("megatron", &par.describe(), 0, &s)
        };
        assert_ne!(with_flat_length(1), with_flat_length(2));
    }

    #[test]
    fn hit_miss_accounting() {
        let cache = PlanCache::new();
        assert!(cache.get(42).is_none());
        cache.insert(42, CachedSave { plan: SavePlan::default(), metadata: None });
        assert!(cache.get(42).is_some());
        assert_eq!(cache.stats(), (1, 1));
        cache.clear();
        assert!(cache.get(42).is_none());
    }
}
