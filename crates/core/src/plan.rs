//! Save and load plans: what each rank writes where, and reads from where.
//!
//! Plans are the currency between the Planner layer and the Execution
//! Engine (Fig. 4). They are deterministic — byte offsets are computed at
//! planning time from the frame format, so the coordinator can build the
//! global metadata file *before* any I/O happens, and plans can be cached
//! and reused across checkpoints (§4.1).

use crate::decompose::shard_metas;
use crate::format;
use crate::metadata::{BasicMeta, ByteMeta, GlobalMetadata, ShardMeta, TensorShardEntry};
use crate::{BcpError, Result};
use bcp_model::{StateDict, TrainState};
use bcp_tensor::DType;
use serde::{Deserialize, Serialize};

/// Which state dictionary an item belongs to; determines the storage file
/// ("each rank generates ... a model state file, an optimizer state file").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Category {
    /// Model weights.
    Model,
    /// Optimizer state.
    Optimizer,
}

impl Category {
    /// Storage file for this category written by `rank`.
    pub fn file_for(self, rank: usize) -> String {
        match self {
            Category::Model => format!("model_{rank}.bin"),
            Category::Optimizer => format!("optim_{rank}.bin"),
        }
    }

    /// Short name for monitoring.
    pub fn name(self) -> &'static str {
        match self {
            Category::Model => "model",
            Category::Optimizer => "optimizer",
        }
    }
}

/// One tensor-shard write: a contiguous slice of the rank's local shard
/// destined for one frame of a storage file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WriteItem {
    /// Model vs optimizer.
    pub category: Category,
    /// Where the payload sits in the global tensor.
    pub shard: ShardMeta,
    /// Runtime recovery metadata.
    pub basic: BasicMeta,
    /// Element offset of this piece within the rank's local shard storage
    /// (decomposed irregular shards yield several consecutive pieces).
    pub local_elem_start: usize,
    /// Payload size in bytes.
    pub nbytes: u64,
}

/// A rank's save plan: ordered write items per category. Order is the
/// serialization order, which fixes every byte offset.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SavePlan {
    /// The executing rank.
    pub rank: usize,
    /// Items in serialization order.
    pub items: Vec<WriteItem>,
}

impl SavePlan {
    /// Total payload bytes this rank will upload.
    pub fn total_bytes(&self) -> u64 {
        self.items.iter().map(|i| i.nbytes).sum()
    }

    /// Compute the `ByteMeta` of every item, walking files in plan order.
    pub fn byte_metas(&self) -> Vec<ByteMeta> {
        self.items
            .iter()
            .zip(self.payload_offsets())
            .map(|(item, offset)| ByteMeta {
                file: item.category.file_for(self.rank),
                offset,
                length: item.nbytes,
            })
            .collect()
    }

    /// Each item's payload offset within its category's file, in plan order:
    /// the frames of one file are laid out back to back.
    pub fn payload_offsets(&self) -> impl Iterator<Item = u64> + '_ {
        let mut cursors = [0u64; 2];
        self.items.iter().map(move |item| {
            let cursor = &mut cursors[item.category as usize];
            let offset = *cursor + format::header_len(&item.shard) as u64;
            *cursor += format::frame_len(&item.shard, item.nbytes as usize) as u64;
            offset
        })
    }
}

/// One tensor-shard read: fetch a byte range of a stored frame, carve the
/// intersection box out of it, and write it into the local target shard.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReadItem {
    /// Model vs optimizer.
    pub category: Category,
    /// Tensor identity.
    pub fqn: String,
    /// Element dtype (from the saved `BasicMeta`).
    pub dtype: DType,
    /// Storage file holding the saved shard.
    pub file: String,
    /// Byte offset of the saved shard's payload in the file.
    pub payload_offset: u64,
    /// The saved shard's box (global coordinates).
    pub stored_offsets: Vec<usize>,
    /// Lengths of the saved shard's box.
    pub stored_lengths: Vec<usize>,
    /// Intersection box between saved shard and target piece (global).
    pub isect_offsets: Vec<usize>,
    /// Intersection lengths.
    pub isect_lengths: Vec<usize>,
    /// The target piece's box (global coordinates).
    pub dest_offsets: Vec<usize>,
    /// The target piece's lengths.
    pub dest_lengths: Vec<usize>,
    /// Element offset of the target piece within the local shard storage.
    pub dest_local_elem_start: usize,
}

impl ReadItem {
    /// Number of elements in the intersection.
    pub fn isect_numel(&self) -> usize {
        self.isect_lengths.iter().product()
    }

    /// Bytes of actual tensor data this item moves.
    pub fn isect_bytes(&self) -> u64 {
        (self.isect_numel() * self.dtype.size()) as u64
    }

    /// The minimal contiguous byte range of the file covering the
    /// intersection: `(absolute_offset, length)`. This is what the engine
    /// fetches (possibly split across reader threads).
    pub fn fetch_range(&self) -> (u64, u64) {
        let es = self.dtype.size() as u64;
        // Flat element indices, within the stored box, of the intersection's
        // first and last element, raveled one axis at a time.
        let (mut first, mut last) = (0usize, 0usize);
        for (((&io, &so), &il), &sl) in self
            .isect_offsets
            .iter()
            .zip(&self.stored_offsets)
            .zip(&self.isect_lengths)
            .zip(&self.stored_lengths)
        {
            let rel = io - so;
            first = first * sl + rel;
            last = last * sl + rel + il - 1;
        }
        (self.payload_offset + first as u64 * es, (last - first + 1) as u64 * es)
    }

    /// Deduplication key: two items with the same key fetch identical data
    /// (only their destination differs).
    pub fn source_key(&self) -> (Category, &str, &[usize], &[usize], &str) {
        (self.category, &self.fqn, &self.isect_offsets, &self.isect_lengths, &self.file)
    }
}

/// A rank's load plan.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LoadPlan {
    /// The executing rank.
    pub rank: usize,
    /// Items (arbitrary order; the engine pipelines them).
    pub items: Vec<ReadItem>,
}

impl LoadPlan {
    /// Total fetched bytes (before redundancy elimination).
    pub fn total_fetch_bytes(&self) -> u64 {
        self.items.iter().map(|i| i.fetch_range().1).sum()
    }
}

/// Build a rank's local save plan from its state dicts (Planner step:
/// "creates ShardMeta for each tensor shard based on the worker's rank and
/// framework-specific sharding specification").
pub fn local_save_plan(rank: usize, state: &TrainState, device: &str) -> SavePlan {
    let mut items = Vec::new();
    push_dict_items(&mut items, &state.model, Category::Model, device);
    push_dict_items(&mut items, &state.optimizer, Category::Optimizer, device);
    SavePlan { rank, items }
}

fn push_dict_items(items: &mut Vec<WriteItem>, dict: &StateDict, category: Category, device: &str) {
    for entry in dict.entries.values() {
        let metas = shard_metas(&entry.fqn, &entry.global_shape, &entry.spec);
        let mut local_cursor = 0usize;
        for shard in metas {
            let n = shard.numel();
            items.push(WriteItem {
                category,
                shard,
                basic: BasicMeta::contiguous(entry.dtype, entry.global_shape.clone(), device),
                local_elem_start: local_cursor,
                nbytes: (n * entry.dtype.size()) as u64,
            });
            local_cursor += n;
        }
    }
}

/// Build a rank's local load plan: for each target shard, query the
/// TensorShardToBasicByteMap and emit one [`ReadItem`] per overlapping saved
/// segment (Fig. 8 step 2). Fails if any target element is uncovered.
pub fn local_load_plan(rank: usize, state: &TrainState, meta: &GlobalMetadata) -> Result<LoadPlan> {
    let mut items = Vec::new();
    plan_dict_reads(&mut items, &state.model, Category::Model, meta)?;
    plan_dict_reads(&mut items, &state.optimizer, Category::Optimizer, meta)?;
    Ok(LoadPlan { rank, items })
}

fn plan_dict_reads(
    items: &mut Vec<ReadItem>,
    dict: &StateDict,
    category: Category,
    meta: &GlobalMetadata,
) -> Result<()> {
    for entry in dict.entries.values() {
        let pieces = shard_metas(&entry.fqn, &entry.global_shape, &entry.spec);
        let mut local_cursor = 0usize;
        for piece in pieces {
            let mut hits = meta.overlapping_shards(&entry.fqn, &piece.offsets, &piece.lengths);
            // A checkpoint saved without deduplication (baselines, or DP
            // replicas saved verbatim) contains byte-identical shards under
            // several files; reading any one replica suffices.
            let mut seen_boxes = std::collections::HashSet::new();
            hits.retain(|(_, (io, il))| seen_boxes.insert((io.clone(), il.clone())));
            let covered: usize = hits.iter().map(|(_, (_, l))| l.iter().product::<usize>()).sum();
            if covered != piece.numel() {
                return Err(BcpError::Missing(format!(
                    "{}: target box {:?}/{:?} covered {covered}/{} elements",
                    entry.fqn,
                    piece.offsets,
                    piece.lengths,
                    piece.numel()
                )));
            }
            for (saved, (io, il)) in hits {
                if saved.basic.dtype != entry.dtype {
                    return Err(BcpError::Plan(format!(
                        "{}: dtype mismatch: saved {}, requested {}",
                        entry.fqn, saved.basic.dtype, entry.dtype
                    )));
                }
                items.push(ReadItem {
                    category,
                    fqn: entry.fqn.clone(),
                    dtype: entry.dtype,
                    file: saved.byte.file.clone(),
                    payload_offset: saved.byte.offset,
                    stored_offsets: saved.shard.offsets.clone(),
                    stored_lengths: saved.shard.lengths.clone(),
                    isect_offsets: io,
                    isect_lengths: il,
                    dest_offsets: piece.offsets.clone(),
                    dest_lengths: piece.lengths.clone(),
                    dest_local_elem_start: local_cursor,
                });
            }
            local_cursor += piece.numel();
        }
    }
    Ok(())
}

/// Build the tensor section of the global metadata from deduplicated plans.
pub fn build_tensor_map(
    plans: &[SavePlan],
) -> std::collections::BTreeMap<String, Vec<TensorShardEntry>> {
    let mut map: std::collections::BTreeMap<String, Vec<TensorShardEntry>> = Default::default();
    for plan in plans {
        for (item, byte) in plan.items.iter().zip(plan.byte_metas()) {
            map.entry(item.shard.fqn.clone()).or_default().push(TensorShardEntry {
                shard: item.shard.clone(),
                basic: item.basic.clone(),
                byte,
            });
        }
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcp_model::states::{build_train_state, Framework};
    use bcp_model::zoo;
    use bcp_topology::Parallelism;

    #[test]
    fn save_plan_covers_all_local_bytes() {
        let arch = zoo::tiny_gpt();
        let par = Parallelism::new(2, 1, 2).unwrap();
        let fw = Framework::Megatron { distributed_optimizer: false };
        for rank in 0..par.world_size() {
            let state = build_train_state(&arch, fw, par, rank, false);
            let plan = local_save_plan(rank, &state, "cuda:0");
            let plan_bytes = plan.total_bytes();
            let state_bytes = state.model.local_bytes() + state.optimizer.local_bytes();
            assert_eq!(plan_bytes, state_bytes, "rank {rank}");
        }
    }

    #[test]
    fn irregular_entries_become_multiple_consecutive_items() {
        let arch = zoo::tiny_gpt();
        let par = Parallelism::data_parallel(3).unwrap();
        let state = build_train_state(&arch, Framework::Fsdp { zero3: true }, par, 1, false);
        let plan = local_save_plan(1, &state, "cuda:1");
        // Some fqn must appear with multiple items whose local offsets chain.
        let mut by_fqn: std::collections::BTreeMap<&str, Vec<&WriteItem>> = Default::default();
        for item in &plan.items {
            by_fqn.entry(item.shard.fqn.as_str()).or_default().push(item);
        }
        let multi = by_fqn.values().find(|v| v.len() > 1).expect("an irregular shard exists");
        let mut cursor = 0;
        for item in multi {
            assert_eq!(item.local_elem_start, cursor);
            cursor += item.shard.numel();
        }
    }

    #[test]
    fn byte_metas_walk_frame_layout() {
        let arch = zoo::tiny_gpt();
        let par = Parallelism::data_parallel(1).unwrap();
        let state = build_train_state(&arch, Framework::Ddp, par, 0, false);
        let plan = local_save_plan(0, &state, "cpu");
        let metas = plan.byte_metas();
        // Offsets are strictly increasing within each file and payloads
        // never overlap.
        let mut last_end: std::collections::BTreeMap<&str, u64> = Default::default();
        for (item, bm) in plan.items.iter().zip(&metas) {
            let end = last_end.entry(bm.file.as_str()).or_insert(0);
            assert!(bm.offset >= *end, "overlapping frames in {}", bm.file);
            *end = bm.offset + bm.length + 4; // + trailing CRC
            assert_eq!(bm.length, item.nbytes);
        }
    }

    #[test]
    fn load_plan_round_trip_same_parallelism() {
        let arch = zoo::tiny_gpt();
        let par = Parallelism::new(2, 1, 1).unwrap();
        let fw = Framework::Megatron { distributed_optimizer: false };
        // Save plans from both ranks -> metadata.
        let plans: Vec<SavePlan> = (0..2)
            .map(|r| local_save_plan(r, &build_train_state(&arch, fw, par, r, false), "cpu"))
            .collect();
        let mut meta = GlobalMetadata::new("megatron", 0, &par.describe(), 2);
        meta.tensor_map = build_tensor_map(&plans);
        meta.validate().unwrap();
        // Load plan for the same sharding: every item is an exact box match.
        let state = build_train_state(&arch, fw, par, 0, false);
        let plan = local_load_plan(0, &state, &meta).unwrap();
        for item in &plan.items {
            assert_eq!(item.isect_offsets, item.dest_offsets);
            assert_eq!(item.isect_lengths, item.dest_lengths);
        }
        // But not every item reads its own rank's file: replicated tensors
        // were saved once by whichever rank (no dedup applied here, so both
        // ranks saved them — duplicates exist in the map).
    }

    #[test]
    fn load_plan_fails_on_uncovered_target() {
        let arch = zoo::tiny_gpt();
        let par = Parallelism::data_parallel(1).unwrap();
        let meta = GlobalMetadata::new("ddp", 0, &par.describe(), 1); // empty map
        let state = build_train_state(&arch, Framework::Ddp, par, 0, false);
        let err = local_load_plan(0, &state, &meta).unwrap_err();
        assert!(matches!(err, BcpError::Missing(_)));
    }

    #[test]
    fn fetch_range_covers_intersection_tightly() {
        // Stored box (4, 8) at payload offset 100; intersection = rows 1..3,
        // cols 2..6 (f32). First elem = (1,2) -> flat 10; last = (2,5) ->
        // flat 21. Range = offset 100 + 40, len (21-10+1)*4 = 48.
        let item = ReadItem {
            category: Category::Model,
            fqn: "w".into(),
            dtype: DType::F32,
            file: "model_0.bin".into(),
            payload_offset: 100,
            stored_offsets: vec![0, 0],
            stored_lengths: vec![4, 8],
            isect_offsets: vec![1, 2],
            isect_lengths: vec![2, 4],
            dest_offsets: vec![1, 2],
            dest_lengths: vec![2, 4],
            dest_local_elem_start: 0,
        };
        assert_eq!(item.fetch_range(), (100 + 40, 48));
        assert_eq!(item.isect_bytes(), 32);
    }
}
