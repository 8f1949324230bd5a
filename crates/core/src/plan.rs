//! Save and load plans: what each rank writes where, and reads from where.
//!
//! Plans are the currency between the Planner layer and the Execution
//! Engine (Fig. 4). They are deterministic — byte offsets are computed at
//! planning time from the frame format, so the coordinator can build the
//! global metadata file *before* any I/O happens, and plans can be cached
//! and reused across checkpoints (§4.1).

use crate::decompose::{shard_boxes_into, shard_metas, Box_};
use crate::format;
use crate::metadata::{BasicMeta, ByteMeta, GlobalMetadata, ShardMeta, TensorShardEntry};
use crate::{BcpError, Result};
use bcp_model::{StateDict, StateEntry, TrainState};
use bcp_tensor::layout::{intersect_boxes, Axes};
use bcp_tensor::DType;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

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
#[derive(Debug, Clone, PartialEq)]
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
#[derive(Debug, Clone, Default, PartialEq)]
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
        let files = [Category::Model, Category::Optimizer]
            .map(|category| Arc::<str>::from(category.file_for(self.rank)));
        self.items
            .iter()
            .zip(self.payload_offsets())
            .map(|(item, offset)| ByteMeta {
                file: files[item.category as usize].clone(),
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
///
/// Names are shared with the metadata they came from and boxes are inline
/// axes, so a clone is a few reference-count increments and a memcpy.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadItem {
    /// Model vs optimizer.
    pub category: Category,
    /// Tensor identity.
    pub fqn: Arc<str>,
    /// Element dtype (from the saved `BasicMeta`).
    pub dtype: DType,
    /// Storage file holding the saved shard.
    pub file: Arc<str>,
    /// Byte offset of the saved shard's payload in the file.
    pub payload_offset: u64,
    /// The saved shard's box (global coordinates).
    pub stored_offsets: Axes,
    /// Lengths of the saved shard's box.
    pub stored_lengths: Axes,
    /// Intersection box between saved shard and target piece (global).
    pub isect_offsets: Axes,
    /// Intersection lengths.
    pub isect_lengths: Axes,
    /// The target piece's box (global coordinates).
    pub dest_offsets: Axes,
    /// The target piece's lengths.
    pub dest_lengths: Axes,
    /// Element offset of the target piece within the local shard storage.
    pub dest_local_elem_start: usize,
    /// The destination tensor's position in the planning rank's state: its
    /// index among the model dict's entries, then the optimizer dict's, in
    /// the dicts' (FQN) order. The name is resolved once, by the planner;
    /// the load's assembler addresses the tensor by this index. A slot is
    /// local to the rank that planned the item: a forwarded payload is
    /// applied to the receiver's own item, never to the sender's. A `u32`,
    /// so it fits beside `category` and `dtype` and the item grows no byte.
    pub slot: u32,
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
#[derive(Debug, Clone, Default, PartialEq)]
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
    let device: Arc<str> = Arc::from(device);
    let mut items = Vec::new();
    push_dict_items(&mut items, &state.model, Category::Model, &device);
    push_dict_items(&mut items, &state.optimizer, Category::Optimizer, &device);
    SavePlan { rank, items }
}

fn push_dict_items(
    items: &mut Vec<WriteItem>,
    dict: &StateDict,
    category: Category,
    device: &Arc<str>,
) {
    for entry in dict.entries.values() {
        let basic =
            BasicMeta::contiguous(entry.dtype, entry.global_shape.as_slice(), device.clone());
        let mut local_cursor = 0usize;
        for shard in shard_metas(&entry.fqn, &entry.global_shape, &entry.spec) {
            let n = shard.numel();
            items.push(WriteItem {
                category,
                shard,
                basic: basic.clone(),
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
///
/// The items are counted before they are built, so the plan is one
/// allocation: every target box and saved entry that meet make an item,
/// less the replicas the sweep drops.
pub fn local_load_plan(rank: usize, state: &TrainState, meta: &GlobalMetadata) -> Result<LoadPlan> {
    let dicts = [(&state.model, Category::Model), (&state.optimizer, Category::Optimizer)];
    let mut sweep = Sweep::default();
    let mut count = 0;
    for (dict, _) in dicts {
        for (entry, saved) in with_saved(dict, meta) {
            shard_boxes_into(&entry.global_shape, &entry.spec, &mut sweep.boxes);
            for (offsets, lengths) in &sweep.boxes {
                count += saved
                    .iter()
                    .filter(|e| {
                        intersect_boxes(&e.shard.offsets, &e.shard.lengths, offsets, lengths)
                            .is_some()
                    })
                    .count();
            }
        }
    }
    let mut items = Vec::with_capacity(count);
    let mut first_slot = 0;
    for (dict, category) in dicts {
        plan_dict_reads(&mut items, &mut sweep, dict, category, first_slot, meta)?;
        first_slot += dict.len();
    }
    Ok(LoadPlan { rank, items })
}

/// Each entry of `dict` with the saved entries of its FQN, in one walk of
/// both maps: the dict's keys and the tensor map's are both sorted by FQN.
fn with_saved<'a>(
    dict: &'a StateDict,
    meta: &'a GlobalMetadata,
) -> impl Iterator<Item = (&'a StateEntry, &'a [TensorShardEntry])> {
    let mut saved = meta.tensor_map.iter().peekable();
    dict.entries.iter().map(move |(fqn, entry)| {
        while saved.next_if(|&(name, _)| name < fqn).is_some() {}
        match saved.peek() {
            Some(&(name, entries)) if name == fqn => (entry, entries.as_slice()),
            _ => (entry, &[][..]),
        }
    })
}

/// One box of a tensor: its offsets and lengths, the index of the saved
/// entry it comes from, and whether it is kept (not a replica of an earlier
/// one).
type Piece = (Axes, Axes, usize, bool);

/// The scratch of [`keep_disjoint`], reused across tensors: the boxes of one
/// tensor (or of one destination box) and the sweep's open set; and the
/// destination boxes of one target tensor.
#[derive(Default)]
pub(crate) struct Sweep {
    pieces: Vec<Piece>,
    active: Vec<usize>,
    boxes: Vec<Box_>,
}

impl Sweep {
    /// Refuse a tensor whose saved boxes overlap without being identical;
    /// replicas (identical boxes) pass. [`GlobalMetadata::validate`]'s check.
    pub(crate) fn check_saved(
        &mut self,
        saved: &[TensorShardEntry],
        fqn: &str,
    ) -> std::result::Result<(), String> {
        // Most tensors are one saved box: nothing to sweep.
        if saved.len() < 2 {
            return Ok(());
        }
        self.pieces.clear();
        self.pieces.extend(
            saved
                .iter()
                .enumerate()
                .map(|(at, e)| (e.shard.offsets.clone(), e.shard.lengths.clone(), at, true)),
        );
        keep_disjoint(&mut self.pieces, &mut self.active, saved, fqn)
    }
}

/// Items are built in place from the saved entries: names are the
/// metadata's shared ones and boxes are inline, and the box lists are the
/// sweep's, reused across tensors, so planning allocates nothing per item
/// or tensor beyond the plan itself. The dict's `n`th entry is the state's
/// slot `first_slot + n`.
///
/// The pieces of one destination box are disjoint, so their element counts
/// add up to what they cover: a replica (an intersection identical to an
/// earlier one) is skipped, and two that overlap without being identical
/// are refused. The load arena rests on this: the assembler writes every
/// byte of a region exactly once, and nothing zeroes it first.
fn plan_dict_reads(
    items: &mut Vec<ReadItem>,
    sweep: &mut Sweep,
    dict: &StateDict,
    category: Category,
    first_slot: usize,
    meta: &GlobalMetadata,
) -> Result<()> {
    let Sweep { pieces, active, boxes } = sweep;
    for (n, (entry, saved)) in with_saved(dict, meta).enumerate() {
        let slot = u32::try_from(first_slot + n).expect("fewer than 2^32 local tensors");
        // The name the saved entries share, unless a hand-built map files
        // an entry under another name (which `validate` refuses).
        let fqn: Arc<str> = match saved.first() {
            Some(e) if *e.shard.fqn == *entry.fqn => e.shard.fqn.clone(),
            _ => Arc::from(entry.fqn.as_str()),
        };
        let mut local_cursor = 0usize;
        shard_boxes_into(&entry.global_shape, &entry.spec, boxes);
        for (dest_offsets, dest_lengths) in boxes.iter() {
            pieces.clear();
            for (at, e) in saved.iter().enumerate() {
                if let Some((io, il)) =
                    intersect_boxes(&e.shard.offsets, &e.shard.lengths, dest_offsets, dest_lengths)
                {
                    pieces.push((io, il, at, true));
                }
            }
            keep_disjoint(pieces, active, saved, &entry.fqn).map_err(BcpError::Corrupt)?;
            let (mut covered, mut mismatch) = (0usize, None);
            for (io, il, at, _) in pieces.drain(..) {
                let e = &saved[at];
                if e.basic.dtype != entry.dtype {
                    mismatch.get_or_insert(e.basic.dtype);
                }
                covered += il.iter().product::<usize>();
                items.push(ReadItem {
                    category,
                    fqn: fqn.clone(),
                    dtype: entry.dtype,
                    file: e.byte.file.clone(),
                    payload_offset: e.byte.offset,
                    stored_offsets: e.shard.offsets.clone(),
                    stored_lengths: e.shard.lengths.clone(),
                    isect_offsets: io,
                    isect_lengths: il,
                    dest_offsets: dest_offsets.clone(),
                    dest_lengths: dest_lengths.clone(),
                    dest_local_elem_start: local_cursor,
                    slot,
                });
            }
            let numel: usize = dest_lengths.iter().product();
            if covered != numel {
                return Err(BcpError::Missing(format!(
                    "{}: target box {dest_offsets:?}/{dest_lengths:?} covered {covered}/{numel} elements",
                    entry.fqn
                )));
            }
            if let Some(saved_dtype) = mismatch {
                return Err(BcpError::Plan(format!(
                    "{}: dtype mismatch: saved {saved_dtype}, requested {}",
                    entry.fqn, entry.dtype
                )));
            }
            local_cursor += numel;
        }
    }
    Ok(())
}

/// Leave `pieces`, boxes of one tensor in saved-entry order, disjoint and
/// in that order: drop each replica of an earlier piece (a checkpoint saved
/// without deduplication holds DP replicas verbatim under several files,
/// and reading any one suffices) and refuse two that overlap without being
/// identical, which would make a summed element count pay for a hole. A
/// sort on the first axis and a sweep compare each piece only with those
/// still open on that axis; `active` is the sweep's scratch.
fn keep_disjoint(
    pieces: &mut Vec<Piece>,
    active: &mut Vec<usize>,
    saved: &[TensorShardEntry],
    fqn: &str,
) -> std::result::Result<(), String> {
    // A scalar has no axis: its pieces all open at 0 and span 1.
    let start = |p: &Piece| p.0.first().copied().unwrap_or(0);
    let end = |p: &Piece| start(p) + p.1.first().copied().unwrap_or(1);
    pieces.sort_unstable_by_key(|p| (start(p), p.2));
    active.clear();
    for i in 0..pieces.len() {
        let from = start(&pieces[i]);
        active.retain(|&j| end(&pieces[j]) > from);
        for &j in active.iter() {
            let (a, b) = (&pieces[j], &pieces[i]);
            if a.0 == b.0 && a.1 == b.1 {
                pieces[i].3 = false;
                break;
            }
            let meet = (0..a.0.len()).all(|d| a.0[d] < b.0[d] + b.1[d] && b.0[d] < a.0[d] + a.1[d]);
            if meet {
                let (x, y) = (&saved[a.2].shard, &saved[b.2].shard);
                return Err(format!(
                    "{fqn}: saved shards {:?}/{:?} and {:?}/{:?} overlap without being identical",
                    x.offsets, x.lengths, y.offsets, y.lengths
                ));
            }
        }
        if pieces[i].3 {
            active.push(i);
        }
    }
    pieces.retain(|p| p.3);
    pieces.sort_unstable_by_key(|p| p.2);
    Ok(())
}

/// Build the tensor section of the global metadata from deduplicated plans.
pub fn build_tensor_map(plans: &[SavePlan]) -> BTreeMap<String, Vec<TensorShardEntry>> {
    let mut map: BTreeMap<String, Vec<TensorShardEntry>> = BTreeMap::new();
    for plan in plans {
        for (item, byte) in plan.items.iter().zip(plan.byte_metas()) {
            let entry =
                TensorShardEntry { shard: item.shard.clone(), basic: item.basic.clone(), byte };
            match map.get_mut(&*item.shard.fqn) {
                Some(entries) => entries.push(entry),
                None => {
                    map.insert(item.shard.fqn.to_string(), vec![entry]);
                }
            }
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
            by_fqn.entry(&*item.shard.fqn).or_default().push(item);
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
            let end = last_end.entry(&*bm.file).or_insert(0);
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
    fn saved_shards_that_overlap_in_part_are_refused_and_replicas_read_once() {
        let saved = |offset: usize, len: usize, file: &str| TensorShardEntry {
            shard: ShardMeta { fqn: "w".into(), offsets: [offset].into(), lengths: [len].into() },
            basic: BasicMeta::contiguous(DType::F32, vec![10], "cpu".to_string()),
            byte: ByteMeta {
                file: file.into(),
                offset: 16 + 64 * offset as u64,
                length: 4 * len as u64,
            },
        };
        // Planned without `validate`, which refuses the same metadata.
        let plan_of = |entries: Vec<TensorShardEntry>| {
            let mut meta = GlobalMetadata::new("ddp", 0, "DP=1", 1);
            meta.tensor_map.insert("w".into(), entries);
            let mut state = TrainState::default();
            state.model.insert(bcp_model::StateEntry {
                fqn: "w".into(),
                global_shape: vec![10],
                dtype: DType::F32,
                spec: bcp_topology::ShardSpec::Replicated,
                tensor: bcp_tensor::Tensor::zeros(DType::F32, vec![10]),
            });
            local_load_plan(0, &state, &meta)
        };
        // [0, 6) and [4, 8) count 6 + 4 = 10 elements of 10, yet [8, 10) is
        // in neither: summed coverage alone would plan a hole.
        let err =
            plan_of(vec![saved(0, 6, "model_0.bin"), saved(4, 4, "model_1.bin")]).unwrap_err();
        assert!(
            matches!(&err, BcpError::Corrupt(m) if m.contains("overlap without being identical")),
            "{err}"
        );
        // A DP replica saved verbatim is no overlap: the first one in saved
        // order is read, once, whatever order the sweep visits them in.
        let plan = plan_of(vec![
            saved(6, 4, "model_0.bin"),
            saved(0, 6, "model_1.bin"),
            saved(0, 6, "model_0.bin"),
            saved(6, 4, "model_1.bin"),
        ])
        .unwrap();
        let read: Vec<(&str, usize, usize)> =
            plan.items.iter().map(|i| (&*i.file, i.isect_offsets[0], i.isect_lengths[0])).collect();
        assert_eq!(read, [("model_0.bin", 6, 4), ("model_1.bin", 0, 6)]);
    }

    #[test]
    fn every_resharded_item_names_the_tensor_at_its_slot() {
        let arch = zoo::tiny_gpt();
        let dist_opt = Framework::Megatron { distributed_optimizer: true };
        let (dp2, tp2) = (Parallelism::new(1, 2, 1).unwrap(), Parallelism::new(2, 1, 1).unwrap());
        // (saved framework and parallelism, loaded framework and parallelism)
        for (from, to) in [
            ((dist_opt, dp2), (dist_opt, tp2)),
            ((Framework::Fsdp { zero3: true }, dp2), (dist_opt, tp2)),
            ((dist_opt, tp2), (Framework::Fsdp { zero3: true }, dp2)),
        ] {
            let (fw, par) = from;
            let plans: Vec<SavePlan> = (0..2)
                .map(|r| local_save_plan(r, &build_train_state(&arch, fw, par, r, false), "cpu"))
                .collect();
            let mut meta = GlobalMetadata::new("x", 0, &par.describe(), 2);
            meta.tensor_map = build_tensor_map(&plans);
            let (fw, par) = to;
            for rank in 0..2 {
                let state = build_train_state(&arch, fw, par, rank, false);
                let plan = local_load_plan(rank, &state, &meta).unwrap();
                let slots: Vec<(Category, &str)> = state
                    .model
                    .entries
                    .keys()
                    .map(|k| (Category::Model, k.as_str()))
                    .chain(
                        state.optimizer.entries.keys().map(|k| (Category::Optimizer, k.as_str())),
                    )
                    .collect();
                assert!(plan.items.len() > slots.len() / 2, "{to:?} rank {rank}");
                for item in &plan.items {
                    assert_eq!(
                        slots[item.slot as usize],
                        (item.category, &*item.fqn),
                        "{to:?} rank {rank}: slot {}",
                        item.slot
                    );
                }
                // Every tensor is some item's destination.
                let mut named = vec![false; slots.len()];
                plan.items.iter().for_each(|i| named[i.slot as usize] = true);
                assert!(named.iter().all(|&n| n), "{to:?} rank {rank}: a tensor with no item");
            }
        }
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
            stored_offsets: [0, 0].into(),
            stored_lengths: [4, 8].into(),
            isect_offsets: [1, 2].into(),
            isect_lengths: [2, 4].into(),
            dest_offsets: [1, 2].into(),
            dest_lengths: [2, 4].into(),
            dest_local_elem_start: 0,
            slot: 0,
        };
        assert_eq!(item.fetch_range(), (100 + 40, 48));
        assert_eq!(item.isect_bytes(), 32);
    }
}
