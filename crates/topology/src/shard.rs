//! Sharding specifications: how one logical tensor is split across ranks.
//!
//! A [`ShardSpec`] is the framework-facing description the planner consumes
//! (the paper's "sharding specification such as Megatron ShardedTensor or
//! FSDP DTensor"). It resolves to either a *regular* hyper-rectangular box
//! or an *irregular* flat range of the flattened tensor.

use crate::{Result, TopologyError};
use bcp_tensor::layout::{even_split, Axes};
use serde::{Deserialize, Serialize};

/// Sharding of one tensor dimension across a group of ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DimShard {
    /// Tensor dimension being split.
    pub dim: usize,
    /// Number of shards along that dimension (the parallel-group size).
    pub num_shards: usize,
    /// This rank's index within the group.
    pub index: usize,
}

/// How a rank's local shard relates to the global tensor.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ShardSpec {
    /// The rank holds a full replica.
    Replicated,
    /// The tensor is split along one or more dimensions (regular shards).
    /// Multiple entries compose, e.g. TP column sharding + veScale mesh
    /// sharding. Entries must reference distinct dims.
    Grid(Vec<DimShard>),
    /// ZeRO-style: the tensor was flattened row-major and this rank holds
    /// the 1-D element range `[offset, offset + length)`. The range
    /// generally does **not** correspond to any n-D box — this is the
    /// paper's *irregular tensor* case (Fig. 7).
    Flat {
        /// Start element in the flattened global tensor.
        offset: usize,
        /// Number of elements held.
        length: usize,
    },
    /// Megatron-LM distributed-optimizer style: the tensor's TP shard (the
    /// sub-box `box_offsets/box_lengths` of the global tensor) was flattened
    /// row-major, and this rank holds the 1-D range `[offset, offset +
    /// length)` *of that flattening*. "TP-sharded tensors of one layer in
    /// the distributed optimizer are first flattened and then ... sharded
    /// according to the designated DP degree" (paper Appendix A).
    FlatOfBox {
        /// The sub-box's offsets inside the global tensor.
        box_offsets: Vec<usize>,
        /// The sub-box's lengths.
        box_lengths: Vec<usize>,
        /// Start element in the row-major flattening of the sub-box.
        offset: usize,
        /// Number of elements held.
        length: usize,
    },
}

impl ShardSpec {
    /// Convenience: shard evenly along one dimension.
    pub fn dim(dim: usize, num_shards: usize, index: usize) -> ShardSpec {
        ShardSpec::Grid(vec![DimShard { dim, num_shards, index }])
    }

    /// Convenience: ZeRO flat shard `index` of `num_shards` over a tensor
    /// with `global_numel` elements, using PyTorch-chunk even splitting.
    pub fn flat_even(global_numel: usize, num_shards: usize, index: usize) -> ShardSpec {
        let (offset, length) = even_split(global_numel, num_shards, index);
        ShardSpec::Flat { offset, length }
    }

    /// Resolve a grid/replicated spec to the n-D box `(offsets, lengths)` of
    /// the local shard inside `global_shape`.
    ///
    /// Errors on [`ShardSpec::Flat`] (use [`ShardSpec::flat_range`]) and on
    /// out-of-range dims/indices.
    pub fn grid_box(&self, global_shape: &[usize]) -> Result<(Axes, Axes)> {
        match self {
            ShardSpec::Replicated => Ok((Axes::zeros(global_shape.len()), global_shape.into())),
            ShardSpec::Grid(dims) => {
                let mut offsets = Axes::zeros(global_shape.len());
                let mut lengths = Axes::from(global_shape);
                for d in dims {
                    if d.dim >= global_shape.len() {
                        return Err(TopologyError::DimOutOfRange {
                            dim: d.dim,
                            rank: global_shape.len(),
                        });
                    }
                    if d.index >= d.num_shards {
                        return Err(TopologyError::ShardIndexOutOfRange {
                            index: d.index,
                            num_shards: d.num_shards,
                        });
                    }
                    let (off, len) = even_split(global_shape[d.dim], d.num_shards, d.index);
                    offsets[d.dim] = off;
                    lengths[d.dim] = len;
                }
                Ok((offsets, lengths))
            }
            ShardSpec::Flat { .. } | ShardSpec::FlatOfBox { .. } => {
                Err(TopologyError::DimOutOfRange { dim: usize::MAX, rank: global_shape.len() })
            }
        }
    }

    /// Resolve to the flat element range `[start, start+len)` of the
    /// flattened global tensor, when the spec is [`ShardSpec::Flat`].
    pub fn flat_range(&self) -> Option<(usize, usize)> {
        match self {
            ShardSpec::Flat { offset, length } => Some((*offset, *length)),
            _ => None,
        }
    }

    /// Whether this spec produces an irregular shard for `global_shape`:
    /// a flat range that cannot be expressed as a single n-D box.
    ///
    /// A flat range over a row-major tensor is regular iff it covers whole
    /// "rows" of some suffix of the shape (including the degenerate cases of
    /// a range within a single innermost row, or the full tensor).
    pub fn is_irregular(&self, global_shape: &[usize]) -> bool {
        match self {
            ShardSpec::Flat { offset, length } => {
                !flat_range_is_box(global_shape, *offset, *length)
            }
            ShardSpec::FlatOfBox { box_lengths, offset, length, .. } => {
                // Regular iff the range is a box of the sub-box AND that box,
                // placed back into global coordinates, stays one box — which
                // it does, since the sub-box is axis-aligned.
                !flat_range_is_box(box_lengths, *offset, *length)
            }
            _ => false,
        }
    }

    /// Number of elements in the local shard for `global_shape`.
    pub fn local_numel(&self, global_shape: &[usize]) -> Result<usize> {
        match self {
            ShardSpec::Flat { length, .. } | ShardSpec::FlatOfBox { length, .. } => Ok(*length),
            _ => {
                let (_, lengths) = self.grid_box(global_shape)?;
                Ok(bcp_tensor::layout::numel(&lengths))
            }
        }
    }

    /// Visit every element of the local shard in local storage order,
    /// yielding `(local_flat_index, global_flat_index)`.
    ///
    /// This is the bridge the deterministic trainer uses to make parameter
    /// evolution parallelism-independent: updates are addressed by *global*
    /// index regardless of which rank stores the element.
    pub fn for_each_global_index(
        &self,
        global_shape: &[usize],
        mut f: impl FnMut(usize, usize),
    ) -> Result<()> {
        let strides = bcp_tensor::layout::contiguous_strides(global_shape);
        match self {
            ShardSpec::Flat { offset, length } => {
                for i in 0..*length {
                    f(i, offset + i);
                }
                Ok(())
            }
            ShardSpec::FlatOfBox { box_offsets, box_lengths, offset, length } => {
                // Walk the sub-box row-major, skipping to `offset`.
                let box_n = bcp_tensor::layout::numel(box_lengths);
                if offset + length > box_n {
                    return Err(TopologyError::ShardIndexOutOfRange {
                        index: offset + length,
                        num_shards: box_n,
                    });
                }
                for i in 0..*length {
                    let in_box = bcp_tensor::layout::unravel_index(offset + i, box_lengths);
                    let mut g = 0usize;
                    for (d, &c) in in_box.iter().enumerate() {
                        g += (box_offsets[d] + c) * strides[d];
                    }
                    f(i, g);
                }
                Ok(())
            }
            _ => {
                let (off, len) = self.grid_box(global_shape)?;
                let n = bcp_tensor::layout::numel(&len);
                for i in 0..n {
                    let in_box = bcp_tensor::layout::unravel_index(i, &len);
                    let mut g = 0usize;
                    for (d, &c) in in_box.iter().enumerate() {
                        g += (off[d] + c) * strides[d];
                    }
                    f(i, g);
                }
                Ok(())
            }
        }
    }
}

/// Does the flat range `[offset, offset+length)` of a row-major tensor with
/// `shape` form a single n-D box?
///
/// True in exactly three cases: empty range; range within one innermost row;
/// or the range is aligned to whole blocks of some suffix of the shape (it
/// starts and ends on multiples of `prod(shape[k..])` for some `k`, spanning
/// consecutive rows of the `k-1` level — and at that level, the covered row
/// indices must stay within a single "super-row").
pub fn flat_range_is_box(shape: &[usize], offset: usize, length: usize) -> bool {
    if length == 0 {
        return true;
    }
    let n: usize = shape.iter().product();
    if offset + length > n {
        return false; // out of bounds is certainly not a box
    }
    // Try every suffix block size: block = prod(shape[k..]); the range is a
    // box iff for some k it is aligned to `block`, spans consecutive blocks,
    // and those block indices lie within one row of dimension k-1.
    let mut block = 1usize;
    for k in (0..=shape.len()).rev() {
        // block == prod(shape[k..]) at this point.
        if offset.is_multiple_of(block) && length.is_multiple_of(block) {
            let start_blk = offset / block;
            let num_blk = length / block;
            // Blocks along dimension k-1 (or the whole tensor when k == 0).
            let dim_size = if k == 0 { 1 } else { shape[k - 1] };
            let within = (start_blk % dim_size.max(1)) + num_blk <= dim_size.max(1);
            if within {
                return true;
            }
        }
        if k > 0 {
            block = block.saturating_mul(shape[k - 1]);
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replicated_box_is_full_tensor() {
        let spec = ShardSpec::Replicated;
        assert_eq!(spec.grid_box(&[3, 4]).unwrap(), ([0, 0].into(), [3, 4].into()));
        assert_eq!(spec.local_numel(&[3, 4]).unwrap(), 12);
    }

    #[test]
    fn dim_shard_boxes() {
        // Column-parallel split of a (6, 4) weight across 3 ranks along dim 0.
        for i in 0..3 {
            let spec = ShardSpec::dim(0, 3, i);
            let (off, len) = spec.grid_box(&[6, 4]).unwrap();
            assert_eq!(off, vec![2 * i, 0]);
            assert_eq!(len, vec![2, 4]);
        }
    }

    #[test]
    fn multi_dim_grid() {
        let spec = ShardSpec::Grid(vec![
            DimShard { dim: 0, num_shards: 2, index: 1 },
            DimShard { dim: 1, num_shards: 2, index: 0 },
        ]);
        let (off, len) = spec.grid_box(&[4, 6]).unwrap();
        assert_eq!(off, vec![2, 0]);
        assert_eq!(len, vec![2, 3]);
    }

    #[test]
    fn grid_errors() {
        assert!(ShardSpec::dim(2, 2, 0).grid_box(&[4, 4]).is_err());
        assert!(ShardSpec::dim(0, 2, 5).grid_box(&[4, 4]).is_err());
    }

    #[test]
    fn paper_fig7_example_tensor_b_is_irregular() {
        // Tensor B: shape (3, 2), evenly split into two flat shards of 3.
        let shard0 = ShardSpec::flat_even(6, 2, 0);
        let shard1 = ShardSpec::flat_even(6, 2, 1);
        assert_eq!(shard0.flat_range(), Some((0, 3)));
        assert_eq!(shard1.flat_range(), Some((3, 3)));
        assert!(shard0.is_irregular(&[3, 2]));
        assert!(shard1.is_irregular(&[3, 2]));
    }

    #[test]
    fn regular_flat_ranges_detected() {
        // Whole tensor.
        assert!(!ShardSpec::Flat { offset: 0, length: 12 }.is_irregular(&[3, 4]));
        // Whole rows.
        assert!(!ShardSpec::Flat { offset: 4, length: 8 }.is_irregular(&[3, 4]));
        // Within one row.
        assert!(!ShardSpec::Flat { offset: 5, length: 2 }.is_irregular(&[3, 4]));
        // Crosses a row boundary without covering whole rows -> irregular.
        assert!(ShardSpec::Flat { offset: 2, length: 4 }.is_irregular(&[3, 4]));
        // 1-D tensors are never irregular.
        assert!(!ShardSpec::Flat { offset: 3, length: 5 }.is_irregular(&[16]));
    }

    #[test]
    fn flat_range_box_3d() {
        let shape = [2, 3, 4];
        // One full (3,4) plane: box.
        assert!(flat_range_is_box(&shape, 12, 12));
        // Two rows of one plane: box.
        assert!(flat_range_is_box(&shape, 4, 8));
        // Two rows straddling planes: NOT a box (different planes).
        assert!(!flat_range_is_box(&shape, 8, 8));
        // Out of bounds.
        assert!(!flat_range_is_box(&shape, 20, 8));
    }

    #[test]
    fn flat_of_box_irregularity_and_indexing() {
        // Global (4, 6); TP shard = rows 2..4 (box offsets (2,0), lengths (2,6)).
        // Distributed optimizer splits the 12-element flattening across 2 DP
        // ranks: ranges [0,6) and [6,12) — each one whole row: regular.
        let reg = ShardSpec::FlatOfBox {
            box_offsets: vec![2, 0],
            box_lengths: vec![2, 6],
            offset: 0,
            length: 6,
        };
        assert!(!reg.is_irregular(&[4, 6]));
        // Ranges [0,8) cross a row boundary: irregular.
        let irr = ShardSpec::FlatOfBox {
            box_offsets: vec![2, 0],
            box_lengths: vec![2, 6],
            offset: 0,
            length: 8,
        };
        assert!(irr.is_irregular(&[4, 6]));
        // Global indices: box starts at global flat 12 (row 2 of 6-wide).
        let mut pairs = Vec::new();
        irr.for_each_global_index(&[4, 6], |l, g| pairs.push((l, g))).unwrap();
        assert_eq!(pairs[0], (0, 12));
        assert_eq!(pairs[5], (5, 17));
        assert_eq!(pairs[6], (6, 18));
        assert_eq!(pairs.len(), 8);
    }

    #[test]
    fn global_index_iteration_for_grid() {
        // (4, 4) split along dim 0 into 2; shard 1 covers rows 2..4.
        let spec = ShardSpec::dim(0, 2, 1);
        let mut globals = Vec::new();
        spec.for_each_global_index(&[4, 4], |_, g| globals.push(g)).unwrap();
        assert_eq!(globals, (8..16).collect::<Vec<_>>());
    }

    #[test]
    fn global_index_iteration_for_flat() {
        let spec = ShardSpec::Flat { offset: 5, length: 3 };
        let mut pairs = Vec::new();
        spec.for_each_global_index(&[4, 4], |l, g| pairs.push((l, g))).unwrap();
        assert_eq!(pairs, vec![(0, 5), (1, 6), (2, 7)]);
    }

    #[test]
    fn flat_even_covers_tensor() {
        let total = 37;
        let mut covered = 0;
        for i in 0..5 {
            let s = ShardSpec::flat_even(total, 5, i);
            let (off, len) = s.flat_range().unwrap();
            assert_eq!(off, covered);
            covered += len;
        }
        assert_eq!(covered, total);
    }
}
