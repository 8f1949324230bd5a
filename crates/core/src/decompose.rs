//! Irregular tensor decomposition (§3.2, Fig. 7).
//!
//! ZeRO-style sharding flattens tensors and slices them 1-D, so a rank's
//! slice "often cannot be directly represented using n-dimensional shapes
//! and offsets". The alternatives are (a) all-gather the shards into full
//! tensors before saving — DCP's approach, which blocks training on
//! communication — or (b) ByteCheckpoint's approach: decompose the flat
//! range into a *sequence of regular boxes* and store one `ShardMeta` per
//! box, at zero communication cost.
//!
//! The decomposition of a flat range over a row-major shape is recursive:
//! a partial head row (recursing into the row's own shape), a body of whole
//! rows, and a partial tail row. The resulting boxes are contiguous and
//! in-order in the flat address space — which is what lets the save engine
//! serialize them as consecutive slices of the local 1-D shard without any
//! data movement.

use crate::metadata::ShardMeta;
use bcp_tensor::layout::Axes;
use bcp_topology::ShardSpec;
use std::sync::Arc;

/// An n-D box as (offsets, lengths).
pub type Box_ = (Axes, Axes);

/// Decompose within `shape`, the trailing axes of a tensor whose leading
/// axes are fixed at the row indices `lead`: each box found is emitted in
/// global coordinates, `lead` prepended with length 1 along each.
fn decompose_into(shape: &[usize], start: usize, len: usize, lead: &mut Axes, out: &mut Vec<Box_>) {
    if len == 0 {
        return;
    }
    let total: usize = shape.iter().product();
    assert!(start + len <= total, "range [{start}, {}) exceeds {total}", start + len);
    let emit = |lead: &Axes, off: &[usize], lens: &[usize]| -> Box_ {
        let offsets = lead.iter().chain(off).copied().collect();
        let lengths = lead.iter().map(|_| 1).chain(lens.iter().copied()).collect();
        (offsets, lengths)
    };
    if shape.is_empty() {
        out.push(emit(lead, &[], &[]));
        return;
    }
    if shape.len() == 1 {
        out.push(emit(lead, &[start], &[len]));
        return;
    }
    let row: usize = shape[1..].iter().product();
    if row == 0 {
        return; // zero-sized inner dims: nothing to store
    }
    let mut start = start;
    let mut len = len;
    // Head: partial first row.
    let head_in_row = start % row;
    if head_in_row != 0 {
        let head_len = (row - head_in_row).min(len);
        lead.push(start / row);
        decompose_into(&shape[1..], head_in_row, head_len, lead, out);
        lead.pop();
        start += head_len;
        len -= head_len;
    }
    if len == 0 {
        return;
    }
    // Body: whole rows.
    let n_rows = len / row;
    if n_rows > 0 {
        let mut off = Axes::zeros(shape.len());
        off[0] = start / row;
        let mut lens = Axes::from(shape);
        lens[0] = n_rows;
        out.push(emit(lead, &off, &lens));
        start += n_rows * row;
        len -= n_rows * row;
    }
    // Tail: partial last row.
    if len > 0 {
        lead.push(start / row);
        decompose_into(&shape[1..], 0, len, lead, out);
        lead.pop();
    }
}

/// The regular boxes of a rank's local shard under `spec`, in local-storage
/// order: the k-th box's payload is the next `numel` elements of the local
/// shard's flat storage. Regular specs yield one box, flat specs their
/// decomposition; empty boxes are dropped.
pub fn shard_boxes(global_shape: &[usize], spec: &ShardSpec) -> Vec<Box_> {
    let mut boxes = Vec::new();
    shard_boxes_into(global_shape, spec, &mut boxes);
    boxes
}

/// [`shard_boxes`] into `out`, replacing what it held: a caller walking
/// many tensors reuses one list.
pub fn shard_boxes_into(global_shape: &[usize], spec: &ShardSpec, out: &mut Vec<Box_>) {
    out.clear();
    match spec {
        ShardSpec::Replicated | ShardSpec::Grid(_) => {
            out.push(spec.grid_box(global_shape).expect("valid grid spec"))
        }
        ShardSpec::Flat { offset, length } => {
            decompose_into(global_shape, *offset, *length, &mut Axes::new(), out)
        }
        ShardSpec::FlatOfBox { box_offsets, box_lengths, offset, length } => {
            // Decompose within the sub-box, then translate to global coords.
            decompose_into(box_lengths, *offset, *length, &mut Axes::new(), out);
            for (off, _) in out.iter_mut() {
                off.iter_mut().zip(box_offsets).for_each(|(o, b)| *o += b);
            }
        }
    }
    out.retain(|(_, l)| l.iter().product::<usize>() > 0);
}

/// The `ShardMeta`s representing a rank's local shard of `fqn` under `spec`:
/// one per box of [`shard_boxes`], all sharing one name.
///
/// Regular specs yield one entry; flat specs are decomposed (multiple
/// `ShardMeta` entries represent a single irregular shard, as the paper
/// describes).
pub fn shard_metas(fqn: &str, global_shape: &[usize], spec: &ShardSpec) -> Vec<ShardMeta> {
    let fqn: Arc<str> = Arc::from(fqn);
    shard_boxes(global_shape, spec)
        .into_iter()
        .map(|(offsets, lengths)| ShardMeta { fqn: fqn.clone(), offsets, lengths })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Decompose the flat element range `[start, start+len)` of a
    /// row-major tensor with `shape` into regular boxes, in flat order.
    fn decompose_flat_range(shape: &[usize], start: usize, len: usize) -> Vec<Box_> {
        let mut out = Vec::new();
        decompose_into(shape, start, len, &mut Axes::new(), &mut out);
        out
    }
    use bcp_tensor::layout::{contiguous_strides, numel, ravel_index};
    use proptest::prelude::*;

    /// Flat index of the first element of a box.
    fn box_start(shape: &[usize], b: &Box_) -> usize {
        ravel_index(&b.0, shape)
    }

    #[test]
    fn paper_fig7_tensor_b() {
        // Tensor B: shape (3, 2); rank 0 holds flat [0, 3): decomposes into
        // the full first row plus the first element of the second row.
        let boxes = decompose_flat_range(&[3, 2], 0, 3);
        assert_eq!(boxes, vec![([0, 0].into(), [1, 2].into()), ([1, 0].into(), [1, 1].into())]);
        // Rank 1 holds [3, 6): second element of row 1 plus the whole row 2.
        let boxes = decompose_flat_range(&[3, 2], 3, 3);
        assert_eq!(boxes, vec![([1, 1].into(), [1, 1].into()), ([2, 0].into(), [1, 2].into())]);
    }

    #[test]
    fn whole_tensor_is_one_box() {
        assert_eq!(decompose_flat_range(&[3, 4], 0, 12), vec![([0, 0].into(), [3, 4].into())]);
        assert_eq!(decompose_flat_range(&[7], 0, 7), vec![([0].into(), [7].into())]);
    }

    #[test]
    fn empty_range_is_empty() {
        assert!(decompose_flat_range(&[3, 4], 5, 0).is_empty());
    }

    #[test]
    fn three_dims_head_body_tail() {
        // shape (2,3,4): range [5, 21): head = rest of row (0,1) [1..4],
        // then rows (0,2), (1,0..2) as bodies/full rows, tail (1,2)[0..1].
        let boxes = decompose_flat_range(&[2, 3, 4], 5, 16);
        // Verify exact partition rather than exact box list.
        let shape = [2usize, 3, 4];
        let mut covered = vec![false; numel(&shape)];
        for (off, len) in &boxes {
            for i in 0..numel(len) {
                let local = bcp_tensor::layout::unravel_index(i, len);
                let global: Vec<usize> = local.iter().zip(off).map(|(a, b)| a + b).collect();
                let flat = ravel_index(&global, &shape);
                assert!(!covered[flat], "double cover at {flat}");
                covered[flat] = true;
            }
        }
        let covered_idx: Vec<usize> =
            covered.iter().enumerate().filter(|(_, &c)| c).map(|(i, _)| i).collect();
        assert_eq!(covered_idx, (5..21).collect::<Vec<_>>());
    }

    #[test]
    fn boxes_are_in_flat_order() {
        let shape = [4usize, 5, 3];
        let boxes = decompose_flat_range(&shape, 7, 40);
        let mut cursor = 7usize;
        for b in &boxes {
            assert_eq!(box_start(&shape, b), cursor, "boxes must be consecutive in flat order");
            cursor += numel(&b.1);
        }
        assert_eq!(cursor, 47);
    }

    #[test]
    fn box_count_is_small() {
        // The decomposition should produce at most ~2*rank+1 boxes, not one
        // per element ("slightly increases the metadata size").
        let shape = [100usize, 100];
        let boxes = decompose_flat_range(&shape, 37, 5000);
        assert!(boxes.len() <= 3, "2-D range needs at most head+body+tail, got {}", boxes.len());
        let shape3 = [10usize, 10, 10];
        let boxes = decompose_flat_range(&shape3, 123, 456);
        assert!(boxes.len() <= 5, "3-D should stay small, got {}", boxes.len());
    }

    #[test]
    fn shard_metas_for_grid_and_flat() {
        let metas = shard_metas("w", &[4, 4], &ShardSpec::dim(0, 2, 1));
        assert_eq!(metas.len(), 1);
        assert_eq!(metas[0].offsets, vec![2, 0]);

        let metas = shard_metas("w", &[3, 2], &ShardSpec::Flat { offset: 0, length: 3 });
        assert_eq!(metas.len(), 2);

        // FlatOfBox: TP shard rows 2..4 of (4,6), flat range [3, 9) of it.
        let metas = shard_metas(
            "w",
            &[4, 6],
            &ShardSpec::FlatOfBox {
                box_offsets: vec![2, 0],
                box_lengths: vec![2, 6],
                offset: 3,
                length: 6,
            },
        );
        // Head: row 0 of box cols 3..6 => global (2, 3..6); body/tail: row 1
        // cols 0..3 => global (3, 0..3).
        assert_eq!(metas.len(), 2);
        assert_eq!(
            (metas[0].offsets.clone(), metas[0].lengths.clone()),
            ([2, 3].into(), [1, 3].into())
        );
        assert_eq!(
            (metas[1].offsets.clone(), metas[1].lengths.clone()),
            ([3, 0].into(), [1, 3].into())
        );
    }

    #[test]
    fn zero_length_boxes_filtered() {
        let metas = shard_metas("w", &[4], &ShardSpec::Flat { offset: 4, length: 0 });
        assert!(metas.is_empty());
    }

    proptest! {
        /// Decomposition exactly partitions the range, stays in flat order,
        /// and produces O(rank) boxes per "level".
        #[test]
        fn decomposition_partitions_any_range(
            dims in proptest::collection::vec(1usize..7, 1..4),
            frac_start in 0.0f64..1.0,
            frac_len in 0.0f64..1.0,
        ) {
            let total: usize = dims.iter().product();
            let start = ((total as f64) * frac_start) as usize % total.max(1);
            let len = (((total - start) as f64) * frac_len).ceil() as usize;
            let boxes = decompose_flat_range(&dims, start, len);
            let mut cursor = start;
            for b in &boxes {
                prop_assert_eq!(ravel_index(&b.0, &dims), cursor);
                // Box must fit in bounds.
                for (d, (&o, &l)) in b.0.iter().zip(&b.1).enumerate() {
                    prop_assert!(o + l <= dims[d]);
                }
                cursor += numel(&b.1);
            }
            prop_assert_eq!(cursor, start + len);
            // Bound: head and tail each contribute ≤ (rank-1) boxes, body 1.
            prop_assert!(boxes.len() <= 2 * dims.len() + 1);
            let _ = contiguous_strides(&dims);
        }
    }
}
