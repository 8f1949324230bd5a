//! Row-major layout arithmetic shared by tensors, shard metadata, and the
//! irregular-tensor decomposition algorithm in `bcp-core`, and [`Axes`], the
//! one type every per-axis list of the planning metadata is held in.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};

/// Axes an [`Axes`] holds in place; a longer list moves to the heap.
pub const INLINE_AXES: usize = 4;

/// One value per tensor axis — a shape, a stride, a box's offsets or
/// lengths. Up to [`INLINE_AXES`] values live in place, so building, cloning
/// and dropping one is a memcpy; a longer list spills to the heap.
///
/// It dereferences to `[usize]` and compares, orders, hashes, prints and
/// serializes exactly as the `Vec<usize>` of its values.
#[derive(Clone)]
pub struct Axes(Repr);

#[derive(Clone)]
enum Repr {
    Inline { len: u8, dims: [usize; INLINE_AXES] },
    Heap(Vec<usize>),
}

impl Axes {
    /// No axes (a scalar's shape).
    pub const fn new() -> Axes {
        Axes(Repr::Inline { len: 0, dims: [0; INLINE_AXES] })
    }

    /// `n` zeros.
    pub fn zeros(n: usize) -> Axes {
        if n <= INLINE_AXES {
            Axes(Repr::Inline { len: n as u8, dims: [0; INLINE_AXES] })
        } else {
            Axes(Repr::Heap(vec![0; n]))
        }
    }

    /// The values, as a slice.
    pub fn as_slice(&self) -> &[usize] {
        match &self.0 {
            Repr::Inline { len, dims } => &dims[..*len as usize],
            Repr::Heap(v) => v,
        }
    }

    /// Append one axis, moving to the heap past [`INLINE_AXES`].
    pub fn push(&mut self, value: usize) {
        match &mut self.0 {
            Repr::Inline { len, dims } if (*len as usize) < INLINE_AXES => {
                dims[*len as usize] = value;
                *len += 1;
            }
            Repr::Inline { dims, .. } => {
                let mut v = Vec::with_capacity(2 * INLINE_AXES);
                v.extend_from_slice(dims);
                v.push(value);
                self.0 = Repr::Heap(v);
            }
            Repr::Heap(v) => v.push(value),
        }
    }

    /// Remove and return the last axis.
    pub fn pop(&mut self) -> Option<usize> {
        match &mut self.0 {
            Repr::Inline { len: 0, .. } => None,
            Repr::Inline { len, dims } => {
                *len -= 1;
                Some(dims[*len as usize])
            }
            Repr::Heap(v) => v.pop(),
        }
    }
}

impl Default for Axes {
    fn default() -> Axes {
        Axes::new()
    }
}

impl Deref for Axes {
    type Target = [usize];

    fn deref(&self) -> &[usize] {
        self.as_slice()
    }
}

impl DerefMut for Axes {
    fn deref_mut(&mut self) -> &mut [usize] {
        match &mut self.0 {
            Repr::Inline { len, dims } => &mut dims[..*len as usize],
            Repr::Heap(v) => v,
        }
    }
}

impl From<&[usize]> for Axes {
    fn from(values: &[usize]) -> Axes {
        if values.len() <= INLINE_AXES {
            let mut dims = [0; INLINE_AXES];
            dims[..values.len()].copy_from_slice(values);
            Axes(Repr::Inline { len: values.len() as u8, dims })
        } else {
            Axes(Repr::Heap(values.to_vec()))
        }
    }
}

impl<const N: usize> From<[usize; N]> for Axes {
    fn from(values: [usize; N]) -> Axes {
        Axes::from(&values[..])
    }
}

impl From<Vec<usize>> for Axes {
    /// Keeps the vector's allocation when the list does not fit in place.
    fn from(values: Vec<usize>) -> Axes {
        if values.len() <= INLINE_AXES {
            Axes::from(&values[..])
        } else {
            Axes(Repr::Heap(values))
        }
    }
}

impl Extend<usize> for Axes {
    fn extend<I: IntoIterator<Item = usize>>(&mut self, iter: I) {
        iter.into_iter().for_each(|v| self.push(v));
    }
}

impl FromIterator<usize> for Axes {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Axes {
        let mut axes = Axes::new();
        axes.extend(iter);
        axes
    }
}

impl<'a> IntoIterator for &'a Axes {
    type Item = &'a usize;
    type IntoIter = std::slice::Iter<'a, usize>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl PartialEq for Axes {
    fn eq(&self, other: &Axes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Axes {}

impl PartialEq<Vec<usize>> for Axes {
    fn eq(&self, other: &Vec<usize>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialOrd for Axes {
    fn partial_cmp(&self, other: &Axes) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Axes {
    fn cmp(&self, other: &Axes) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for Axes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state)
    }
}

impl fmt::Debug for Axes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_slice(), f)
    }
}

impl serde::Serialize for Axes {
    fn ser(&self) -> serde::Content {
        self.as_slice().ser()
    }
}

/// Number of elements implied by a shape. A zero-dimensional (scalar) shape
/// has one element; any zero-length axis yields zero.
pub fn numel(shape: &[usize]) -> usize {
    shape.iter().product()
}

/// Row-major (C-contiguous) strides, in *elements*, for a shape.
///
/// `strides[i]` is the flat-index distance between consecutive indices along
/// axis `i`. A scalar shape yields no strides.
pub fn contiguous_strides(shape: &[usize]) -> Axes {
    let mut strides = Axes::zeros(shape.len());
    let mut acc = 1usize;
    for i in (0..shape.len()).rev() {
        strides[i] = acc;
        acc = acc.saturating_mul(shape[i]);
    }
    strides
}

/// Flat (row-major) index of a multi-dimensional coordinate.
///
/// # Panics
/// Panics in debug builds if `index` and `shape` disagree in rank or the
/// coordinate is out of bounds.
pub fn ravel_index(index: &[usize], shape: &[usize]) -> usize {
    debug_assert_eq!(index.len(), shape.len());
    let mut flat = 0usize;
    for (i, (&ix, &dim)) in index.iter().zip(shape.iter()).enumerate() {
        debug_assert!(ix < dim, "index {ix} out of bounds for dim {i} of size {dim}");
        flat = flat * dim + ix;
    }
    flat
}

/// Inverse of [`ravel_index`]: multi-dimensional coordinate of a flat index.
pub fn unravel_index(mut flat: usize, shape: &[usize]) -> Vec<usize> {
    let mut index = vec![0usize; shape.len()];
    for i in (0..shape.len()).rev() {
        let dim = shape[i];
        index[i] = flat % dim;
        flat /= dim;
    }
    debug_assert_eq!(flat, 0, "flat index out of bounds");
    index
}

/// Check that the box `offsets/lengths` lies fully inside `shape`.
pub fn box_in_bounds(shape: &[usize], offsets: &[usize], lengths: &[usize]) -> bool {
    offsets.len() == shape.len()
        && lengths.len() == shape.len()
        && offsets
            .iter()
            .zip(lengths)
            .zip(shape)
            .all(|((&o, &l), &d)| o.checked_add(l).is_some_and(|end| end <= d))
}

/// Intersect two n-D boxes given as (offsets, lengths).
///
/// Returns `None` when the boxes are disjoint or any intersection axis is
/// empty. Ranks must match.
pub fn intersect_boxes(
    a_off: &[usize],
    a_len: &[usize],
    b_off: &[usize],
    b_len: &[usize],
) -> Option<(Axes, Axes)> {
    if a_off.len() != b_off.len() {
        return None;
    }
    let (mut off, mut len) = (Axes::new(), Axes::new());
    for d in 0..a_off.len() {
        let lo = a_off[d].max(b_off[d]);
        let hi = (a_off[d] + a_len[d]).min(b_off[d] + b_len[d]);
        if hi <= lo {
            return None;
        }
        off.push(lo);
        len.push(hi - lo);
    }
    Some((off, len))
}

/// Split `total` elements into `parts` contiguous chunks, PyTorch-`chunk`
/// style: the first `total % parts` chunks get one extra element.
///
/// Returns `(offset, length)` for `part_index`; length may be zero when
/// `parts > total`.
pub fn even_split(total: usize, parts: usize, part_index: usize) -> (usize, usize) {
    assert!(parts > 0, "cannot split into zero parts");
    assert!(part_index < parts, "part index {part_index} out of {parts}");
    let base = total / parts;
    let extra = total % parts;
    if part_index < extra {
        let off = part_index * (base + 1);
        (off, base + 1)
    } else {
        let off = extra * (base + 1) + (part_index - extra) * base;
        (off, base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn strides_of_common_shapes() {
        assert_eq!(contiguous_strides(&[2, 3, 4]), vec![12, 4, 1]);
        assert_eq!(contiguous_strides(&[5]), vec![1]);
        assert_eq!(contiguous_strides(&[]), Vec::<usize>::new());
    }

    #[test]
    fn ravel_unravel_round_trip() {
        let shape = [3, 4, 5];
        for flat in 0..numel(&shape) {
            let idx = unravel_index(flat, &shape);
            assert_eq!(ravel_index(&idx, &shape), flat);
        }
    }

    #[test]
    fn box_bounds_checks() {
        assert!(box_in_bounds(&[4, 4], &[1, 2], &[3, 2]));
        assert!(!box_in_bounds(&[4, 4], &[1, 2], &[4, 2]));
        assert!(!box_in_bounds(&[4, 4], &[1], &[1, 1]));
        // Degenerate zero-length boxes are in bounds.
        assert!(box_in_bounds(&[4, 4], &[4, 4], &[0, 0]));
    }

    #[test]
    fn intersection_basics() {
        assert_eq!(
            intersect_boxes(&[0, 0], &[4, 4], &[2, 2], &[4, 4]),
            Some((Axes::from([2, 2]), Axes::from([2, 2])))
        );
        assert_eq!(intersect_boxes(&[0], &[2], &[2], &[2]), None);
        assert_eq!(intersect_boxes(&[0], &[2], &[0, 0], &[2, 2]), None);
    }

    #[test]
    fn even_split_matches_chunk_semantics() {
        // 10 into 3 -> 4, 3, 3
        assert_eq!(even_split(10, 3, 0), (0, 4));
        assert_eq!(even_split(10, 3, 1), (4, 3));
        assert_eq!(even_split(10, 3, 2), (7, 3));
        // More parts than elements -> trailing zero-length chunks.
        assert_eq!(even_split(2, 4, 0), (0, 1));
        assert_eq!(even_split(2, 4, 3), (2, 0));
    }

    proptest! {
        #[test]
        fn even_split_partitions(total in 0usize..10_000, parts in 1usize..64) {
            let mut cursor = 0usize;
            for p in 0..parts {
                let (off, len) = even_split(total, parts, p);
                prop_assert_eq!(off, cursor);
                cursor += len;
                // Chunks differ in size by at most one.
                prop_assert!(len == total / parts || len == total / parts + 1);
            }
            prop_assert_eq!(cursor, total);
        }

        #[test]
        fn intersect_is_commutative_and_contained(
            ao in proptest::collection::vec(0usize..20, 1..4),
            al_raw in proptest::collection::vec(1usize..20, 1..4),
            bo in proptest::collection::vec(0usize..20, 1..4),
            bl_raw in proptest::collection::vec(1usize..20, 1..4),
        ) {
            let rank = ao.len().min(al_raw.len()).min(bo.len()).min(bl_raw.len());
            let (ao, al) = (&ao[..rank], &al_raw[..rank]);
            let (bo, bl) = (&bo[..rank], &bl_raw[..rank]);
            let i1 = intersect_boxes(ao, al, bo, bl);
            let i2 = intersect_boxes(bo, bl, ao, al);
            prop_assert_eq!(i1.clone(), i2);
            if let Some((off, len)) = i1 {
                for d in 0..rank {
                    prop_assert!(off[d] >= ao[d] && off[d] >= bo[d]);
                    prop_assert!(off[d] + len[d] <= ao[d] + al[d]);
                    prop_assert!(off[d] + len[d] <= bo[d] + bl[d]);
                    prop_assert!(len[d] > 0);
                }
            }
        }
    }
}
