//! Dense row-major tensors over [`bytes::Bytes`], plus meta (shape-only)
//! tensors used for paper-scale planning.

use crate::dtype::DType;
use crate::layout::{box_in_bounds, contiguous_strides, numel, Axes};
use crate::{Result, TensorError};
use bytes::{Bytes, BytesMut};

/// Backing storage of a [`Tensor`].
#[derive(Debug, Clone)]
pub enum Storage {
    /// Materialized little-endian element bytes. `Bytes` makes cloning and
    /// zero-copy slicing cheap, which the engine pipelines rely on.
    Materialized(Bytes),
    /// No storage: the tensor only carries shape/dtype. Mirrors PyTorch's
    /// meta device; used by planners at paper scale.
    Meta,
}

/// A dense, contiguous, row-major n-dimensional tensor.
///
/// This is intentionally minimal: the checkpoint system moves bytes, it does
/// not compute. The only "compute" operations provided are region
/// extraction/insertion ([`Tensor::extract_box`], [`Tensor::write_box`]) and
/// flat-range slicing ([`Tensor::slice_flat`]), which together implement
/// resharding, plus element accessors used by the training substrate.
#[derive(Debug, Clone)]
pub struct Tensor {
    dtype: DType,
    shape: Vec<usize>,
    storage: Storage,
}

impl Tensor {
    /// Create a materialized tensor from raw little-endian bytes.
    pub fn from_bytes(dtype: DType, shape: Vec<usize>, data: Bytes) -> Result<Tensor> {
        let expected = numel(&shape) * dtype.size();
        if data.len() != expected {
            return Err(TensorError::BufferSizeMismatch { expected, got: data.len() });
        }
        Ok(Tensor { dtype, shape, storage: Storage::Materialized(data) })
    }

    /// Create a zero-filled materialized tensor.
    pub fn zeros(dtype: DType, shape: Vec<usize>) -> Tensor {
        let nbytes = numel(&shape) * dtype.size();
        Tensor { dtype, shape, storage: Storage::Materialized(BytesMut::zeroed(nbytes).freeze()) }
    }

    /// Create a meta tensor: shape and dtype only, no storage.
    pub fn meta(dtype: DType, shape: Vec<usize>) -> Tensor {
        Tensor { dtype, shape, storage: Storage::Meta }
    }

    /// Create an `f32` tensor from a slice of values.
    pub fn from_f32(shape: Vec<usize>, values: &[f32]) -> Result<Tensor> {
        let expected = numel(&shape);
        if values.len() != expected {
            return Err(TensorError::BufferSizeMismatch {
                expected: expected * 4,
                got: values.len() * 4,
            });
        }
        let mut buf = BytesMut::with_capacity(values.len() * 4);
        for v in values {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        Ok(Tensor { dtype: DType::F32, shape, storage: Storage::Materialized(buf.freeze()) })
    }

    /// Element type.
    pub fn dtype(&self) -> DType {
        self.dtype
    }

    /// Shape (row-major).
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Number of elements.
    pub fn numel(&self) -> usize {
        numel(&self.shape)
    }

    /// Total storage size in bytes (also defined for meta tensors).
    pub fn nbytes(&self) -> usize {
        self.numel() * self.dtype.size()
    }

    /// Row-major element strides.
    pub fn strides(&self) -> Axes {
        contiguous_strides(&self.shape)
    }

    /// Whether this is a meta (storage-less) tensor.
    pub fn is_meta(&self) -> bool {
        matches!(self.storage, Storage::Meta)
    }

    /// Raw little-endian bytes. Errors on meta tensors.
    pub fn bytes(&self) -> Result<&Bytes> {
        match &self.storage {
            Storage::Materialized(b) => Ok(b),
            Storage::Meta => Err(TensorError::MetaTensor),
        }
    }

    /// Clone of the raw bytes (cheap: `Bytes` is reference-counted).
    pub fn bytes_cloned(&self) -> Result<Bytes> {
        self.bytes().cloned()
    }

    /// Reinterpret as a 1-D tensor over the same storage (zero-copy).
    pub fn flatten(&self) -> Tensor {
        Tensor { dtype: self.dtype, shape: vec![self.numel()], storage: self.storage.clone() }
    }

    /// Zero-copy slice of the flat element range `[start, start+len)`,
    /// returned as a 1-D tensor. This is the primitive behind ZeRO-style
    /// flat sharding.
    pub fn slice_flat(&self, start: usize, len: usize) -> Result<Tensor> {
        let n = self.numel();
        if start.checked_add(len).is_none_or(|end| end > n) {
            return Err(TensorError::FlatRangeOutOfBounds { numel: n, start, len });
        }
        let storage = match &self.storage {
            Storage::Meta => Storage::Meta,
            Storage::Materialized(b) => {
                let es = self.dtype.size();
                Storage::Materialized(b.slice(start * es..(start + len) * es))
            }
        };
        Ok(Tensor { dtype: self.dtype, shape: vec![len], storage })
    }

    /// Copy out the hyper-rectangular region `offsets/lengths` as a new
    /// contiguous tensor of shape `lengths`.
    ///
    /// This is the read-side primitive of resharding: a target shard reads
    /// the intersection box out of a saved shard.
    pub fn extract_box(&self, offsets: &[usize], lengths: &[usize]) -> Result<Tensor> {
        if !box_in_bounds(&self.shape, offsets, lengths) {
            return Err(TensorError::BoxOutOfBounds {
                shape: self.shape.clone(),
                offsets: offsets.to_vec(),
                lengths: lengths.to_vec(),
            });
        }
        if self.is_meta() {
            return Ok(Tensor::meta(self.dtype, lengths.to_vec()));
        }
        let es = self.dtype.size();
        let src = self.bytes()?;
        let mut dst = BytesMut::zeroed(numel(lengths) * es);
        copy_box(
            src,
            &self.shape,
            offsets,
            &mut dst,
            lengths,
            &vec![0; lengths.len()],
            lengths,
            es,
            Direction::SrcToDst,
        );
        Tensor::from_bytes(self.dtype, lengths.to_vec(), dst.freeze())
    }

    /// Write `src` (whose shape must equal `lengths`) into the region
    /// `offsets/lengths` of this tensor, returning the updated tensor.
    ///
    /// Tensors are immutable (`Bytes`); the write clones the storage into a
    /// mutable buffer first. This is the write-side primitive of resharding:
    /// a target shard is assembled by writing intersection boxes into it.
    pub fn write_box(&self, offsets: &[usize], src: &Tensor) -> Result<Tensor> {
        let lengths = src.shape().to_vec();
        if !box_in_bounds(&self.shape, offsets, &lengths) {
            return Err(TensorError::BoxOutOfBounds {
                shape: self.shape.clone(),
                offsets: offsets.to_vec(),
                lengths,
            });
        }
        if src.dtype != self.dtype {
            return Err(TensorError::DTypeMismatch { expected: self.dtype, got: src.dtype });
        }
        if self.is_meta() || src.is_meta() {
            return Err(TensorError::MetaTensor);
        }
        let es = self.dtype.size();
        let mut dst = BytesMut::from(&self.bytes()?[..]);
        copy_box(
            src.bytes()?,
            &lengths,
            &vec![0; lengths.len()],
            &mut dst,
            &self.shape,
            offsets,
            &lengths,
            es,
            Direction::DstToSrc,
        );
        Tensor::from_bytes(self.dtype, self.shape.clone(), dst.freeze())
    }

    /// Read element `flat_index` as `f32` (converting from the storage dtype).
    pub fn get_f32(&self, flat_index: usize) -> Result<f32> {
        use crate::dtype::{bf16_to_f32, f16_to_f32};
        let b = self.bytes()?;
        let es = self.dtype.size();
        if flat_index >= self.numel() {
            return Err(TensorError::FlatRangeOutOfBounds {
                numel: self.numel(),
                start: flat_index,
                len: 1,
            });
        }
        let s = &b[flat_index * es..(flat_index + 1) * es];
        Ok(match self.dtype {
            DType::F64 => f64::from_le_bytes(s.try_into().unwrap()) as f32,
            DType::F32 => f32::from_le_bytes(s.try_into().unwrap()),
            DType::F16 => f16_to_f32(u16::from_le_bytes(s.try_into().unwrap())),
            DType::BF16 => bf16_to_f32(u16::from_le_bytes(s.try_into().unwrap())),
            DType::I64 => i64::from_le_bytes(s.try_into().unwrap()) as f32,
            DType::I32 => i32::from_le_bytes(s.try_into().unwrap()) as f32,
            DType::I16 => i16::from_le_bytes(s.try_into().unwrap()) as f32,
            DType::U8 => s[0] as f32,
            DType::Bool => (s[0] != 0) as u8 as f32,
        })
    }

    /// All elements converted to `f32`. Intended for tests and the small
    /// training substrate, not for bulk data movement.
    pub fn to_f32_vec(&self) -> Result<Vec<f32>> {
        (0..self.numel()).map(|i| self.get_f32(i)).collect()
    }

    /// Bitwise equality of dtype, shape and storage bytes.
    pub fn bitwise_eq(&self, other: &Tensor) -> bool {
        self.dtype == other.dtype
            && self.shape == other.shape
            && match (&self.storage, &other.storage) {
                (Storage::Materialized(a), Storage::Materialized(b)) => a == b,
                (Storage::Meta, Storage::Meta) => true,
                _ => false,
            }
    }

    /// CRC32 of the storage bytes (0 for meta tensors).
    pub fn crc32(&self) -> u32 {
        match &self.storage {
            Storage::Materialized(b) => crate::checksum::crc32(b),
            Storage::Meta => 0,
        }
    }
}

enum Direction {
    /// Copy the box at `src_off` in src to the box at `dst_off` in dst.
    SrcToDst,
    /// Same, parameters swapped (used by `write_box` to reuse the walker).
    DstToSrc,
}

/// Walk the n-D box row by row, memcpy-ing the innermost contiguous runs.
///
/// `lengths` is the common box size; `src_shape`/`src_off` locate the box in
/// the source, `dst_shape`/`dst_off` in the destination.
#[allow(clippy::too_many_arguments)]
fn copy_box(
    src: &[u8],
    src_shape: &[usize],
    src_off: &[usize],
    dst: &mut [u8],
    dst_shape: &[usize],
    dst_off: &[usize],
    lengths: &[usize],
    elem_size: usize,
    dir: Direction,
) {
    let rank = lengths.len();
    if rank == 0 {
        // Scalars: single element copy.
        dst[..elem_size].copy_from_slice(&src[..elem_size]);
        return;
    }
    let src_strides = contiguous_strides(src_shape);
    let dst_strides = contiguous_strides(dst_shape);
    // Iterate over all outer coordinates (all dims except the last), copying
    // `lengths[rank-1]` contiguous elements at a time.
    let run = lengths[rank - 1] * elem_size;
    let outer: usize = lengths[..rank - 1].iter().product();
    let mut coord = vec![0usize; rank - 1];
    for _ in 0..outer.max(1) {
        let mut s = src_off[rank - 1] * src_strides[rank - 1];
        let mut d = dst_off[rank - 1] * dst_strides[rank - 1];
        for (i, &c) in coord.iter().enumerate() {
            s += (src_off[i] + c) * src_strides[i];
            d += (dst_off[i] + c) * dst_strides[i];
        }
        let (s, d) = (s * elem_size, d * elem_size);
        match dir {
            Direction::SrcToDst | Direction::DstToSrc => {
                dst[d..d + run].copy_from_slice(&src[s..s + run]);
            }
        }
        // Odometer increment over the outer dims.
        for i in (0..rank - 1).rev() {
            coord[i] += 1;
            if coord[i] < lengths[i] {
                break;
            }
            coord[i] = 0;
        }
        if outer == 0 {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn iota(shape: Vec<usize>) -> Tensor {
        let n = numel(&shape);
        Tensor::from_f32(shape, &(0..n).map(|i| i as f32).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn construction_and_accessors() {
        let t = iota(vec![2, 3]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.numel(), 6);
        assert_eq!(t.nbytes(), 24);
        assert_eq!(t.strides(), vec![3, 1]);
        assert_eq!(t.get_f32(4).unwrap(), 4.0);
        assert!(!t.is_meta());
    }

    #[test]
    fn from_bytes_validates_length() {
        let err = Tensor::from_bytes(DType::F32, vec![2, 2], Bytes::from_static(&[0u8; 10]));
        assert!(matches!(err, Err(TensorError::BufferSizeMismatch { expected: 16, got: 10 })));
    }

    #[test]
    fn meta_tensors_reject_data_access() {
        let m = Tensor::meta(DType::BF16, vec![1024, 1024]);
        assert!(m.is_meta());
        assert_eq!(m.nbytes(), 1024 * 1024 * 2);
        assert!(matches!(m.bytes(), Err(TensorError::MetaTensor)));
        // But shape-level ops work.
        let s = m.slice_flat(0, 10).unwrap();
        assert!(s.is_meta());
        assert_eq!(s.shape(), &[10]);
        let b = m.extract_box(&[0, 0], &[2, 2]).unwrap();
        assert!(b.is_meta());
    }

    #[test]
    fn slice_flat_is_zero_copy_and_bounds_checked() {
        let t = iota(vec![10]);
        let s = t.slice_flat(3, 4).unwrap();
        assert_eq!(s.to_f32_vec().unwrap(), vec![3.0, 4.0, 5.0, 6.0]);
        assert!(t.slice_flat(8, 4).is_err());
    }

    #[test]
    fn extract_box_2d() {
        // 3x4 iota; take middle 2x2.
        let t = iota(vec![3, 4]);
        let b = t.extract_box(&[1, 1], &[2, 2]).unwrap();
        assert_eq!(b.to_f32_vec().unwrap(), vec![5.0, 6.0, 9.0, 10.0]);
    }

    #[test]
    fn extract_box_full_is_identity() {
        let t = iota(vec![2, 3, 4]);
        let b = t.extract_box(&[0, 0, 0], &[2, 3, 4]).unwrap();
        assert!(b.bitwise_eq(&t));
    }

    #[test]
    fn write_box_round_trip() {
        let base = Tensor::zeros(DType::F32, vec![4, 4]);
        let patch = iota(vec![2, 3]);
        let out = base.write_box(&[1, 1], &patch).unwrap();
        let back = out.extract_box(&[1, 1], &[2, 3]).unwrap();
        assert!(back.bitwise_eq(&patch));
        // Untouched corner stays zero.
        assert_eq!(out.get_f32(0).unwrap(), 0.0);
    }

    #[test]
    fn write_box_dtype_and_bounds_errors() {
        let base = Tensor::zeros(DType::F32, vec![4, 4]);
        let bad_dtype = Tensor::zeros(DType::F16, vec![2, 2]);
        assert!(matches!(
            base.write_box(&[0, 0], &bad_dtype),
            Err(TensorError::DTypeMismatch { .. })
        ));
        let too_big = Tensor::zeros(DType::F32, vec![5, 1]);
        assert!(matches!(
            base.write_box(&[0, 0], &too_big),
            Err(TensorError::BoxOutOfBounds { .. })
        ));
    }

    #[test]
    fn scalar_tensors_work() {
        let t = Tensor::from_f32(vec![], &[42.0]).unwrap();
        assert_eq!(t.numel(), 1);
        let b = t.extract_box(&[], &[]).unwrap();
        assert_eq!(b.get_f32(0).unwrap(), 42.0);
    }

    #[test]
    fn half_precision_round_trips_through_get_f32() {
        use crate::dtype::f32_to_f16;
        let vals = [1.0f32, -0.5, 100.0];
        let mut bytes = BytesMut::new();
        for v in vals {
            bytes.extend_from_slice(&f32_to_f16(v).to_le_bytes());
        }
        let t = Tensor::from_bytes(DType::F16, vec![3], bytes.freeze()).unwrap();
        assert_eq!(t.to_f32_vec().unwrap(), vals.to_vec());
    }

    proptest! {
        /// extract_box then reassembling via write_box into a zero tensor of the
        /// same shape reproduces exactly the selected region.
        #[test]
        fn box_extract_write_round_trip(
            d0 in 1usize..6, d1 in 1usize..6, d2 in 1usize..6,
            seed in 0u64..1000,
        ) {
            let shape = vec![d0, d1, d2];
            let t = crate::fill::deterministic(DType::F32, shape.clone(), seed);
            // Random-ish sub-box derived from the seed.
            let off = vec![seed as usize % d0, (seed as usize / 3) % d1, (seed as usize / 7) % d2];
            let len = vec![d0 - off[0], d1 - off[1], d2 - off[2]];
            let b = t.extract_box(&off, &len).unwrap();
            let z = Tensor::zeros(DType::F32, shape);
            let w = z.write_box(&off, &b).unwrap();
            let back = w.extract_box(&off, &len).unwrap();
            prop_assert!(back.bitwise_eq(&b));
        }

        /// Splitting a tensor flat into k chunks and re-concatenating the bytes
        /// reproduces the original storage.
        #[test]
        fn flat_chunks_partition_storage(n in 1usize..500, parts in 1usize..8, seed in 0u64..100) {
            let t = crate::fill::deterministic(DType::F32, vec![n], seed);
            let mut cat = BytesMut::new();
            for p in 0..parts {
                let (off, len) = crate::layout::even_split(n, parts, p);
                let s = t.slice_flat(off, len).unwrap();
                cat.extend_from_slice(s.bytes().unwrap());
            }
            prop_assert_eq!(&cat.freeze()[..], &t.bytes().unwrap()[..]);
        }
    }
}
