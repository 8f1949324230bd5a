//! # bcp-tensor — tensor substrate for ByteCheckpoint-rs
//!
//! The checkpointing system (the paper's contribution) manipulates tensors
//! only through their *storage-level* properties: dtype, shape, strides and
//! raw little-endian bytes. This crate provides exactly that substrate:
//!
//! * [`DType`] — numeric element types, including IEEE `f16` and `bf16`
//!   (stored as raw `u16` code units with software conversion, since the
//!   checkpoint path never does arithmetic on them).
//! * [`Tensor`] — a dense, row-major, contiguous n-dimensional tensor backed
//!   by [`bytes::Bytes`], or a **meta tensor** (shape/dtype only, no
//!   storage). Meta tensors let the planner run paper-scale workloads
//!   (hundreds of billions of parameters) without allocating data, mirroring
//!   PyTorch's meta device.
//! * n-D *box* operations — [`Tensor::extract_box`] / [`Tensor::write_box`]
//!   copy hyper-rectangular regions; these are the primitive behind
//!   load-time resharding (intersecting saved shards with target shards).
//! * [`checksum::crc32`] — integrity checksums for storage files.
//! * [`fill`] — deterministic, parallelism-independent pseudo-random data so
//!   that resharding correctness can be verified bitwise.

pub mod checksum;
pub mod dtype;
pub mod fill;
pub mod layout;
pub mod tensor;

pub use dtype::DType;
pub use layout::{contiguous_strides, numel, ravel_index, unravel_index, Axes};
pub use tensor::{Storage, Tensor};

/// Errors produced by tensor operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// An n-D box (offsets + lengths) does not fit inside the tensor shape.
    BoxOutOfBounds { shape: Vec<usize>, offsets: Vec<usize>, lengths: Vec<usize> },
    /// Ranks (number of dimensions) of two arguments disagree.
    RankMismatch { expected: usize, got: usize },
    /// Shapes disagree where they must match exactly.
    ShapeMismatch { expected: Vec<usize>, got: Vec<usize> },
    /// DTypes disagree where they must match exactly.
    DTypeMismatch { expected: DType, got: DType },
    /// A data-accessing operation was attempted on a meta tensor.
    MetaTensor,
    /// A flat range `[start, start+len)` exceeds the number of elements.
    FlatRangeOutOfBounds { numel: usize, start: usize, len: usize },
    /// The raw byte buffer length does not match `numel * dtype.size()`.
    BufferSizeMismatch { expected: usize, got: usize },
}

impl std::fmt::Display for TensorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TensorError::BoxOutOfBounds { shape, offsets, lengths } => write!(
                f,
                "box offsets={offsets:?} lengths={lengths:?} out of bounds for shape {shape:?}"
            ),
            TensorError::RankMismatch { expected, got } => {
                write!(f, "rank mismatch: expected {expected}, got {got}")
            }
            TensorError::ShapeMismatch { expected, got } => {
                write!(f, "shape mismatch: expected {expected:?}, got {got:?}")
            }
            TensorError::DTypeMismatch { expected, got } => {
                write!(f, "dtype mismatch: expected {expected:?}, got {got:?}")
            }
            TensorError::MetaTensor => {
                write!(f, "operation requires materialized data, got meta tensor")
            }
            TensorError::FlatRangeOutOfBounds { numel, start, len } => write!(
                f,
                "flat range [{start}, {}) out of bounds for {numel} elements",
                start + len
            ),
            TensorError::BufferSizeMismatch { expected, got } => {
                write!(f, "buffer size mismatch: expected {expected} bytes, got {got}")
            }
        }
    }
}

impl std::error::Error for TensorError {}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, TensorError>;
