//! # bcp-topology — parallelism topology substrate
//!
//! Models how training workers (ranks) are organized and how tensors are
//! sharded across them, independent of any particular training framework:
//!
//! * [`Parallelism`] — classic Megatron-style 3D parallelism (TP × DP × PP)
//!   with the conventional rank order (TP fastest-varying, PP slowest).
//! * [`DeviceMesh`] — a generic named-axis mesh (used by the veScale-style
//!   planner, where each tensor carries per-axis placements).
//! * [`ShardSpec`] — how one logical tensor is split: replicated, sharded
//!   along grid dimensions, or a **flat 1-D range of the flattened tensor**
//!   (ZeRO-style), which is what produces the paper's *irregular tensors*.

pub mod mesh;
pub mod parallelism;
pub mod shard;

pub use mesh::DeviceMesh;
pub use parallelism::{Parallelism, RankCoord};
pub use shard::{DimShard, ShardSpec};

/// Errors produced by topology operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// A rank is outside the world size.
    RankOutOfRange { rank: usize, world: usize },
    /// A mesh axis name does not exist.
    UnknownAxis(String),
    /// A shard spec refers to a dimension outside the tensor rank.
    DimOutOfRange { dim: usize, rank: usize },
    /// A shard index is outside the number of shards.
    ShardIndexOutOfRange { index: usize, num_shards: usize },
    /// Degrees must be non-zero.
    ZeroDegree,
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::RankOutOfRange { rank, world } => {
                write!(f, "rank {rank} out of range for world size {world}")
            }
            TopologyError::UnknownAxis(a) => write!(f, "unknown mesh axis {a:?}"),
            TopologyError::DimOutOfRange { dim, rank } => {
                write!(f, "sharding dim {dim} out of range for tensor rank {rank}")
            }
            TopologyError::ShardIndexOutOfRange { index, num_shards } => {
                write!(f, "shard index {index} out of range for {num_shards} shards")
            }
            TopologyError::ZeroDegree => write!(f, "parallelism degrees must be non-zero"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, TopologyError>;
