//! # bcp-core — the ByteCheckpoint system (the paper's contribution)
//!
//! A unified checkpointing system for large-foundation-model training:
//! parallelism-agnostic checkpoint representation with automatic load-time
//! resharding, a generic save/load workflow over multiple training
//! frameworks and storage backends, and full-stack I/O optimizations.
//!
//! Module map (paper section → module):
//!
//! | Paper | Module |
//! |---|---|
//! | §3.2 ShardMeta/BasicMeta/ByteMeta, global metadata file | [`metadata`] |
//! | §3.2 irregular tensor decomposition (Fig. 7) | [`decompose`] |
//! | §3.1/§3.3 planners per framework | [`planner`] |
//! | §4.1 balanced dedup, redundant-read elimination, plan cache | [`planner::balance`], [`planner::cache`] |
//! | §4.2 fully asynchronous engine pipelines | [`engine`] |
//! | §3.3 load-time resharding workflow (Fig. 8) | [`workflow`] |
//! | §3.3/Fig. 9 dataloader resharding | [`loader_reshard`] |
//! | Appendix B integrity barrier, retries, failure logging | [`integrity`] |
//! | Appendix B stage-level crash injection for recovery tests | [`fault`] |
//! | tiered recovery: peer-replicated hot-tier checkpoints | [`hottier`] |
//! | §3.1 `bytecheckpoint.save` / `.load` API (Fig. 5) | [`api`] |
//! | §5.3 persisted per-step telemetry artifacts | [`telemetry`] |
//! | Appendix F safetensors export | [`export`] |
//! | §2.1/§5.1 retention & garbage collection | [`manager`] |
//! | Appendix B crash-consistency exploration | [`crashsim`] |
//! | Appendix B offline verification (`bcpctl scrub`) | [`scrub`] |
//!
//! The real execution engine moves real bytes through real storage backends;
//! the same planner outputs also drive `bcp-sim`'s paper-scale virtual-time
//! experiments.

pub mod api;
pub mod chunks;
pub mod crashsim;
pub mod decompose;
pub mod distribution;
pub mod engine;
pub mod export;
pub mod fault;
pub mod format;
pub mod hottier;
pub mod integrity;
pub mod loader_reshard;
pub mod manager;
pub mod metadata;
pub mod plan;
pub mod planner;
pub mod registry;
pub mod scrub;
pub mod spec;
pub mod telemetry;
pub mod workflow;

pub use api::{
    Checkpointer, CheckpointerBuilder, LoadOutcome, LoadRequest, LoaderTarget, SaveRequest,
};
pub use chunks::{ChunkManifest, ChunkRef, ChunkSite, FileChunks, CHUNK_MANIFEST_FILE};
pub use crashsim::{enumerate_crash_states, CrashState};
pub use distribution::{fetch_step_fanout, DistStats, FanoutOptions};
pub use fault::{FaultHook, FaultPlan};
pub use hottier::{HotTierConfig, TierBreakdown};
pub use manager::QuarantinedStep;
pub use metadata::{BasicMeta, ByteMeta, GlobalMetadata, ShardMeta, TensorShardEntry};
pub use plan::{Category, ReadItem, SavePlan, WriteItem};
pub use registry::BackendRegistry;
pub use scrub::{scrub_step, scrub_tree, IssueKind, ScrubIssue, ScrubReport};
pub use spec::{JobQuota, JobSpec, Session};

/// Errors surfaced by the checkpointing system.
#[derive(Debug)]
pub enum BcpError {
    /// Storage backend failure (after retries were exhausted, if any).
    Storage(bcp_storage::StorageError),
    /// Collective communication failure (peer death, timeout).
    Collective(bcp_collectives::CollectiveError),
    /// Tensor-level failure (shape/dtype mismatch during resharding).
    Tensor(bcp_tensor::TensorError),
    /// The checkpoint is malformed or incomplete.
    Corrupt(String),
    /// The requested state cannot be satisfied from the checkpoint (e.g. a
    /// target shard has no overlapping saved data).
    Missing(String),
    /// Planner-level validation failure (framework/parallelism mismatch).
    Plan(String),
    /// An injected crash fired at a pipeline stage (fault-injection tests).
    Crashed {
        /// Rank that "died".
        rank: usize,
        /// Pipeline stage at which the crash fired.
        stage: String,
    },
}

impl std::fmt::Display for BcpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BcpError::Storage(e) => write!(f, "storage: {e}"),
            BcpError::Collective(e) => write!(f, "collective: {e}"),
            BcpError::Tensor(e) => write!(f, "tensor: {e}"),
            BcpError::Corrupt(m) => write!(f, "corrupt checkpoint: {m}"),
            BcpError::Missing(m) => write!(f, "missing data: {m}"),
            BcpError::Plan(m) => write!(f, "planning error: {m}"),
            BcpError::Crashed { rank, stage } => {
                write!(f, "injected crash: rank {rank} died at {stage}")
            }
        }
    }
}

impl std::error::Error for BcpError {}

impl From<bcp_storage::StorageError> for BcpError {
    fn from(e: bcp_storage::StorageError) -> Self {
        BcpError::Storage(e)
    }
}

impl From<bcp_collectives::CollectiveError> for BcpError {
    fn from(e: bcp_collectives::CollectiveError) -> Self {
        BcpError::Collective(e)
    }
}

impl From<bcp_tensor::TensorError> for BcpError {
    fn from(e: bcp_tensor::TensorError) -> Self {
        BcpError::Tensor(e)
    }
}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, BcpError>;
