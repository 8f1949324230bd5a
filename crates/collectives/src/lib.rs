//! # bcp-collectives — in-process collective communication substrate
//!
//! ByteCheckpoint's workflow depends on collectives in three places: plan
//! gather/scatter at the coordinator (Fig. 8 steps 3–4), all-to-all tensor
//! exchange during redundancy-eliminated loading (§4.1), and the integrity
//! barrier (Appendix B). In production those run over NCCL or gRPC; here a
//! *process group* is a set of OS threads inside one process, and transport
//! is a shared rendezvous table — which preserves exactly the semantics the
//! checkpointing code observes (ordering, grouping, blocking behaviour).
//!
//! Two backends mirror the paper's §5.2 evolution:
//!
//! * [`Backend::Flat`] — every collective rendezvouses all participants
//!   directly at the root, like NCCL's coordinator-centric gather/scatter.
//!   The world tracks one "connection" per (root, peer) pair, modeling
//!   NCCL's lazily-built P2P channels whose setup cost and device-memory
//!   footprint blow up at 10k ranks.
//! * [`Backend::Tree`] — gather/scatter/barrier run hierarchically over a
//!   [`tree::TreeTopology`] built from ranks per host: ranks on one
//!   host form first-level subtrees rooted at local rank 0, then hosts are
//!   grouped iteratively until a single root remains (the coordinator).
//!   Connections are only parent↔child, so the connection count stays
//!   `O(n)` with bounded fan-in.
//!
//! [`CommStats`] exposes connection/op counts so tests (and the simulator's
//! cost model) can verify the structural difference.

pub mod comm;
pub mod rendezvous;
pub mod stats;
pub mod tree;

pub use comm::{Backend, CommWorld, Communicator, ReduceOp};
pub use stats::CommStats;
pub use tree::TreeTopology;

use std::time::Duration;

/// Default timeout for any single collective operation. Generous enough for
/// slow CI machines, small enough that failure-injection tests finish fast.
pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(30);

/// Errors produced by collective operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CollectiveError {
    /// Not all participants arrived within the timeout (peer died or hung).
    Timeout { op: &'static str, arrived: usize, expected: usize },
    /// The calling rank is not a member of the group.
    NotAMember { rank: usize },
    /// Input had the wrong shape (e.g. scatter vector length != group size).
    BadInput(String),
    /// A peer was explicitly marked failed (failure injection).
    PeerFailed { rank: usize },
}

impl std::fmt::Display for CollectiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CollectiveError::Timeout { op, arrived, expected } => {
                write!(f, "collective {op} timed out: {arrived}/{expected} participants arrived")
            }
            CollectiveError::NotAMember { rank } => write!(f, "rank {rank} is not a group member"),
            CollectiveError::BadInput(msg) => write!(f, "bad collective input: {msg}"),
            CollectiveError::PeerFailed { rank } => write!(f, "peer rank {rank} failed"),
        }
    }
}

impl std::error::Error for CollectiveError {}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, CollectiveError>;
