//! # bytecheckpoint — a unified checkpointing system for LFM development
//!
//! A from-scratch Rust reproduction of **"ByteCheckpoint: A Unified
//! Checkpointing System for Large Foundation Model Development"**
//! (NSDI 2025): parallelism-agnostic checkpoint representation with
//! automatic load-time resharding, a generic save/load workflow over
//! multiple training frameworks and storage backends, full-stack I/O
//! optimizations, and a recovery subsystem (backoff retries, crash-stage
//! fault injection, verified auto-resume).
//!
//! ## Quickstart
//!
//! ```
//! use bytecheckpoint::prelude::*;
//! use std::sync::Arc;
//!
//! // One in-process "training worker" (see examples/ for multi-rank jobs).
//! let world = CommWorld::new(1, Backend::Flat);
//! let registry = Arc::new(BackendRegistry::all_memory());
//! let par = Parallelism::data_parallel(1).unwrap();
//! let ckpt = Checkpointer::builder(world.communicator(0).unwrap())
//!     .framework(Framework::Ddp)
//!     .parallelism(par)
//!     .registry(registry)
//!     .build()
//!     .unwrap();
//!
//! // Some training state...
//! let state = build_train_state(&zoo::tiny_gpt(), Framework::Ddp, par, 0, true);
//!
//! // bytecheckpoint.save(...)
//! let ticket = ckpt.save(&SaveRequest::new("mem://demo/ckpt/step_1", &state, 1)).unwrap();
//! println!("stall: {:?}", ticket.blocking);
//! ticket.wait().unwrap();
//!
//! // bytecheckpoint.load(...) — into any parallelism; resharding is
//! // automatic when it differs.
//! let mut target = build_train_state(&zoo::tiny_gpt(), Framework::Ddp, par, 0, true);
//! ckpt.load(&mut LoadRequest::new("mem://demo/ckpt/step_1", &mut target)).unwrap();
//!
//! // After a crash: GC torn steps under the root and resume from the
//! // newest committed checkpoint.
//! let resumed = ckpt.load_latest("mem://demo/ckpt", &mut target, None).unwrap();
//! assert_eq!(resumed.unwrap().resumed_step(), 1);
//! ```
//!
//! ## Crate map
//!
//! | Crate | Contents |
//! |---|---|
//! | [`core`] | the checkpointing system: metadata, planners, engine, workflow, API |
//! | [`tensor`] | dtypes, n-D tensors, meta tensors, checksums |
//! | [`topology`] | 3D parallelism, device meshes, shard specs |
//! | [`collectives`] | in-process process groups, flat/tree backends |
//! | [`storage`] | memory / disk / simulated-HDFS / NAS backends |
//! | [`model`] | transformer state generators, deterministic trainer |
//! | [`dataloader`] | token-buffer dataloader with exact resume |
//! | [`baselines`] | DCP-like, MCP-like, offline reshard jobs |
//! | [`monitor`] | spans, metrics, telemetry artifacts, heat maps, analysis |
//! | [`sim`] | paper-scale virtual-time experiments |
//! | [`coordinator`] | multi-job control plane: admission, registry, fair-share bandwidth |

pub use bcp_baselines as baselines;
pub use bcp_collectives as collectives;
pub use bcp_coordinator as coordinator;
pub use bcp_core as core;
pub use bcp_dataloader as dataloader;
pub use bcp_model as model;
pub use bcp_monitor as monitor;
pub use bcp_sim as sim;
pub use bcp_storage as storage;
pub use bcp_tensor as tensor;
pub use bcp_topology as topology;

/// The commonly used surface, one `use` away.
pub mod prelude {
    pub use bcp_collectives::{Backend, CommWorld, Communicator};
    pub use bcp_core::api::{
        Checkpointer, CheckpointerBuilder, LoadOutcome, LoadRequest, LoaderTarget, SaveRequest,
    };
    pub use bcp_core::crashsim::{enumerate_crash_states, CrashState};
    pub use bcp_core::fault::FaultPlan;
    pub use bcp_core::integrity::RetryPolicy;
    pub use bcp_core::manager::{CheckpointManager, QuarantinedStep};
    pub use bcp_core::registry::BackendRegistry;
    pub use bcp_core::scrub::{scrub_step, scrub_tree, ScrubReport};
    pub use bcp_core::spec::{JobQuota, JobSpec, Session};
    pub use bcp_core::telemetry::read_step_telemetry;
    pub use bcp_core::workflow::WorkflowOptions;
    pub use bcp_core::HotTierConfig;
    pub use bcp_dataloader::{DataSource, Dataloader, LoaderReplicatedState, LoaderShardState};
    pub use bcp_model::states::build_train_state;
    pub use bcp_model::{zoo, ExtraState, Framework, TrainState, TrainerConfig};
    pub use bcp_monitor::{
        MetricsHub, MetricsSink, StepTelemetry, TELEMETRY_LOAD_FILE, TELEMETRY_SAVE_FILE,
    };
    pub use bcp_storage::uri::Scheme;
    pub use bcp_storage::{
        CheckpointLocation, DiskBackend, DynBackend, FaultLayer, HdfsBackend, InstrumentedBackend,
        JournalBackend, MemoryBackend, StorageUri,
    };
    pub use bcp_tensor::{DType, Tensor};
    pub use bcp_topology::{Parallelism, ShardSpec};
}
