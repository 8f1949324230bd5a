//! # bcp-baselines — the systems ByteCheckpoint is compared against
//!
//! Faithful-behaviour reimplementations of the paper's baselines, built on
//! the same substrates so the comparison isolates the *design* differences:
//!
//! * [`dcp`] — PyTorch DCP-like checkpointing for FSDP: synchronous
//!   all-gather + interleaved D2H to regularize irregular tensors before
//!   saving (§3.2: the approach ByteCheckpoint's decomposition replaces),
//!   first-DP-group deduplication, no plan cache, no redundant-read
//!   elimination, single-threaded file I/O.
//! * [`mcp`] — Megatron Distributed Checkpoint-like: saves sharded states
//!   without the all-gather pathology but keeps the unbalanced dedup,
//!   per-save replanning, and unoptimized load path.
//! * [`offline`] — the offline resharding *job* (Table 1 / Appendix A):
//!   download every file, reshard in one process, upload a new checkpoint —
//!   what production ran before load-time resharding existed.

pub mod dcp;
pub mod mcp;
pub mod offline;

pub use dcp::DcpLike;
pub use mcp::McpLike;
pub use offline::run_offline_reshard_job;

use bcp_collectives::Communicator;
use bcp_core::api::Checkpointer;
use bcp_core::engine::load::LoadConfig;
use bcp_core::engine::save::SaveConfig;
use bcp_core::fault::FaultPlan;
use bcp_core::integrity::RetryPolicy;
use bcp_core::planner::balance::DedupStrategy;
use bcp_core::registry::BackendRegistry;
use bcp_core::workflow::WorkflowOptions;
use bcp_model::Framework;
use bcp_monitor::MetricsSink;
use bcp_topology::Parallelism;
use std::sync::Arc;

/// Workflow options shared by both baselines: everything ByteCheckpoint
/// optimizes is turned off (asynchronous *upload* stays on — "both baselines
/// support asynchronous checkpointing").
pub fn baseline_workflow_options() -> WorkflowOptions {
    WorkflowOptions {
        dedup: DedupStrategy::FirstReplica,
        save: SaveConfig {
            io_threads: 1,
            split_threshold: u64::MAX, // no split-file upload
            split_parts: 1,
            async_upload: true,
            retries: RetryPolicy::default(),
            ..SaveConfig::default()
        },
        load: LoadConfig {
            io_threads: 1,
            chunk_bytes: u64::MAX, // no multi-threaded ranged reads
            retries: RetryPolicy::default(),
        },
        plan_cache: false,  // replan on every save
        dedup_reads: false, // every DP replica reads everything
        faults: FaultPlan::new(),
        verified_fallback: false, // baselines load whatever is newest
        hot: bcp_core::HotTierConfig::default(), // no hot tier in baselines
    }
}

/// The [`Checkpointer`] both baselines run on: the baseline options, and no
/// telemetry artifacts (the baselines persist none).
fn baseline_checkpointer(
    comm: Communicator,
    framework: Framework,
    parallelism: Parallelism,
    registry: Arc<BackendRegistry>,
    sink: MetricsSink,
) -> bcp_core::Result<Checkpointer> {
    Checkpointer::builder(comm)
        .framework(framework)
        .parallelism(parallelism)
        .registry(registry)
        .workflow(baseline_workflow_options())
        .sink(sink)
        .telemetry(false)
        .build()
}
