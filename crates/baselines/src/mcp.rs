//! MCP-like checkpointing (Megatron Distributed Checkpoint, the paper's
//! Megatron-LM baseline).
//!
//! MCP "builds upon the workflow of DCP" for Megatron states: it stores
//! sharded tensors directly (no all-gather pathology), but keeps the
//! first-DP-group deduplication, replans on every save, and loads without
//! redundancy elimination or ranged multi-threaded reads.

use crate::baseline_checkpointer;
use bcp_collectives::Communicator;
use bcp_core::api::{Checkpointer, LoadOutcome, LoadRequest, SaveRequest};
use bcp_core::registry::BackendRegistry;
use bcp_core::workflow::SaveTicket;
use bcp_core::{BcpError, Result};
use bcp_model::Framework;
use bcp_monitor::MetricsSink;
use std::sync::Arc;

/// An MCP-like checkpointer for Megatron-LM jobs: a [`Checkpointer`] running
/// the baseline workflow options.
pub struct McpLike {
    ckpt: Checkpointer,
}

impl McpLike {
    /// Build an MCP-like checkpointer. The framework must be Megatron-LM.
    pub fn new(
        comm: Communicator,
        framework: Framework,
        parallelism: bcp_topology::Parallelism,
        registry: Arc<BackendRegistry>,
        sink: MetricsSink,
    ) -> Result<McpLike> {
        if !matches!(framework, Framework::Megatron { .. }) {
            return Err(BcpError::Plan("MCP baseline supports Megatron-LM only".into()));
        }
        Ok(McpLike { ckpt: baseline_checkpointer(comm, framework, parallelism, registry, sink)? })
    }

    /// Save with MCP semantics (baseline workflow options; no regularization
    /// pass needed — Megatron's sharded representation is stored as-is).
    pub fn save(&self, req: &SaveRequest<'_>) -> Result<SaveTicket> {
        self.ckpt.save(req)
    }

    /// Load with MCP semantics.
    pub fn load(&self, req: &mut LoadRequest<'_>) -> Result<LoadOutcome> {
        self.ckpt.load(req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcp_collectives::{Backend, CommWorld};
    use bcp_model::states::build_train_state;
    use bcp_model::{zoo, TrainerConfig};
    use bcp_storage::uri::Scheme;
    use bcp_storage::{DynBackend, MemoryBackend};
    use bcp_topology::Parallelism;

    #[test]
    fn mcp_round_trip_with_tp_dp() {
        let par = Parallelism::new(2, 2, 1).unwrap();
        let fw = Framework::Megatron { distributed_optimizer: true };
        let mem: DynBackend = Arc::new(MemoryBackend::new());
        let mut reg = BackendRegistry::new();
        reg.register(Scheme::Memory, mem);
        let reg = Arc::new(reg);
        let world = CommWorld::new(4, Backend::Flat);
        let mut handles = Vec::new();
        for rank in 0..4 {
            let world = world.clone();
            let reg = reg.clone();
            handles.push(std::thread::spawn(move || {
                let comm = world.communicator(rank).unwrap();
                let mcp = McpLike::new(comm, fw, par, reg, MetricsSink::disabled()).unwrap();
                let mut state = build_train_state(&zoo::tiny_gpt(), fw, par, rank, true);
                TrainerConfig::default().run(&mut state, 0, 2);
                mcp.save(&SaveRequest::new("mem://x/mcp", &state, 2)).unwrap().wait().unwrap();
                let mut fresh = build_train_state(&zoo::tiny_gpt(), fw, par, rank, true);
                mcp.load(&mut LoadRequest::new("mem://x/mcp", &mut fresh)).unwrap();
                let mut want = build_train_state(&zoo::tiny_gpt(), fw, par, rank, true);
                TrainerConfig::default().run(&mut want, 0, 2);
                for (fqn, w) in want.optimizer.entries.iter() {
                    assert!(
                        fresh.optimizer.get(fqn).unwrap().tensor.bitwise_eq(&w.tensor),
                        "rank {rank} {fqn}"
                    );
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn mcp_rejects_fsdp() {
        let world = CommWorld::new(1, Backend::Flat);
        let comm = world.communicator(0).unwrap();
        let mut reg = BackendRegistry::new();
        reg.register(Scheme::Memory, Arc::new(MemoryBackend::new()) as DynBackend);
        assert!(McpLike::new(
            comm,
            Framework::Fsdp { zero3: false },
            Parallelism::data_parallel(1).unwrap(),
            Arc::new(reg),
            MetricsSink::disabled(),
        )
        .is_err());
    }

    #[test]
    fn baseline_replans_every_save() {
        let par = Parallelism::data_parallel(1).unwrap();
        let fw = Framework::Megatron { distributed_optimizer: false };
        let mem: DynBackend = Arc::new(MemoryBackend::new());
        let mut reg = BackendRegistry::new();
        reg.register(Scheme::Memory, mem);
        let reg = Arc::new(reg);
        let world = CommWorld::new(1, Backend::Flat);
        let comm = world.communicator(0).unwrap();
        let mcp = McpLike::new(comm, fw, par, reg, MetricsSink::disabled()).unwrap();
        let state = build_train_state(&zoo::tiny_gpt(), fw, par, 0, true);
        for step in 0..3 {
            mcp.save(&SaveRequest::new(format!("mem://x/replan/{step}"), &state, step))
                .unwrap()
                .wait()
                .unwrap();
        }
        // plan_cache=false: the cache sees no traffic at all.
        assert_eq!(mcp.ckpt.plan_cache_stats(), (0, 0));
    }
}
