//! The Planner layer: framework adapters over the shared planning core.
//!
//! "We implement a tailored planner for each training framework to extract
//! information from these specifications and generate plans" (§3.1). The
//! heavy lifting — ShardMeta generation, decomposition, dedup/balancing,
//! byte-offset assignment — is framework-agnostic and lives in
//! [`crate::plan`], [`crate::decompose`] and [`balance`]; each framework
//! planner contributes validation of its sharding conventions and naming.

pub mod balance;
pub mod cache;

use crate::plan::{local_save_plan, SavePlan};
use crate::{BcpError, Result};
use bcp_model::{Framework, TrainState};
use bcp_topology::{Parallelism, ShardSpec};

/// A framework adapter: validates that a state dict follows the framework's
/// sharding conventions before planning, and names itself for metadata.
pub trait FrameworkPlanner: Send + Sync {
    /// Framework name recorded in the global metadata file.
    fn name(&self) -> &'static str;

    /// Validate the state dict against the framework's conventions.
    fn validate(&self, state: &TrainState, par: Parallelism, rank: usize) -> Result<()>;

    /// Build the rank's local save plan (shared implementation by default).
    /// Fails on a shard the frame format cannot describe, before anything
    /// is captured or written.
    fn local_save_plan(&self, rank: usize, state: &TrainState) -> Result<SavePlan> {
        let plan = local_save_plan(rank, state, &format!("cuda:{rank}"));
        for item in &plan.items {
            crate::format::check_frame_fields(&item.shard)?;
        }
        Ok(plan)
    }
}

/// Megatron-LM planner: 3D parallelism, grid-sharded weights, optionally
/// FlatOfBox distributed-optimizer states.
pub struct MegatronPlanner;

/// FSDP planner: pure DP, flat-parameter (irregular) sharding.
pub struct FsdpPlanner;

/// DDP planner: fully replicated states.
pub struct DdpPlanner;

/// veScale planner: DTensor grid placements on a (dp, tp) mesh.
pub struct VeScalePlanner;

impl FrameworkPlanner for MegatronPlanner {
    fn name(&self) -> &'static str {
        "megatron"
    }

    fn validate(&self, state: &TrainState, par: Parallelism, rank: usize) -> Result<()> {
        par.coords(rank).map_err(|_| BcpError::Plan(format!("rank {rank} outside {par}")))?;
        for e in state.model.entries.values() {
            if matches!(e.spec, ShardSpec::Flat { .. }) {
                return Err(BcpError::Plan(format!(
                    "{}: Megatron model weights are grid-sharded, found Flat",
                    e.fqn
                )));
            }
        }
        Ok(())
    }
}

impl FrameworkPlanner for FsdpPlanner {
    fn name(&self) -> &'static str {
        "fsdp"
    }

    fn validate(&self, state: &TrainState, par: Parallelism, _rank: usize) -> Result<()> {
        if par.tp != 1 || par.pp != 1 {
            return Err(BcpError::Plan(format!("FSDP requires pure DP, got {par}")));
        }
        // Flat shards (native FSDP) and grid chunks (post-all-gather DCP
        // regularization) are both legitimate; Megatron's flattened-TP-box
        // sharding is not something FSDP can produce.
        for e in state.model.entries.values().chain(state.optimizer.entries.values()) {
            if matches!(e.spec, ShardSpec::FlatOfBox { .. }) {
                return Err(BcpError::Plan(format!(
                    "{}: FSDP cannot hold Megatron distributed-optimizer shards",
                    e.fqn
                )));
            }
        }
        Ok(())
    }
}

impl FrameworkPlanner for DdpPlanner {
    fn name(&self) -> &'static str {
        "ddp"
    }

    fn validate(&self, state: &TrainState, _par: Parallelism, _rank: usize) -> Result<()> {
        for e in state.model.entries.values().chain(state.optimizer.entries.values()) {
            if e.spec != ShardSpec::Replicated {
                return Err(BcpError::Plan(format!("{}: DDP state must be replicated", e.fqn)));
            }
        }
        Ok(())
    }
}

impl FrameworkPlanner for VeScalePlanner {
    fn name(&self) -> &'static str {
        "vescale"
    }

    fn validate(&self, _state: &TrainState, par: Parallelism, _rank: usize) -> Result<()> {
        if par.pp != 1 {
            return Err(BcpError::Plan(format!(
                "veScale substrate models a (dp, tp) mesh; got {par}"
            )));
        }
        Ok(())
    }
}

/// Resolve the planner for a framework (the dispatch the API layer does when
/// users pass a framework name).
pub fn planner_for(framework: Framework) -> Box<dyn FrameworkPlanner> {
    match framework {
        Framework::Megatron { .. } => Box::new(MegatronPlanner),
        Framework::Fsdp { .. } => Box::new(FsdpPlanner),
        Framework::Ddp => Box::new(DdpPlanner),
        Framework::VeScale => Box::new(VeScalePlanner),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcp_model::states::build_train_state;
    use bcp_model::zoo;

    #[test]
    fn planners_accept_their_own_frameworks_states() {
        let arch = zoo::tiny_gpt();
        let cases: Vec<(Framework, Parallelism)> = vec![
            (
                Framework::Megatron { distributed_optimizer: true },
                Parallelism::new(2, 2, 2).unwrap(),
            ),
            (Framework::Fsdp { zero3: true }, Parallelism::data_parallel(4).unwrap()),
            (Framework::Ddp, Parallelism::data_parallel(2).unwrap()),
            (Framework::VeScale, Parallelism::new(2, 2, 1).unwrap()),
        ];
        for (fw, par) in cases {
            let planner = planner_for(fw);
            for rank in 0..par.world_size() {
                let state = build_train_state(&arch, fw, par, rank, false);
                planner.validate(&state, par, rank).unwrap_or_else(|e| {
                    panic!("{} rejected its own state at rank {rank}: {e}", planner.name())
                });
                let plan = planner.local_save_plan(rank, &state).unwrap();
                assert!(!plan.items.is_empty());
            }
        }
    }

    #[test]
    fn planners_reject_foreign_states() {
        let arch = zoo::tiny_gpt();
        // FSDP state under the DDP planner: flat shards are not replicated.
        let par = Parallelism::data_parallel(2).unwrap();
        let fsdp_state = build_train_state(&arch, Framework::Fsdp { zero3: true }, par, 0, false);
        assert!(DdpPlanner.validate(&fsdp_state, par, 0).is_err());
        // FSDP planner rejects 3D parallelism.
        let par3d = Parallelism::new(2, 1, 2).unwrap();
        let megatron_state = build_train_state(
            &arch,
            Framework::Megatron { distributed_optimizer: false },
            par3d,
            0,
            false,
        );
        assert!(FsdpPlanner.validate(&megatron_state, par3d, 0).is_err());
        // veScale planner rejects PP.
        assert!(VeScalePlanner.validate(&megatron_state, par3d, 0).is_err());
    }
}
