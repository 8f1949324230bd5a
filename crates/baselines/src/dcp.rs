//! DCP-like checkpointing (PyTorch Distributed Checkpoint, the paper's FSDP
//! baseline).
//!
//! The defining behaviour (§3.2): "to eliminate potential irregular tensors
//! in DCP, FSDP performs synchronous all-gather communication operations,
//! interleaved with D2H copy operations for each tensor shard, regardless of
//! whether the shard is irregularly sharded. However, this approach incurs
//! significant communication overhead and requires frequent synchronization
//! between GPU and CPU." After regularization each rank re-slices an even
//! dim-0 chunk of every tensor and saves that; deduplication pins replicated
//! tensors to the first DP group; planning reruns on every save; loads read
//! without redundancy elimination or ranged multi-threading.

use crate::baseline_checkpointer;
use bcp_collectives::Communicator;
use bcp_core::api::{Checkpointer, LoadOutcome, LoadRequest, SaveRequest};
use bcp_core::registry::BackendRegistry;
use bcp_core::workflow::SaveTicket;
use bcp_core::{BcpError, Result};
use bcp_model::states::{StateDict, StateEntry};
use bcp_model::{Framework, TrainState};
use bcp_monitor::MetricsSink;
use bcp_tensor::Tensor;
use bcp_topology::ShardSpec;
use bytes::{Bytes, BytesMut};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Statistics of the irregular-tensor regularization pass — the cost
/// ByteCheckpoint's decomposition avoids entirely (Table 7).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllGatherStats {
    /// All-gather collectives issued (one per tensor).
    pub allgathers: usize,
    /// Bytes moved over the interconnect.
    pub comm_bytes: u64,
    /// Device-to-host copies performed (interleaved, synchronous).
    pub d2h_copies: usize,
}

/// Regularize a state dict: all-gather every flat-sharded tensor across the
/// group, reconstruct the full tensor, then keep an even dim-0 chunk
/// (regular) for this rank. Returns the regularized dict plus stats.
pub fn allgather_materialize(
    comm: &Communicator,
    dict: &StateDict,
) -> Result<(StateDict, AllGatherStats)> {
    let mut out = StateDict::default();
    let mut stats = AllGatherStats::default();
    let dp = comm.size();
    let my_idx = comm.index();

    // Flat sharding cuts tensors at arbitrary boundaries, so a rank may hold
    // no piece of some tensors at all — yet every rank must join every
    // all-gather. First agree on the union of flat-sharded tensors (FSDP
    // knows this statically from its FlatParameter layout).
    let mut flat_fqns: Vec<(String, Vec<usize>, bcp_tensor::DType)> = Vec::new();
    for e in dict.entries.values() {
        if matches!(e.spec, ShardSpec::Flat { .. }) {
            flat_fqns.push((e.fqn.clone(), e.global_shape.clone(), e.dtype));
        }
        if matches!(e.spec, ShardSpec::FlatOfBox { .. }) {
            return Err(BcpError::Plan(format!(
                "{}: DCP does not support Megatron distributed-optimizer sharding",
                e.fqn
            )));
        }
    }
    let all_lists = comm.all_gather(flat_fqns).map_err(BcpError::Collective)?;
    let mut union: std::collections::BTreeMap<String, (Vec<usize>, bcp_tensor::DType)> =
        Default::default();
    for list in all_lists {
        for (fqn, shape, dtype) in list {
            union.insert(fqn, (shape, dtype));
        }
    }

    // Pass through regular entries untouched.
    for e in dict.entries.values() {
        if !matches!(e.spec, ShardSpec::Flat { .. }) {
            out.insert(e.clone());
        }
    }

    // One synchronous all-gather per flat tensor, interleaved with a D2H
    // copy of the local shard — the Table 7 pathology.
    for (fqn, (global_shape, dtype)) in union {
        let local_piece: (usize, usize, Bytes) = match dict.get(&fqn) {
            Some(entry) => {
                let (offset, length) = entry.spec.flat_range().expect("union holds flat specs");
                let local = entry.tensor.bytes().map_err(BcpError::Tensor)?;
                let mut host = BytesMut::with_capacity(local.len());
                host.extend_from_slice(local); // the D2H copy
                stats.d2h_copies += 1;
                (offset, length, host.freeze())
            }
            None => (0, 0, Bytes::new()),
        };
        let pieces: Vec<(usize, usize, Bytes)> =
            comm.all_gather(local_piece).map_err(BcpError::Collective)?;
        stats.allgathers += 1;
        stats.comm_bytes += pieces.iter().map(|(_, _, b)| b.len() as u64).sum::<u64>();
        // Reassemble the full flat tensor.
        let total: usize = global_shape.iter().product();
        let es = dtype.size();
        let mut full = BytesMut::zeroed(total * es);
        for (off, len, bytes) in &pieces {
            full[off * es..(off + len) * es].copy_from_slice(bytes);
        }
        let full = Tensor::from_bytes(dtype, global_shape.clone(), full.freeze())
            .map_err(BcpError::Tensor)?;
        // Re-slice a REGULAR chunk: even split along dim 0.
        let dim0 = global_shape.first().copied().unwrap_or(1);
        let (spec, tensor) = if dim0 >= dp && !global_shape.is_empty() {
            let spec = ShardSpec::dim(0, dp, my_idx);
            let (o, l) = spec.grid_box(&global_shape).expect("valid");
            (spec, full.extract_box(&o, &l).map_err(BcpError::Tensor)?)
        } else {
            (ShardSpec::Replicated, full)
        };
        out.insert(StateEntry { fqn, global_shape, dtype, spec, tensor });
    }
    Ok((out, stats))
}

/// Result of a DCP-like save: the ticket plus the regularization cost that
/// inflated the blocking time.
pub struct DcpSaveOutcome {
    /// The save ticket (blocking already includes the all-gather phase).
    pub ticket: SaveTicket,
    /// All-gather pass statistics.
    pub allgather: AllGatherStats,
    /// Wall-clock of the synchronous regularization phase.
    pub regularize_time: Duration,
}

/// A DCP-like checkpointer for FSDP jobs: a [`Checkpointer`] running the
/// baseline workflow options behind the all-gather pre-pass.
pub struct DcpLike {
    comm: Communicator,
    ckpt: Checkpointer,
}

impl DcpLike {
    /// Build a DCP-like checkpointer. The framework must be FSDP.
    pub fn new(
        comm: Communicator,
        framework: Framework,
        parallelism: bcp_topology::Parallelism,
        registry: Arc<BackendRegistry>,
        sink: MetricsSink,
    ) -> Result<DcpLike> {
        if !matches!(framework, Framework::Fsdp { .. }) {
            return Err(BcpError::Plan("DCP baseline supports FSDP only".into()));
        }
        let ckpt = baseline_checkpointer(comm.clone(), framework, parallelism, registry, sink)?;
        Ok(DcpLike { comm, ckpt })
    }

    /// Save with DCP semantics: synchronous all-gather regularization, then
    /// the baseline workflow.
    pub fn save(&self, req: &SaveRequest<'_>) -> Result<DcpSaveOutcome> {
        let t0 = Instant::now();
        let (model, s1) = allgather_materialize(&self.comm, &req.state.model)?;
        let (optimizer, s2) = allgather_materialize(&self.comm, &req.state.optimizer)?;
        let regularize_time = t0.elapsed();
        let allgather = AllGatherStats {
            allgathers: s1.allgathers + s2.allgathers,
            comm_bytes: s1.comm_bytes + s2.comm_bytes,
            d2h_copies: s1.d2h_copies + s2.d2h_copies,
        };
        let regular = TrainState { model, optimizer };
        let ticket = self.ckpt.save(&SaveRequest {
            location: req.location.clone(),
            state: &regular,
            loader: req.loader,
            extra: req.extra,
            step: req.step,
        })?;
        Ok(DcpSaveOutcome { ticket, allgather, regularize_time })
    }

    /// Load with DCP semantics (no read dedup, single-threaded fetches).
    /// Resharding across saved/target parallelism still works: the saved
    /// format is box-addressed like ByteCheckpoint's.
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

    fn registry() -> Arc<BackendRegistry> {
        let mem: DynBackend = Arc::new(MemoryBackend::new());
        let mut reg = BackendRegistry::new();
        reg.register(Scheme::Memory, mem);
        Arc::new(reg)
    }

    #[test]
    fn allgather_regularizes_flat_shards_bitwise() {
        let arch = zoo::tiny_gpt();
        let par = Parallelism::data_parallel(3).unwrap();
        let fw = Framework::Fsdp { zero3: true };
        let world = CommWorld::new(3, Backend::Flat);
        let mut handles = Vec::new();
        for rank in 0..3 {
            let world = world.clone();
            handles.push(std::thread::spawn(move || {
                let comm = world.communicator(rank).unwrap();
                let state = build_train_state(&zoo::tiny_gpt(), fw, par, rank, true);
                allgather_materialize(&comm, &state.model).unwrap()
            }));
        }
        let results: Vec<(StateDict, AllGatherStats)> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        // Reference: the full model.
        let full = build_train_state(
            &arch,
            Framework::Ddp,
            Parallelism::data_parallel(1).unwrap(),
            0,
            true,
        );
        for (rank, (dict, stats)) in results.iter().enumerate() {
            assert!(stats.allgathers > 0 && stats.comm_bytes > 0 && stats.d2h_copies > 0);
            for e in dict.entries.values() {
                assert!(!e.spec.is_irregular(&e.global_shape), "{} still irregular", e.fqn);
                let reference = full.model.get(&e.fqn).unwrap();
                match &e.spec {
                    ShardSpec::Replicated => assert!(e.tensor.bitwise_eq(&reference.tensor)),
                    spec => {
                        let (o, l) = spec.grid_box(&e.global_shape).unwrap();
                        let want = reference.tensor.extract_box(&o, &l).unwrap();
                        assert!(e.tensor.bitwise_eq(&want), "rank {rank} {}", e.fqn);
                    }
                }
            }
        }
    }

    #[test]
    fn dcp_round_trip_is_correct_but_communicates() {
        // DCP stays correct — the paper's point is cost, not correctness.
        let par = Parallelism::data_parallel(2).unwrap();
        let fw = Framework::Fsdp { zero3: true };
        let reg = registry();
        let world = CommWorld::new(2, Backend::Flat);
        let mut handles = Vec::new();
        for rank in 0..2 {
            let world = world.clone();
            let reg = reg.clone();
            handles.push(std::thread::spawn(move || {
                let comm = world.communicator(rank).unwrap();
                let dcp = DcpLike::new(comm, fw, par, reg, MetricsSink::disabled()).unwrap();
                let mut state = build_train_state(&zoo::tiny_gpt(), fw, par, rank, true);
                TrainerConfig::default().run(&mut state, 0, 2);
                let out = dcp.save(&SaveRequest::new("mem://x/dcp", &state, 2)).unwrap();
                assert!(out.allgather.comm_bytes > 0, "DCP must pay communication");
                out.ticket.wait().unwrap();
                // Load back into the original (flat) sharding.
                let mut fresh = build_train_state(&zoo::tiny_gpt(), fw, par, rank, true);
                dcp.load(&mut LoadRequest::new("mem://x/dcp", &mut fresh)).unwrap();
                let mut want = build_train_state(&zoo::tiny_gpt(), fw, par, rank, true);
                TrainerConfig::default().run(&mut want, 0, 2);
                for (fqn, w) in &want.model.entries {
                    assert!(
                        fresh.model.get(fqn).unwrap().tensor.bitwise_eq(&w.tensor),
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
    fn dcp_rejects_megatron() {
        let world = CommWorld::new(1, Backend::Flat);
        let comm = world.communicator(0).unwrap();
        let err = DcpLike::new(
            comm,
            Framework::Megatron { distributed_optimizer: true },
            Parallelism::data_parallel(1).unwrap(),
            registry(),
            MetricsSink::disabled(),
        );
        assert!(err.is_err());
    }
}
