//! Offline checkpoint resharding jobs (Table 1, Appendix A).
//!
//! Before load-time resharding, production submitted *independent jobs* that
//! "download checkpoints from the storage systems, reshard distributed
//! checkpoints to given parallelism configurations and upload new
//! checkpoints back to the storage systems" — blocking the target training
//! or evaluation job until done, and leaving behind parallelism-coupled
//! copies that cannot be reused.

use bcp_core::engine::iopool::IoPool;
use bcp_core::engine::pool::PinnedPool;
use bcp_core::engine::save::{execute_save, SaveConfig};
use bcp_core::export::consolidate_tensor;
use bcp_core::integrity::{commit_checkpoint, FailureLog};
use bcp_core::metadata::{GlobalMetadata, METADATA_FILE};
use bcp_core::plan::{build_tensor_map, local_save_plan};
use bcp_core::{BcpError, Result};
use bcp_model::states::{build_train_state, Framework, TrainState};
use bcp_model::TransformerConfig;
use bcp_monitor::{MetricsSink, SpanContext};
use bcp_storage::DynBackend;
use bcp_tensor::Tensor;
use bcp_topology::{Parallelism, ShardSpec};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Timing/volume report of one offline resharding job.
#[derive(Debug, Clone)]
pub struct OfflineJobReport {
    /// Bytes downloaded from storage (the whole source checkpoint).
    pub downloaded: u64,
    /// Bytes uploaded back (the whole target checkpoint).
    pub uploaded: u64,
    /// Wall-clock of the download + reshard phase.
    pub reshard_time: Duration,
    /// Wall-clock of the upload phase.
    pub upload_time: Duration,
    /// Number of target ranks produced.
    pub target_ranks: usize,
}

/// Run an offline resharding job in this process: read the checkpoint at
/// `src_prefix`, reshape it to `(target_fw, target_par)`, and write a new
/// checkpoint at `dst_prefix`.
pub fn run_offline_reshard_job(
    backend: &DynBackend,
    src_prefix: &str,
    dst_prefix: &str,
    arch: &TransformerConfig,
    target_fw: Framework,
    target_par: Parallelism,
) -> Result<OfflineJobReport> {
    let t0 = Instant::now();
    let meta_bytes = backend.read(&format!("{src_prefix}/{METADATA_FILE}"))?;
    let meta = GlobalMetadata::from_bytes(&meta_bytes).map_err(BcpError::Corrupt)?;
    let downloaded = meta.total_tensor_bytes() + meta_bytes.len() as u64;

    // Download + consolidate every tensor once (the job holds everything in
    // one process — the reason these jobs need big machines).
    let mut full: HashMap<String, Tensor> = HashMap::new();
    for fqn in meta.tensor_map.keys() {
        full.insert(fqn.clone(), consolidate_tensor(backend, src_prefix, &meta, fqn)?);
    }

    // Build every target rank's state from the consolidated tensors.
    let world = target_par.world_size();
    let mut states: Vec<TrainState> = Vec::with_capacity(world);
    for rank in 0..world {
        let mut state = build_train_state(arch, target_fw, target_par, rank, true);
        for dict in [&mut state.model, &mut state.optimizer] {
            for entry in dict.entries.values_mut() {
                let source = full.get(&entry.fqn).ok_or_else(|| {
                    BcpError::Missing(format!("{} absent from source checkpoint", entry.fqn))
                })?;
                entry.tensor = slice_for_spec(source, &entry.spec, &entry.global_shape)?;
            }
        }
        states.push(state);
    }
    let reshard_time = t0.elapsed();

    // Upload the new, parallelism-coupled checkpoint.
    let t1 = Instant::now();
    let pool = PinnedPool::new(2);
    let io = IoPool::new(1);
    let sink = MetricsSink::disabled();
    let log = Arc::new(FailureLog::new());
    let cfg = SaveConfig { async_upload: false, ..Default::default() };
    let mut plans = Vec::with_capacity(world);
    let mut uploaded = 0u64;
    for (rank, state) in states.iter().enumerate() {
        let plan = local_save_plan(rank, state, "offline-job");
        uploaded += plan.total_bytes();
        let faults = bcp_core::fault::FaultHook::inert(rank);
        execute_save(
            &plan,
            state,
            backend.clone(),
            dst_prefix,
            &pool,
            &io,
            &sink,
            log.clone(),
            &cfg,
            meta.step,
            &faults,
            SpanContext::none(),
        )?
        .wait()?;
        plans.push(plan);
    }
    let mut new_meta =
        GlobalMetadata::new(target_fw.name(), meta.step, &target_par.describe(), world);
    new_meta.tensor_map = build_tensor_map(&plans);
    backend
        .write(&format!("{dst_prefix}/{METADATA_FILE}"), bytes::Bytes::from(new_meta.to_bytes()))?;
    commit_checkpoint(backend, dst_prefix)?;
    let upload_time = t1.elapsed();
    Ok(OfflineJobReport { downloaded, uploaded, reshard_time, upload_time, target_ranks: world })
}

/// Slice a full tensor down to a local shard per spec.
fn slice_for_spec(full: &Tensor, spec: &ShardSpec, global_shape: &[usize]) -> Result<Tensor> {
    match spec {
        ShardSpec::Flat { offset, length } => {
            Ok(full.flatten().slice_flat(*offset, *length).map_err(BcpError::Tensor)?)
        }
        ShardSpec::FlatOfBox { box_offsets, box_lengths, offset, length } => {
            let sub = full.extract_box(box_offsets, box_lengths).map_err(BcpError::Tensor)?;
            Ok(sub.flatten().slice_flat(*offset, *length).map_err(BcpError::Tensor)?)
        }
        _ => {
            let (o, l) = spec.grid_box(global_shape).map_err(|e| BcpError::Plan(e.to_string()))?;
            Ok(full.extract_box(&o, &l).map_err(BcpError::Tensor)?)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcp_core::plan::local_save_plan as lsp;
    use bcp_model::{zoo, TrainerConfig};
    use bcp_storage::MemoryBackend;

    /// Save a source checkpoint directly (single process, all ranks).
    fn save_source(
        backend: &DynBackend,
        prefix: &str,
        arch: &TransformerConfig,
        fw: Framework,
        par: Parallelism,
        steps: u64,
    ) {
        let pool = PinnedPool::new(2);
        let io = IoPool::new(1);
        let sink = MetricsSink::disabled();
        let log = Arc::new(FailureLog::new());
        let cfg = SaveConfig { async_upload: false, ..Default::default() };
        let mut plans = Vec::new();
        for rank in 0..par.world_size() {
            let mut state = build_train_state(arch, fw, par, rank, true);
            TrainerConfig::default().run(&mut state, 0, steps);
            let plan = lsp(rank, &state, "cpu");
            let faults = bcp_core::fault::FaultHook::inert(rank);
            execute_save(
                &plan,
                &state,
                backend.clone(),
                prefix,
                &pool,
                &io,
                &sink,
                log.clone(),
                &cfg,
                steps,
                &faults,
                SpanContext::none(),
            )
            .unwrap()
            .wait()
            .unwrap();
            plans.push(plan);
        }
        let mut meta = GlobalMetadata::new(fw.name(), steps, &par.describe(), par.world_size());
        meta.tensor_map = build_tensor_map(&plans);
        backend
            .write(&format!("{prefix}/{METADATA_FILE}"), bytes::Bytes::from(meta.to_bytes()))
            .unwrap();
        commit_checkpoint(backend, prefix).unwrap();
    }

    #[test]
    fn offline_job_produces_bitwise_correct_target_checkpoint() {
        let backend: DynBackend = Arc::new(MemoryBackend::new());
        let arch = zoo::tiny_gpt();
        let src_fw = Framework::Megatron { distributed_optimizer: false };
        let src_par = Parallelism::new(2, 1, 2).unwrap();
        save_source(&backend, "src", &arch, src_fw, src_par, 2);

        let dst_fw = Framework::Fsdp { zero3: true };
        let dst_par = Parallelism::data_parallel(2).unwrap();
        let report =
            run_offline_reshard_job(&backend, "src", "dst", &arch, dst_fw, dst_par).unwrap();
        assert_eq!(report.target_ranks, 2);
        assert!(report.downloaded > 0 && report.uploaded > 0);

        // The new checkpoint's tensors match the reference evolution.
        let meta_bytes = backend.read(&format!("dst/{METADATA_FILE}")).unwrap();
        let meta = GlobalMetadata::from_bytes(&meta_bytes).unwrap();
        meta.validate().unwrap();
        let reference = {
            let mut s = build_train_state(
                &arch,
                Framework::Ddp,
                Parallelism::data_parallel(1).unwrap(),
                0,
                true,
            );
            TrainerConfig::default().run(&mut s, 0, 2);
            s
        };
        for fqn in ["layers.0.attn.qkv.weight", "embedding.word.weight"] {
            let got = consolidate_tensor(&backend, "dst", &meta, fqn).unwrap();
            let want = &reference.model.get(fqn).unwrap().tensor;
            assert!(got.bitwise_eq(want), "{fqn}");
        }
        // And the duplication cost the paper criticizes: the storage now
        // holds two copies of the logical state.
        let src_meta =
            GlobalMetadata::from_bytes(&backend.read(&format!("src/{METADATA_FILE}")).unwrap())
                .unwrap();
        assert!(meta.total_tensor_bytes() > 0);
        assert!(src_meta.total_tensor_bytes() > 0);
    }
}
