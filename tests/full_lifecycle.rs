//! The full LFM development pipeline of paper Fig. 1 / Fig. 2, end to end:
//! pre-training (Megatron 3D) → elastic resumption (quota change) →
//! cross-stage SFT (FSDP, fewer GPUs) → evaluation (single worker) →
//! safetensors export — one checkpoint lineage, every hop resharded at load
//! time and verified bitwise, with dataloader and extra states carried
//! through the training hops.

mod common;

use bytecheckpoint::core::export::{export_safetensors, parse_safetensors};
use bytecheckpoint::prelude::*;
use common::{assert_states_eq, reference_state, run_ranks};
use std::sync::Arc;

fn loader_replicated(dp: usize) -> LoaderReplicatedState {
    LoaderReplicatedState {
        workers_per_rank: 2,
        dp_size: dp,
        sources: vec![
            DataSource { name: "web".into(), ratio: 0.5, seed: 1 },
            DataSource { name: "code".into(), ratio: 0.3, seed: 2 },
            DataSource { name: "math".into(), ratio: 0.2, seed: 3 },
        ],
        context_window: 8192,
    }
}

#[test]
fn pretrain_resume_sft_eval_export() {
    let arch = zoo::tiny_gpt_8l();
    let registry = Arc::new(BackendRegistry::all_memory());

    // ---- Stage 1: pre-training, Megatron TP=2 DP=2 PP=2 (8 workers). ----
    let fw1 = Framework::Megatron { distributed_optimizer: true };
    let par1 = Parallelism::new(2, 2, 2).unwrap();
    let s1_steps = 10u64;
    let arch_c = arch.clone();
    run_ranks(par1, fw1, registry.clone(), move |rank, ckpt| {
        let state = reference_state(&arch_c, fw1, par1, rank, s1_steps);
        let loader = if par1.holds_dataloader_state(rank) {
            let coords = par1.coords(rank).unwrap();
            let rep = loader_replicated(par1.dp);
            let mut dl = Dataloader::new(rep.clone(), coords.dp);
            for _ in 0..6 {
                dl.next_batch();
            }
            Some((rep, dl.shard_state()))
        } else {
            None
        };
        let mut extra = ExtraState::new(42);
        extra.step = s1_steps;
        let mut req = SaveRequest::new("hdfs://prod/lineage/pretrain_10", &state, s1_steps)
            .with_extra(&extra);
        if let Some((r, s)) = loader.as_ref() {
            req = req.with_loader(r, s);
        }
        ckpt.save(&req).unwrap().wait().unwrap();
    });

    // ---- Stage 2: quota change — resume on 6 workers, TP=1 DP=3 PP=2. ----
    let par2 = Parallelism::new(1, 3, 2).unwrap();
    let s2_steps = 16u64;
    let arch_c = arch.clone();
    run_ranks(par2, fw1, registry.clone(), move |rank, ckpt| {
        let mut state = build_train_state(&arch_c, fw1, par2, rank, true);
        let coords = par2.coords(rank).unwrap();
        let loader_target = par2.holds_dataloader_state(rank).then_some(LoaderTarget {
            dp_size: par2.dp,
            workers_per_rank: 2,
            my_dp_rank: coords.dp,
        });
        let out = ckpt
            .load(&mut LoadRequest {
                location: "hdfs://prod/lineage/pretrain_10".into(),
                state: &mut state,
                loader_target,
            })
            .unwrap();
        assert_states_eq(&state, &reference_state(&arch_c, fw1, par2, rank, s1_steps), rank);
        assert_eq!(out.extra.as_ref().unwrap().step, s1_steps);
        if let Some((rep, shard)) = out.loader {
            assert_eq!(rep.dp_size, 3);
            let mut dl = Dataloader::from_states(rep, shard);
            dl.next_batch(); // resumed loader produces data
        }
        // Continue pre-training, then checkpoint again.
        TrainerConfig::default().run(&mut state, s1_steps, s2_steps - s1_steps);
        let mut extra = ExtraState::new(42);
        extra.step = s2_steps;
        ckpt.save(
            &SaveRequest::new("hdfs://prod/lineage/pretrain_16", &state, s2_steps)
                .with_extra(&extra),
        )
        .unwrap()
        .wait()
        .unwrap();
    });

    // ---- Stage 3: cross-stage SFT — FSDP ZeRO-3 on 4 workers. ----
    let fw3 = Framework::Fsdp { zero3: true };
    let par3 = Parallelism::data_parallel(4).unwrap();
    let s3_steps = 20u64;
    let arch_c = arch.clone();
    run_ranks(par3, fw3, registry.clone(), move |rank, ckpt| {
        let mut state = build_train_state(&arch_c, fw3, par3, rank, true);
        ckpt.load(&mut LoadRequest::new("hdfs://prod/lineage/pretrain_16", &mut state)).unwrap();
        assert_states_eq(&state, &reference_state(&arch_c, fw3, par3, rank, s2_steps), rank);
        TrainerConfig::default().run(&mut state, s2_steps, s3_steps - s2_steps);
        ckpt.save(&SaveRequest::new("hdfs://prod/lineage/sft_20", &state, s3_steps))
            .unwrap()
            .wait()
            .unwrap();
    });

    // ---- Stage 4: evaluation — a single worker pulls the SFT model. ----
    let par4 = Parallelism::data_parallel(1).unwrap();
    let arch_c = arch.clone();
    run_ranks(par4, Framework::Ddp, registry.clone(), move |rank, ckpt| {
        let mut state = build_train_state(&arch_c, Framework::Ddp, par4, rank, true);
        state.optimizer.entries.clear(); // eval needs the model only
        ckpt.load(&mut LoadRequest::new("hdfs://prod/lineage/sft_20", &mut state)).unwrap();
        let want = reference_state(&arch_c, Framework::Ddp, par4, rank, s3_steps);
        for (fqn, w) in &want.model.entries {
            assert!(state.model.get(fqn).unwrap().tensor.bitwise_eq(&w.tensor), "{fqn}");
        }
    });

    // ---- Stage 5: safetensors export of the final model. ----
    let uri = StorageUri::parse("hdfs://prod/lineage/sft_20").unwrap();
    let backend = registry.resolve(&uri).unwrap();
    let blob = export_safetensors(&backend, &uri.key, false).unwrap();
    let tensors = parse_safetensors(&blob).unwrap();
    let want = reference_state(&arch, Framework::Ddp, par4, 0, s3_steps);
    assert_eq!(tensors.len(), want.model.entries.len());
    for (fqn, w) in &want.model.entries {
        assert!(tensors[fqn].bitwise_eq(&w.tensor), "{fqn} in safetensors export");
    }
}

#[test]
fn checkpoint_history_supports_multiple_steps() {
    // Several checkpoints of one job coexist under distinct prefixes and
    // each loads the right snapshot (failure recovery picks any of them).
    let arch = zoo::tiny_gpt();
    let fw = Framework::Ddp;
    let par = Parallelism::data_parallel(2).unwrap();
    let registry = Arc::new(BackendRegistry::all_memory());
    let arch_c = arch.clone();
    run_ranks(par, fw, registry.clone(), move |rank, ckpt| {
        let mut state = build_train_state(&arch_c, fw, par, rank, true);
        for step in 1..=3u64 {
            TrainerConfig::default().step(&mut state, step - 1);
            ckpt.save(&SaveRequest::new(format!("mem://job/history/step_{step}"), &state, step))
                .unwrap()
                .wait()
                .unwrap();
        }
    });
    // Load the middle snapshot and confirm it is step 2, not step 3.
    let arch_c = arch.clone();
    run_ranks(par, fw, registry, move |rank, ckpt| {
        let mut state = build_train_state(&arch_c, fw, par, rank, true);
        let out = ckpt.load(&mut LoadRequest::new("mem://job/history/step_2", &mut state)).unwrap();
        assert_eq!(out.resumed_step(), 2);
        assert_states_eq(&state, &reference_state(&arch_c, fw, par, rank, 2), rank);
    });
}

#[test]
fn huggingface_import_seeds_distributed_training() {
    // Appendix F both ways: export a checkpoint to safetensors, import the
    // blob as a fresh checkpoint, and load it into a 3D-parallel job.
    use bytecheckpoint::core::export::import_safetensors;
    let arch = zoo::tiny_gpt();
    let registry = Arc::new(BackendRegistry::all_memory());
    let fw = Framework::Ddp;
    let par1 = Parallelism::data_parallel(1).unwrap();
    let steps = 3u64;
    let arch_c = arch.clone();
    run_ranks(par1, fw, registry.clone(), move |rank, ckpt| {
        let state = reference_state(&arch_c, fw, par1, rank, steps);
        ckpt.save(&SaveRequest::new("mem://x/hf/src", &state, steps)).unwrap().wait().unwrap();
    });
    let uri = StorageUri::parse("mem://x/hf/src").unwrap();
    let backend = registry.resolve(&uri).unwrap();
    let blob = export_safetensors(&backend, &uri.key, false).unwrap();
    let meta = import_safetensors(&backend, "hf/imported", &blob, 0).unwrap();
    meta.validate().unwrap();

    // Load the imported (model-only) checkpoint into Megatron TP=2 PP=2.
    let fw2 = Framework::Megatron { distributed_optimizer: false };
    let par2 = Parallelism::new(2, 1, 2).unwrap();
    let arch_c = arch.clone();
    run_ranks(par2, fw2, registry, move |rank, ckpt| {
        let mut state = build_train_state(&arch_c, fw2, par2, rank, true);
        state.optimizer.entries.clear(); // the import carries model weights only
        ckpt.load(&mut LoadRequest::new("mem://x/hf/imported", &mut state)).unwrap();
        let want = reference_state(&arch_c, fw2, par2, rank, steps);
        for (fqn, w) in &want.model.entries {
            assert!(state.model.get(fqn).unwrap().tensor.bitwise_eq(&w.tensor), "{fqn}");
        }
    });
}

#[test]
fn two_tier_memory_plus_hdfs_checkpointing() {
    // Gemini-style layered persistence: every step checkpoints to in-memory
    // storage (fast recovery), every 2nd step also to "HDFS" (durable).
    // After a "machine loss" the job recovers the newest snapshot from
    // memory; after a "cluster loss" it recovers from HDFS.
    use bytecheckpoint::core::manager::CheckpointManager;
    let arch = zoo::tiny_gpt();
    let fw = Framework::Ddp;
    let par = Parallelism::data_parallel(2).unwrap();
    let mem: DynBackend = Arc::new(MemoryBackend::new());
    let hdfs: DynBackend = Arc::new(bytecheckpoint::storage::HdfsBackend::new());
    let registry = {
        let mut reg = BackendRegistry::new();
        reg.register(Scheme::Memory, mem.clone());
        reg.register(Scheme::Hdfs, hdfs.clone());
        Arc::new(reg)
    };
    let arch_c = arch.clone();
    run_ranks(par, fw, registry.clone(), move |rank, ckpt| {
        let mut state = build_train_state(&arch_c, fw, par, rank, true);
        for step in 1..=4u64 {
            TrainerConfig::default().step(&mut state, step - 1);
            ckpt.save(&SaveRequest::new(format!("mem://gemini/job/step_{step}"), &state, step))
                .unwrap()
                .wait()
                .unwrap();
            if step % 2 == 0 {
                ckpt.save(&SaveRequest::new(
                    format!("hdfs://cluster/job/step_{step}"),
                    &state,
                    step,
                ))
                .unwrap()
                .wait()
                .unwrap();
            }
        }
    });
    // Fast tier has steps 1..=4; durable tier has 2 and 4.
    let fast = CheckpointManager::new(mem, "job");
    let durable = CheckpointManager::new(hdfs, "job");
    assert_eq!(fast.latest().unwrap().unwrap().step, 4);
    assert_eq!(durable.list().unwrap().iter().map(|c| c.step).collect::<Vec<_>>(), vec![2, 4]);
    // Recover from the durable tier and verify.
    let arch_c = arch.clone();
    run_ranks(par, fw, registry, move |rank, ckpt| {
        let mut state = build_train_state(&arch_c, fw, par, rank, true);
        let out =
            ckpt.load(&mut LoadRequest::new("hdfs://cluster/job/step_4", &mut state)).unwrap();
        assert_eq!(out.resumed_step(), 4);
        assert_states_eq(&state, &reference_state(&arch_c, fw, par, rank, 4), rank);
    });
}
