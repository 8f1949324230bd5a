//! End-to-end multi-rank workflow tests: real threads as training workers,
//! real collectives, real bytes through real storage backends, and bitwise
//! verification of every resharding path (the paper's §6.3 check, made
//! element-exact by the deterministic trainer).

use bcp_collectives::{Backend, CommWorld};
use bcp_core::api::{Checkpointer, LoadRequest, SaveRequest};
use bcp_core::planner::balance::DedupStrategy;
use bcp_core::registry::BackendRegistry;
use bcp_core::workflow::WorkflowOptions;
use bcp_model::states::{build_train_state, Framework};
use bcp_model::{zoo, TrainState, TrainerConfig};
use bcp_storage::uri::Scheme;
use bcp_storage::{DynBackend, MemoryBackend};
use bcp_topology::Parallelism;
use std::sync::Arc;

/// Spawn one thread per rank, each constructing a Checkpointer over a shared
/// world + registry, and run `f`.
fn run_ranks<F, T>(
    world: usize,
    registry: Arc<BackendRegistry>,
    fw: Framework,
    par: Parallelism,
    f: F,
) -> Vec<T>
where
    F: Fn(usize, Checkpointer) -> T + Send + Sync + 'static,
    T: Send + 'static,
{
    assert_eq!(world, par.world_size());
    let comm_world = CommWorld::new(world, Backend::Tree { gpus_per_host: 4, branching: 2 });
    let f = Arc::new(f);
    let mut handles = Vec::new();
    for rank in 0..world {
        let comm_world = comm_world.clone();
        let registry = registry.clone();
        let f = f.clone();
        handles.push(std::thread::spawn(move || {
            let comm = comm_world.communicator(rank).unwrap();
            let ckpt = Checkpointer::builder(comm)
                .framework(fw)
                .parallelism(par)
                .registry(registry)
                .build()
                .unwrap();
            f(rank, ckpt)
        }));
    }
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}

fn memory_registry() -> (Arc<BackendRegistry>, DynBackend) {
    let mem: DynBackend = Arc::new(MemoryBackend::new());
    let mut reg = BackendRegistry::new();
    for scheme in [Scheme::Memory, Scheme::File, Scheme::Hdfs, Scheme::Nas, Scheme::Object] {
        reg.register(scheme, mem.clone());
    }
    (Arc::new(reg), mem)
}

/// Reference state at (fw, par, rank) trained to `steps` — the pure-function
/// ground truth any correctly-resharded load must match bitwise.
fn reference_state(
    arch: &bcp_model::TransformerConfig,
    fw: Framework,
    par: Parallelism,
    rank: usize,
    steps: u64,
) -> TrainState {
    let mut s = build_train_state(arch, fw, par, rank, true);
    TrainerConfig::default().run(&mut s, 0, steps);
    s
}

fn assert_states_bitwise_eq(got: &TrainState, want: &TrainState, rank: usize) {
    for (dict_name, got_d, want_d) in
        [("model", &got.model, &want.model), ("optimizer", &got.optimizer, &want.optimizer)]
    {
        assert_eq!(
            got_d.entries.len(),
            want_d.entries.len(),
            "rank {rank} {dict_name}: entry count"
        );
        for (fqn, w) in &want_d.entries {
            let g = got_d.get(fqn).unwrap_or_else(|| panic!("rank {rank}: missing {fqn}"));
            assert!(
                g.tensor.bitwise_eq(&w.tensor),
                "rank {rank} {dict_name} {fqn}: loaded bytes differ from reference"
            );
        }
    }
}

/// Save under (fw_a, par_a), load under (fw_b, par_b), verify bitwise.
fn save_then_reshard(
    arch: bcp_model::TransformerConfig,
    fw_a: Framework,
    par_a: Parallelism,
    fw_b: Framework,
    par_b: Parallelism,
    steps: u64,
) {
    let (registry, _mem) = memory_registry();
    let arch2 = arch.clone();
    // Phase 1: train + save under configuration A.
    run_ranks(par_a.world_size(), registry.clone(), fw_a, par_a, move |rank, ckpt| {
        let state = reference_state(&arch2, fw_a, par_a, rank, steps);
        let ticket =
            ckpt.save(&SaveRequest::new("mem://test/ckpt/step_final", &state, steps)).unwrap();
        ticket.wait().unwrap();
    });
    // Phase 2: load under configuration B; verify against the reference.
    let arch2 = arch.clone();
    run_ranks(par_b.world_size(), registry, fw_b, par_b, move |rank, ckpt| {
        // Target skeleton: right sharding, wrong (freshly initialized) data.
        let mut state = build_train_state(&arch2, fw_b, par_b, rank, true);
        ckpt.load(&mut LoadRequest::new("mem://test/ckpt/step_final", &mut state)).unwrap();
        let want = reference_state(&arch2, fw_b, par_b, rank, steps);
        assert_states_bitwise_eq(&state, &want, rank);
    });
}

#[test]
fn ddp_round_trip_same_parallelism() {
    let par = Parallelism::data_parallel(2).unwrap();
    save_then_reshard(zoo::tiny_gpt(), Framework::Ddp, par, Framework::Ddp, par, 3);
}

#[test]
fn fsdp_zero3_reshard_shrink() {
    // Training resumption with fewer GPUs (Fig. 2 scenario 1): DP 4 -> 2.
    save_then_reshard(
        zoo::tiny_gpt(),
        Framework::Fsdp { zero3: true },
        Parallelism::data_parallel(4).unwrap(),
        Framework::Fsdp { zero3: true },
        Parallelism::data_parallel(2).unwrap(),
        3,
    );
}

#[test]
fn fsdp_zero2_reshard_grow() {
    save_then_reshard(
        zoo::tiny_dit(),
        Framework::Fsdp { zero3: false },
        Parallelism::data_parallel(2).unwrap(),
        Framework::Fsdp { zero3: false },
        Parallelism::data_parallel(3).unwrap(),
        2,
    );
}

#[test]
fn megatron_pp_reshard() {
    // Fig. 13a: PP 2 -> 4 at fixed TP.
    let fw = Framework::Megatron { distributed_optimizer: true };
    save_then_reshard(
        zoo::tiny_gpt_8l(),
        fw,
        Parallelism::new(1, 2, 2).unwrap(),
        fw,
        Parallelism::new(1, 1, 4).unwrap(),
        2,
    );
}

#[test]
fn megatron_tp_reshard() {
    // Fig. 13b: TP 1 -> 2.
    let fw = Framework::Megatron { distributed_optimizer: true };
    save_then_reshard(
        zoo::tiny_gpt(),
        fw,
        Parallelism::new(1, 2, 2).unwrap(),
        fw,
        Parallelism::new(2, 1, 2).unwrap(),
        2,
    );
}

#[test]
fn megatron_hybrid_reshard() {
    // Fig. 16b: hybrid change of TP, DP and PP at once.
    let fw = Framework::Megatron { distributed_optimizer: true };
    save_then_reshard(
        zoo::tiny_gpt_8l(),
        fw,
        Parallelism::new(1, 2, 4).unwrap(),
        fw,
        Parallelism::new(2, 2, 2).unwrap(),
        2,
    );
}

#[test]
fn cross_stage_megatron_to_fsdp() {
    // Cross-stage transition (Fig. 2 scenario 2): pre-training under 3D
    // Megatron, fine-tuning under FSDP on fewer GPUs — and the unified
    // representation also crosses frameworks.
    save_then_reshard(
        zoo::tiny_gpt(),
        Framework::Megatron { distributed_optimizer: true },
        Parallelism::new(2, 2, 2).unwrap(),
        Framework::Fsdp { zero3: true },
        Parallelism::data_parallel(2).unwrap(),
        2,
    );
}

#[test]
fn evaluation_single_rank_consolidation() {
    // Evaluation (Fig. 2 scenario 3): load everything into one worker.
    save_then_reshard(
        zoo::tiny_gpt(),
        Framework::Megatron { distributed_optimizer: true },
        Parallelism::new(2, 2, 1).unwrap(),
        Framework::Ddp,
        Parallelism::data_parallel(1).unwrap(),
        2,
    );
}

#[test]
fn bf16_weights_reshard_bitwise() {
    save_then_reshard(
        zoo::tiny_gpt_bf16(),
        Framework::Fsdp { zero3: true },
        Parallelism::data_parallel(3).unwrap(),
        Framework::Fsdp { zero3: true },
        Parallelism::data_parallel(2).unwrap(),
        2,
    );
}

#[test]
fn vescale_to_megatron() {
    save_then_reshard(
        zoo::tiny_gpt(),
        Framework::VeScale,
        Parallelism::new(2, 2, 1).unwrap(),
        Framework::Megatron { distributed_optimizer: false },
        Parallelism::new(2, 1, 2).unwrap(),
        2,
    );
}

#[test]
fn uncommitted_checkpoint_is_rejected() {
    let (registry, mem) = memory_registry();
    let arch = zoo::tiny_gpt();
    let par = Parallelism::data_parallel(1).unwrap();
    run_ranks(1, registry.clone(), Framework::Ddp, par, move |rank, ckpt| {
        let state = reference_state(&zoo::tiny_gpt(), Framework::Ddp, par, rank, 1);
        ckpt.save(&SaveRequest::new("mem://t/torn", &state, 1)).unwrap().wait().unwrap();
    });
    // Tear the checkpoint: remove the COMPLETE marker.
    mem.delete("torn/COMPLETE").unwrap();
    let results = run_ranks(1, registry, Framework::Ddp, par, move |_rank, ckpt| {
        let mut state = build_train_state(&arch, Framework::Ddp, par, 0, true);
        ckpt.load(&mut LoadRequest::new("mem://t/torn", &mut state)).err().map(|e| e.to_string())
    });
    let err = results[0].clone().expect("load must fail");
    assert!(err.contains("COMPLETE"), "{err}");
}

#[test]
fn plan_cache_eliminates_replanning() {
    let (registry, _mem) = memory_registry();
    let par = Parallelism::data_parallel(2).unwrap();
    let fw = Framework::Ddp;
    let stats = run_ranks(2, registry, fw, par, move |rank, ckpt| {
        let mut state = build_train_state(&zoo::tiny_gpt(), fw, par, rank, true);
        let trainer = TrainerConfig::default();
        for step in 0..3u64 {
            trainer.step(&mut state, step);
            ckpt.save(&SaveRequest::new(format!("mem://t/cache/step_{step}"), &state, step))
                .unwrap()
                .wait()
                .unwrap();
        }
        ckpt.plan_cache_stats()
    });
    for (hits, misses) in stats {
        assert_eq!(misses, 1, "planning must be a one-time cost");
        assert_eq!(hits, 2);
    }
}

#[test]
fn extra_state_round_trips() {
    let (registry, _mem) = memory_registry();
    let par = Parallelism::data_parallel(2).unwrap();
    let extras = run_ranks(2, registry.clone(), Framework::Ddp, par, move |rank, ckpt| {
        let state = reference_state(&zoo::tiny_gpt(), Framework::Ddp, par, rank, 1);
        let mut extra = bcp_model::ExtraState::new(77 + rank as u64);
        extra.step = 1;
        extra.next_random();
        ckpt.save(&SaveRequest::new("mem://t/extra", &state, 1).with_extra(&extra))
            .unwrap()
            .wait()
            .unwrap();
        extra
    });
    let arch = zoo::tiny_gpt();
    let loaded = run_ranks(2, registry, Framework::Ddp, par, move |rank, ckpt| {
        let mut state = build_train_state(&arch, Framework::Ddp, par, rank, true);
        let out = ckpt.load(&mut LoadRequest::new("mem://t/extra", &mut state)).unwrap();
        out.report.extra.expect("extra state present")
    });
    for (rank, (want, got)) in extras.iter().zip(&loaded).enumerate() {
        assert_eq!(want, got, "rank {rank} extra state");
    }
}

#[test]
fn first_replica_baseline_also_round_trips() {
    // The baseline dedup strategy must stay *correct* (it is only slower).
    let (registry, _mem) = memory_registry();
    let par = Parallelism::data_parallel(3).unwrap();
    let comm_world = CommWorld::new(3, Backend::Flat);
    let mut handles = Vec::new();
    for rank in 0..3 {
        let comm_world = comm_world.clone();
        let registry = registry.clone();
        handles.push(std::thread::spawn(move || {
            let comm = comm_world.communicator(rank).unwrap();
            let ckpt = Checkpointer::builder(comm)
                .framework(Framework::Ddp)
                .parallelism(par)
                .registry(registry)
                .workflow(WorkflowOptions {
                    dedup: DedupStrategy::FirstReplica,
                    ..Default::default()
                })
                .build()
                .unwrap();
            let state = reference_state(&zoo::tiny_gpt(), Framework::Ddp, par, rank, 2);
            ckpt.save(&SaveRequest::new("mem://t/baseline", &state, 2)).unwrap().wait().unwrap();
            let mut fresh = build_train_state(&zoo::tiny_gpt(), Framework::Ddp, par, rank, true);
            ckpt.load(&mut LoadRequest::new("mem://t/baseline", &mut fresh)).unwrap();
            let want = reference_state(&zoo::tiny_gpt(), Framework::Ddp, par, rank, 2);
            assert_states_bitwise_eq(&fresh, &want, rank);
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
}

/// A `Checkpointer` lives as long as the trainer: cutting a step's artifact
/// must move that step's spans out of the private hub, or every later save
/// and load re-walks (and the process retains) everything that came before.
#[test]
fn telemetry_hub_stays_bounded_over_many_steps() {
    let (registry, _mem) = memory_registry();
    let fw = Framework::Ddp;
    let par = Parallelism::data_parallel(2).unwrap();
    let held = run_ranks(2, registry, fw, par, move |rank, ckpt| {
        let state = reference_state(&zoo::tiny_gpt(), fw, par, rank, 1);
        let mut held = Vec::new();
        for step in 1..=50u64 {
            let location = format!("mem://job/step_{step}");
            ckpt.save(&SaveRequest::new(location.as_str(), &state, step)).unwrap().wait().unwrap();
            let mut target = build_train_state(&zoo::tiny_gpt(), fw, par, rank, true);
            ckpt.load(&mut LoadRequest::new(location.as_str(), &mut target)).unwrap();
            assert_states_bitwise_eq(&target, &state, rank);
            let hub = ckpt.telemetry_hub().expect("telemetry is on by default");
            held.push(hub.spans().len());
        }
        held
    });
    for (rank, held) in held.iter().enumerate() {
        assert!(
            held[49] <= held[4],
            "rank {rank}: the hub holds {} events after step 50 but held {} after step 5",
            held[49],
            held[4]
        );
        assert!(held[49] <= 4, "rank {rank}: {} events are left behind per handle", held[49]);
    }
}
