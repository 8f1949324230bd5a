//! Training resumption with a GPU-quota change (paper Fig. 2, scenario 1).
//!
//! ```text
//! cargo run --example elastic_resume
//! ```
//!
//! An 8-worker FSDP (ZeRO-3) job checkpoints model, optimizer, dataloader
//! and extra states; two machines are then "removed" and the job resumes on
//! 6 workers. ByteCheckpoint reshards everything at load time: flat tensor
//! shards are re-cut, the dataloader's token buffers are merged and
//! re-striped so no sample is lost or repeated, and the RNG/step state
//! carries over. GPU states are verified bitwise against an uninterrupted
//! reference run.

use bytecheckpoint::prelude::*;
use std::sync::Arc;

fn make_loader_replicated(dp: usize) -> LoaderReplicatedState {
    LoaderReplicatedState {
        workers_per_rank: 2,
        dp_size: dp,
        sources: vec![
            DataSource { name: "web".into(), ratio: 0.7, seed: 401 },
            DataSource { name: "code".into(), ratio: 0.3, seed: 402 },
        ],
        context_window: 8192,
    }
}

fn run_phase(
    par: Parallelism,
    registry: Arc<BackendRegistry>,
    f: impl Fn(usize, Checkpointer) + Send + Sync + 'static,
) {
    let world = CommWorld::new(par.world_size(), Backend::Tree { gpus_per_host: 4, branching: 2 });
    let f = Arc::new(f);
    let handles: Vec<_> = (0..par.world_size())
        .map(|rank| {
            let world = world.clone();
            let registry = registry.clone();
            let f = f.clone();
            std::thread::spawn(move || {
                let comm = world.communicator(rank).unwrap();
                let ckpt = Checkpointer::builder(comm)
                    .framework(Framework::Fsdp { zero3: true })
                    .parallelism(par)
                    .registry(registry)
                    .build()
                    .unwrap();
                f(rank, ckpt)
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}

fn main() {
    let arch = zoo::tiny_gpt();
    let fw = Framework::Fsdp { zero3: true };
    let (par8, par6) =
        (Parallelism::data_parallel(8).unwrap(), Parallelism::data_parallel(6).unwrap());
    let registry = Arc::new(BackendRegistry::all_memory());
    let checkpoint_step = 12u64;

    // ---- Phase 1: 8 workers train and checkpoint. ----
    println!("phase 1: 8 workers, FSDP ZeRO-3, checkpoint at step {checkpoint_step}");
    let arch1 = arch.clone();
    run_phase(par8, registry.clone(), move |rank, ckpt| {
        let mut state = build_train_state(&arch1, fw, par8, rank, true);
        TrainerConfig::default().run(&mut state, 0, checkpoint_step);
        // Dataloader with some consumed data and non-empty buffers.
        let replicated = make_loader_replicated(8);
        let mut dl = Dataloader::new(replicated.clone(), rank);
        for _ in 0..5 {
            dl.next_batch();
        }
        dl.prefetch_states(); // §4.4: prepare a step early
        let (shard, stats) = {
            let mut dl = dl;
            dl.collect_states()
        };
        assert!(stats.prefetched);
        let mut extra = ExtraState::new(77);
        extra.step = checkpoint_step;
        let ticket = ckpt
            .save(
                &SaveRequest::new("mem://cluster/elastic/step_12", &state, checkpoint_step)
                    .with_loader(&replicated, &shard)
                    .with_extra(&extra),
            )
            .expect("save");
        if rank == 0 {
            println!("  stall {:?} (dataloader collection was prefetched)", ticket.blocking);
        }
        ticket.wait().expect("tail");
    });

    // ---- Phase 2: resume on 6 workers. ----
    println!("phase 2: two machines removed — resuming on 6 workers");
    let arch2 = arch.clone();
    run_phase(par6, registry, move |rank, ckpt| {
        let mut state = build_train_state(&arch2, fw, par6, rank, true);
        let out = ckpt
            .load(
                &mut LoadRequest::new("mem://cluster/elastic/step_12", &mut state)
                    .with_loader_target(LoaderTarget::new(6, 2, rank)),
            )
            .expect("load");
        // GPU states: bitwise identical to an uninterrupted 6-way run.
        let mut want = build_train_state(&arch2, fw, par6, rank, true);
        TrainerConfig::default().run(&mut want, 0, checkpoint_step);
        for (fqn, w) in want.model.entries.iter().chain(want.optimizer.entries.iter()) {
            let g = state
                .model
                .get(fqn)
                .or_else(|| state.optimizer.get(fqn))
                .unwrap_or_else(|| panic!("rank {rank}: missing {fqn}"));
            assert!(g.tensor.bitwise_eq(&w.tensor), "rank {rank}: {fqn} differs");
        }
        // Extra state carried over.
        assert_eq!(out.extra.expect("extra").step, checkpoint_step);
        // Dataloader resharded 8x2 -> 6x2 readers; buffers merged.
        let (replicated, shard) = out.loader.expect("loader state");
        assert_eq!(replicated.dp_size, 6);
        let mut dl = Dataloader::from_states(replicated, shard);
        let batch = dl.next_batch();
        if rank == 0 {
            println!(
                "  rank 0 resumed: first post-resume batch has {} samples, states verified bitwise ✓",
                batch.len()
            );
        }
        // Continue training from the restored step.
        TrainerConfig::default().run(&mut state, checkpoint_step, 4);
    });
    println!("elastic resumption complete: 8 → 6 workers with zero lost samples");
}
