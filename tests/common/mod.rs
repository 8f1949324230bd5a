//! Shared helpers for the workspace-level integration tests.
//!
//! Each integration test binary compiles its own copy of this module, and
//! not every binary uses every helper.
#![allow(dead_code)]

use bytecheckpoint::prelude::*;
use std::sync::Arc;

/// Spawn one thread per rank with a `Checkpointer` each; join and collect.
pub fn run_ranks<F, T>(
    par: Parallelism,
    fw: Framework,
    registry: Arc<BackendRegistry>,
    f: F,
) -> Vec<T>
where
    F: Fn(usize, Checkpointer) -> T + Send + Sync + 'static,
    T: Send + 'static,
{
    run_ranks_with(par, fw, registry, WorkflowOptions::default(), f)
}

/// [`run_ranks`] with non-default workflow options.
pub fn run_ranks_with<F, T>(
    par: Parallelism,
    fw: Framework,
    registry: Arc<BackendRegistry>,
    workflow: WorkflowOptions,
    f: F,
) -> Vec<T>
where
    F: Fn(usize, Checkpointer) -> T + Send + Sync + 'static,
    T: Send + 'static,
{
    let world = CommWorld::new(par.world_size(), Backend::Tree { gpus_per_host: 4, branching: 2 });
    let f = Arc::new(f);
    let handles: Vec<_> = (0..par.world_size())
        .map(|rank| {
            let world = world.clone();
            let registry = registry.clone();
            let f = f.clone();
            let workflow = workflow.clone();
            std::thread::spawn(move || {
                let comm = world.communicator(rank).unwrap();
                let ckpt = Checkpointer::builder(comm)
                    .framework(fw)
                    .parallelism(par)
                    .registry(registry)
                    .workflow(workflow)
                    .build()
                    .unwrap();
                f(rank, ckpt)
            })
        })
        .collect();
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}

/// Reference (uninterrupted) state at `steps` for bitwise comparison.
pub fn reference_state(
    arch: &bytecheckpoint::model::TransformerConfig,
    fw: Framework,
    par: Parallelism,
    rank: usize,
    steps: u64,
) -> TrainState {
    let mut s = build_train_state(arch, fw, par, rank, true);
    TrainerConfig::default().run(&mut s, 0, steps);
    s
}

/// Assert two states agree bitwise on every entry the reference holds.
pub fn assert_states_eq(got: &TrainState, want: &TrainState, rank: usize) {
    for (name, got_d, want_d) in
        [("model", &got.model, &want.model), ("optimizer", &got.optimizer, &want.optimizer)]
    {
        assert_eq!(got_d.entries.len(), want_d.entries.len(), "rank {rank} {name} entry count");
        for (fqn, w) in &want_d.entries {
            let g = got_d.get(fqn).unwrap_or_else(|| panic!("rank {rank}: missing {fqn}"));
            assert!(g.tensor.bitwise_eq(&w.tensor), "rank {rank} {name} {fqn} differs");
        }
    }
}
