//! The plan cache holds the sealed global metadata, and the metadata names
//! the request's extra-state and dataloader files — so a save whose request
//! has a different *shape* than the one that filled the cache must miss it.
//! Before the request shape was part of the key, the second save of each
//! session below committed a step whose metadata described the first save's
//! files: a `COMPLETE` step that scrubs dirty and cannot be loaded.

mod common;

use bytecheckpoint::prelude::*;
use common::{assert_states_eq, reference_state, run_ranks};
use std::sync::Arc;

const FW: Framework = Framework::Ddp;

fn loader_replicated(workers_per_rank: usize) -> LoaderReplicatedState {
    LoaderReplicatedState {
        workers_per_rank,
        dp_size: 2,
        sources: vec![DataSource { name: "web".into(), ratio: 1.0, seed: 1 }],
        context_window: 512,
    }
}

/// What one save of a session attaches to its request.
#[derive(Clone, Copy)]
struct Shape {
    extra: bool,
    loader_workers: Option<usize>,
}

/// Two DP ranks save one step per shape through one `Checkpointer` each,
/// load every step back, and return their `(hits, misses)`. Every committed
/// step must scrub clean and restore bitwise, with exactly the extra state
/// and dataloader readers its own request carried.
fn session(shapes: &'static [Shape]) -> Vec<(u64, u64)> {
    let arch = zoo::tiny_gpt();
    let par = Parallelism::data_parallel(2).unwrap();
    let mem: DynBackend = Arc::new(MemoryBackend::new());
    let registry = {
        let mut reg = BackendRegistry::new();
        reg.register(Scheme::Memory, mem.clone());
        Arc::new(reg)
    };
    let stats = run_ranks(par, FW, registry, move |rank, ckpt| {
        let state = reference_state(&arch, FW, par, rank, 1);
        let mut extra = ExtraState::new(7);
        for (i, shape) in shapes.iter().enumerate() {
            let step = i as u64 + 1;
            extra.step = step;
            let at = format!("mem://x/j/s{step}");
            let loader = shape.loader_workers.map(|w| {
                let rep = loader_replicated(w);
                let shard = Dataloader::new(rep.clone(), rank).shard_state();
                (rep, shard)
            });
            let mut req = SaveRequest::new(at.as_str(), &state, step);
            if shape.extra {
                req = req.with_extra(&extra);
            }
            if let Some((rep, shard)) = &loader {
                req = req.with_loader(rep, shard);
            }
            ckpt.save(&req).unwrap().wait().unwrap();

            let mut target = build_train_state(&arch, FW, par, rank, true);
            let mut load = LoadRequest::new(at.as_str(), &mut target);
            if let Some(w) = shape.loader_workers {
                load = load.with_loader_target(LoaderTarget::new(2, w, rank));
            }
            let out = ckpt.load(&mut load).unwrap_or_else(|e| panic!("step {step}: {e}"));
            assert_states_eq(&target, &state, rank);
            assert_eq!(out.report.extra.map(|e| e.step), shape.extra.then_some(step));
            assert_eq!(out.loader.map(|(_, shard)| shard), loader.map(|(_, shard)| shard));
        }
        ckpt.plan_cache_stats()
    });
    for step in 1..=shapes.len() as u64 {
        let report = scrub_step(&mem, &format!("j/s{step}"), step).unwrap();
        assert!(report.issues.is_empty(), "step {step}: {:?}", report.issues);
    }
    stats
}

const PLAIN: Shape = Shape { extra: false, loader_workers: None };
const EXTRA: Shape = Shape { extra: true, loader_workers: None };

#[test]
fn dropping_the_extra_state_misses_the_cache() {
    // The third save repeats the second's shape: that one is the hit.
    assert_eq!(session(&[EXTRA, PLAIN, PLAIN]), vec![(1, 2); 2]);
}

#[test]
fn adding_extra_state_misses_the_cache() {
    // The third save returns to the first's shape, still cached.
    assert_eq!(session(&[PLAIN, EXTRA, PLAIN]), vec![(1, 2); 2]);
}

#[test]
fn a_changed_reader_count_misses_the_cache() {
    const READERS_3: Shape = Shape { extra: false, loader_workers: Some(3) };
    const READERS_2: Shape = Shape { extra: false, loader_workers: Some(2) };
    assert_eq!(session(&[READERS_3, READERS_2, READERS_3]), vec![(1, 2); 2]);
}
