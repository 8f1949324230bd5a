//! Save-output determinism: the execution engine must produce *bit-identical*
//! checkpoint files no matter how its I/O pool interleaves uploads — for any
//! `io_threads` — because every
//! worker writes through offsets fixed by `SavePlan::byte_metas()`, never by
//! arrival order. Restored state must likewise be identical across load
//! configurations (any thread count).

use bcp_collectives::{Backend, CommWorld};
use bcp_core::api::{Checkpointer, LoadRequest, SaveRequest};
use bcp_core::engine::load::LoadConfig;
use bcp_core::engine::save::SaveConfig;
use bcp_core::registry::BackendRegistry;
use bcp_core::workflow::WorkflowOptions;
use bcp_model::states::{build_train_state, Framework};
use bcp_model::{zoo, TrainState, TrainerConfig};
use bcp_storage::uri::Scheme;
use bcp_storage::{DynBackend, MemoryBackend};
use bcp_topology::Parallelism;
use std::collections::BTreeMap;
use std::sync::Arc;

const WORLD: usize = 2;
const STEPS: u64 = 2;

fn memory_registry() -> (Arc<BackendRegistry>, DynBackend) {
    let mem: DynBackend = Arc::new(MemoryBackend::new());
    let mut reg = BackendRegistry::new();
    reg.register(Scheme::Memory, mem.clone());
    (Arc::new(reg), mem)
}

fn trained_state(rank: usize) -> TrainState {
    let par = Parallelism::data_parallel(WORLD).unwrap();
    let mut s =
        build_train_state(&zoo::tiny_gpt(), Framework::Fsdp { zero3: true }, par, rank, true);
    TrainerConfig::default().run(&mut s, 0, STEPS);
    s
}

/// Run one full save (all ranks) with the given workflow options; return
/// every stored object under the prefix, keyed by path.
fn save_with(
    registry: Arc<BackendRegistry>,
    mem: DynBackend,
    options: WorkflowOptions,
    prefix: &str,
) -> BTreeMap<String, Vec<u8>> {
    let par = Parallelism::data_parallel(WORLD).unwrap();
    let comm_world = CommWorld::new(WORLD, Backend::Flat);
    let location = format!("mem://d/{prefix}");
    let mut handles = Vec::new();
    for rank in 0..WORLD {
        let comm_world = comm_world.clone();
        let registry = registry.clone();
        let options = options.clone();
        let location = location.clone();
        handles.push(std::thread::spawn(move || {
            let comm = comm_world.communicator(rank).unwrap();
            let ckpt = Checkpointer::builder(comm)
                .framework(Framework::Fsdp { zero3: true })
                .parallelism(par)
                .registry(registry)
                .workflow(options)
                // Telemetry artifacts embed wall-clock timings; exclude them
                // so the byte comparison covers pure checkpoint data.
                .telemetry(false)
                .build()
                .unwrap();
            let state = trained_state(rank);
            ckpt.save(&SaveRequest::new(location, &state, STEPS)).unwrap().wait().unwrap();
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let mut files = BTreeMap::new();
    for path in mem.list(prefix).unwrap() {
        files.insert(path.clone(), mem.read(&path).unwrap().to_vec());
    }
    assert!(!files.is_empty(), "save under {prefix} produced no files");
    files
}

/// Load the checkpoint at `prefix` on all ranks with the given options and
/// return each rank's restored state.
fn load_with(
    registry: Arc<BackendRegistry>,
    options: WorkflowOptions,
    prefix: &str,
) -> Vec<TrainState> {
    let par = Parallelism::data_parallel(WORLD).unwrap();
    let comm_world = CommWorld::new(WORLD, Backend::Flat);
    let location = format!("mem://d/{prefix}");
    let mut handles = Vec::new();
    for rank in 0..WORLD {
        let comm_world = comm_world.clone();
        let registry = registry.clone();
        let options = options.clone();
        let location = location.clone();
        handles.push(std::thread::spawn(move || {
            let comm = comm_world.communicator(rank).unwrap();
            let ckpt = Checkpointer::builder(comm)
                .framework(Framework::Fsdp { zero3: true })
                .parallelism(par)
                .registry(registry)
                .workflow(options)
                .telemetry(false)
                .build()
                .unwrap();
            let mut state = build_train_state(
                &zoo::tiny_gpt(),
                Framework::Fsdp { zero3: true },
                par,
                rank,
                true,
            );
            ckpt.load(&mut LoadRequest::new(location, &mut state)).unwrap();
            state
        }));
    }
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}

fn assert_file_maps_identical(
    reference: &BTreeMap<String, Vec<u8>>,
    got: &BTreeMap<String, Vec<u8>>,
    variant: &str,
) {
    // Same listing modulo the per-variant prefix...
    let strip = |m: &BTreeMap<String, Vec<u8>>| -> Vec<String> {
        m.keys()
            .map(|k| k.split_once('/').map_or(k.as_str(), |(_, rest)| rest).to_string())
            .collect()
    };
    assert_eq!(strip(reference), strip(got), "{variant}: file listings differ");
    // ... and byte-identical contents file by file.
    for ((ref_path, ref_bytes), (got_path, got_bytes)) in reference.iter().zip(got.iter()) {
        assert_eq!(ref_bytes, got_bytes, "{variant}: {got_path} differs from reference {ref_path}");
    }
}

#[test]
fn saved_bytes_are_identical_for_any_io_threads() {
    let (registry, mem) = memory_registry();
    let mut variants = Vec::new();
    for io_threads in [1usize, 4, 16] {
        let options = WorkflowOptions {
            save: SaveConfig { io_threads, ..Default::default() },
            ..Default::default()
        };
        let tag = format!("t{io_threads}");
        let files = save_with(registry.clone(), mem.clone(), options, &tag);
        variants.push((tag, files));
    }
    let (ref_tag, reference) = &variants[0];
    for (tag, files) in &variants[1..] {
        assert_file_maps_identical(reference, files, &format!("{tag} vs {ref_tag}"));
    }
}

#[test]
fn restored_state_is_identical_across_load_configurations() {
    let (registry, mem) = memory_registry();
    let saved = save_with(registry.clone(), mem, WorkflowOptions::default(), "src");
    assert!(saved.len() > 2);

    let mut restored = Vec::new();
    for io_threads in [1usize, 4, 8] {
        let options = WorkflowOptions {
            load: LoadConfig { io_threads, ..Default::default() },
            ..Default::default()
        };
        restored
            .push((format!("threads={io_threads}"), load_with(registry.clone(), options, "src")));
    }
    let (_, reference) = &restored[0];
    // All configurations agree with each other AND with the ground truth.
    for rank in 0..WORLD {
        let want = trained_state(rank);
        for (tag, states) in &restored {
            let got = &states[rank];
            for (dict_name, got_d, want_d) in
                [("model", &got.model, &want.model), ("optimizer", &got.optimizer, &want.optimizer)]
            {
                for (fqn, w) in &want_d.entries {
                    let g = got_d.get(fqn).unwrap_or_else(|| panic!("{tag} rank {rank}: {fqn}"));
                    assert!(
                        g.tensor.bitwise_eq(&w.tensor),
                        "{tag} rank {rank} {dict_name} {fqn}: bytes differ from reference"
                    );
                }
            }
            let ref_state = &reference[rank];
            for (fqn, r) in &ref_state.model.entries {
                assert!(
                    got.model.get(fqn).unwrap().tensor.bitwise_eq(&r.tensor),
                    "{tag} rank {rank}: {fqn} differs across load configurations"
                );
            }
        }
    }
}
