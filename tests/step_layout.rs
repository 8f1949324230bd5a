//! What a committed step is made of, and what a save costs in collectives.
//!
//! A save seals each frame with its CRC alone, so a step holds its shard
//! files, the global metadata, the `COMPLETE` marker and the telemetry
//! artifact — nothing else. A step an older build wrote still carries a
//! `chunk_manifest.json` next to those; it must keep loading bitwise, scrub
//! clean with that file as a benign orphan, and be deleted with its step.
//! Frame CRCs are pinned by `tests/save_image.rs`.

mod common;

use bytecheckpoint::core::chunks::{ChunkManifest, FileChunks, CHUNK_MANIFEST_FILE};
use bytecheckpoint::core::metadata::{COMPLETE_MARKER, METADATA_FILE};
use bytecheckpoint::core::IssueKind;
use bytecheckpoint::prelude::*;
use common::{assert_states_eq, reference_state, run_ranks};
use std::collections::BTreeSet;
use std::sync::{Arc, Barrier};

const FW: Framework = Framework::Fsdp { zero3: true };

fn par() -> Parallelism {
    Parallelism::data_parallel(2).unwrap()
}

fn memory_registry() -> (Arc<BackendRegistry>, DynBackend) {
    let mem: DynBackend = Arc::new(MemoryBackend::new());
    let mut reg = BackendRegistry::new();
    reg.register(Scheme::Memory, mem.clone());
    (Arc::new(reg), mem)
}

/// Two ranks save step 1 under `mem://x/job/step_1` (default options:
/// telemetry on). Returns the backend.
fn save_step_1() -> (Arc<BackendRegistry>, DynBackend) {
    let (registry, mem) = memory_registry();
    run_ranks(par(), FW, registry.clone(), |rank, ckpt| {
        let state = reference_state(&zoo::tiny_gpt(), FW, par(), rank, 1);
        ckpt.save(&SaveRequest::new("mem://x/job/step_1", &state, 1)).unwrap().wait().unwrap();
    });
    (registry, mem)
}

fn listing(mem: &DynBackend) -> BTreeSet<String> {
    mem.list("job/step_1/").unwrap().into_iter().collect()
}

#[test]
fn a_committed_step_holds_its_shard_files_metadata_marker_and_telemetry_only() {
    let (_, mem) = save_step_1();
    let metadata = CheckpointManager::new(mem.clone(), "job").metadata(1).unwrap();
    let shard_files: BTreeSet<String> =
        metadata.tensor_map.values().flatten().map(|e| e.byte.file.clone()).collect();
    assert_eq!(
        shard_files,
        BTreeSet::from(
            ["model_0.bin", "model_1.bin", "optim_0.bin", "optim_1.bin"].map(String::from)
        ),
        "ZeRO-3 over two ranks: a model and an optimizer file per rank"
    );
    let want: BTreeSet<String> = shard_files
        .iter()
        .map(String::as_str)
        .chain([METADATA_FILE, COMPLETE_MARKER, TELEMETRY_SAVE_FILE])
        .map(|f| format!("job/step_1/{f}"))
        .collect();
    assert_eq!(listing(&mem), want);
}

#[test]
fn a_leftover_chunk_manifest_loads_scrubs_clean_as_an_orphan_and_goes_with_its_step() {
    let (registry, mem) = save_step_1();
    // What an older build left next to every step: the chunk index of the
    // step's shard files.
    let contributions: Vec<FileChunks> = listing(&mem)
        .iter()
        .filter(|p| p.ends_with(".bin") && !p.ends_with(METADATA_FILE))
        .map(|p| {
            let name = p.strip_prefix("job/step_1/").unwrap();
            FileChunks::from_bytes(name, &mem.read(p).unwrap(), 256 * 1024)
        })
        .collect();
    let manifest = ChunkManifest::assemble(1, 256 * 1024, vec![contributions]);
    let leftover = format!("job/step_1/{CHUNK_MANIFEST_FILE}");
    mem.write(&leftover, manifest.to_bytes().into()).unwrap();

    run_ranks(par(), FW, registry, |rank, ckpt| {
        let mut state = build_train_state(&zoo::tiny_gpt(), FW, par(), rank, true);
        ckpt.load(&mut LoadRequest::new("mem://x/job/step_1", &mut state)).unwrap();
        assert_states_eq(&state, &reference_state(&zoo::tiny_gpt(), FW, par(), rank, 1), rank);
    });

    let report = scrub_step(&mem, "job/step_1", 1).unwrap();
    assert!(report.is_clean(), "{:?}", report.issues);
    let issues: Vec<(&str, IssueKind)> =
        report.issues.iter().map(|i| (i.path.as_str(), i.kind)).collect();
    assert_eq!(issues, [(leftover.as_str(), IssueKind::Orphan)]);

    CheckpointManager::new(mem.clone(), "job").delete(1).unwrap();
    assert!(listing(&mem).is_empty(), "{:?}", listing(&mem));
}

/// Collective ops (`CommWorld::stats().snapshot().ops`) one warm save adds
/// on a 2-rank tree world with telemetry off: the cache-hit `all_gather`
/// (both ranks count it), the integrity barrier and the commit-visibility
/// barrier (a gather up plus a scatter down each, counted at the tree
/// root). Nothing else on the save path is collective.
const WARM_SAVE_OPS: u64 = 6;

#[test]
fn a_warm_save_costs_six_collective_ops() {
    let (registry, _) = memory_registry();
    let world = CommWorld::new(2, Backend::Tree { gpus_per_host: 4, branching: 2 });
    let between_saves = Arc::new(Barrier::new(2));
    let handles: Vec<_> = (0..2)
        .map(|rank| {
            let (world, registry) = (world.clone(), registry.clone());
            let between_saves = between_saves.clone();
            std::thread::spawn(move || {
                let ckpt = Checkpointer::builder(world.communicator(rank).unwrap())
                    .framework(FW)
                    .parallelism(par())
                    .registry(registry)
                    .telemetry(false)
                    .build()
                    .unwrap();
                let save = |step: u64| {
                    let state = reference_state(&zoo::tiny_gpt(), FW, par(), rank, step);
                    let location = format!("mem://x/job/step_{step}");
                    ckpt.save(&SaveRequest::new(&location, &state, step)).unwrap().wait().unwrap();
                };
                save(1);
                between_saves.wait();
                let before = world.stats().snapshot().ops;
                between_saves.wait();
                save(2);
                between_saves.wait();
                assert_eq!(ckpt.plan_cache_stats(), (1, 1), "rank {rank}: step 2 hits the cache");
                world.stats().snapshot().ops - before
            })
        })
        .collect();
    for handle in handles {
        assert_eq!(handle.join().unwrap(), WARM_SAVE_OPS);
    }
}
