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
        metadata.tensor_map.values().flatten().map(|e| e.byte.file.to_string()).collect();
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

/// A registry whose `hdfs://` scheme is one simulated HDFS cluster.
fn hdfs_registry() -> (Arc<BackendRegistry>, Arc<HdfsBackend>) {
    let hdfs = Arc::new(HdfsBackend::new());
    let mut reg = BackendRegistry::new();
    reg.register(Scheme::Hdfs, hdfs.clone() as DynBackend);
    (Arc::new(reg), hdfs)
}

/// Every storage call of a direct load at `ranks` data-parallel ranks but
/// its ranged reads, which the simulated HDFS serves without the NameNode:
/// its NameNode operations.
fn direct_load_calls(ranks: usize) -> u64 {
    let (registry, hdfs) = hdfs_registry();
    let par = Parallelism::data_parallel(ranks).unwrap();
    run_ranks(par, FW, registry.clone(), move |rank, ckpt| {
        let state = reference_state(&zoo::tiny_gpt(), FW, par, rank, 1);
        ckpt.save(&SaveRequest::new("hdfs://nn/job/step_1", &state, 1)).unwrap().wait().unwrap();
    });
    let before = hdfs.namenode_stats().snapshot().0;
    run_ranks(par, FW, registry, move |rank, ckpt| {
        let mut state = build_train_state(&zoo::tiny_gpt(), FW, par, rank, true);
        ckpt.load(&mut LoadRequest::new("hdfs://nn/job/step_1", &mut state)).unwrap();
        assert_states_eq(&state, &reference_state(&zoo::tiny_gpt(), FW, par, rank, 1), rank);
    });
    hdfs.namenode_stats().snapshot().0 - before
}

/// A direct load opens its step once, at the coordinator — one listing
/// (which shows the marker) and one metadata read — and otherwise only
/// writes the coordinator's telemetry artifact, however many ranks load.
#[test]
fn a_direct_load_opens_its_step_once_at_two_ranks_and_at_four() {
    assert_eq!(direct_load_calls(2), 3);
    assert_eq!(direct_load_calls(4), 3);
}

/// NameNode operations of one `load_latest` over a job root that retains
/// `steps` committed steps, on the simulated HDFS.
fn resume_namenode_ops(steps: u64) -> u64 {
    let (registry, hdfs) = hdfs_registry();
    run_ranks(par(), FW, registry.clone(), move |rank, ckpt| {
        let state = reference_state(&zoo::tiny_gpt(), FW, par(), rank, 1);
        for step in 1..=steps {
            let location = format!("hdfs://nn/job/step_{step}");
            ckpt.save(&SaveRequest::new(&location, &state, step)).unwrap().wait().unwrap();
        }
    });
    let before = hdfs.namenode_stats().snapshot().0;
    run_ranks(par(), FW, registry, move |rank, ckpt| {
        let mut state = build_train_state(&zoo::tiny_gpt(), FW, par(), rank, true);
        let out = ckpt.load_latest("hdfs://nn/job", &mut state, None).unwrap().unwrap();
        assert_eq!(out.resumed_step(), steps);
    });
    hdfs.namenode_stats().snapshot().0 - before
}

/// Discovery decides every retained step from one listing of the job root
/// (each listed marker proves its commit), and the load plans from the view
/// the coordinator's scrub opened. At DP2: the root listing, the chosen
/// step's listing and metadata read, its four shard files read by the
/// scrub, and the telemetry artifact — 8, however many steps the job keeps.
#[test]
fn a_resume_costs_as_many_namenode_operations_with_sixteen_retained_steps_as_with_one() {
    assert_eq!(resume_namenode_ops(1), 8);
    assert_eq!(resume_namenode_ops(16), 8);
}
