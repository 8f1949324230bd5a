//! The load engine fetches *runs*, not items: on a many-tensor checkpoint
//! the storage operations, retries and the persisted load artifact scale
//! with the number of files (⌈size / chunk_bytes⌉ each), not with the
//! thousands of plan items — and the fault behaviour of the load path
//! (transient read failures absorbed under `load/read`, exhausted retries
//! failing the load and releasing the peers) is what it was per item.

mod common;

use bytecheckpoint::core::metadata::METADATA_FILE;
use bytecheckpoint::model::TransformerConfig;
use bytecheckpoint::prelude::*;
use bytecheckpoint::storage::{Fault, FaultLayer, FaultRule, OpCountingBackend, OpSet};
use common::{assert_states_eq, reference_state};
use std::sync::Arc;
use std::time::{Duration, Instant};

const MEGATRON: Framework = Framework::Megatron { distributed_optimizer: true };
const WORLD: usize = 2;

/// ≈50 tensors per layer and rank across model + optimizer, each a few KB:
/// well over a thousand read items per rank in a few MB.
fn many_tensor_arch() -> TransformerConfig {
    TransformerConfig { name: "many-tensor".into(), layers: 48, ..zoo::tiny_gpt() }
}

fn saving() -> Parallelism {
    Parallelism::new(1, 2, 1).unwrap()
}

fn resharded() -> Parallelism {
    Parallelism::new(2, 1, 1).unwrap()
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("bcp-load-runs-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One `Checkpointer` per rank thread over `backend_for(rank)`.
fn on_ranks<T: Send + 'static>(
    par: Parallelism,
    timeout: Duration,
    backend_for: impl Fn(usize) -> DynBackend,
    f: impl Fn(usize, Checkpointer) -> T + Send + Sync + 'static,
) -> Vec<T> {
    let world = CommWorld::with_timeout(WORLD, Backend::Flat, timeout);
    let f = Arc::new(f);
    let handles: Vec<_> = (0..WORLD)
        .map(|rank| {
            let comm = world.communicator(rank).unwrap();
            let mut registry = BackendRegistry::new();
            registry.register(Scheme::File, backend_for(rank));
            let f = f.clone();
            std::thread::spawn(move || {
                let ckpt = Checkpointer::builder(comm)
                    .framework(MEGATRON)
                    .parallelism(par)
                    .registry(Arc::new(registry))
                    .build()
                    .unwrap();
                f(rank, ckpt)
            })
        })
        .collect();
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}

fn save_step_1(disk: &DynBackend) {
    let disk = disk.clone();
    on_ranks(
        saving(),
        Duration::from_secs(60),
        move |_| disk.clone(),
        |rank, ckpt| {
            let state = reference_state(&many_tensor_arch(), MEGATRON, saving(), rank, 1);
            ckpt.save(&SaveRequest::new("file:///job/step_1", &state, 1)).unwrap().wait().unwrap();
        },
    );
}

/// Load step 1 into `par` on every rank, bitwise-checked; returns each
/// rank's item count and failure-log stages.
fn load_step_1(par: Parallelism, backend: &DynBackend) -> Vec<(usize, Vec<String>)> {
    let backend = backend.clone();
    on_ranks(
        par,
        Duration::from_secs(60),
        move |_| backend.clone(),
        move |rank, ckpt| {
            let mut state = build_train_state(&many_tensor_arch(), MEGATRON, par, rank, true);
            let out = ckpt.load(&mut LoadRequest::new("file:///job/step_1", &mut state)).unwrap();
            assert_states_eq(
                &state,
                &reference_state(&many_tensor_arch(), MEGATRON, par, rank, 1),
                rank,
            );
            let stages = ckpt.failures().records().into_iter().map(|r| r.stage).collect();
            (out.report.stats.local_reads, stages)
        },
    )
}

/// Σ over the step's shard files of ⌈size / chunk_bytes⌉.
fn chunks_in_shard_files(disk: &DynBackend) -> u64 {
    let chunk = WorkflowOptions::default().load.chunk_bytes;
    let files = disk.list("job/step_1").unwrap();
    let shards: Vec<_> =
        files.iter().filter(|f| f.ends_with(".bin") && !f.ends_with(METADATA_FILE)).collect();
    assert!(shards.len() >= 4, "model and optimizer files of two ranks, got {files:?}");
    shards.iter().map(|f| disk.size(f).unwrap().div_ceil(chunk)).sum()
}

#[test]
fn storage_reads_and_the_load_artifact_scale_with_runs_not_items() {
    let dir = temp_dir("ops");
    let disk: DynBackend = Arc::new(DiskBackend::new(&dir).unwrap());
    save_step_1(&disk);
    let chunks = chunks_in_shard_files(&disk);

    for (name, par) in [("same-parallelism", saving()), ("reshard", resharded())] {
        let counting = Arc::new(OpCountingBackend::new(disk.clone()));
        let loaded = load_step_1(par, &(counting.clone() as DynBackend));
        let items: usize = loaded.iter().map(|(n, _)| n).sum();
        assert!(items >= 1000, "{name}: the scenario must carry >= 1000 read items, got {items}");
        // Per rank: one read per chunk of each shard file, plus the whole-file
        // reads of the metadata and the extra state.
        let bound = WORLD as u64 * (chunks + 2);
        assert!(
            counting.reads() <= bound,
            "{name}: {} storage reads for {items} items ({chunks} chunks in the shard files)",
            counting.reads()
        );
        let artifact = disk.size("job/step_1/_telemetry_load.jsonl").unwrap();
        assert!(artifact <= 64 * 1024, "{name}: the load artifact is {artifact} bytes");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `times` failed reads on each shard file (the metadata file is a `.bin`
/// too, and is not one).
fn failing_shard_reads(times: u32) -> Vec<FaultRule> {
    ["model_", "optim_"]
        .map(|shard| FaultRule::new(OpSet::Reads, Fault::Fail { times }).on(shard))
        .to_vec()
}

#[test]
fn transient_read_failures_are_absorbed_under_load_read() {
    let dir = temp_dir("flaky");
    let disk: DynBackend = Arc::new(DiskBackend::new(&dir).unwrap());
    save_step_1(&disk);
    // The first two reads of every shard file fail.
    let flaky = Arc::new(FaultLayer::new(disk, 0, failing_shard_reads(2)));
    let loaded = load_step_1(saving(), &(flaky.clone() as DynBackend));
    assert!(flaky.injected() >= 8, "two failures on each of four shard files");
    let stages: Vec<&String> = loaded.iter().flat_map(|(_, stages)| stages).collect();
    assert_eq!(stages.len() as u64, flaky.injected(), "every injected failure is logged");
    assert!(stages.iter().all(|s| *s == "load/read"), "{stages:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn exhausted_retries_mid_run_fail_the_load_and_release_the_peer() {
    let dir = temp_dir("dead");
    let disk: DynBackend = Arc::new(DiskBackend::new(&dir).unwrap());
    save_step_1(&disk);
    // Rank 1 can never read a shard file; rank 0's storage is healthy, so it
    // can only fail by learning that its peer did.
    let broken: DynBackend =
        Arc::new(FaultLayer::new(disk.clone(), 0, failing_shard_reads(u32::MAX)));
    let started = Instant::now();
    let errs = on_ranks(
        saving(),
        Duration::from_secs(60),
        move |rank| if rank == 1 { broken.clone() } else { disk.clone() },
        |rank, ckpt| {
            let mut state = build_train_state(&many_tensor_arch(), MEGATRON, saving(), rank, true);
            ckpt.load(&mut LoadRequest::new("file:///job/step_1", &mut state))
                .err()
                .map(|e| e.to_string())
        },
    );
    let own = errs[1].as_ref().expect("rank 1 must fail once its retries are spent");
    assert!(own.contains("injected"), "{own}");
    assert!(errs[0].is_some(), "rank 0 must be told its peer failed");
    assert!(
        started.elapsed() < Duration::from_secs(20),
        "rank 0 must abort on the failure mark, not the 60 s collective timeout"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
