//! The load engine fetches *runs*, not items: on a many-tensor checkpoint
//! the storage operations, retries, peer forwards and the persisted load
//! artifact scale with the number of files (⌈size / chunk_bytes⌉ each), not
//! with the thousands of plan items — and the fault behaviour of the load
//! path (transient read failures absorbed under `load/read`, exhausted
//! retries failing the load and releasing the peers) is what it was per
//! item.

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

/// A flat world whose collectives give up after 60 s.
fn world() -> Arc<CommWorld> {
    CommWorld::with_timeout(WORLD, Backend::Flat, Duration::from_secs(60))
}

/// One `Checkpointer` per rank thread of `world` over `backend_for(rank)`.
fn on_ranks<T: Send + 'static>(
    world: &Arc<CommWorld>,
    par: Parallelism,
    telemetry: bool,
    backend_for: impl Fn(usize) -> DynBackend,
    f: impl Fn(usize, Checkpointer) -> T + Send + Sync + 'static,
) -> Vec<T> {
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
                    .telemetry(telemetry)
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
        &world(),
        saving(),
        true,
        move |_| disk.clone(),
        |rank, ckpt| {
            let state = reference_state(&many_tensor_arch(), MEGATRON, saving(), rank, 1);
            ckpt.save(&SaveRequest::new("file:///job/step_1", &state, 1)).unwrap().wait().unwrap();
        },
    );
}

/// One rank's view of a bitwise-checked load.
struct Loaded {
    /// Read items the rank executed.
    reads: usize,
    /// Stages of the rank's failure-log records.
    stages: Vec<String>,
    /// `LoadStats::assembled_bytes`.
    assembled_bytes: u64,
    /// Bytes of the rank's restored model and optimizer state.
    state_bytes: u64,
}

/// Load step 1 into `par` on every rank of `world`, bitwise-checked.
fn load_step_1(
    world: &Arc<CommWorld>,
    par: Parallelism,
    telemetry: bool,
    backend: &DynBackend,
) -> Vec<Loaded> {
    let backend = backend.clone();
    on_ranks(
        world,
        par,
        telemetry,
        move |_| backend.clone(),
        move |rank, ckpt| {
            let mut state = build_train_state(&many_tensor_arch(), MEGATRON, par, rank, true);
            let out = ckpt.load(&mut LoadRequest::new("file:///job/step_1", &mut state)).unwrap();
            assert_states_eq(
                &state,
                &reference_state(&many_tensor_arch(), MEGATRON, par, rank, 1),
                rank,
            );
            let entries = state.model.entries.values().chain(state.optimizer.entries.values());
            Loaded {
                reads: out.report.stats.local_reads,
                stages: ckpt.failures().records().into_iter().map(|r| r.stage).collect(),
                assembled_bytes: out.report.stats.assembled_bytes,
                state_bytes: entries.map(|e| e.tensor.nbytes() as u64).sum(),
            }
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
        let loaded = load_step_1(&world(), par, true, &(counting.clone() as DynBackend));
        let items: usize = loaded.iter().map(|l| l.reads).sum();
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

/// Forwards of deduplicated reads travel as one batch per peer per run, so
/// the messages of a load — the change in `CommWorld` ops across it, on a
/// world with telemetry off — are its fixed collectives plus at most runs ×
/// peers batches, not one message per forwarded item.
#[test]
fn peer_forwards_scale_with_runs_not_items() {
    let dir = temp_dir("msgs");
    let disk: DynBackend = Arc::new(DiskBackend::new(&dir).unwrap());
    save_step_1(&disk);
    let chunks = chunks_in_shard_files(&disk);
    // The plan gather, the assignment scatter and the load barrier, which
    // every rank of a flat world counts.
    let fixed = 3 * WORLD as u64;
    // Per rank at most `chunks + 2` runs (the storage-read bound above), each
    // posting at most one batch to each peer.
    let batches = WORLD as u64 * (chunks + 2) * (WORLD as u64 - 1);

    for (name, par) in [("same-parallelism", saving()), ("reshard", resharded())] {
        let world = world();
        let before = world.stats().snapshot().ops;
        let loaded = load_step_1(&world, par, false, &disk);
        let msgs = world.stats().snapshot().ops - before;
        let items: usize = loaded.iter().map(|l| l.reads).sum();
        assert!(
            msgs <= fixed + batches,
            "{name}: {msgs} messages for {items} read items ({fixed} collectives + at most \
             {batches} forward batches)"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The copy volume of a load: an unresharded load adopts every tensor and
/// assembles nothing; a reshard assembles some of its state, never more
/// than all of it. The rank's `load/read` span carries the same number.
#[test]
fn a_load_reports_the_bytes_it_assembles() {
    let dir = temp_dir("assembled");
    let disk: DynBackend = Arc::new(DiskBackend::new(&dir).unwrap());
    save_step_1(&disk);
    for (name, par) in [("same-parallelism", saving()), ("reshard", resharded())] {
        let loaded = load_step_1(&world(), par, true, &disk);
        for (rank, l) in loaded.iter().enumerate() {
            if par == saving() {
                assert_eq!(l.assembled_bytes, 0, "{name}: rank {rank} copied what it could adopt");
            } else {
                assert!(
                    0 < l.assembled_bytes && l.assembled_bytes <= l.state_bytes,
                    "{name}: rank {rank} assembled {} of {} state bytes",
                    l.assembled_bytes,
                    l.state_bytes
                );
            }
        }
        let artifact = dir.join("job/step_1").join(TELEMETRY_LOAD_FILE);
        let doc = StepTelemetry::from_jsonl(&std::fs::read_to_string(artifact).unwrap()).unwrap();
        let reads: Vec<_> = doc.all_spans().into_iter().filter(|s| s.name == "load/read").collect();
        assert_eq!(reads.len(), WORLD, "{name}: one load/read span per rank");
        for span in reads {
            let want = loaded[span.rank].assembled_bytes;
            assert_eq!(span.attrs.get("assembled_bytes"), Some(&want.to_string()), "{name}");
        }
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
    let loaded = load_step_1(&world(), saving(), true, &(flaky.clone() as DynBackend));
    assert!(flaky.injected() >= 8, "two failures on each of four shard files");
    let stages: Vec<&String> = loaded.iter().flat_map(|l| &l.stages).collect();
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
        &world(),
        saving(),
        true,
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
