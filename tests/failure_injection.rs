//! Failure injection across the stack: worker death mid-save, torn
//! checkpoints, corrupted storage files — every case must surface a clean
//! error (never silent corruption), and previously committed checkpoints
//! must stay loadable (Appendix B's integrity guarantee).

mod common;

use bytecheckpoint::core::metadata::{GlobalMetadata, METADATA_FILE};
use bytecheckpoint::prelude::*;
use bytecheckpoint::storage::{Fault, FaultRule, OpSet};
use common::{assert_states_eq, reference_state, run_ranks};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn worker_death_during_save_leaves_no_committed_checkpoint() {
    let arch = zoo::tiny_gpt();
    let fw = Framework::Ddp;
    let par = Parallelism::data_parallel(3).unwrap();
    let mem: DynBackend = Arc::new(MemoryBackend::new());
    let registry = {
        let mut reg = BackendRegistry::new();
        reg.register(Scheme::Memory, mem.clone());
        Arc::new(reg)
    };

    // A good checkpoint first.
    let arch_c = arch.clone();
    run_ranks(par, fw, registry.clone(), move |rank, ckpt| {
        let state = reference_state(&arch_c, fw, par, rank, 1);
        ckpt.save(&SaveRequest::new("mem://x/j/good", &state, 1)).unwrap().wait().unwrap();
    });

    // Now a save where rank 2 "dies" before participating: the survivors'
    // barrier aborts and nothing is committed.
    let world = CommWorld::with_timeout(3, Backend::Flat, Duration::from_secs(5));
    let mut handles = Vec::new();
    for rank in 0..2 {
        // rank 2 never starts
        let world = world.clone();
        let registry = registry.clone();
        let arch = arch.clone();
        handles.push(std::thread::spawn(move || {
            let comm = world.communicator(rank).unwrap();
            let ckpt = Checkpointer::builder(comm)
                .framework(fw)
                .parallelism(par)
                .registry(registry)
                .build()
                .unwrap();
            let state = reference_state(&arch, fw, par, rank, 2);
            let result =
                ckpt.save(&SaveRequest::new("mem://x/j/torn", &state, 2)).and_then(|t| t.wait());
            result.err().map(|e| e.to_string())
        }));
    }
    world.inject_failure(2);
    for h in handles {
        let err = h.join().unwrap().expect("save must fail when a peer dies");
        assert!(err.contains("peer") || err.contains("timed out"), "{err}");
    }
    // The torn attempt never committed; the good checkpoint still loads.
    assert!(!mem.exists("j/torn/COMPLETE").unwrap());
    let arch_c = arch.clone();
    run_ranks(par, fw, registry, move |rank, ckpt| {
        let mut state = build_train_state(&arch_c, fw, par, rank, true);
        ckpt.load(&mut LoadRequest::new("mem://x/j/good", &mut state)).unwrap();
        assert_states_eq(&state, &reference_state(&arch_c, fw, par, rank, 1), rank);
    });
}

#[test]
fn corrupted_storage_file_is_detected_at_load() {
    let arch = zoo::tiny_gpt();
    let fw = Framework::Ddp;
    let par = Parallelism::data_parallel(1).unwrap();
    let mem: DynBackend = Arc::new(MemoryBackend::new());
    let registry = {
        let mut reg = BackendRegistry::new();
        reg.register(Scheme::Memory, mem.clone());
        Arc::new(reg)
    };
    let arch_c = arch.clone();
    run_ranks(par, fw, registry.clone(), move |rank, ckpt| {
        let state = reference_state(&arch_c, fw, par, rank, 1);
        ckpt.save(&SaveRequest::new("mem://x/j/c", &state, 1)).unwrap().wait().unwrap();
    });
    // Corrupt the metadata file: load must fail loudly.
    let meta_path = format!("j/c/{METADATA_FILE}");
    let original_meta = mem.read(&meta_path).unwrap();
    mem.write(&meta_path, bytes::Bytes::from_static(b"{broken")).unwrap();
    let arch_c = arch.clone();
    let errs = run_ranks(par, fw, registry.clone(), move |rank, ckpt| {
        let mut state = build_train_state(&arch_c, fw, par, rank, true);
        ckpt.load(&mut LoadRequest::new("mem://x/j/c", &mut state)).err().map(|e| e.to_string())
    });
    assert!(errs[0].as_ref().unwrap().contains("metadata parse error"));

    // Restore metadata but truncate a tensor file: ranged reads go out of
    // bounds -> storage error, not silent zeros.
    mem.write(&meta_path, original_meta).unwrap();
    let file = mem.read("j/c/model_0.bin").unwrap();
    mem.write("j/c/model_0.bin", file.slice(0..file.len() / 2)).unwrap();
    let arch_c = arch.clone();
    let errs = run_ranks(par, fw, registry, move |rank, ckpt| {
        let mut state = build_train_state(&arch_c, fw, par, rank, true);
        ckpt.load(&mut LoadRequest::new("mem://x/j/c", &mut state)).err().map(|e| e.to_string())
    });
    assert!(errs[0].is_some(), "truncated file must fail the load");
}

#[test]
fn metadata_tampering_is_caught_by_validation() {
    let arch = zoo::tiny_gpt();
    let fw = Framework::Ddp;
    let par = Parallelism::data_parallel(1).unwrap();
    let mem: DynBackend = Arc::new(MemoryBackend::new());
    let registry = {
        let mut reg = BackendRegistry::new();
        reg.register(Scheme::Memory, mem.clone());
        Arc::new(reg)
    };
    let arch_c = arch.clone();
    run_ranks(par, fw, registry.clone(), move |rank, ckpt| {
        let state = reference_state(&arch_c, fw, par, rank, 1);
        ckpt.save(&SaveRequest::new("mem://x/j/t", &state, 1)).unwrap().wait().unwrap();
    });
    // Tamper: inflate one shard's byte length so it no longer matches its
    // element count — validate() must reject.
    let meta_path = format!("j/t/{METADATA_FILE}");
    let mut meta = GlobalMetadata::from_bytes(&mem.read(&meta_path).unwrap()).unwrap();
    let first = meta.tensor_map.values_mut().next().unwrap();
    first[0].byte.length += 4;
    mem.write(&meta_path, bytes::Bytes::from(meta.to_bytes())).unwrap();
    let arch_c = arch.clone();
    let errs = run_ranks(par, fw, registry, move |rank, ckpt| {
        let mut state = build_train_state(&arch_c, fw, par, rank, true);
        ckpt.load(&mut LoadRequest::new("mem://x/j/t", &mut state)).err().map(|e| e.to_string())
    });
    assert!(errs[0].as_ref().unwrap().contains("byte length"), "{errs:?}");
}

#[test]
fn frame_level_crc_catches_bit_flips() {
    // Direct frame-level recovery check: decode_frames detects a flipped
    // payload bit that ranged loads wouldn't notice.
    let arch = zoo::tiny_gpt();
    let fw = Framework::Ddp;
    let par = Parallelism::data_parallel(1).unwrap();
    let mem: DynBackend = Arc::new(MemoryBackend::new());
    let registry = {
        let mut reg = BackendRegistry::new();
        reg.register(Scheme::Memory, mem.clone());
        Arc::new(reg)
    };
    let arch_c = arch.clone();
    run_ranks(par, fw, registry, move |rank, ckpt| {
        let state = reference_state(&arch_c, fw, par, rank, 1);
        ckpt.save(&SaveRequest::new("mem://x/j/f", &state, 1)).unwrap().wait().unwrap();
    });
    let clean = mem.read("j/f/model_0.bin").unwrap();
    assert!(bytecheckpoint::core::format::decode_frames(&clean).is_ok());
    let mut flipped = clean.to_vec();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x01;
    let err = bytecheckpoint::core::format::decode_frames(&bytes::Bytes::from(flipped));
    assert!(err.is_err(), "bit flip must fail CRC verification");
}

/// Two committed DDP steps under `mem://x/<root>/step_{1,2}`; returns the
/// store.
fn two_committed_steps(root: &'static str, par: Parallelism) -> DynBackend {
    let mem: DynBackend = Arc::new(MemoryBackend::new());
    let mut reg = BackendRegistry::new();
    reg.register(Scheme::Memory, mem.clone());
    run_ranks(par, Framework::Ddp, Arc::new(reg), move |rank, ckpt| {
        for step in [1, 2] {
            let state = reference_state(&zoo::tiny_gpt(), Framework::Ddp, par, rank, step);
            ckpt.save(&SaveRequest::new(format!("mem://x/{root}/step_{step}"), &state, step))
                .unwrap()
                .wait()
                .unwrap();
        }
    });
    mem
}

/// A registry over `mem` behind a schedule of one-shot failures, plus the
/// injector (shared by every rank) to count what fired.
fn behind_faults(
    mem: &DynBackend,
    rules: Vec<FaultRule>,
) -> (Arc<BackendRegistry>, Arc<FaultLayer>) {
    let faulty = Arc::new(FaultLayer::new(mem.clone(), 0, rules));
    let mut reg = BackendRegistry::new();
    reg.register(Scheme::Memory, faulty.clone());
    (Arc::new(reg), faulty)
}

#[test]
fn a_transient_read_during_verification_does_not_quarantine_the_newest_step() {
    let fw = Framework::Ddp;
    let par = Parallelism::data_parallel(2).unwrap();
    let mem = two_committed_steps("verify", par);
    // The first read of the newest step's metadata — the coordinator's
    // verification scrub — fails once.
    let meta = format!("step_2/{METADATA_FILE}");
    let (registry, faulty) =
        behind_faults(&mem, vec![FaultRule::new(OpSet::Reads, Fault::Fail { times: 1 }).on(&meta)]);
    let resumed = run_ranks(par, fw, registry, move |rank, ckpt| {
        let mut state = build_train_state(&zoo::tiny_gpt(), fw, par, rank, true);
        let out = ckpt.load_latest("mem://x/verify", &mut state, None).unwrap().unwrap();
        assert_states_eq(&state, &reference_state(&zoo::tiny_gpt(), fw, par, rank, 2), rank);
        (out.resumed_step(), out.quarantined)
    });
    assert_eq!(faulty.injected(), 1, "the scheduled failure fired");
    for (step, quarantined) in resumed {
        assert_eq!(step, 2, "no fallback to the older step");
        assert!(quarantined.is_empty(), "a healthy step was set aside: {quarantined:?}");
    }
    let mgr = CheckpointManager::new(mem.clone(), "verify");
    assert_eq!(mgr.latest().unwrap().unwrap().step, 2);
    assert!(mem.list("verify/quarantine").unwrap().is_empty());
}

#[test]
fn a_load_survives_one_failed_commit_marker_probe() {
    let fw = Framework::Ddp;
    let par = Parallelism::data_parallel(2).unwrap();
    let mem = two_committed_steps("probe", par);
    let (registry, faulty) = behind_faults(
        &mem,
        vec![FaultRule::new(OpSet::Meta, Fault::Fail { times: 1 }).on("step_2/COMPLETE")],
    );
    let retried = run_ranks(par, fw, registry, move |rank, ckpt| {
        let mut state = build_train_state(&zoo::tiny_gpt(), fw, par, rank, true);
        ckpt.load(&mut LoadRequest::new("mem://x/probe/step_2", &mut state)).unwrap();
        assert_states_eq(&state, &reference_state(&zoo::tiny_gpt(), fw, par, rank, 2), rank);
        ckpt.failures().records().iter().filter(|r| r.stage == "load/metadata" && r.retried).count()
    });
    assert_eq!(faulty.injected(), 1, "the scheduled failure fired");
    assert_eq!(retried.iter().sum::<usize>(), 1, "absorbed under the load retry policy");
}

/// The resume path's storage operations outside the load workflow — step
/// discovery under the job root and the dataloader files — run under the
/// load retry policy like everything inside it.
#[test]
fn a_resume_survives_one_failure_of_every_discovery_probe_and_loader_read() {
    let fw = Framework::Ddp;
    let par = Parallelism::data_parallel(2).unwrap();
    let replicated = LoaderReplicatedState {
        workers_per_rank: 2,
        dp_size: 2,
        sources: vec![DataSource { name: "web".into(), ratio: 1.0, seed: 5 }],
        context_window: 4096,
    };
    let shard_of = {
        let replicated = replicated.clone();
        move |rank: usize| {
            let mut dl = Dataloader::new(replicated.clone(), rank);
            (0..3 + rank).for_each(|_| drop(dl.next_batch()));
            dl.shard_state()
        }
    };
    let mem: DynBackend = Arc::new(MemoryBackend::new());
    let mut reg = BackendRegistry::new();
    reg.register(Scheme::Memory, mem.clone());
    let (rep, shards) = (replicated.clone(), shard_of.clone());
    run_ranks(par, fw, Arc::new(reg), move |rank, ckpt| {
        let state = reference_state(&zoo::tiny_gpt(), fw, par, rank, 1);
        let shard = shards(rank);
        let req = SaveRequest::new("mem://x/resume/step_1", &state, 1).with_loader(&rep, &shard);
        ckpt.save(&req).unwrap().wait().unwrap();
    });

    // The first read of each dataloader file fails once, and so does the
    // first probe of each path under the job root: discovery's `step_`
    // listing and commit-marker check, the scrub's listing of the step.
    let (registry, faulty) = behind_faults(
        &mem,
        vec![
            FaultRule::new(OpSet::Reads, Fault::Fail { times: 1 }).on("/loader/"),
            FaultRule::new(OpSet::Meta, Fault::Fail { times: 1 }).on("resume/step_"),
        ],
    );
    let logs = run_ranks(par, fw, registry, move |rank, ckpt| {
        let mut state = build_train_state(&zoo::tiny_gpt(), fw, par, rank, true);
        let target = LoaderTarget::new(2, 2, rank);
        let out = ckpt.load_latest("mem://x/resume", &mut state, Some(target)).unwrap().unwrap();
        assert_eq!(out.resumed_step(), 1);
        assert_states_eq(&state, &reference_state(&zoo::tiny_gpt(), fw, par, rank, 1), rank);
        assert_eq!(out.loader, Some((replicated.clone(), shard_of(rank))), "rank {rank}");
        ckpt.failures().records()
    });
    // replicated.json + 2 ranks x 2 workers; discovery's listing and marker
    // probe, and the verification scrub's listing of the step.
    assert_eq!(faulty.injected(), 5 + 3, "every scheduled failure fired");
    let records: Vec<_> = logs.into_iter().flatten().collect();
    assert_eq!(records.len(), 8, "one record per injected failure: {records:?}");
    assert!(records.iter().all(|r| r.retried), "{records:?}");
    let at = |stage: &str| records.iter().filter(|r| r.stage == stage).count();
    let by_stage = (at("load/loader"), at("load/discover"), at("load/verify"));
    assert_eq!(by_stage, (5, 2, 1), "{records:?}");
}
