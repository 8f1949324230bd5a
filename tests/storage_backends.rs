//! Checkpointing against every storage backend family: real disk files,
//! the simulated HDFS (with its metadata machinery and tiering), throttled
//! NAS profiles, and failure-injected backends exercising the retry path.

mod common;

use bytecheckpoint::core::metadata::{GlobalMetadata, METADATA_FILE};
use bytecheckpoint::prelude::*;
use bytecheckpoint::storage::hdfs::{HdfsConfig, Tier};
use bytecheckpoint::storage::{
    fault, Fault, FaultLayer, FaultRule, JournalBackend, JournalOp, OpSet, StorageBackend,
};
use common::{assert_states_eq, reference_state, run_ranks, run_ranks_with};
use std::sync::Arc;
use std::time::Duration;

fn registry_for(scheme: Scheme, backend: DynBackend) -> Arc<BackendRegistry> {
    let mut reg = BackendRegistry::new();
    reg.register(scheme, backend);
    Arc::new(reg)
}

fn round_trip(path: &'static str, registry: Arc<BackendRegistry>, workflow: WorkflowOptions) {
    let arch = zoo::tiny_gpt();
    let fw = Framework::Fsdp { zero3: true };
    let par = Parallelism::data_parallel(2).unwrap();
    run_ranks_with(par, fw, registry.clone(), workflow.clone(), move |rank, ckpt| {
        let state = reference_state(&zoo::tiny_gpt(), fw, par, rank, 2);
        ckpt.save(&SaveRequest::new(path, &state, 2)).unwrap().wait().unwrap();
    });
    run_ranks_with(par, fw, registry, workflow, move |rank, ckpt| {
        let mut state = build_train_state(&arch, fw, par, rank, true);
        ckpt.load(&mut LoadRequest::new(path, &mut state)).unwrap();
        assert_states_eq(&state, &reference_state(&arch, fw, par, rank, 2), rank);
    });
}

#[test]
fn disk_backend_end_to_end_with_real_files() {
    let dir = std::env::temp_dir().join(format!("bcp-it-disk-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let disk: DynBackend = Arc::new(DiskBackend::new(&dir).unwrap());
    let registry = registry_for(Scheme::File, disk.clone());
    round_trip("file:///job/disk-ckpt", registry, WorkflowOptions::default());
    // The files genuinely exist on disk with the expected layout.
    let files = disk.list("job/disk-ckpt/").unwrap();
    assert!(files.iter().any(|f| f.ends_with(METADATA_FILE)), "{files:?}");
    assert!(files.iter().any(|f| f.ends_with("COMPLETE")));
    assert!(files.iter().any(|f| f.contains("model_")));
    assert!(files.iter().any(|f| f.contains("optim_")));
    // And the metadata file on disk is one our reader accepts.
    let meta_bytes = std::fs::read(dir.join("job/disk-ckpt").join(METADATA_FILE)).unwrap();
    let meta = GlobalMetadata::from_bytes(&meta_bytes).unwrap();
    meta.validate().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn default_options_split_a_large_shard_only_where_concat_is_a_metadata_op() {
    // Default `WorkflowOptions` name 8 MiB / 4 parts, and the engine applies
    // them only where merging the parts is free (§4.3: a NameNode metadata
    // operation). Memory and disk would copy — or read, rewrite and fsync —
    // every byte a second time, so there a shard file of any size is one
    // gather-write and no `.partN` object ever exists.
    let dir = std::env::temp_dir().join(format!("bcp-it-who-splits-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let hdfs = Arc::new(HdfsBackend::with_defaults());
    let cases: [(Scheme, &'static str, DynBackend); 3] = [
        (Scheme::Memory, "mem://x/job/big", Arc::new(MemoryBackend::new())),
        (Scheme::File, "file:///job/big", Arc::new(DiskBackend::new(&dir).unwrap())),
        (Scheme::Hdfs, "hdfs://prod/job/big", hdfs.clone()),
    ];
    let arch =
        bytecheckpoint::model::TransformerConfig { hidden: 256, vocab: 2048, ..zoo::tiny_gpt() };
    let fw = Framework::Fsdp { zero3: true };
    let par = Parallelism::data_parallel(2).unwrap();
    let save_cfg = WorkflowOptions::default().save;
    let reference: Arc<Vec<TrainState>> =
        Arc::new((0..2).map(|rank| reference_state(&arch, fw, par, rank, 1)).collect());
    for (scheme, path, base) in cases {
        // The journal layer records every mutation that reaches the backend.
        let journal = Arc::new(JournalBackend::new(base).unwrap());
        let backend: DynBackend = journal.clone();
        let registry = registry_for(scheme, backend.clone());
        let states = reference.clone();
        run_ranks(par, fw, registry.clone(), move |rank, ckpt| {
            ckpt.save(&SaveRequest::new(path, &states[rank], 1)).unwrap().wait().unwrap();
        });
        let big = backend.size("job/big/optim_0.bin").unwrap();
        assert!(big > save_cfg.split_threshold, "{scheme:?}: the shard must be large ({big})");
        let ops = journal.ops();
        let seen: Vec<String> = ops.iter().map(JournalOp::label).collect();
        let writes_of = |file: &str| {
            ops.iter()
                .filter(|op| matches!(op, JournalOp::WriteSegments { path, .. } if path == file))
                .count()
        };
        let concats = ops.iter().filter(|op| matches!(op, JournalOp::Concat { .. })).count();
        if scheme == Scheme::Hdfs {
            for i in 0..save_cfg.split_parts {
                assert_eq!(writes_of(&format!("job/big/optim_0.bin.part{i}")), 1, "{seen:?}");
            }
            assert_eq!(writes_of("job/big/optim_0.bin"), 0, "{seen:?}");
            assert!(concats >= 1 && hdfs.namenode_stats().snapshot().2 >= 1, "{seen:?}");
        } else {
            let parts = seen.iter().filter(|label| label.contains(".part")).count();
            assert_eq!((parts, concats), (0, 0), "{scheme:?} split a shard: {seen:?}");
            for file in backend.list("job/big/").unwrap() {
                if file.contains("model_") || file.contains("optim_") {
                    assert_eq!(writes_of(&file), 1, "{scheme:?} {file}: {seen:?}");
                }
            }
        }
        let files = backend.list("job/big/").unwrap();
        assert!(files.iter().any(|f| f.ends_with("COMPLETE")), "{scheme:?}: {files:?}");
        assert!(files.iter().all(|f| !f.contains(".part")), "{scheme:?}: {files:?}");
        let report = scrub_step(&backend, "job/big", 1).unwrap();
        assert!(report.is_clean(), "{scheme:?}: {:?}", report.issues);
        let (arch2, states) = (arch.clone(), reference.clone());
        run_ranks(par, fw, registry, move |rank, ckpt| {
            let mut state = build_train_state(&arch2, fw, par, rank, true);
            ckpt.load(&mut LoadRequest::new(path, &mut state)).unwrap();
            assert_states_eq(&state, &states[rank], rank);
        });
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hdfs_backend_end_to_end_with_metadata_machinery() {
    let hdfs = Arc::new(HdfsBackend::new(HdfsConfig {
        meta_latency: Duration::from_micros(20),
        meta_qps_limit: None,
        parallel_concat: true,
        nnproxy_cache: true,
        cooldown_retention: Duration::from_millis(1),
    }));
    let registry = registry_for(Scheme::Hdfs, hdfs.clone());
    round_trip("hdfs://prod/job/hdfs-ckpt", registry, WorkflowOptions::default());
    let (meta_ops, _, _, _) = hdfs.namenode_stats().snapshot();
    assert!(meta_ops > 0, "checkpointing must exercise the NameNode");
    // Cool-down: age everything, migrate to HDD, and verify the checkpoint
    // still loads through the preserved paths (§5.1).
    for f in hdfs.list("job/hdfs-ckpt/").unwrap() {
        hdfs.age_object(&f, Duration::from_secs(60)).unwrap();
    }
    let migrated = hdfs.cool_down();
    assert!(migrated > 0);
    assert_eq!(hdfs.tier_of("job/hdfs-ckpt/COMPLETE").unwrap(), Tier::Hdd);
    // Post-cool-down load works unchanged.
    let arch = zoo::tiny_gpt();
    let fw = Framework::Fsdp { zero3: true };
    let par = Parallelism::data_parallel(2).unwrap();
    run_ranks(par, fw, registry_for(Scheme::Hdfs, hdfs), move |rank, ckpt| {
        let mut state = build_train_state(&arch, fw, par, rank, true);
        ckpt.load(&mut LoadRequest::new("hdfs://prod/job/hdfs-ckpt", &mut state)).unwrap();
        assert_states_eq(&state, &reference_state(&arch, fw, par, rank, 2), rank);
    });
}

#[test]
fn nas_profile_backend_round_trip() {
    let profile = fault::throttle(f64::INFINITY, f64::INFINITY, Duration::from_micros(50));
    let nas: DynBackend =
        Arc::new(FaultLayer::new(Arc::new(MemoryBackend::new()), 0, profile).named("nas"));
    round_trip(
        "nas://mount0/job/nas-ckpt",
        registry_for(Scheme::Nas, nas),
        WorkflowOptions::default(),
    );
}

#[test]
fn flaky_storage_is_absorbed_by_retries() {
    // The default retry policy allows 3 attempts.
    let fail_twice = vec![FaultRule::new(OpSet::Data, Fault::Fail { times: 2 })];
    let flaky: DynBackend =
        Arc::new(FaultLayer::new(Arc::new(MemoryBackend::new()), 0, fail_twice));
    let registry = registry_for(Scheme::Hdfs, flaky);
    let arch = zoo::tiny_gpt();
    let fw = Framework::Ddp;
    let par = Parallelism::data_parallel(2).unwrap();
    let failures: Vec<usize> = run_ranks(par, fw, registry.clone(), move |rank, ckpt| {
        let state = reference_state(&zoo::tiny_gpt(), fw, par, rank, 1);
        ckpt.save(&SaveRequest::new("hdfs://flaky/job/ckpt", &state, 1)).unwrap().wait().unwrap();
        ckpt.failures().len()
    });
    assert!(failures.iter().sum::<usize>() > 0, "failures must be logged");
    // Loads also retry through read failures.
    run_ranks(par, fw, registry, move |rank, ckpt| {
        let mut state = build_train_state(&arch, fw, par, rank, true);
        ckpt.load(&mut LoadRequest::new("hdfs://flaky/job/ckpt", &mut state)).unwrap();
        assert_states_eq(&state, &reference_state(&arch, fw, par, rank, 1), rank);
    });
}

#[test]
fn authority_routing_selects_clusters() {
    // Two HDFS "clusters"; the URI authority picks the right one.
    let a: DynBackend = Arc::new(MemoryBackend::new());
    let b: DynBackend = Arc::new(MemoryBackend::new());
    let mut reg = BackendRegistry::new();
    reg.register(Scheme::Hdfs, a.clone());
    reg.register_authority(Scheme::Hdfs, "cluster-b", b.clone());
    let registry = Arc::new(reg);
    let fw = Framework::Ddp;
    let par = Parallelism::data_parallel(1).unwrap();
    run_ranks(par, fw, registry, move |rank, ckpt| {
        let state = reference_state(&zoo::tiny_gpt(), fw, par, rank, 1);
        ckpt.save(&SaveRequest::new("hdfs://cluster-b/routed/ckpt", &state, 1))
            .unwrap()
            .wait()
            .unwrap();
    });
    assert!(b.exists("routed/ckpt/COMPLETE").unwrap());
    assert!(!a.exists("routed/ckpt/COMPLETE").unwrap());
}

#[test]
fn object_store_backend_end_to_end_with_multipart_uploads() {
    use bytecheckpoint::storage::{ObjectStoreBackend, StorageUri};

    // The URI carries the store's whole personality: part-size floor (small
    // enough that shard uploads go multipart), burst capacity, a background
    // 5xx rate for the engine's retry loop to absorb, and a fixed seed.
    let uri = StorageUri::parse(
        "object://sim/job/obj-ckpt?part_floor=4096&capacity=64&error_rate=0.005&seed=11",
    )
    .unwrap();
    let store = Arc::new(ObjectStoreBackend::from_uri(&uri).unwrap());
    let backend: DynBackend = store.clone();
    // A multipart upload is all-or-nothing to the retry loop, and at this
    // part floor a shard file is many parts, each facing the 5xx rate: with
    // the default three attempts about one save in seven lost a file.
    let mut workflow = WorkflowOptions::default();
    let retries = RetryPolicy::exponential(12, Duration::from_millis(1));
    (workflow.save.retries, workflow.load.retries) = (retries, retries);
    let registry = registry_for(Scheme::Object, backend.clone());
    round_trip("object://sim/job/obj-ckpt", registry, workflow.clone());

    let stats = store.stats();
    assert!(stats.multipart_inits > 0, "shard uploads must go multipart");
    assert!(stats.multipart_completes > 0, "committed uploads must complete");
    // Any upload killed by an injected fault was retried whole; its debris
    // is invisible to the namespace and reclaimable by the lifecycle sweep.
    assert_eq!(
        store.orphaned_uploads().len() as u64,
        stats.multipart_inits - stats.multipart_completes
    );
    store.abort_orphans();
    assert!(store.orphaned_uploads().is_empty());

    // The checkpoint still loads bitwise after the sweep.
    let arch = zoo::tiny_gpt();
    let fw = Framework::Fsdp { zero3: true };
    let par = Parallelism::data_parallel(2).unwrap();
    run_ranks_with(par, fw, registry_for(Scheme::Object, backend), workflow, move |rank, ckpt| {
        let mut state = build_train_state(&arch, fw, par, rank, true);
        ckpt.load(&mut LoadRequest::new("object://sim/job/obj-ckpt", &mut state)).unwrap();
        assert_states_eq(&state, &reference_state(&arch, fw, par, rank, 2), rank);
    });
}
