//! Checkpointing against every storage backend family: real disk files,
//! the simulated HDFS (with its metadata machinery and tiering), throttled
//! NAS profiles, and failure-injected backends exercising the retry path.

mod common;

use bytecheckpoint::core::metadata::{GlobalMetadata, METADATA_FILE};
use bytecheckpoint::prelude::*;
use bytecheckpoint::storage::hdfs::{HdfsConfig, Tier};
use bytecheckpoint::storage::{fault, Fault, FaultLayer, FaultRule, OpSet, StorageBackend};
use common::{assert_states_eq, reference_state, run_ranks};
use std::sync::Arc;
use std::time::Duration;

fn registry_for(scheme: Scheme, backend: DynBackend) -> Arc<BackendRegistry> {
    let mut reg = BackendRegistry::new();
    reg.register(scheme, backend);
    Arc::new(reg)
}

fn round_trip(path: &'static str, registry: Arc<BackendRegistry>) {
    let arch = zoo::tiny_gpt();
    let fw = Framework::Fsdp { zero3: true };
    let par = Parallelism::data_parallel(2).unwrap();
    run_ranks(par, fw, registry.clone(), move |rank, ckpt| {
        let state = reference_state(&zoo::tiny_gpt(), fw, par, rank, 2);
        ckpt.save(&SaveRequest::new(path, &state, 2)).unwrap().wait().unwrap();
    });
    run_ranks(par, fw, registry, move |rank, ckpt| {
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
    round_trip("file:///job/disk-ckpt", registry_for(Scheme::File, disk.clone()));
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
fn disk_backend_default_options_split_upload_of_a_large_shard() {
    // Default `WorkflowOptions` split any file above 8 MiB into four parts
    // written concurrently and merged by `concat`. The parts' names differ
    // only after the last dot (`optim_0.bin.part0..3`), which used to land
    // them all on one temp path on disk.
    let dir = std::env::temp_dir().join(format!("bcp-it-disk-split-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let disk: DynBackend = Arc::new(DiskBackend::new(&dir).unwrap());
    let registry = registry_for(Scheme::File, disk.clone());
    let arch =
        bytecheckpoint::model::TransformerConfig { hidden: 256, vocab: 2048, ..zoo::tiny_gpt() };
    let fw = Framework::Fsdp { zero3: true };
    let par = Parallelism::data_parallel(2).unwrap();
    let path = "file:///job/split-ckpt";
    let arch2 = arch.clone();
    run_ranks(par, fw, registry.clone(), move |rank, ckpt| {
        let state = reference_state(&arch2, fw, par, rank, 1);
        ckpt.save(&SaveRequest::new(path, &state, 1)).unwrap().wait().unwrap();
    });
    let split = WorkflowOptions::default().save.split_threshold;
    assert!(disk.size("job/split-ckpt/optim_0.bin").unwrap() > split, "shard must be split");
    let files = disk.list("job/split-ckpt/").unwrap();
    assert!(files.iter().any(|f| f.ends_with("COMPLETE")), "{files:?}");
    assert!(files.iter().all(|f| !f.contains(".part")), "{files:?}");
    let report = scrub_step(&disk, "job/split-ckpt", 1).unwrap();
    assert!(report.is_clean(), "{:?}", report.issues);
    run_ranks(par, fw, registry, move |rank, ckpt| {
        let mut state = build_train_state(&arch, fw, par, rank, true);
        ckpt.load(&mut LoadRequest::new(path, &mut state)).unwrap();
        assert_states_eq(&state, &reference_state(&arch, fw, par, rank, 1), rank);
    });
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
    round_trip("hdfs://prod/job/hdfs-ckpt", registry_for(Scheme::Hdfs, hdfs.clone()));
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
    round_trip("nas://mount0/job/nas-ckpt", registry_for(Scheme::Nas, nas));
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
    use bytecheckpoint::storage::{ObjectStoreBackend, ResilientBackend, StorageUri};

    // The URI carries the store's whole personality: part-size floor (small
    // enough that shard uploads go multipart), burst capacity, a background
    // 5xx rate for the resilience layer to absorb, and a fixed seed.
    let uri = StorageUri::parse(
        "object://sim/job/obj-ckpt?part_floor=4096&capacity=64&error_rate=0.005&seed=11",
    )
    .unwrap();
    let store = Arc::new(ObjectStoreBackend::from_uri(&uri).unwrap());
    let resilient: DynBackend = Arc::new(ResilientBackend::new(store.clone() as DynBackend));
    round_trip("object://sim/job/obj-ckpt", registry_for(Scheme::Object, resilient.clone()));

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
    run_ranks(par, fw, registry_for(Scheme::Object, resilient), move |rank, ckpt| {
        let mut state = build_train_state(&arch, fw, par, rank, true);
        ckpt.load(&mut LoadRequest::new("object://sim/job/obj-ckpt", &mut state)).unwrap();
        assert_states_eq(&state, &reference_state(&arch, fw, par, rank, 2), rank);
    });
}
