//! Checkpointing against every storage backend family: real disk files,
//! the simulated HDFS (with its metadata machinery), throttled
//! NAS profiles, failure-injected backends exercising the retry path, and
//! object-store weather (throttles, 5xx, list lag) as fault rules.

mod common;

use bytecheckpoint::core::engine::save::SPLIT_PARTS;
use bytecheckpoint::core::metadata::{GlobalMetadata, METADATA_FILE};
use bytecheckpoint::prelude::*;
use bytecheckpoint::storage::disk::MAP_MIN_BYTES;
use bytecheckpoint::storage::{
    assemble, fault, Fault, FaultLayer, FaultRule, JournalBackend, JournalOp, OpSet, StackConfig,
    StorageBackend, TestClock,
};
use bytes::Bytes;
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

/// A disk read is a snapshot of the object, mapped or copied: replacing
/// it (`write`, `write_segments`, `rename` over), appending to it or
/// deleting it leaves every earlier read holding the old bytes. The ranges
/// straddle the mapping threshold, start off every page boundary, end at
/// EOF and include an empty one.
#[test]
fn disk_reads_are_snapshots_under_every_mutation() {
    let dir = std::env::temp_dir().join(format!("bcp-it-snapshot-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let disk = DiskBackend::new(&dir).unwrap();
    let map = MAP_MIN_BYTES;
    let size = 3 * map + 4099;
    let old: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();
    let new = || Bytes::from(vec![0xA5; size as usize]);
    let ranges = [(0, 0), (10, 100), (4097, 2 * map), (size - map - 1, map + 1), (0, size)];
    for mutation in ["write", "write_segments", "rename over", "append", "delete"] {
        disk.write("snap/obj", Bytes::from(old.clone())).unwrap();
        let whole = disk.read("snap/obj").unwrap();
        let reads: Vec<Bytes> =
            ranges.iter().map(|&(at, len)| disk.read_range("snap/obj", at, len).unwrap()).collect();
        match mutation {
            "write" => disk.write("snap/obj", new()).unwrap(),
            "write_segments" => disk.write_segments("snap/obj", &[new(), new()]).unwrap(),
            "rename over" => {
                disk.write("snap/other", new()).unwrap();
                disk.rename("snap/other", "snap/obj").unwrap();
            }
            "append" => disk.append("snap/obj", &[0x5A; 4096]).unwrap(),
            "delete" => disk.delete("snap/obj").unwrap(),
            _ => unreachable!(),
        }
        assert!(whole[..] == old[..], "{mutation}: a whole read changed");
        for (&(at, len), got) in ranges.iter().zip(&reads) {
            let want = &old[at as usize..(at + len) as usize];
            assert!(got[..] == *want, "{mutation}: the read of {len} bytes at {at} changed");
        }
    }
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
    let hdfs = Arc::new(HdfsBackend::new());
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
            for i in 0..SPLIT_PARTS {
                assert_eq!(writes_of(&format!("job/big/optim_0.bin.part{i}")), 1, "{seen:?}");
            }
            assert_eq!(writes_of("job/big/optim_0.bin"), 0, "{seen:?}");
            assert!(concats >= 1 && hdfs.namenode_stats().snapshot().1 >= 1, "{seen:?}");
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
    let hdfs = Arc::new(HdfsBackend::new());
    let registry = registry_for(Scheme::Hdfs, hdfs.clone());
    round_trip("hdfs://prod/job/hdfs-ckpt", registry, WorkflowOptions::default());
    let (meta_ops, _) = hdfs.namenode_stats().snapshot();
    assert!(meta_ops > 0, "checkpointing must exercise the NameNode");
    // A second checkpointer world reloads what the first one left.
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
fn hostile_weather_round_trip() {
    // Object-store weather as fault rules over a plain memory store, all on
    // one virtual clock: one background 5xx per path, a throttle storm on
    // every shard and metadata file, and listings that lag the writes.
    const LAG: Duration = Duration::from_secs(30);
    let clock = Arc::new(TestClock::new());
    let weather = vec![
        FaultRule::new(OpSet::Data, Fault::Fail { times: 1 }),
        FaultRule::new(
            OpSet::Writes,
            Fault::SlowDown { times: 2, retry_after: Duration::from_millis(40) },
        )
        .on(".bin"),
        FaultRule::new(OpSet::Writes, Fault::ListLag(LAG)),
    ];
    let stack = assemble(
        Arc::new(MemoryBackend::new()),
        StackConfig {
            fault: Some((11, weather)),
            clock: Some(clock.clone()),
            ..Default::default()
        },
    );
    let registry = registry_for(Scheme::Object, stack.top.clone());
    let hub = MetricsHub::new();
    let arch = &zoo::tiny_gpt();
    let (fw, par) = (Framework::Fsdp { zero3: true }, Parallelism::data_parallel(2).unwrap());
    // The ranks' retry loops wait on the weather's clock, so every hint is
    // slept virtually.
    let world = CommWorld::new(2, Backend::Flat);
    let ranks: Vec<_> = (0..2)
        .map(|rank| {
            Checkpointer::builder(world.communicator(rank).unwrap())
                .framework(fw)
                .parallelism(par)
                .registry(registry.clone())
                .retry_policy(RetryPolicy::exponential(8, Duration::from_millis(1)))
                .clock(clock.clone())
                .sink(hub.sink())
                .build()
                .unwrap()
        })
        .collect();
    let path = "object://sim/job/weather";
    std::thread::scope(|s| {
        for (rank, ckpt) in ranks.iter().enumerate() {
            s.spawn(move || {
                let state = reference_state(arch, fw, par, rank, 2);
                ckpt.save(&SaveRequest::new(path, &state, 2)).unwrap().wait().unwrap();
            });
        }
    });
    // Inside the lag window the commit is readable but not yet listed.
    assert!(stack.top.exists("job/weather/COMPLETE").unwrap());
    assert!(!stack.top.list("job/weather/").unwrap().iter().any(|f| f.ends_with("COMPLETE")));
    std::thread::scope(|s| {
        for (rank, ckpt) in ranks.iter().enumerate() {
            s.spawn(move || {
                let mut state = build_train_state(arch, fw, par, rank, true);
                ckpt.load(&mut LoadRequest::new(path, &mut state)).unwrap();
                assert_states_eq(&state, &reference_state(arch, fw, par, rank, 2), rank);
            });
        }
    });
    let throttled = hub.spans().into_iter().filter(|s| s.name == "resil/throttled").count();
    let injected = stack.fault.as_ref().unwrap().injected();
    assert!(throttled > 0 && injected > 0, "{throttled} throttles, {injected} injected");
}
