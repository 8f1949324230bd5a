//! A load returns at its barrier: the coordinator gathers every rank's
//! telemetry line inline, then encodes and writes `_telemetry_load.jsonl` on
//! the handle's I/O pool. The write lands before the handle's next save,
//! load or `load_latest` starts, and before the handle drops; a failed write
//! is logged as `load/telemetry` and never fails the load.

use bytecheckpoint::prelude::*;
use bytecheckpoint::storage::{Fault, FaultLayer, FaultRule, OpSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

const PREFIX: &str = "job/step_5";
const URL: &str = "mem://x/job/step_5";

/// Two DDP ranks over `backend`, each with a default `Checkpointer` whose
/// spans also reach `sink`: save step 5, then run `after` on the handle
/// (dropped when it returns).
fn two_ranks<T: Send + 'static>(
    backend: DynBackend,
    sink: MetricsSink,
    after: impl Fn(usize, &Checkpointer) -> T + Send + Sync + 'static,
) -> Vec<T> {
    let (fw, par) = (Framework::Ddp, Parallelism::data_parallel(2).unwrap());
    let world = CommWorld::new(2, Backend::Flat);
    let after = Arc::new(after);
    let handles: Vec<_> = (0..2)
        .map(|rank| {
            let (world, backend, sink, after) =
                (world.clone(), backend.clone(), sink.clone(), after.clone());
            std::thread::spawn(move || {
                let mut registry = BackendRegistry::new();
                registry.register(Scheme::Memory, backend);
                let ckpt = Checkpointer::builder(world.communicator(rank).unwrap())
                    .framework(fw)
                    .parallelism(par)
                    .registry(Arc::new(registry))
                    .sink(sink)
                    .build()
                    .unwrap();
                let state = build_train_state(&zoo::tiny_gpt(), fw, par, rank, true);
                ckpt.save(&SaveRequest::new(URL, &state, 5)).unwrap().wait().unwrap();
                after(rank, &ckpt)
            })
        })
        .collect();
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}

fn load(ckpt: &Checkpointer, rank: usize) -> bytecheckpoint::core::Result<LoadOutcome> {
    let (fw, par) = (Framework::Ddp, Parallelism::data_parallel(2).unwrap());
    let mut target = build_train_state(&zoo::tiny_gpt(), fw, par, rank, true);
    ckpt.load(&mut LoadRequest::new(URL, &mut target))
}

/// With the artifact's write held up by a delay, each rank's `load()` still
/// returns in under half of it; the artifact is complete once the handles
/// drop, and the next load starts only after the previous artifact landed.
#[test]
fn a_load_returns_before_its_delayed_artifact_is_written() {
    const DELAY: Duration = Duration::from_millis(600);
    let memory: DynBackend = Arc::new(MemoryBackend::new());
    let slow = Fault::Delay { bytes_per_sec: f64::INFINITY, latency: DELAY };
    let rules = vec![FaultRule::new(OpSet::Writes, slow).on(TELEMETRY_LOAD_FILE)];
    let backend: DynBackend = Arc::new(FaultLayer::new(memory.clone(), 0, rules));
    let hub = MetricsHub::new();
    let artifact = memory.clone();
    let took = two_ranks(backend, hub.sink(), move |rank, ckpt| {
        let t0 = Instant::now();
        load(ckpt, rank).unwrap();
        let took = t0.elapsed();
        if rank == 0 {
            let landed = read_step_telemetry(&artifact, PREFIX, TELEMETRY_LOAD_FILE).unwrap();
            assert!(landed.is_none(), "the artifact was written inside the load");
        }
        load(ckpt, rank).unwrap();
        took
    });
    for (rank, took) in took.iter().enumerate() {
        assert!(*took < DELAY / 2, "rank {rank}'s load took {took:?}, behind a {DELAY:?} write");
    }

    let doc = read_step_telemetry(&memory, PREFIX, TELEMETRY_LOAD_FILE).unwrap();
    let doc = doc.expect("the handles' drop settles the artifact");
    assert_eq!(doc.op(), Some("load"));
    assert_eq!(doc.ranks.len(), 2);
    for line in &doc.ranks {
        let roots = line.spans.iter().filter(|s| s.parent.is_none() && s.name == "load").count();
        assert_eq!(roots, 1, "rank {}: one load root per line", line.rank);
    }

    // Rank 0's second load began after its first artifact's write ended.
    let spans = hub.spans();
    let first_write = spans
        .iter()
        .filter(|s| s.path.as_deref().is_some_and(|p| p.ends_with(TELEMETRY_LOAD_FILE)))
        .filter(|s| s.name.starts_with("storage/"))
        .map(|s| s.start_us + s.duration.as_micros() as u64)
        .min()
        .expect("the artifact's write has a storage span");
    let mut loads: Vec<u64> =
        spans.iter().filter(|s| s.name == "load" && s.rank == 0).map(|s| s.start_us).collect();
    loads.sort();
    assert_eq!(loads.len(), 2, "{loads:?}");
    assert!(
        loads[1] + 1 >= first_write,
        "second load at {}us, artifact at {first_write}us",
        loads[1]
    );
}

/// A write of the load artifact that fails leaves both loads `Ok`; the
/// coordinator's log holds one `load/telemetry` record with the artifact's
/// path once the handle's next operation has started.
#[test]
fn a_failed_artifact_write_never_fails_the_load() {
    let memory: DynBackend = Arc::new(MemoryBackend::new());
    let rules =
        vec![FaultRule::new(OpSet::Writes, Fault::Fail { times: 1 }).on(TELEMETRY_LOAD_FILE)];
    let backend: DynBackend = Arc::new(FaultLayer::new(memory, 0, rules));
    let logs = two_ranks(backend, MetricsSink::disabled(), |rank, ckpt| {
        load(ckpt, rank).expect("the failed artifact write fails nothing");
        load(ckpt, rank).unwrap();
        ckpt.failures().records()
    });
    let want = format!("{PREFIX}/{TELEMETRY_LOAD_FILE}");
    let logged: Vec<_> = logs[0].iter().filter(|f| f.stage == "load/telemetry").collect();
    assert_eq!(logged.len(), 1, "{:?}", logs[0]);
    assert_eq!(logged[0].path.as_deref(), Some(want.as_str()));
    assert!(logs[1].is_empty(), "rank 1 writes no artifact: {:?}", logs[1]);
}
