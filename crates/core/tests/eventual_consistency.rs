//! Eventual-list-consistency regression tests: recently-put keys are absent
//! from `list` for a lag window (a `Fault::ListLag` rule over a memory
//! store, on a virtual clock), while `read`/`exists` stay read-your-writes.
//! Discovery (`CheckpointManager::list`), restart GC (`gc_torn`), and
//! auto-resume (`Checkpointer::load_latest`) must tolerate this: a freshly committed step whose `COMPLETE` marker has not propagated
//! to listings must never be reaped as torn, and `load_latest` must never
//! resume from a phantom — it either falls back to the previous fully
//! visible committed step or waits out the lag, never tearing the new one.

use bcp_collectives::{Backend, CommWorld};
use bcp_core::api::{Checkpointer, SaveRequest};
use bcp_core::manager::CheckpointManager;
use bcp_core::metadata::{GlobalMetadata, COMPLETE_MARKER, METADATA_FILE};
use bcp_core::registry::BackendRegistry;
use bcp_core::scrub::scrub_step;
use bcp_model::states::{build_train_state, Framework};
use bcp_model::{zoo, TrainState, TrainerConfig};
use bcp_storage::uri::Scheme;
use bcp_storage::{
    DynBackend, Fault, FaultLayer, FaultRule, MemoryBackend, OpSet, StorageBackend, TestClock,
};
use bcp_topology::Parallelism;
use bytes::Bytes;
use std::sync::Arc;
use std::time::Duration;

const WORLD: usize = 2;
const LAG: Duration = Duration::from_secs(60);

fn lagged_store(clock: &Arc<TestClock>) -> Arc<FaultLayer> {
    let lag = vec![FaultRule::new(OpSet::Writes, Fault::ListLag(LAG))];
    Arc::new(FaultLayer::new(Arc::new(MemoryBackend::new()), 0, lag).with_clock(clock.clone()))
}

fn fake_checkpoint(backend: &DynBackend, root: &str, step: u64, committed: bool) {
    let prefix = format!("{root}/step_{step}");
    backend.write(&format!("{prefix}/model_0.bin"), Bytes::from(vec![step as u8; 64])).unwrap();
    let meta = GlobalMetadata::new("ddp", step, "TP=1,DP=1,PP=1", 1);
    backend.write(&format!("{prefix}/{METADATA_FILE}"), Bytes::from(meta.to_bytes())).unwrap();
    if committed {
        backend.write(&format!("{prefix}/{COMPLETE_MARKER}"), Bytes::from_static(b"ok")).unwrap();
    }
}

/// The S3 trap this module exists for: a step's data files have propagated
/// to listings but its `COMPLETE` marker — written last — is still
/// list-invisible. Commit detection goes through `exists` (read-your-writes
/// strong), so the step reads as committed: `gc_torn` must not reap it and
/// `latest` must keep treating it as a valid recovery point.
#[test]
fn committed_step_with_list_lagged_marker_is_never_reaped_as_torn() {
    let clock = Arc::new(TestClock::new());
    let store = lagged_store(&clock);
    let backend: DynBackend = store.clone();
    let mgr = CheckpointManager::new(backend.clone(), "job");

    // Step 100: fully propagated (committed long ago).
    fake_checkpoint(&backend, "job", 100, true);
    clock.advance(LAG + Duration::from_secs(1));

    // Step 200: data at t, marker 2 s later — their visibility windows end
    // 2 s apart.
    fake_checkpoint(&backend, "job", 200, false);
    clock.advance(Duration::from_secs(2));
    backend.write(&format!("job/step_200/{COMPLETE_MARKER}"), Bytes::from_static(b"ok")).unwrap();

    // Window 1: nothing of step 200 is list-visible yet. Discovery falls
    // back to step 100; restart GC has nothing to reap.
    assert_eq!(mgr.latest().unwrap().unwrap().step, 100);
    assert!(mgr.gc_torn().unwrap().is_empty());

    // Window 2: data list-visible, marker still lagged. A list-based commit
    // check would call this torn and delete a committed checkpoint; the
    // exists-based check must not.
    clock.advance(LAG - Duration::from_secs(1));
    let listed = backend.list("job/step_200/").unwrap();
    assert!(
        listed.iter().any(|k| k.ends_with("model_0.bin"))
            && !listed.iter().any(|k| k.ends_with(COMPLETE_MARKER)),
        "window not constructed: {listed:?}"
    );
    let latest = mgr.latest().unwrap().unwrap();
    assert_eq!((latest.step, latest.committed), (200, true));
    assert!(mgr.gc_torn().unwrap().is_empty(), "must not reap a committed step");
    assert!(backend.exists(&format!("job/step_200/{COMPLETE_MARKER}")).unwrap());
    assert!(scrub_step(&backend, "job/step_200", 200).unwrap().committed, "the scrub agrees");

    // Window 3: fully propagated — same answers, and the data survived.
    clock.advance(Duration::from_secs(3));
    assert_eq!(mgr.latest().unwrap().unwrap().step, 200);
    assert_eq!(backend.read("job/step_200/model_0.bin").unwrap(), vec![200u8; 64]);
}

fn reference_state(rank: usize, steps: u64) -> TrainState {
    let mut s = build_train_state(
        &zoo::tiny_gpt(),
        Framework::Ddp,
        Parallelism::data_parallel(WORLD).unwrap(),
        rank,
        true,
    );
    TrainerConfig::default().run(&mut s, 0, steps);
    s
}

fn assert_states_bitwise_eq(got: &TrainState, want: &TrainState, rank: usize, ctx: &str) {
    for (dict_name, got_d, want_d) in
        [("model", &got.model, &want.model), ("optimizer", &got.optimizer, &want.optimizer)]
    {
        for (fqn, w) in &want_d.entries {
            let g = got_d.get(fqn).unwrap_or_else(|| panic!("{ctx}: rank {rank} missing {fqn}"));
            assert!(
                g.tensor.bitwise_eq(&w.tensor),
                "{ctx}: rank {rank} {dict_name} {fqn} differs from reference"
            );
        }
    }
}

fn run_world<F, T>(registry: Arc<BackendRegistry>, f: F) -> Vec<T>
where
    F: Fn(usize, Checkpointer) -> T + Send + Sync + 'static,
    T: Send + 'static,
{
    let world = CommWorld::with_timeout(WORLD, Backend::Flat, Duration::from_secs(10));
    let f = Arc::new(f);
    let handles: Vec<_> = (0..WORLD)
        .map(|rank| {
            let world = world.clone();
            let registry = registry.clone();
            let f = f.clone();
            std::thread::spawn(move || {
                let ckpt = Checkpointer::builder(world.communicator(rank).unwrap())
                    .framework(Framework::Ddp)
                    .parallelism(Parallelism::data_parallel(WORLD).unwrap())
                    .registry(registry)
                    .build()
                    .unwrap();
                f(rank, ckpt)
            })
        })
        .collect();
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}

/// Full-stack version over the real save/load pipeline: a job saves step 2
/// just before a restart, inside the list-lag window. `load_latest` must
/// resume from step 1 (the last fully propagated checkpoint) without
/// touching the invisible step 2 — and once the lag passes, a second
/// restart resumes step 2 bitwise.
#[test]
fn load_latest_never_resumes_from_a_list_invisible_complete() {
    let clock = Arc::new(TestClock::new());
    let store = lagged_store(&clock);
    let mut reg = BackendRegistry::new();
    reg.register(Scheme::Object, store.clone() as DynBackend);
    let registry = Arc::new(reg);

    // Step 1 commits and fully propagates.
    run_world(registry.clone(), |rank, ckpt| {
        let state = reference_state(rank, 1);
        ckpt.save(&SaveRequest::new("object://sim/jobs/train/step_1", &state, 1))
            .unwrap()
            .wait()
            .unwrap();
    });
    clock.advance(LAG + Duration::from_secs(1));

    // Step 2 commits but none of its keys have reached listings when the
    // job restarts.
    run_world(registry.clone(), |rank, ckpt| {
        let state = reference_state(rank, 2);
        ckpt.save(&SaveRequest::new("object://sim/jobs/train/step_2", &state, 2))
            .unwrap()
            .wait()
            .unwrap();
    });
    assert!(store.exists("jobs/train/step_2/COMPLETE").unwrap());
    assert!(
        !store.list("jobs/train/step_2/").unwrap().iter().any(|k| k.ends_with("COMPLETE")),
        "step 2's marker must still be list-invisible for this test to bite"
    );

    // Restart inside the lag window: resume step 1 — never the phantom.
    run_world(registry.clone(), |rank, ckpt| {
        let mut state = build_train_state(
            &zoo::tiny_gpt(),
            Framework::Ddp,
            Parallelism::data_parallel(WORLD).unwrap(),
            rank,
            true,
        );
        let out = ckpt.load_latest("object://sim/jobs/train", &mut state, None).unwrap().unwrap();
        assert_eq!(out.resumed_step(), 1, "must resume from the fully visible step");
        assert_states_bitwise_eq(&state, &reference_state(rank, 1), rank, "lagged restart");
    });
    // The invisible step 2 must have survived that restart's GC untouched.
    assert!(store.exists("jobs/train/step_2/COMPLETE").unwrap());

    // Once listings catch up, a second restart resumes step 2 bitwise.
    clock.advance(LAG + Duration::from_secs(1));
    run_world(registry, |rank, ckpt| {
        let mut state = build_train_state(
            &zoo::tiny_gpt(),
            Framework::Ddp,
            Parallelism::data_parallel(WORLD).unwrap(),
            rank,
            true,
        );
        let out = ckpt.load_latest("object://sim/jobs/train", &mut state, None).unwrap().unwrap();
        assert_eq!(out.resumed_step(), 2, "lag passed: the newer commit wins");
        assert_states_bitwise_eq(&state, &reference_state(rank, 2), rank, "post-lag restart");
    });
}
