//! Recovery-subsystem integration tests: the crash-stage fault matrix
//! (Appendix B's claim that no single-worker failure can commit a torn
//! checkpoint), auto-resume via `load_latest`, and graceful degradation to
//! a fallback storage tier.

use bcp_collectives::{Backend, CommWorld};
use bcp_core::api::{Checkpointer, LoadRequest, SaveRequest};
use bcp_core::fault::{FaultPlan, LOAD_STAGES};
use bcp_core::registry::BackendRegistry;
use bcp_model::states::{build_train_state, Framework};
use bcp_model::{zoo, TrainState, TrainerConfig};
use bcp_storage::uri::Scheme;
use bcp_storage::{
    DynBackend, FallbackBackend, Fault, FaultLayer, FaultRule, MemoryBackend, OpSet,
};
use bcp_topology::Parallelism;
use std::sync::Arc;
use std::time::Duration;

const WORLD: usize = 2;

fn fw() -> Framework {
    Framework::Ddp
}

fn par() -> Parallelism {
    Parallelism::data_parallel(WORLD).unwrap()
}

fn memory_registry() -> (Arc<BackendRegistry>, DynBackend) {
    let mem: DynBackend = Arc::new(MemoryBackend::new());
    let mut reg = BackendRegistry::new();
    reg.register(Scheme::Memory, mem.clone());
    (Arc::new(reg), mem)
}

/// Ground-truth state at `rank` after `steps` deterministic training steps.
fn reference_state(rank: usize, steps: u64) -> TrainState {
    let mut s = build_train_state(&zoo::tiny_gpt(), fw(), par(), rank, true);
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

/// Spawn one thread per rank over a fresh world (bounded collective timeout
/// so an injected crash can never hang the suite) and run `f`.
fn run_world<F, T>(registry: Arc<BackendRegistry>, faults: FaultPlan, f: F) -> Vec<T>
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
            let faults = faults.clone();
            let f = f.clone();
            std::thread::spawn(move || {
                let ckpt = Checkpointer::builder(world.communicator(rank).unwrap())
                    .framework(fw())
                    .parallelism(par())
                    .registry(registry)
                    .fault_plan(faults)
                    .build()
                    .unwrap();
                f(rank, ckpt)
            })
        })
        .collect();
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}

/// Appendix B, made exhaustive: kill one rank at every named stage of the
/// save pipeline. Whatever the stage, (a) every rank observes the failure,
/// (b) the torn step never gains a `COMPLETE` marker, and (c) a restarted
/// job auto-resumes from the last committed step with the torn one GC'd.
#[test]
fn crash_at_every_save_stage_never_commits_and_auto_resumes() {
    // Coordinator-only stages kill rank 0; the rest kill a non-coordinator
    // so both "victim" and "survivor" code paths are exercised.
    let cases: &[(&str, usize)] = &[
        ("save/plan", 1),
        ("save/capture", 1),
        ("save/serialize", 1),
        ("save/upload", 1),
        ("save/barrier", 1),
        ("save/metadata", 0),
        ("save/commit", 0),
    ];
    for &(stage, victim) in cases {
        let (registry, mem) = memory_registry();

        // Step 1 commits cleanly — the checkpoint recovery must land on.
        run_world(registry.clone(), FaultPlan::new(), move |rank, ckpt| {
            let state = reference_state(rank, 1);
            ckpt.save(&SaveRequest::new("mem://jobs/train/step_1", &state, 1))
                .unwrap()
                .wait()
                .unwrap();
        });

        // Step 2: the victim dies mid-save. Every rank must error — the
        // victim with the injected crash, its peers via `PeerFailed`
        // collectives — and the step must never commit.
        let errs =
            run_world(registry.clone(), FaultPlan::new().kill(victim, stage), move |rank, ckpt| {
                let state = reference_state(rank, 2);
                ckpt.save(&SaveRequest::new("mem://jobs/train/step_2", &state, 2))
                    .and_then(|t| t.wait())
                    .err()
                    .map(|e| e.to_string())
            });
        for (rank, err) in errs.iter().enumerate() {
            assert!(err.is_some(), "{stage}: rank {rank} must observe the failure");
        }
        assert!(
            errs[victim].as_ref().unwrap().contains("injected crash"),
            "{stage}: victim saw {:?}",
            errs[victim]
        );
        assert!(
            !mem.exists("train/step_2/COMPLETE").unwrap(),
            "{stage}: torn step must never commit"
        );

        // Restart: a fresh world resumes from step 1; the torn step_2
        // debris is garbage-collected along the way.
        run_world(registry, FaultPlan::new(), move |rank, ckpt| {
            let mut state = build_train_state(&zoo::tiny_gpt(), fw(), par(), rank, true);
            let out = ckpt
                .load_latest("mem://jobs/train", &mut state, None)
                .unwrap()
                .unwrap_or_else(|| panic!("{stage}: a committed step must survive"));
            assert_eq!(out.resumed_step(), 1, "{stage}: must resume from the committed step");
            let want = reference_state(rank, 1);
            assert_states_bitwise_eq(&state, &want, rank, stage);
        });
        assert!(
            mem.list("train/step_2").unwrap().is_empty(),
            "{stage}: torn step must be GC'd on resume"
        );
    }
}

/// The load-side half of the matrix: a rank dying at any load stage fails
/// the load on every rank but leaves the checkpoint itself untouched, so a
/// retry on a healthy world succeeds.
#[test]
fn crash_at_every_load_stage_leaves_checkpoint_loadable() {
    let (registry, _mem) = memory_registry();
    run_world(registry.clone(), FaultPlan::new(), move |rank, ckpt| {
        let state = reference_state(rank, 1);
        ckpt.save(&SaveRequest::new("mem://jobs/train/step_1", &state, 1)).unwrap().wait().unwrap();
    });

    for &stage in LOAD_STAGES {
        let errs =
            run_world(registry.clone(), FaultPlan::new().kill(1, stage), move |rank, ckpt| {
                let mut state = build_train_state(&zoo::tiny_gpt(), fw(), par(), rank, true);
                ckpt.load(&mut LoadRequest::new("mem://jobs/train/step_1", &mut state))
                    .err()
                    .map(|e| e.to_string())
            });
        for (rank, err) in errs.iter().enumerate() {
            assert!(err.is_some(), "{stage}: rank {rank} must observe the failure");
        }
        assert!(
            errs[1].as_ref().unwrap().contains("injected crash"),
            "{stage}: victim saw {:?}",
            errs[1]
        );
    }

    // The failed loads were read-only: a healthy world still resumes.
    run_world(registry, FaultPlan::new(), move |rank, ckpt| {
        let mut state = build_train_state(&zoo::tiny_gpt(), fw(), par(), rank, true);
        let out = ckpt.load_latest("mem://jobs/train", &mut state, None).unwrap().unwrap();
        assert_eq!(out.resumed_step(), 1);
        let want = reference_state(rank, 1);
        assert_states_bitwise_eq(&state, &want, rank, "post-load-crash resume");
    });
}

/// The overlapped-load hang window: a peer dying mid-load must abort the
/// survivors *promptly* via rendezvous failure propagation — the condvar
/// wake-up on `mark_failed`, not the collective timeout expiring. The world
/// runs with a 10 s timeout; the whole failed load must finish far sooner.
#[test]
fn peer_death_mid_load_aborts_survivors_promptly() {
    let (registry, _mem) = memory_registry();
    run_world(registry.clone(), FaultPlan::new(), move |rank, ckpt| {
        let state = reference_state(rank, 1);
        ckpt.save(&SaveRequest::new("mem://jobs/train/step_1", &state, 1)).unwrap().wait().unwrap();
    });

    let started = std::time::Instant::now();
    let errs = run_world(registry, FaultPlan::new().kill(1, "load/read"), move |rank, ckpt| {
        let mut state = build_train_state(&zoo::tiny_gpt(), fw(), par(), rank, true);
        ckpt.load(&mut LoadRequest::new("mem://jobs/train/step_1", &mut state))
            .err()
            .map(|e| e.to_string())
    });
    let elapsed = started.elapsed();
    for (rank, err) in errs.iter().enumerate() {
        assert!(err.is_some(), "rank {rank} must observe the mid-load failure");
    }
    assert!(
        elapsed < Duration::from_secs(5),
        "survivors must abort via failure propagation, not the 10s timeout (took {elapsed:?})"
    );
}

/// `load_latest` on an empty root is a fresh start, not an error.
#[test]
fn load_latest_on_empty_root_is_a_fresh_start() {
    let (registry, _mem) = memory_registry();
    run_world(registry, FaultPlan::new(), move |rank, ckpt| {
        let mut state = build_train_state(&zoo::tiny_gpt(), fw(), par(), rank, true);
        assert!(ckpt.load_latest("mem://jobs/untouched", &mut state, None).unwrap().is_none());
        rank
    });
}

/// Graceful degradation end to end: a save against a dead primary tier
/// trips the [`FallbackBackend`] onto its secondary, the downgrade is
/// recorded once, and the checkpoint written across the failover loads back
/// bitwise-intact. (That an assembled stack streams the trip as a
/// `storage/failover` span is pinned in `tests/telemetry_report.rs`.)
#[test]
fn degraded_primary_fails_over_and_is_recorded() {
    let secondary: DynBackend = Arc::new(MemoryBackend::new());
    // The primary tier is down for good.
    let dead = vec![FaultRule::new(OpSet::Writes, Fault::Fail { times: u32::MAX })];
    let primary: DynBackend = Arc::new(FaultLayer::new(Arc::new(MemoryBackend::new()), 0, dead));
    let fallback = Arc::new(FallbackBackend::with_threshold(primary, secondary.clone(), 1));

    let registry = {
        let backend: DynBackend = fallback.clone();
        let mut reg = BackendRegistry::new();
        reg.register(Scheme::Memory, backend);
        Arc::new(reg)
    };

    // The save must succeed despite every primary write failing: the first
    // failure trips the wrapper and the whole checkpoint lands on the
    // secondary tier.
    run_world(registry.clone(), FaultPlan::new(), move |rank, ckpt| {
        let state = reference_state(rank, 1);
        ckpt.save(&SaveRequest::new("mem://prod/job/step_1", &state, 1)).unwrap().wait().unwrap();
    });

    assert!(fallback.is_degraded(), "dead primary must trip the wrapper");
    assert!(
        secondary.exists("job/step_1/COMPLETE").unwrap(),
        "the commit marker must land on the secondary tier"
    );
    assert_eq!(fallback.events().len(), 1, "the trip is recorded exactly once");

    // Reads consult both tiers, so the degraded wrapper still resumes.
    run_world(registry, FaultPlan::new(), move |rank, ckpt| {
        let mut state = build_train_state(&zoo::tiny_gpt(), fw(), par(), rank, true);
        let out = ckpt.load_latest("mem://prod/job", &mut state, None).unwrap().unwrap();
        assert_eq!(out.resumed_step(), 1);
        let want = reference_state(rank, 1);
        assert_states_bitwise_eq(&state, &want, rank, "failover resume");
    });
}
