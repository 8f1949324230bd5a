//! Object-store chaos gate: multi-rank saves/loads against a seeded
//! `ObjectStoreBackend` on a shared virtual clock, the engine's one retry
//! loop the only thing between them, across a designed weather ladder —
//! calm → throttling storm → calm → a full 30-virtual-second outage →
//! recovery — plus seeded random weather in the long soak. Invariants:
//!
//! * **every save outside the outage commits**, storm or calm: the retry
//!   loop waits out each throttle's hint and absorbs the background 5xx;
//! * **bitwise-correct restores throughout**, against the deterministic
//!   reference trajectory;
//! * **an outage fails cleanly and promptly**: the save fails on every rank
//!   and commits nothing, a resume fails on every rank without waiting out
//!   the collective timeout, and once the store is back the job resumes the
//!   last committed step and carries on.
//!
//! One clock and one retry policy per run: the `Checkpointer`s wait on the
//! cluster's `TestClock`, the clock every hint the store hands out is
//! computed on.

use bcp_collectives::{Backend, CollectiveError, CommWorld};
use bcp_core::api::{Checkpointer, SaveRequest};
use bcp_core::integrity::{with_retries, FailureLog, RetryPolicy};
use bcp_core::registry::BackendRegistry;
use bcp_core::BcpError;
use bcp_model::states::{build_train_state, Framework};
use bcp_model::{zoo, TrainState, TrainerConfig};
use bcp_storage::uri::Scheme;
use bcp_storage::{ObjectStoreBackend, ObjectStoreConfig, StorageBackend, TestClock};
use bcp_topology::Parallelism;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const WORLD: usize = 2;
const ROOT: &str = "object://sim/jobs/train";

fn fw() -> Framework {
    Framework::Ddp
}

fn par() -> Parallelism {
    Parallelism::data_parallel(WORLD).unwrap()
}

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

/// The hostile cluster: a seeded object store on one virtual clock.
struct Cluster {
    registry: Arc<BackendRegistry>,
    clock: Arc<TestClock>,
    store: Arc<ObjectStoreBackend>,
    /// Failed attempts the ranks' retry loops absorbed, over the whole run.
    retried: Arc<AtomicUsize>,
}

impl Cluster {
    fn new(seed: u64) -> Cluster {
        let clock = Arc::new(TestClock::new());
        let store = Arc::new(ObjectStoreBackend::with_clock(
            ObjectStoreConfig {
                // A small background 5xx rate, so the calm phases still
                // exercise the retry path. Kept low because a multipart
                // upload is all-or-nothing to the retry loop: per-request
                // faults compound across its init/part/complete requests.
                error_rate: 0.005,
                reset_rate: 0.002,
                seed,
                part_size_floor: 4096,
                // A multipart upload bursts ~a dozen requests at one
                // virtual instant (zero-latency sim); the bucket must be
                // able to hold a whole burst or every storm-time upload is
                // structurally doomed.
                capacity: 64.0,
                ..ObjectStoreConfig::default()
            },
            clock.clone(),
        ));
        let mut reg = BackendRegistry::new();
        reg.register(Scheme::Object, store.clone());
        Cluster { registry: Arc::new(reg), clock, store, retried: Arc::default() }
    }
}

/// The run's one retry policy: enough attempts that a storm is absorbed
/// (throttles stretch each backoff by the server hint).
fn policy() -> RetryPolicy {
    RetryPolicy::exponential(12, Duration::from_millis(5))
}

/// Whether `step` carries its `COMPLETE` marker on the store, probed under
/// the ranks' retry policy on the cluster's clock, so a throttle or a
/// background 5xx cannot fake the answer.
fn committed(cluster: &Cluster, step: u64) -> bool {
    let log = FailureLog::new().with_clock(cluster.clock.clone());
    let path = format!("jobs/train/step_{step}/COMPLETE");
    with_retries(policy(), &log, 0, "probe", Some(&path), || cluster.store.exists(&path))
        .unwrap_or_else(|e| panic!("probing step {step}: {e}"))
}

/// One `Checkpointer` per rank, its retry loop — the only one in the run —
/// waiting on the cluster's clock, so every hint the store computes is slept
/// where it was measured. No per-op deadline:
/// the clock is shared across rank threads, so one op's wall budget would be
/// burned by its peers' virtual sleeps.
fn run_world<F, T>(cluster: &Cluster, f: F) -> Vec<T>
where
    F: Fn(usize, &Checkpointer) -> T + Send + Sync + 'static,
    T: Send + 'static,
{
    let world = CommWorld::with_timeout(WORLD, Backend::Flat, Duration::from_secs(20));
    let f = Arc::new(f);
    let handles: Vec<_> = (0..WORLD)
        .map(|rank| {
            let world = world.clone();
            let (registry, clock) = (cluster.registry.clone(), cluster.clock.clone());
            let (f, retried) = (f.clone(), cluster.retried.clone());
            std::thread::spawn(move || {
                let ckpt = Checkpointer::builder(world.communicator(rank).unwrap())
                    .framework(fw())
                    .parallelism(par())
                    .registry(registry)
                    .retry_policy(policy())
                    .clock(clock)
                    .build()
                    .unwrap();
                let out = f(rank, &ckpt);
                let absorbed = ckpt.failures().records().iter().filter(|r| r.retried).count();
                retried.fetch_add(absorbed, Ordering::Relaxed);
                out
            })
        })
        .collect();
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}

/// Restore the newest committed step (must be `want`, bitwise) on every
/// rank. `want == 0` asserts a fresh start.
fn load_and_verify(cluster: &Cluster, want: u64, ctx: &str) {
    let ctx = ctx.to_string();
    run_world(cluster, move |rank, ckpt| {
        let mut state = build_train_state(&zoo::tiny_gpt(), fw(), par(), rank, true);
        let out = ckpt
            .load_latest(ROOT, &mut state, None)
            .unwrap_or_else(|e| panic!("{ctx}: rank {rank} load failed: {e}"));
        match out {
            None => assert_eq!(want, 0, "{ctx}: rank {rank} found nothing, wanted step {want}"),
            Some(out) => {
                assert_eq!(out.resumed_step(), want, "{ctx}: rank {rank} resumed the wrong step");
                assert_states_bitwise_eq(&state, &reference_state(rank, want), rank, &ctx);
            }
        }
    });
}

/// Save step `step` on every rank; outside an outage this never fails,
/// whatever the weather.
fn save_step(cluster: &Cluster, step: u64, ctx: &str) {
    let ctx = ctx.to_string();
    run_world(cluster, move |rank, ckpt| {
        let state = reference_state(rank, step);
        ckpt.save(&SaveRequest::new(format!("{ROOT}/step_{step}"), &state, step))
            .and_then(|t| t.wait())
            .unwrap_or_else(|e| panic!("{ctx}: rank {rank} save of step {step} failed: {e}"));
    });
}

/// The designed ladder (steps 1–6), then `extra` seeded calm/storm cycles.
fn run_gauntlet(cluster: &Cluster, extra: usize, seed: u64) {
    // Cycle 1–2: calm bootstrap (background 5xx only).
    load_and_verify(cluster, 0, "bootstrap");
    save_step(cluster, 1, "calm");
    load_and_verify(cluster, 1, "calm resume");
    save_step(cluster, 2, "calm");

    // Cycle 3: throttling storm. The retry loop waits out every slow-down's
    // hint, and the commit still lands.
    cluster.store.set_rate_limit(Some(40.0));
    load_and_verify(cluster, 2, "storm resume");
    save_step(cluster, 3, "storm");
    assert!(cluster.store.stats().throttled > 0, "the storm must actually throttle");
    assert!(committed(cluster, 3), "the storm-time commit lands");

    // Cycle 4: calm again.
    cluster.store.set_rate_limit(None);
    load_and_verify(cluster, 3, "post-storm resume");
    save_step(cluster, 4, "post-storm");

    // Cycle 5: full 30-virtual-second outage, entered after the restore.
    // The save fails on every rank and commits nothing.
    load_and_verify(cluster, 4, "pre-outage resume");
    cluster.store.outage_now(Duration::from_secs(30));
    let errs = run_world(cluster, |rank, ckpt| {
        let state = reference_state(rank, 5);
        ckpt.save(&SaveRequest::new(format!("{ROOT}/step_5"), &state, 5))
            .and_then(|t| t.wait())
            .err()
    });
    assert!(errs.iter().all(Option::is_some), "the outage save must fail everywhere: {errs:?}");
    // A resume during the outage fails on every rank, and promptly: the
    // coordinator's failed discovery releases the peer waiting for it.
    let started = Instant::now();
    let errs = run_world(cluster, |rank, ckpt| {
        let mut state = build_train_state(&zoo::tiny_gpt(), fw(), par(), rank, true);
        ckpt.load_latest(ROOT, &mut state, None).err()
    });
    assert!(matches!(errs[0], Some(BcpError::Storage(_))), "{:?}", errs[0]);
    assert!(
        matches!(errs[1], Some(BcpError::Collective(CollectiveError::PeerFailed { rank: 0 }))),
        "{:?}",
        errs[1]
    );
    assert!(started.elapsed() < Duration::from_secs(5), "took {:?}", started.elapsed());

    // Cycle 6: the outage ends; the job resumes the last committed step
    // (the torn step 5 is collected on the way) and carries on.
    cluster.clock.advance(Duration::from_secs(35));
    assert!(!committed(cluster, 5), "the outage-time save must commit nothing");
    load_and_verify(cluster, 4, "post-outage resume");
    save_step(cluster, 5, "post-outage");
    load_and_verify(cluster, 5, "post-outage recommit");
    save_step(cluster, 6, "post-outage");
    load_and_verify(cluster, 6, "recovered resume");

    // Seeded random weather tail.
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..extra {
        let step = 7 + i as u64;
        let ctx = format!("weather cycle {i}");
        match rng.gen_range(0..3u32) {
            0 => cluster.store.set_rate_limit(Some(rng.gen_range(30.0..120.0))),
            _ => cluster.store.set_rate_limit(None),
        }
        load_and_verify(cluster, step - 1, &ctx);
        save_step(cluster, step, &ctx);
    }
    cluster.store.set_rate_limit(None);

    // Global invariants: every step committed on the store, and the retry
    // path was exercised.
    let last = 6 + extra as u64;
    for step in 1..=last {
        assert!(committed(cluster, step), "step {step} must be committed");
    }
    assert!(
        cluster.retried.load(Ordering::Relaxed) > 0,
        "background 5xx + storms must exercise the retry path"
    );
}

/// The full chaos gate: designed ladder + 8 seeded weather cycles.
#[test]
fn chaos_gate_storm_and_outage_soak() {
    let cluster = Cluster::new(0x0B7EC7);
    run_gauntlet(&cluster, 8, 0x57_0421);
}

/// Bounded smoke variant for `scripts/check.sh`: the designed ladder only.
#[test]
fn smoke_storm() {
    let cluster = Cluster::new(7);
    run_gauntlet(&cluster, 0, 42);
}
