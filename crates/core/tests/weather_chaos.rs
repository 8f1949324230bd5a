//! Hostile-weather chaos gate: multi-rank saves/loads against one memory
//! store under object-store weather (`FaultRule`s on a shared virtual
//! clock), the engine's one retry loop the only thing between them, across
//! a designed ladder — calm → throttle storm → calm → a full outage →
//! recovery — plus seeded random weather in the long soak. The weather
//! changes by registering a new `FaultLayer` over the same store.
//! Invariants:
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
//! cluster's `TestClock`, the clock the weather layers run on.

use bcp_collectives::{Backend, CollectiveError, CommWorld};
use bcp_core::api::{Checkpointer, SaveRequest};
use bcp_core::integrity::{with_retries, FailureLog, RetryPolicy};
use bcp_core::registry::BackendRegistry;
use bcp_core::BcpError;
use bcp_model::states::{build_train_state, Framework};
use bcp_model::{zoo, TrainState, TrainerConfig};
use bcp_storage::uri::Scheme;
use bcp_storage::{
    DynBackend, Fault, FaultLayer, FaultRule, MemoryBackend, OpSet, StorageBackend, TestClock,
};
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

/// Calm: a background 5xx, once per shard or metadata path, on the way in
/// and on the way out.
fn calm() -> Vec<FaultRule> {
    vec![FaultRule::new(OpSet::Data, Fault::Fail { times: 1 }).on(".bin")]
}

/// A throttle storm: the first `times` reads or writes of every shard or
/// metadata path are told to come back after `retry_after`.
fn storm(times: u32, retry_after: Duration) -> Vec<FaultRule> {
    vec![FaultRule::new(OpSet::Data, Fault::SlowDown { times, retry_after }).on(".bin")]
}

/// An outage: every call fails, however often it is retried.
fn outage() -> Vec<FaultRule> {
    vec![FaultRule::new(OpSet::All, Fault::Fail { times: u32::MAX })]
}

/// The hostile cluster: one memory store under the current weather, on one
/// virtual clock.
struct Cluster {
    store: DynBackend,
    clock: Arc<TestClock>,
    /// The current weather over `store`, and the registry that serves it.
    weather: Arc<FaultLayer>,
    registry: Arc<BackendRegistry>,
    /// Failed attempts the ranks' retry loops absorbed, over the whole run.
    retried: Arc<AtomicUsize>,
}

impl Cluster {
    fn new() -> Cluster {
        let store: DynBackend = Arc::new(MemoryBackend::new());
        let clock = Arc::new(TestClock::new());
        let (weather, registry) = under(&store, &clock, calm());
        Cluster { store, clock, weather, registry, retried: Arc::default() }
    }

    /// Change the weather: a fresh fault layer over the same store.
    fn set_weather(&mut self, rules: Vec<FaultRule>) {
        (self.weather, self.registry) = under(&self.store, &self.clock, rules);
    }
}

/// `rules` as the weather over `store` on `clock`, and a registry serving
/// it for `object://`.
fn under(
    store: &DynBackend,
    clock: &Arc<TestClock>,
    rules: Vec<FaultRule>,
) -> (Arc<FaultLayer>, Arc<BackendRegistry>) {
    let weather = Arc::new(FaultLayer::new(store.clone(), 0, rules).with_clock(clock.clone()));
    let mut reg = BackendRegistry::new();
    reg.register(Scheme::Object, weather.clone());
    (weather, Arc::new(reg))
}

/// The run's one retry policy: enough attempts that a storm is absorbed
/// (throttles stretch each backoff by the server hint). Resume verification
/// is retried whole, so it meets each of a step's five `.bin` files'
/// throttles in turn: 2 × 5 + 1 attempts under the designed storm.
fn policy() -> RetryPolicy {
    RetryPolicy::exponential(16, Duration::from_millis(5))
}

/// Whether `step` carries its `COMPLETE` marker on the store, probed through
/// the current weather under the ranks' retry policy on the cluster's
/// clock, so a throttle or a background 5xx cannot fake the answer.
fn committed(cluster: &Cluster, step: u64) -> bool {
    let log = FailureLog::new().with_clock(cluster.clock.clone());
    let path = format!("jobs/train/step_{step}/COMPLETE");
    with_retries(policy(), &log, 0, "probe", Some(&path), || cluster.weather.exists(&path))
        .unwrap_or_else(|e| panic!("probing step {step}: {e}"))
}

/// One `Checkpointer` per rank, its retry loop — the only one in the run —
/// waiting on the cluster's clock, so every throttle's hint is slept on the
/// clock the weather runs on. No per-op deadline:
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
fn run_gauntlet(cluster: &mut Cluster, extra: usize, seed: u64) {
    // Cycle 1–2: calm bootstrap (background 5xx only).
    load_and_verify(cluster, 0, "bootstrap");
    save_step(cluster, 1, "calm");
    load_and_verify(cluster, 1, "calm resume");
    save_step(cluster, 2, "calm");

    // Cycle 3: throttling storm. The retry loop waits out every slow-down's
    // hint, and the commit still lands.
    cluster.set_weather(storm(2, Duration::from_millis(25)));
    load_and_verify(cluster, 2, "storm resume");
    save_step(cluster, 3, "storm");
    assert!(cluster.weather.injected() > 0, "the storm must actually throttle");
    assert!(committed(cluster, 3), "the storm-time commit lands");

    // Cycle 4: calm again.
    cluster.set_weather(calm());
    load_and_verify(cluster, 3, "post-storm resume");
    save_step(cluster, 4, "post-storm");

    // Cycle 5: a full outage, entered after the restore. The save fails on
    // every rank and commits nothing.
    load_and_verify(cluster, 4, "pre-outage resume");
    cluster.set_weather(outage());
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
    cluster.set_weather(calm());
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
            0 => {
                let retry_after = Duration::from_millis(rng.gen_range(8..=40));
                cluster.set_weather(storm(rng.gen_range(1..=2), retry_after))
            }
            _ => cluster.set_weather(calm()),
        }
        load_and_verify(cluster, step - 1, &ctx);
        save_step(cluster, step, &ctx);
    }
    cluster.set_weather(calm());

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
    let mut cluster = Cluster::new();
    run_gauntlet(&mut cluster, 8, 0x57_0421);
}

/// Bounded smoke variant for `scripts/check.sh`: the designed ladder only.
#[test]
fn smoke_storm() {
    let mut cluster = Cluster::new();
    run_gauntlet(&mut cluster, 0, 42);
}
