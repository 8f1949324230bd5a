//! Object-store chaos gate: multi-rank saves/loads driven through
//! `FallbackBackend(ResilientBackend(ObjectStoreBackend), Memory)` on a
//! shared virtual clock, across a designed weather ladder — calm →
//! throttling storm → calm → a full 30-virtual-second outage → recovery —
//! plus seeded random weather in the long soak. Invariants:
//!
//! * **zero failed commits**: every cycle's save lands, storm or outage
//!   (the engine's one retry loop waits out each throttle's hint while the
//!   resilience layer paces the attempts; three failed attempts in a row
//!   fail outage-time writes over to the degraded tier);
//! * **bitwise-correct restores throughout**, against the deterministic
//!   reference trajectory;
//! * **bounded hedge amplification**: hedged reads stay within the 1.1x
//!   read-amplification budget;
//! * **circuit-open calls fail fast**: a rejected call burns zero virtual
//!   time — no backend request, no backoff, no per-call deadline.
//!
//! One clock and one retry policy per run: the `Checkpointer`s wait on the
//! cluster's `TestClock`, the clock every hint below them is computed on.

use bcp_collectives::{Backend, CommWorld};
use bcp_core::api::{Checkpointer, SaveRequest};
use bcp_core::integrity::RetryPolicy;
use bcp_core::registry::BackendRegistry;
use bcp_model::states::{build_train_state, Framework};
use bcp_model::{zoo, TrainState, TrainerConfig};
use bcp_storage::uri::Scheme;
use bcp_storage::{
    assemble, CircuitState, DynBackend, FallbackBackend, MemoryBackend, ObjectStoreBackend,
    ObjectStoreConfig, ResilienceConfig, ResilientBackend, RetryClock, StackConfig, StorageBackend,
    StorageErrorKind, TestClock,
};
use bcp_topology::Parallelism;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

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

/// The hostile cluster: seeded object store → resilience layer → failover
/// into a memory tier, all on one virtual clock.
struct Cluster {
    registry: Arc<BackendRegistry>,
    clock: Arc<TestClock>,
    store: Arc<ObjectStoreBackend>,
    resilient: Arc<ResilientBackend>,
    fallback: Arc<FallbackBackend>,
    secondary: DynBackend,
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
                // upload is all-or-nothing to the retry layer: per-request
                // faults compound across its init/part/complete requests.
                error_rate: 0.005,
                reset_rate: 0.002,
                seed,
                part_size_floor: 4096,
                // A multipart upload bursts ~a dozen requests at one
                // virtual instant (zero-latency sim); the bucket must be
                // able to hold a whole burst or every storm-time upload is
                // structurally doomed no matter how well the client paces.
                capacity: 64.0,
                ..ObjectStoreConfig::default()
            },
            clock.clone(),
        ));
        // A cooldown long enough that the breaker provably stays open for
        // the fail-fast probe below.
        let mut cfg = ResilienceConfig::default();
        cfg.breaker.cooldown = Duration::from_secs(10);
        let secondary: DynBackend = Arc::new(MemoryBackend::new());
        let stack = assemble(
            store.clone(),
            StackConfig {
                resilient: Some(cfg),
                fallback: Some(secondary.clone()),
                clock: Some(clock.clone()),
                ..StackConfig::default()
            },
        );
        let mut reg = BackendRegistry::new();
        reg.register(Scheme::Object, stack.top);
        Cluster {
            registry: Arc::new(reg),
            clock,
            store,
            resilient: stack.resilient.expect("configured"),
            fallback: stack.fallback.expect("configured"),
            secondary,
            retried: Arc::default(),
        }
    }
}

/// One `Checkpointer` per rank, its retry loop — the only one in the run —
/// waiting on the cluster's clock, so every hint the stack computes is slept
/// where it was measured. Enough attempts that a storm is absorbed
/// (throttles stretch each backoff by the server hint). No per-op deadline:
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
                    .retry_policy(RetryPolicy::exponential(12, Duration::from_millis(5)))
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

/// Save step `step` on every rank; the gate's core invariant is that this
/// never fails, whatever the weather.
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

    // Cycle 3: throttling storm. The pacing layer must absorb every
    // slow-down — commits keep landing on the primary.
    cluster.store.set_rate_limit(Some(40.0));
    load_and_verify(cluster, 2, "storm resume");
    save_step(cluster, 3, "storm");
    let s = cluster.resilient.stats();
    assert!(s.throttled > 0, "the storm must actually throttle");
    assert!(s.paced_wait > Duration::ZERO, "pacing must spread the retry pressure");
    assert!(
        !cluster.fallback.is_degraded(),
        "a storm is absorbed, not failed over (events {:?}, stats {:?}, store {:?})",
        cluster.fallback.events(),
        cluster.resilient.stats(),
        cluster.store.stats()
    );
    assert!(
        cluster.store.exists("jobs/train/step_3/COMPLETE").unwrap(),
        "the storm-time commit lands on the primary"
    );

    // Cycle 4: calm again — the AIMD cap decays/releases on success.
    cluster.store.set_rate_limit(None);
    load_and_verify(cluster, 3, "post-storm resume");
    save_step(cluster, 4, "post-storm");

    // Cycle 5: full 30-virtual-second outage, entered after the restore.
    // The breaker trips, writes fail over, and the commit still lands.
    load_and_verify(cluster, 4, "pre-outage resume");
    cluster.store.outage_now(Duration::from_secs(30));
    save_step(cluster, 5, "outage");
    assert!(cluster.fallback.is_degraded(), "outage-time writes fail over");
    assert!(
        cluster.secondary.exists("jobs/train/step_5/COMPLETE").unwrap(),
        "the outage-time commit lands on the secondary tier"
    );
    // The three failed attempts that tripped the failover are three samples
    // in the breaker's window, not yet half of it. Whatever still addresses
    // the primary — here, reads of a pre-outage step — keeps failing, one
    // sample per attempt, until the window says "down" and the circuit opens.
    for _ in 0..16 {
        if cluster.resilient.circuit_state() == CircuitState::Open {
            break;
        }
        assert!(cluster.resilient.read("jobs/train/step_1/COMPLETE").is_err());
    }
    assert!(cluster.resilient.stats().circuit_opened >= 1, "the outage must open the circuit");

    // Fail-fast: with the circuit open, a call is rejected without
    // touching the backend — zero virtual time, zero sleeps, zero
    // per-call deadline burn.
    assert_eq!(cluster.resilient.circuit_state(), CircuitState::Open);
    let (t0, sleeps0) = (cluster.clock.now(), cluster.clock.sleeps().len());
    let rejected = cluster.resilient.read("jobs/train/step_1/COMPLETE");
    assert!(
        matches!(rejected.as_ref().map_err(|e| e.kind()), Err(StorageErrorKind::Throttled { .. })),
        "open circuit must reject with a retryable throttle kind: {rejected:?}"
    );
    assert_eq!(cluster.clock.now(), t0, "fail-fast must burn no virtual time");
    assert_eq!(cluster.clock.sleeps().len(), sleeps0, "fail-fast must never sleep");
    assert!(cluster.resilient.stats().circuit_rejections >= 1);

    // Cycle 6: the outage ends; restores straddle the failover boundary
    // (steps 1–4 on the primary, step 5 on the secondary) and the breaker
    // recloses via a half-open probe.
    cluster.clock.advance(Duration::from_secs(35));
    load_and_verify(cluster, 5, "post-outage resume");
    save_step(cluster, 6, "post-outage");
    load_and_verify(cluster, 6, "recovered resume");
    assert!(
        cluster.resilient.stats().circuit_closed >= 1,
        "recovery traffic must reclose the breaker through a half-open probe"
    );

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

    // Global invariants: every step committed (zero failed commits), and
    // hedging stayed inside its read-amplification budget.
    let last = 6 + extra as u64;
    for step in 1..=last {
        assert!(
            cluster.fallback.exists(&format!("jobs/train/step_{step}/COMPLETE")).unwrap(),
            "step {step} must be committed in some tier"
        );
    }
    let s = cluster.resilient.stats();
    assert!(s.reads_logical > 0, "the gauntlet must actually read");
    let amplification = (s.reads_logical + s.hedges) as f64 / s.reads_logical as f64;
    assert!(
        amplification <= 1.1,
        "hedge amplification {amplification:.3} exceeds 1.1x ({} hedges / {} reads)",
        s.hedges,
        s.reads_logical
    );
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
