//! Chaos soak: a bounded multi-cycle train → save → kill → recover loop
//! over a 4-rank world, with seeded random stage kills and backend write
//! flakiness + latency jitter. Every recovery is `load_latest` from the
//! persistent tree. Invariants held every cycle:
//!
//! * training always resumes from the newest *committed* step, bitwise
//!   equal to the deterministic reference trajectory;
//! * committed progress is monotone — a killed save never commits, a
//!   killed load leaves the committed steps untouched;
//! * no cycle hangs anywhere near the collective timeout (failure
//!   propagation aborts survivors promptly).

use bcp_collectives::{Backend, CommWorld};
use bcp_core::api::{Checkpointer, SaveRequest};
use bcp_core::fault::FaultPlan;
use bcp_core::integrity::RetryPolicy;
use bcp_core::registry::BackendRegistry;
use bcp_model::states::{build_train_state, Framework};
use bcp_model::{zoo, TrainState, TrainerConfig};
use bcp_storage::uri::Scheme;
use bcp_storage::{DynBackend, Fault, FaultLayer, FaultRule, MemoryBackend, OpSet};
use bcp_topology::Parallelism;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

const WORLD: usize = 4;
const TIMEOUT: Duration = Duration::from_secs(10);

fn fw() -> Framework {
    Framework::Ddp
}

fn par() -> Parallelism {
    Parallelism::data_parallel(WORLD).unwrap()
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

/// The fixture that outlives worker "processes": the persistent store (one
/// flaky, jittery backend shared by every cycle).
struct Cluster {
    registry: Arc<BackendRegistry>,
    /// Raw store underneath the flaky wrapper, for commit-marker checks.
    mem: DynBackend,
}

impl Cluster {
    fn new(jitter_seed: u64) -> Cluster {
        let mem: DynBackend = Arc::new(MemoryBackend::new());
        // Every path's first write fails (exercising the retry machinery on
        // every new object) and every data op sleeps a seeded jitter.
        let rules = vec![
            FaultRule::new(OpSet::Data, Fault::Jitter { max: Duration::from_micros(200) }),
            FaultRule::new(OpSet::Writes, Fault::Fail { times: 1 }),
        ];
        let flaky: DynBackend = Arc::new(FaultLayer::new(mem.clone(), jitter_seed, rules));
        let mut reg = BackendRegistry::new();
        reg.register(Scheme::Memory, flaky);
        Cluster { registry: Arc::new(reg), mem }
    }
}

/// What one rank observed in one cycle.
#[derive(Default)]
struct RankReport {
    load_err: Option<String>,
    save_err: Option<String>,
}

/// One simulated incarnation of the job: fresh world + fresh checkpointers
/// against the cluster's persistent store.
fn run_cycle<F>(cluster: &Cluster, plan: FaultPlan, f: F) -> Vec<RankReport>
where
    F: Fn(usize, Checkpointer) -> RankReport + Send + Sync + 'static,
{
    let world = CommWorld::with_timeout(WORLD, Backend::Flat, TIMEOUT);
    let f = Arc::new(f);
    let handles: Vec<_> = (0..WORLD)
        .map(|rank| {
            let world = world.clone();
            let registry = cluster.registry.clone();
            let plan = plan.clone();
            let f = f.clone();
            std::thread::spawn(move || {
                let ckpt = Checkpointer::builder(world.communicator(rank).unwrap())
                    .framework(fw())
                    .parallelism(par())
                    .registry(registry)
                    .fault_plan(plan)
                    .retry_policy(RetryPolicy::exponential(3, Duration::from_millis(2)))
                    .build()
                    .unwrap();
                f(rank, ckpt)
            })
        })
        .collect();
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}

/// What the chaos scheduler does to a cycle.
#[derive(Clone, Copy, Debug)]
enum Kind {
    /// No injected fault (backend flakiness/jitter still applies).
    Clean,
    /// Kill `rank` at a pre-commit save stage: the step must never commit.
    KillSave(&'static str, usize),
    /// Kill `rank` at a load stage: the load fails everywhere, the
    /// checkpoint survives untouched.
    KillLoad(&'static str, usize),
}

/// Cycles 0–7 are a designed ladder that hits every kill kind and commits
/// steps 1–5; everything after is drawn from the seeded RNG.
fn schedule(cycle: usize, rng: &mut StdRng) -> Kind {
    match cycle {
        1 => Kind::KillSave("save/upload", 1),
        3 => Kind::KillSave("save/commit", 0),
        5 => Kind::KillLoad("load/read", 2),
        0..=7 => Kind::Clean,
        _ => match rng.gen_range(0..10u32) {
            0 => Kind::KillSave("save/upload", rng.gen_range(0..WORLD)),
            1 => Kind::KillSave("save/barrier", rng.gen_range(0..WORLD)),
            2 => Kind::KillSave("save/metadata", 0),
            3 => Kind::KillSave("save/commit", 0),
            4 | 5 => Kind::KillLoad("load/read", rng.gen_range(0..WORLD)),
            _ => Kind::Clean,
        },
    }
}

fn run_soak(cluster: &Cluster, cycles: usize, seed: u64) {
    assert!(cycles >= 8, "the designed scenario ladder needs 8 cycles");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut committed: Option<u64> = None;

    for cycle in 0..cycles {
        let kind = schedule(cycle, &mut rng);
        let plan = match kind {
            Kind::KillSave(stage, victim) | Kind::KillLoad(stage, victim) => {
                FaultPlan::new().kill(victim, stage)
            }
            Kind::Clean => FaultPlan::new(),
        };

        let expected = committed;
        let next = committed.map_or(1, |s| s + 1);
        let started = Instant::now();
        let reports = run_cycle(cluster, plan, move |rank, ckpt| {
            let mut report = RankReport::default();
            let mut state = build_train_state(&zoo::tiny_gpt(), fw(), par(), rank, true);
            let resumed = match ckpt.load_latest("mem://jobs/train", &mut state, None) {
                Err(e) => {
                    report.load_err = Some(e.to_string());
                    return report;
                }
                Ok(None) => {
                    assert!(
                        expected.is_none(),
                        "cycle {cycle}: rank {rank} found nothing but step {expected:?} committed"
                    );
                    0
                }
                Ok(Some(out)) => {
                    let want_step = expected.unwrap_or_else(|| {
                        panic!(
                            "cycle {cycle}: rank {rank} resumed step {} with nothing committed",
                            out.resumed_step()
                        )
                    });
                    assert_eq!(
                        out.resumed_step(),
                        want_step,
                        "cycle {cycle}: rank {rank} must resume the newest committed step"
                    );
                    let want = reference_state(rank, want_step);
                    assert_states_bitwise_eq(&state, &want, rank, &format!("cycle {cycle}"));
                    want_step
                }
            };
            TrainerConfig::default().run(&mut state, resumed, 1);
            let target = resumed + 1;
            let save = ckpt
                .save(&SaveRequest::new(format!("mem://jobs/train/step_{target}"), &state, target))
                .and_then(|t| t.wait());
            if let Err(e) = save {
                report.save_err = Some(e.to_string());
            }
            report
        });
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_secs(8),
            "cycle {cycle} ({kind:?}) took {elapsed:?}: survivors must abort via failure \
             propagation, never ride out the {TIMEOUT:?} collective timeout"
        );

        // Commit-marker ground truth (read through the raw store, no
        // injection): did this cycle's save step become durable?
        let durable = cluster.mem.exists(&format!("train/step_{next}/COMPLETE")).unwrap();
        match kind {
            Kind::Clean => {
                for (r, rep) in reports.iter().enumerate() {
                    assert!(
                        rep.load_err.is_none(),
                        "cycle {cycle}: rank {r} load failed: {:?}",
                        rep.load_err
                    );
                    assert!(
                        rep.save_err.is_none(),
                        "cycle {cycle}: rank {r} save failed: {:?}",
                        rep.save_err
                    );
                }
                assert!(durable, "cycle {cycle}: a clean cycle must commit step {next}");
                committed = Some(next);
            }
            Kind::KillLoad(stage, victim) => {
                for (r, rep) in reports.iter().enumerate() {
                    assert!(
                        rep.load_err.is_some(),
                        "cycle {cycle}: rank {r} must observe the {stage} kill"
                    );
                }
                assert!(
                    reports[victim].load_err.as_ref().unwrap().contains("injected crash"),
                    "cycle {cycle}: victim saw {:?}",
                    reports[victim].load_err
                );
                assert!(!durable, "cycle {cycle}: a failed load must not commit anything");
            }
            Kind::KillSave(stage, victim) => {
                for (r, rep) in reports.iter().enumerate() {
                    assert!(rep.load_err.is_none(), "cycle {cycle}: rank {r} load must succeed");
                    assert!(
                        rep.save_err.is_some(),
                        "cycle {cycle}: rank {r} must observe the {stage} kill"
                    );
                }
                assert!(
                    reports[victim].save_err.as_ref().unwrap().contains("injected crash"),
                    "cycle {cycle}: victim saw {:?}",
                    reports[victim].save_err
                );
                assert!(!durable, "cycle {cycle}: a {stage} kill must never commit step {next}");
            }
        }
    }

    let last = committed.expect("the soak must commit progress");
    assert!(last >= 5, "monotone progress: the scenario ladder alone commits 5+ steps, got {last}");
}

/// The full soak: 34 seeded kill/recover cycles (>= 30 per the acceptance
/// bar) over the scenario ladder plus the random chaos schedule.
#[test]
fn soak_thirty_plus_seeded_kill_recover_cycles() {
    let cluster = Cluster::new(0xC4A05);
    run_soak(&cluster, 34, 0xB07_7E57);
}

/// Bounded smoke variant for `scripts/check.sh`: the whole scenario ladder,
/// well under a minute.
#[test]
fn smoke_bounded_soak() {
    let cluster = Cluster::new(7);
    run_soak(&cluster, 8, 42);
}
