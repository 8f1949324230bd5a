//! Chaos soak: a bounded multi-cycle train → save → kill → recover loop
//! over a 2-host/4-rank world with the hot tier enabled, seeded random
//! stage kills, backend write flakiness + latency jitter, and host-memory
//! wipes. Invariants held every cycle:
//!
//! * training always resumes from the newest *committed* step, bitwise
//!   equal to the deterministic reference trajectory;
//! * committed progress is monotone — a torn save never commits, a
//!   post-commit death never un-commits;
//! * no cycle hangs anywhere near the collective timeout (failure
//!   propagation aborts survivors promptly);
//! * recoveries are served from peer hot-tier replicas when coverage
//!   exists (≥ 90% hot at least once), degrade to a partial overlay when a
//!   source's copies died, and fall through to the persistent tree
//!   entirely — without error — after a full host-memory wipe.

use bcp_collectives::{Backend, CommWorld};
use bcp_core::api::{Checkpointer, SaveRequest};
use bcp_core::fault::FaultPlan;
use bcp_core::integrity::RetryPolicy;
use bcp_core::registry::BackendRegistry;
use bcp_core::HotTierConfig;
use bcp_model::states::{build_train_state, Framework};
use bcp_model::{zoo, TrainState, TrainerConfig};
use bcp_storage::uri::Scheme;
use bcp_storage::{DynBackend, Fault, FaultLayer, FaultRule, HotTier, MemoryBackend, OpSet};
use bcp_topology::Parallelism;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

const WORLD: usize = 4;
const GPUS_PER_HOST: usize = 2; // host 0 = ranks {0,1}, host 1 = ranks {2,3}
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

/// The fixtures that outlive worker "processes": the persistent store (one
/// flaky, jittery backend shared by every cycle) and per-rank hot tiers
/// (host memory surviving a process restart).
struct Cluster {
    registry: Arc<BackendRegistry>,
    /// Raw store underneath the flaky wrapper, for commit-marker checks.
    mem: DynBackend,
    tiers: Vec<Arc<HotTier>>,
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
        Cluster {
            registry: Arc::new(reg),
            mem,
            tiers: (0..WORLD).map(|_| Arc::new(HotTier::new(2))).collect(),
        }
    }
}

/// What one rank observed in one cycle.
#[derive(Default)]
struct RankReport {
    load_err: Option<String>,
    save_err: Option<String>,
    hot_files: usize,
    cold_files: usize,
    fallbacks: Vec<String>,
}

/// One simulated incarnation of the job: fresh world + fresh checkpointers
/// against the cluster's persistent store and hot tiers.
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
            let tier = cluster.tiers[rank].clone();
            let plan = plan.clone();
            let f = f.clone();
            std::thread::spawn(move || {
                let ckpt = Checkpointer::builder(world.communicator(rank).unwrap())
                    .framework(fw())
                    .parallelism(par())
                    .registry(registry)
                    .fault_plan(plan)
                    .retry_policy(RetryPolicy::exponential(3, Duration::from_millis(2)))
                    .hot_tier_handle(tier)
                    .hot_tier(
                        HotTierConfig::enabled()
                            .gpus_per_host(GPUS_PER_HOST)
                            .replicas(1)
                            .capacity_steps(2),
                    )
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
    /// Wipe one host's hot tiers before the cycle (single-failure-domain
    /// memory loss; placement must keep recovery 100% hot).
    WipeHost(usize),
    /// Wipe every hot tier (total memory loss; recovery must fall through
    /// to the persistent tree without error).
    WipeAll,
    /// Kill `rank` at a pre-commit save stage: the step must never commit.
    KillSave(&'static str, usize),
    /// Kill `rank` at the post-commit hot replication: the step stays
    /// committed, hot coverage degrades.
    KillSaveHot(usize),
    /// Kill `rank` at a load stage: the load fails everywhere, the
    /// checkpoint survives untouched.
    KillLoad(&'static str, usize),
}

/// Cycles 0–5 are a designed scenario ladder (bootstrap → replicated →
/// host wipe → post-commit death → partial-hot recovery → total wipe);
/// everything after is drawn from the seeded RNG.
fn schedule(cycle: usize, rng: &mut StdRng) -> Kind {
    match cycle {
        0 | 1 => Kind::Clean,
        2 => Kind::WipeHost(0),
        3 => Kind::KillSaveHot(1),
        4 => Kind::Clean, // resumes the step whose hot coverage lost rank 1
        5 => Kind::WipeAll,
        _ => match rng.gen_range(0..10u32) {
            0 => Kind::KillSave("save/upload", rng.gen_range(0..WORLD)),
            1 => Kind::KillSave("save/barrier", rng.gen_range(0..WORLD)),
            2 => Kind::KillSave("save/metadata", 0),
            3 => Kind::KillSave("save/commit", 0),
            4 => Kind::KillSaveHot(rng.gen_range(0..WORLD)),
            5 => Kind::KillLoad("load/read", rng.gen_range(0..WORLD)),
            6 => Kind::KillLoad("load/hot", rng.gen_range(0..WORLD)),
            _ => Kind::Clean,
        },
    }
}

fn run_soak(cluster: &Cluster, cycles: usize, seed: u64) {
    assert!(cycles >= 6, "the designed scenario ladder needs 6 cycles");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut committed: Option<u64> = None;
    let mut full_hot_recoveries = 0usize;

    for cycle in 0..cycles {
        let kind = schedule(cycle, &mut rng);
        match kind {
            Kind::WipeHost(h) => {
                for tier in &cluster.tiers[h * GPUS_PER_HOST..(h + 1) * GPUS_PER_HOST] {
                    tier.wipe();
                }
            }
            Kind::WipeAll => cluster.tiers.iter().for_each(|t| t.wipe()),
            _ => {}
        }
        let plan = match kind {
            Kind::KillSave(stage, victim) | Kind::KillLoad(stage, victim) => {
                FaultPlan::new().kill(victim, stage)
            }
            Kind::KillSaveHot(victim) => FaultPlan::new().kill(victim, "save/hot"),
            _ => FaultPlan::new(),
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
                    if let Some(t) = out.tier() {
                        report.hot_files = t.hot_files;
                        report.cold_files = t.cold_files;
                        report.fallbacks = t.fallbacks.clone();
                    }
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
            Kind::Clean | Kind::WipeHost(_) | Kind::WipeAll => {
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
            Kind::KillSaveHot(victim) => {
                for (r, rep) in reports.iter().enumerate() {
                    assert!(rep.load_err.is_none(), "cycle {cycle}: rank {r} load must succeed");
                }
                assert!(
                    reports[victim].save_err.as_ref().unwrap().contains("injected crash"),
                    "cycle {cycle}: victim saw {:?}",
                    reports[victim].save_err
                );
                assert!(
                    durable,
                    "cycle {cycle}: save/hot fires after commit — step {next} must stay durable"
                );
                committed = Some(next);
            }
        }

        // Recovery-tier composition, on the designed scenario cycles.
        let hot_total: usize = reports.iter().map(|r| r.hot_files).sum();
        let cold_total: usize = reports.iter().map(|r| r.cold_files).sum();
        match cycle {
            2 => {
                // One host's memory is gone; the failure-domain-aware
                // placement put every source's replica on the other host.
                assert!(
                    hot_total > 0 && cold_total == 0,
                    "cycle 2: single-host wipe must still recover 100% hot \
                     (hot {hot_total}, cold {cold_total})"
                );
            }
            4 => {
                // Rank 1 died at save/hot last cycle: its files are in no
                // tier, everyone else's replicated — a mixed recovery.
                assert!(hot_total > 0, "cycle 4: surviving sources must serve hot");
                assert!(
                    cold_total > 0,
                    "cycle 4: rank 1's shard files must fall through to the cold tree"
                );
                assert!(
                    reports.iter().any(|r| r.fallbacks.iter().any(|f| f.contains("rank 1"))),
                    "cycle 4: the fallback reason must name the lost source"
                );
            }
            5 => {
                // Total hot-memory loss: the ladder bottoms out on the
                // persistent tree, silently correct.
                assert!(
                    hot_total == 0 && cold_total > 0,
                    "cycle 5: full wipe must read everything cold \
                     (hot {hot_total}, cold {cold_total})"
                );
                for (r, rep) in reports.iter().enumerate() {
                    assert!(
                        rep.fallbacks.len() >= WORLD,
                        "cycle 5: rank {r} must record one miss per lost source, got {:?}",
                        rep.fallbacks
                    );
                }
            }
            _ => {}
        }
        if hot_total > 0 && hot_total * 10 >= (hot_total + cold_total) * 9 {
            full_hot_recoveries += 1;
        }
    }

    assert!(
        full_hot_recoveries >= 1,
        "at least one recovery must be served >= 90% from the hot tier"
    );
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

/// Bounded smoke variant for `scripts/check.sh`: the whole scenario ladder
/// plus two random cycles, well under a minute.
#[test]
fn smoke_bounded_soak() {
    let cluster = Cluster::new(7);
    run_soak(&cluster, 8, 42);
}
