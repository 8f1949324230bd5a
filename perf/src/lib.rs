//! # bcp-perf — the repository's one benchmark
//!
//! Shared by the two binaries: `bcp-perf` (end-to-end metrics, `--trace 0`)
//! and `bcp-perf-traced` (per-layer metrics, `--trace 1`). Everything here
//! reaches the system through its public API only; `perf/README.md` has the
//! protocol and the reasons behind it.

pub mod job;
pub mod reference;
pub mod report;
pub mod stats;
pub mod sys;
pub mod workload;

use bytecheckpoint::prelude::TrainState;
use job::{Job, JobConfig, Loader, Oracle, SaveSample, Store};
use std::path::PathBuf;
use std::sync::Barrier;
use workload::{StoreKind, Workload};

/// Rank threads of every job and of the speed reference. Fixed, never
/// derived from the host: the box this benchmark must repeat on has two
/// vCPUs, and more busy threads than that is what made its predecessor
/// noisy.
pub const RANKS: usize = 2;

/// Rounds a run makes even when `--seconds` is already spent.
pub const MIN_ROUNDS: usize = 12;

/// Saves that warm a job after its cold first save.
pub const WARMUP_SAVES: u64 = 2;

/// Everything a run writes goes under here (relative to the checkout root,
/// where `run.sh` starts the binaries): same filesystem as the checkout.
pub fn out_dir() -> PathBuf {
    PathBuf::from("perf/out")
}

/// Run `f(rank, ctx)` on one thread per context, released together.
/// Callers time inside `f`, after the release.
pub fn on_ranks<C: Send, T: Send>(
    ctxs: impl IntoIterator<Item = C>,
    f: impl Fn(usize, C) -> T + Sync,
) -> Vec<T> {
    let ctxs: Vec<C> = ctxs.into_iter().collect();
    let gate = Barrier::new(ctxs.len());
    std::thread::scope(|s| {
        let handles: Vec<_> = ctxs
            .into_iter()
            .enumerate()
            .map(|(rank, ctx)| {
                let (f, gate) = (&f, &gate);
                s.spawn(move || {
                    gate.wait();
                    f(rank, ctx)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("rank thread panicked")).collect()
    })
}

/// The driver's arguments.
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
}

impl Args {
    /// Parse `--workload W --seed N --seconds S [--trace T]`; `--trace` is
    /// accepted and ignored (`run.sh` picks the binary by it).
    pub fn parse() -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds) = (None, None, None);
        let mut argv = std::env::args().skip(1);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number =
                || value.parse::<u64>().map_err(|_| format!("{flag} {value}: not a number"));
            match flag.as_str() {
                "--workload" => {
                    workload = Some(workload::by_name(&value).ok_or_else(|| {
                        let names: Vec<_> = workload::all().iter().map(|w| w.name).collect();
                        format!("unknown workload {value}; one of {}", names.join(", "))
                    })?)
                }
                "--seed" => seed = Some(number()?),
                "--seconds" => seconds = Some(number()?),
                "--trace" => {}
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
        })
    }
}

/// Open a workload's store. Disk stores live in a directory of the
/// workload's own under [`out_dir`], emptied first.
pub fn open_store(w: &Workload) -> Result<Store, String> {
    match w.store {
        StoreKind::Memory => Ok(Store::memory()),
        StoreKind::Disk => {
            let dir = disk_dir(w);
            let _ = std::fs::remove_dir_all(&dir);
            Store::disk(&dir)
        }
    }
}

/// Where a disk workload keeps its checkpoints.
pub fn disk_dir(w: &Workload) -> PathBuf {
    out_dir().join(format!("ckpt-{}", w.name))
}

/// Start a job and make its first (cold) save and its warm-up saves, steps
/// `0..=WARMUP_SAVES`. Returns the job and the cold save's sample.
pub fn start_job(
    store: &Store,
    root: &str,
    cfg: &JobConfig,
    states: Vec<TrainState>,
) -> Result<(Job, SaveSample), String> {
    let mut job = Job::start(store, root, cfg, states)?;
    let cold = job.save(0)?;
    for step in 1..=WARMUP_SAVES {
        job.save(step)?;
    }
    Ok((job, cold))
}

/// Which parallelism a load targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadKind {
    /// The saving parallelism.
    Same,
    /// The workload's reshard target.
    Reshard,
}

/// One timed window: wall seconds of the slower rank, and process CPU
/// seconds spent while both ranks were inside.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// A started job with its load oracles: what the rounds of both binaries
/// are made of. Step 0 stays as the load source; of the later steps only the
/// newest is kept (unbounded retention makes `MemoryBackend` saves 3–5×
/// slower from fresh-page faults).
pub struct Bench {
    store: Store,
    pub job: Job,
    saving: JobConfig,
    target: JobConfig,
    same: Oracle,
    resharded: Oracle,
    newest: u64,
    /// Saves and loads made through this bench.
    pub attempted: u64,
    /// Those that returned an error or, for loads, a wrong state.
    pub failed: u64,
}

impl Bench {
    /// `job` has made steps `0..=WARMUP_SAVES`; `reshard_want` is the target
    /// parallelism's own state, advanced by the same training step.
    pub fn new(
        w: &Workload,
        store: &Store,
        job: Job,
        saving: JobConfig,
        reshard_want: Vec<TrainState>,
    ) -> Result<Bench, String> {
        let target = JobConfig { side: w.target, ..saving.clone() };
        for step in 1..WARMUP_SAVES {
            job.delete_step(step)?;
        }
        Ok(Bench {
            store: store.clone(),
            same: Oracle::new(job.states()),
            resharded: Oracle::new(reshard_want),
            job,
            saving,
            target,
            newest: WARMUP_SAVES,
            attempted: 0,
            failed: 0,
        })
    }

    /// The newest step saved.
    pub fn newest(&self) -> u64 {
        self.newest
    }

    /// One warm save of the next step through the job's own checkpointers,
    /// then retention off the clock.
    pub fn save(&mut self) -> Result<(SaveSample, f64), String> {
        let step = self.newest + 1;
        self.attempted += 1;
        sys::trim_heap();
        let cpu0 = sys::process_cpu_s();
        let sample = self.job.save(step);
        let cpu_s = sys::process_cpu_s() - cpu0;
        let sample = sample.inspect_err(|_| self.failed += 1)?;
        self.job.delete_step(self.newest)?;
        self.newest = step;
        Ok((sample, cpu_s))
    }

    /// One load of step 0 through a fresh handle, verified bitwise against
    /// the reference off the clock; the targets are poisoned again after.
    pub fn load(&mut self, kind: LoadKind) -> Result<Window, String> {
        let (cfg, oracle) = match kind {
            LoadKind::Same => (&self.saving, &mut self.same),
            LoadKind::Reshard => (&self.target, &mut self.resharded),
        };
        let mut loader = Loader::fresh(&self.store, cfg)?;
        self.attempted += 1;
        sys::trim_heap();
        let cpu0 = sys::process_cpu_s();
        let wall = loader.load(&self.job.step_location(0), &mut oracle.got);
        let cpu_s = sys::process_cpu_s() - cpu0;
        drop(loader);
        let wrong = wall.is_err() || oracle.mismatches() > 0;
        oracle.poison();
        self.failed += wrong as u64;
        Ok(Window { wall_s: wall?, cpu_s })
    }
}
