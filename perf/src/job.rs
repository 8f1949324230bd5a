//! A two-rank checkpoint job driven through the public API, timed from
//! outside, and the oracle that checks what a load returned.

use crate::workload::Side;
use crate::{on_ranks, RANKS};
use bytecheckpoint::core::manager::CheckpointManager;
use bytecheckpoint::prelude::*;
use bytes::Bytes;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// A backend with the registry that resolves this harness's URIs to it.
#[derive(Clone)]
pub struct Store {
    /// The backend itself, for work off the clock: retention, scrub, sizes.
    pub backend: DynBackend,
    registry: Arc<BackendRegistry>,
    scheme: Scheme,
}

impl Store {
    pub fn new(scheme: Scheme, backend: DynBackend) -> Store {
        let mut registry = BackendRegistry::new();
        registry.register(scheme, backend.clone());
        Store { backend, registry: Arc::new(registry), scheme }
    }

    pub fn memory() -> Store {
        Store::new(Scheme::Memory, Arc::new(MemoryBackend::new()))
    }

    pub fn disk(dir: &Path) -> Result<Store, String> {
        let disk = DiskBackend::new(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Store::new(Scheme::File, Arc::new(disk)))
    }

    /// The same backend behind `wrap(backend)`, under the same URIs.
    pub fn wrapped(&self, wrap: impl FnOnce(DynBackend) -> DynBackend) -> Store {
        Store::new(self.scheme, wrap(self.backend.clone()))
    }

    /// The URI of a backend key.
    pub fn location(&self, key: &str) -> String {
        match self.scheme {
            Scheme::File => format!("file:///{key}"),
            other => format!("{}://perf/{key}", other.as_str()),
        }
    }
}

/// How a job's checkpointers are built.
#[derive(Clone)]
pub struct JobConfig {
    pub side: Side,
    pub options: WorkflowOptions,
    pub telemetry: bool,
}

fn checkpointers(store: &Store, cfg: &JobConfig) -> Result<Vec<Checkpointer>, String> {
    let world = CommWorld::new(RANKS, Backend::Flat);
    on_ranks(0..RANKS, |rank, _| {
        Checkpointer::builder(world.communicator(rank).map_err(|e| e.to_string())?)
            .framework(cfg.side.fw)
            .parallelism(cfg.side.par)
            .registry(store.registry.clone())
            .workflow(cfg.options.clone())
            .telemetry(cfg.telemetry)
            .build()
            .map_err(|e| e.to_string())
    })
    .into_iter()
    .collect()
}

/// Wall seconds of one save, the slower rank's.
#[derive(Debug, Clone, Copy)]
pub struct SaveSample {
    /// Inside `save()`: what the training thread loses.
    pub stall_s: f64,
    /// `save()` + `ticket.wait()`: the step is committed and durable.
    pub total_s: f64,
}

struct RankCtx {
    ckpt: Checkpointer,
    state: TrainState,
}

/// One training job: a world, a checkpointer and a state per rank, kept for
/// the job's life so plan cache and pinned pool stay warm across saves.
pub struct Job {
    store: Store,
    root: String,
    ranks: Vec<RankCtx>,
}

impl Job {
    pub fn start(
        store: &Store,
        root: &str,
        cfg: &JobConfig,
        states: Vec<TrainState>,
    ) -> Result<Job, String> {
        let ranks = checkpointers(store, cfg)?
            .into_iter()
            .zip(states)
            .map(|(ckpt, state)| RankCtx { ckpt, state })
            .collect();
        Ok(Job { store: store.clone(), root: root.to_string(), ranks })
    }

    /// Backend key of a step's prefix.
    pub fn step_key(&self, step: u64) -> String {
        format!("{}/step_{step}", self.root)
    }

    pub fn step_location(&self, step: u64) -> String {
        self.store.location(&self.step_key(step))
    }

    /// The ranks' states (cheap: tensors are shared, not copied).
    pub fn states(&self) -> Vec<TrainState> {
        self.ranks.iter().map(|r| r.state.clone()).collect()
    }

    /// Save `step` on both ranks at once.
    pub fn save(&mut self, step: u64) -> Result<SaveSample, String> {
        let location = self.step_location(step);
        let per_rank = on_ranks(self.ranks.iter_mut(), |_, ctx| {
            let req = SaveRequest::new(location.as_str(), &ctx.state, step);
            let t0 = Instant::now();
            let ticket = ctx.ckpt.save(&req).map_err(|e| e.to_string())?;
            let stall_s = t0.elapsed().as_secs_f64();
            ticket.wait().map_err(|e| e.to_string())?;
            Ok(SaveSample { stall_s, total_s: t0.elapsed().as_secs_f64() })
        });
        let mut worst = SaveSample { stall_s: 0.0, total_s: 0.0 };
        for sample in per_rank {
            let s: SaveSample = sample.map_err(|e: String| format!("save step {step}: {e}"))?;
            worst.stall_s = worst.stall_s.max(s.stall_s);
            worst.total_s = worst.total_s.max(s.total_s);
        }
        Ok(worst)
    }

    fn manager(&self) -> CheckpointManager {
        CheckpointManager::new(self.store.backend.clone(), self.root.clone())
    }

    /// Drop a step's objects (retention, off the clock).
    pub fn delete_step(&self, step: u64) -> Result<(), String> {
        self.manager().delete(step).map_err(|e| format!("delete step {step}: {e}"))
    }

    /// Σ size of every object under a committed step's prefix.
    pub fn stored_bytes(&self, step: u64) -> Result<u64, String> {
        self.manager().stored_bytes(step).map_err(|e| format!("size of step {step}: {e}"))
    }

    /// Whether a step passes the repository's own offline verification.
    pub fn scrub_clean(&self, step: u64) -> Result<bool, String> {
        let report = scrub_step(&self.store.backend, &self.step_key(step), step)
            .map_err(|e| format!("scrub step {step}: {e}"))?;
        Ok(report.committed && report.is_clean())
    }
}

/// Checkpointers over a world of their own, for loading: a load is what a
/// process does first after it starts, so each one gets a fresh handle.
pub struct Loader {
    ckpts: Vec<Checkpointer>,
}

impl Loader {
    pub fn fresh(store: &Store, cfg: &JobConfig) -> Result<Loader, String> {
        Ok(Loader { ckpts: checkpointers(store, cfg)? })
    }

    /// Load `location` into `targets` on both ranks at once; wall seconds of
    /// the slower rank's `load()`.
    pub fn load(&mut self, location: &str, targets: &mut [TrainState]) -> Result<f64, String> {
        on_ranks(self.ckpts.iter().zip(targets.iter_mut()), |_, (ckpt, target)| {
            let mut req = LoadRequest::new(location, target);
            let t0 = Instant::now();
            ckpt.load(&mut req).map_err(|e| format!("load {location}: {e}"))?;
            Ok(t0.elapsed().as_secs_f64())
        })
        .into_iter()
        .try_fold(0.0, |worst: f64, s: Result<f64, String>| Ok(worst.max(s?)))
    }
}

/// What a load must return, and the states it loads into.
pub struct Oracle {
    want: Vec<TrainState>,
    /// The load targets: `want`'s structure, poisoned.
    pub got: Vec<TrainState>,
    poison: Bytes,
}

impl Oracle {
    /// `want` is the reference: the target parallelism's own state advanced
    /// by the same training step as the state that was saved.
    pub fn new(want: Vec<TrainState>) -> Oracle {
        let largest = want
            .iter()
            .flat_map(|s| s.model.entries.values().chain(s.optimizer.entries.values()))
            .map(|e| e.tensor.nbytes())
            .max()
            .unwrap_or(0);
        let mut o = Oracle { got: want.clone(), want, poison: Bytes::from(vec![0xA5u8; largest]) };
        o.poison();
        o
    }

    /// Overwrite every target tensor, so a load that does nothing cannot
    /// pass. Views of one buffer: no bytes are written.
    pub fn poison(&mut self) {
        for state in &mut self.got {
            for e in state.model.entries.values_mut().chain(state.optimizer.entries.values_mut()) {
                let bytes = self.poison.slice(..e.tensor.nbytes());
                e.tensor = Tensor::from_bytes(e.dtype, e.tensor.shape().to_vec(), bytes)
                    .expect("poison has the tensor's size");
            }
        }
    }

    /// Entries of `got` that are not bitwise the reference.
    pub fn mismatches(&self) -> usize {
        let pairs = self.got.iter().zip(&self.want);
        pairs
            .flat_map(|(g, w)| [(&g.model, &w.model), (&g.optimizer, &w.optimizer)])
            .map(|(g, w)| {
                let differing = w
                    .entries
                    .iter()
                    .filter(|(fqn, we)| {
                        !g.get(fqn).is_some_and(|ge| ge.tensor.bitwise_eq(&we.tensor))
                    })
                    .count();
                differing + g.entries.len().saturating_sub(w.entries.len())
            })
            .sum()
    }
}
