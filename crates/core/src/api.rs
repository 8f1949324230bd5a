//! The user-facing API (§3.1, Fig. 5): `bytecheckpoint.save` /
//! `bytecheckpoint.load` as a [`Checkpointer`] each training worker holds.
//!
//! ```text
//! # the paper's Python                      # this crate
//! bytecheckpoint.save(path, state, ...)  →  ckpt.save(&SaveRequest { .. })
//! bytecheckpoint.load(path, state, ...)  →  ckpt.load(&mut LoadRequest { .. })
//! ```
//!
//! "This high-level entrypoint abstracts underlying system complexities,
//! such as sharding specification, save/reshard plan generation, and I/O
//! operations."
//!
//! Construction goes through [`Checkpointer::builder`]; checkpoint
//! addresses are typed [`CheckpointLocation`]s (built from `&str`, `String`
//! or `StorageUri` via `Into`), so a malformed URI fails at request
//! construction rather than mid-save. After a crash,
//! [`Checkpointer::load_latest`] garbage-collects torn steps under a root
//! and resumes from the newest committed one.

use crate::engine::iopool::IoPool;
use crate::engine::pool::PinnedPool;
use crate::fault::{FaultHook, FaultPlan};
use crate::hottier::{assemble_hot_step, HotTierConfig, TierBreakdown};
use crate::integrity::{
    with_retries, FailureLog, FailureRecord, RetryClock, RetryPolicy, SystemClock,
};
use crate::loader_reshard::load_loader_states;
use crate::manager::{CheckpointManager, QuarantinedStep};
use crate::planner::cache::PlanCache;
use crate::registry::BackendRegistry;
use crate::scrub::scrub_step;
use crate::workflow::{
    load_checkpoint, save_checkpoint, JobContext, LoadReport, SaveArgs, SaveTicket, TierOverlay,
    WorkflowOptions,
};
use crate::{BcpError, Result};
use bcp_collectives::Communicator;
use bcp_dataloader::{LoaderReplicatedState, LoaderShardState};
use bcp_model::{ExtraState, Framework, TrainState};
use bcp_monitor::{MetricsHub, MetricsSink};
use bcp_storage::{assemble, CheckpointLocation, DynBackend, HotTier, StackConfig, StorageError};
use bcp_topology::Parallelism;
use std::sync::Arc;

/// A save request: what to checkpoint and where.
pub struct SaveRequest<'a> {
    /// Checkpoint location, e.g. `"hdfs://cluster/ckpts/job1/step_500".into()`.
    pub location: CheckpointLocation,
    /// GPU states (model + optimizer dicts).
    pub state: &'a TrainState,
    /// Dataloader states (only ranks holding dataloader state pass these).
    pub loader: Option<(&'a LoaderReplicatedState, &'a LoaderShardState)>,
    /// Extra CPU state.
    pub extra: Option<&'a ExtraState>,
    /// Global step.
    pub step: u64,
}

impl<'a> SaveRequest<'a> {
    /// A request with no dataloader or extra state.
    pub fn new(
        location: impl Into<CheckpointLocation>,
        state: &'a TrainState,
        step: u64,
    ) -> SaveRequest<'a> {
        SaveRequest { location: location.into(), state, loader: None, extra: None, step }
    }

    /// Attach dataloader states (ranks that hold a dataloader shard).
    pub fn with_loader(
        mut self,
        replicated: &'a LoaderReplicatedState,
        shard: &'a LoaderShardState,
    ) -> SaveRequest<'a> {
        self.loader = Some((replicated, shard));
        self
    }

    /// Attach extra CPU state.
    pub fn with_extra(mut self, extra: &'a ExtraState) -> SaveRequest<'a> {
        self.extra = Some(extra);
        self
    }
}

/// The dataloader resharding target of a load: which data-parallel layout
/// the restored dataloader states should be cut to.
///
/// Replaces the old positional `(dp_size, workers_per_rank, my_dp_rank)`
/// tuple — the three fields are all `usize`, so the tuple invited silent
/// transpositions. Serializable so a [`crate::spec::JobSpec`] can carry it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct LoaderTarget {
    /// Data-parallel world size of the *resuming* job.
    pub dp_size: usize,
    /// Dataloader workers per rank in the resuming job.
    pub workers_per_rank: usize,
    /// This rank's data-parallel index.
    pub my_dp_rank: usize,
}

impl LoaderTarget {
    /// Build a target from the three degrees.
    pub fn new(dp_size: usize, workers_per_rank: usize, my_dp_rank: usize) -> LoaderTarget {
        LoaderTarget { dp_size, workers_per_rank, my_dp_rank }
    }
}

/// A load request: the target states to fill. The state dict's sharding
/// specs define the *target* parallelism; resharding happens automatically
/// when it differs from the source.
pub struct LoadRequest<'a> {
    /// Checkpoint location to load.
    pub location: CheckpointLocation,
    /// Target state; tensor values are replaced in place.
    pub state: &'a mut TrainState,
    /// Request dataloader states resharded to this target, when the caller
    /// drives a dataloader.
    pub loader_target: Option<LoaderTarget>,
}

impl<'a> LoadRequest<'a> {
    /// A request with no dataloader target.
    pub fn new(
        location: impl Into<CheckpointLocation>,
        state: &'a mut TrainState,
    ) -> LoadRequest<'a> {
        LoadRequest { location: location.into(), state, loader_target: None }
    }

    /// Request dataloader states resharded to `target`.
    pub fn with_loader_target(mut self, target: LoaderTarget) -> LoadRequest<'a> {
        self.loader_target = Some(target);
        self
    }
}

/// What a load returns.
pub struct LoadOutcome {
    /// Workflow-level report (engine stats, metadata, extra state).
    pub report: LoadReport,
    /// Resharded dataloader states, when requested and present.
    pub loader: Option<(LoaderReplicatedState, LoaderShardState)>,
    /// Steps verified-fallback loading set aside because they failed
    /// verification (newest first). Empty for direct loads and for clean
    /// `load_latest` resumes.
    pub quarantined: Vec<QuarantinedStep>,
}

impl LoadOutcome {
    /// Recovery-tier breakdown of this load, when it ran through the hot
    /// tier (`None` for plain cold loads).
    pub fn tier(&self) -> Option<&TierBreakdown> {
        self.report.tier.as_ref()
    }

    /// Fraction of shard files served from the hot tier (0 for cold loads).
    pub fn hot_fraction(&self) -> f64 {
        self.report.tier.as_ref().map(TierBreakdown::hot_fraction).unwrap_or(0.0)
    }
}

impl LoadOutcome {
    /// The global step the loaded checkpoint was saved at — where training
    /// resumes from.
    pub fn resumed_step(&self) -> u64 {
        self.report.metadata.step
    }

    /// Whether the load fell back past at least one quarantined step — the
    /// trainer resumed from an *older* checkpoint than the newest on disk.
    pub fn fell_back(&self) -> bool {
        !self.quarantined.is_empty()
    }
}

/// Builder for [`Checkpointer`] — the supported construction path.
///
/// ```no_run
/// # use bcp_core::{Checkpointer, BackendRegistry};
/// # use bcp_core::integrity::RetryPolicy;
/// # use bcp_model::Framework;
/// # use bcp_topology::Parallelism;
/// # use std::sync::Arc;
/// # use std::time::Duration;
/// # fn demo(comm: bcp_collectives::Communicator) -> bcp_core::Result<()> {
/// let ckpt = Checkpointer::builder(comm)
///     .framework(Framework::Ddp)
///     .parallelism(Parallelism::data_parallel(4).unwrap())
///     .registry(Arc::new(BackendRegistry::all_memory()))
///     .retry_policy(RetryPolicy::exponential(5, Duration::from_millis(20)))
///     .build()?;
/// # Ok(()) }
/// ```
pub struct CheckpointerBuilder {
    comm: Communicator,
    framework: Option<Framework>,
    parallelism: Option<Parallelism>,
    registry: Option<Arc<BackendRegistry>>,
    workflow: WorkflowOptions,
    sink: MetricsSink,
    telemetry: bool,
    hot_handle: Option<Arc<HotTier>>,
    clock: Arc<dyn RetryClock>,
}

impl CheckpointerBuilder {
    fn new(comm: Communicator) -> CheckpointerBuilder {
        CheckpointerBuilder {
            comm,
            framework: None,
            parallelism: None,
            registry: None,
            workflow: WorkflowOptions::default(),
            sink: MetricsSink::disabled(),
            telemetry: true,
            hot_handle: None,
            clock: Arc::new(SystemClock::default()),
        }
    }

    /// Training framework whose planner interprets the state dicts
    /// (required).
    pub fn framework(mut self, framework: Framework) -> CheckpointerBuilder {
        self.framework = Some(framework);
        self
    }

    /// Current parallelism configuration (required).
    pub fn parallelism(mut self, parallelism: Parallelism) -> CheckpointerBuilder {
        self.parallelism = Some(parallelism);
        self
    }

    /// URI-scheme → backend registry (required).
    pub fn registry(mut self, registry: Arc<BackendRegistry>) -> CheckpointerBuilder {
        self.registry = Some(registry);
        self
    }

    /// Replace the whole workflow/engine option block (defaults = all
    /// optimizations on).
    pub fn workflow(mut self, workflow: WorkflowOptions) -> CheckpointerBuilder {
        self.workflow = workflow;
        self
    }

    /// Retry policy for every storage operation of both pipelines.
    pub fn retry_policy(mut self, retries: RetryPolicy) -> CheckpointerBuilder {
        self.workflow.save.retries = retries;
        self.workflow.load.retries = retries;
        self
    }

    /// The clock the retry loop waits on (defaults to real time). A test
    /// seam: given the virtual clock a simulated storage stack runs on, every
    /// backoff and every hint the stack computes is slept virtually.
    pub fn clock(mut self, clock: Arc<dyn RetryClock>) -> CheckpointerBuilder {
        self.clock = clock;
        self
    }

    /// Injected crash schedule (recovery tests only).
    pub fn fault_plan(mut self, faults: FaultPlan) -> CheckpointerBuilder {
        self.workflow.faults = faults;
        self
    }

    /// Verified-fallback loading for [`Checkpointer::load_latest`]: scrub
    /// the newest committed step before loading it, and when it fails CRC
    /// or metadata cross-checks, quarantine it and fall back to the
    /// previous committed step instead of erroring. Defaults to **on**.
    pub fn verified_fallback(mut self, enabled: bool) -> CheckpointerBuilder {
        self.workflow.verified_fallback = enabled;
        self
    }

    /// Tiered recovery (hot tier): replicate every committed step's shard
    /// files into an in-process bounded ring on this rank and on `R` peer
    /// ranks placed on other hosts, and let [`Checkpointer::load_latest`]
    /// recover through those copies before the persistent tree. Defaults to
    /// **off**; must agree across ranks (the replication exchange and the
    /// recovery assembly are symmetric collectives).
    ///
    /// Takes the whole [`HotTierConfig`] block; a bare `bool` still works
    /// (`true` = enabled with the default shape):
    ///
    /// ```ignore
    /// builder.hot_tier(HotTierConfig::enabled().replicas(2).gpus_per_host(8))
    /// ```
    pub fn hot_tier(mut self, config: impl Into<HotTierConfig>) -> CheckpointerBuilder {
        self.workflow.hot = config.into();
        self
    }

    /// Use an externally-owned [`HotTier`] instead of a private one —
    /// modeling host memory that outlives a worker process (the chaos
    /// harness restarts `Checkpointer`s against the same tiers). Implies
    /// [`CheckpointerBuilder::hot_tier`]`(true)`.
    pub fn hot_tier_handle(mut self, tier: Arc<HotTier>) -> CheckpointerBuilder {
        self.workflow.hot.enabled = true;
        self.hot_handle = Some(tier);
        self
    }

    /// Metrics destination (defaults to disabled).
    pub fn sink(mut self, sink: MetricsSink) -> CheckpointerBuilder {
        self.sink = sink;
        self
    }

    /// Per-step telemetry artifacts (§5.3): trace every save/load into a
    /// private hub, wrap storage backends for per-operation spans, and
    /// persist a `_telemetry.jsonl` next to each committed checkpoint for
    /// offline analysis with `bcpctl report`. Defaults to **on**.
    ///
    /// Persistence gathers all ranks' telemetry at the coordinator, so the
    /// setting must be identical on every rank of the job.
    pub fn telemetry(mut self, enabled: bool) -> CheckpointerBuilder {
        self.telemetry = enabled;
        self
    }

    /// Build, failing with [`BcpError::Plan`] if a required field is unset.
    pub fn build(self) -> Result<Checkpointer> {
        let framework = self
            .framework
            .ok_or_else(|| BcpError::Plan("Checkpointer::builder: framework is required".into()))?;
        let parallelism = self.parallelism.ok_or_else(|| {
            BcpError::Plan("Checkpointer::builder: parallelism is required".into())
        })?;
        let registry = self
            .registry
            .ok_or_else(|| BcpError::Plan("Checkpointer::builder: registry is required".into()))?;
        // The effective sink fans every event out to the caller's sink AND a
        // private bounded hub the telemetry artifacts are cut from. Bounded:
        // a stalled consumer costs events (counted in `dropped_records`),
        // never memory or training time.
        let (telemetry, sink) = if self.telemetry {
            let hub = Arc::new(MetricsHub::bounded(1 << 16));
            let sink = MetricsSink::fanout(vec![self.sink.clone(), hub.sink()]);
            (Some(hub), sink)
        } else {
            (None, self.sink)
        };
        let io_threads = self.workflow.save.io_threads.max(self.workflow.load.io_threads);
        let hot = self.workflow.hot.enabled.then(|| {
            self.hot_handle
                .unwrap_or_else(|| Arc::new(HotTier::new(self.workflow.hot.capacity_steps)))
        });
        let failures = FailureLog::new().with_clock(self.clock).with_sink(sink.clone());
        let ctx = JobContext {
            comm: self.comm,
            framework,
            parallelism,
            options: self.workflow,
            sink,
            cache: PlanCache::new(),
            // Two saves deep: one capturing while the previous one uploads.
            pool: PinnedPool::new(2),
            io: IoPool::new(io_threads),
            failures: Arc::new(failures),
            telemetry,
            hot,
        };
        Ok(Checkpointer { ctx, registry })
    }
}

/// Per-worker checkpointing handle: the Rust shape of the paper's
/// `bytecheckpoint` module entry points.
pub struct Checkpointer {
    ctx: JobContext,
    registry: Arc<BackendRegistry>,
}

impl Checkpointer {
    /// Start building a checkpointer for this worker.
    pub fn builder(comm: Communicator) -> CheckpointerBuilder {
        CheckpointerBuilder::new(comm)
    }

    /// This worker's rank.
    pub fn rank(&self) -> usize {
        self.ctx.rank()
    }

    /// The failure log (Appendix B): inspect after saves/loads.
    pub fn failures(&self) -> &FailureLog {
        &self.ctx.failures
    }

    /// Plan-cache statistics `(hits, misses)`.
    pub fn plan_cache_stats(&self) -> (u64, u64) {
        self.ctx.cache.stats()
    }

    /// The private telemetry hub (when telemetry is enabled): the live span
    /// trees and records the per-step artifacts are cut from.
    pub fn telemetry_hub(&self) -> Option<&Arc<MetricsHub>> {
        self.ctx.telemetry.as_ref()
    }

    /// Wrap a resolved backend so every storage operation emits a
    /// `storage/<backend>/<op>` span, parented under whichever workflow
    /// phase issued it.
    fn instrumented(&self, backend: DynBackend) -> DynBackend {
        let instrument = self.ctx.telemetry.as_ref().map(|_| self.ctx.sink.clone());
        assemble(backend, StackConfig { rank: self.rank(), instrument, ..StackConfig::default() })
            .top
    }

    /// One storage operation the resume path issues outside the load
    /// workflow, under the load retry policy, logged with its stage.
    fn retried<T>(
        &self,
        stage: &str,
        path: &str,
        op: impl FnMut() -> std::result::Result<T, StorageError>,
    ) -> Result<T> {
        let ctx = &self.ctx;
        with_retries(ctx.options.load.retries, &ctx.failures, ctx.rank(), stage, Some(path), op)
    }

    /// `bytecheckpoint.save`: checkpoint the given states under the
    /// request's location. Returns a ticket whose `blocking` is the
    /// checkpoint stall; `wait()` joins the asynchronous tail (upload,
    /// barrier, commit).
    pub fn save(&self, req: &SaveRequest<'_>) -> Result<SaveTicket> {
        let uri = req.location.uri();
        let backend = self.instrumented(self.registry.resolve(uri)?);
        save_checkpoint(
            &self.ctx,
            backend,
            &uri.key,
            SaveArgs { state: req.state, loader: req.loader, extra: req.extra, step: req.step },
        )
    }

    /// The in-process hot tier, when tiered recovery is enabled.
    pub fn hot_tier(&self) -> Option<&Arc<HotTier>> {
        self.ctx.hot.as_ref()
    }

    /// `bytecheckpoint.load`: fill the request's target states from the
    /// request's location, resharding automatically when the parallelism
    /// changed.
    pub fn load(&self, req: &mut LoadRequest<'_>) -> Result<LoadOutcome> {
        self.load_with_overlay(req, None)
    }

    fn load_with_overlay(
        &self,
        req: &mut LoadRequest<'_>,
        overlay: Option<TierOverlay>,
    ) -> Result<LoadOutcome> {
        let uri = req.location.uri().clone();
        let backend = self.instrumented(self.registry.resolve(&uri)?);
        let report = load_checkpoint(&self.ctx, backend.clone(), &uri.key, req.state, overlay)?;
        let loader = match req.loader_target {
            Some(t) => load_loader_states(
                |file| {
                    let path = format!("{}/{file}", uri.key);
                    self.retried("load/loader", &path, || backend.read(&path))
                },
                &report.metadata,
                t.dp_size,
                t.workers_per_rank,
                t.my_dp_rank,
            )?,
            None => None,
        };
        Ok(LoadOutcome { report, loader, quarantined: Vec::new() })
    }

    /// One-call crash recovery: under `root` (a job's checkpoint root
    /// holding `step_<N>` prefixes), garbage-collect torn steps, discover
    /// the newest committed one, and load it into `state`. Returns
    /// `Ok(None)` when no committed checkpoint exists (fresh start).
    ///
    /// The coordinator alone GCs and picks the step (so the decision is
    /// consistent even while torn prefixes are mid-deletion) and broadcasts
    /// it; every rank then runs the normal load workflow. The resumed step
    /// is available as [`LoadOutcome::resumed_step`].
    ///
    /// With verified fallback on (the default), the coordinator scrubs the
    /// candidate step *before* broadcasting it: a step whose CRCs or
    /// metadata cross-checks fail is logged to the [`FailureLog`],
    /// quarantined under `<root>/quarantine/`, and the previous committed
    /// step is tried instead — so one silently corrupted checkpoint costs
    /// one step of progress, never the job. The skipped steps are surfaced
    /// in [`LoadOutcome::quarantined`]. Verification happens coordinator-
    /// side precisely so the fallback never needs to abort a collective
    /// load mid-flight.
    pub fn load_latest(
        &self,
        root: impl Into<CheckpointLocation>,
        state: &mut TrainState,
        loader_target: Option<LoaderTarget>,
    ) -> Result<Option<LoadOutcome>> {
        let root: CheckpointLocation = root.into();
        let backend = self.registry.resolve(root.uri())?;
        let coordinator = self.ctx.coordinator();
        let decision: (Option<u64>, Vec<QuarantinedStep>) = if self.ctx.rank() == coordinator {
            let job_root = &root.uri().key;
            let mgr = CheckpointManager::new(backend.clone(), job_root.clone());
            self.retried("load/discover", job_root, || mgr.gc_torn())?;
            let mut quarantined = Vec::new();
            let chosen = loop {
                let latest = self.retried("load/discover", job_root, || mgr.latest())?;
                let Some(candidate) = latest else { break None };
                if !self.ctx.options.verified_fallback {
                    break Some(candidate.step);
                }
                // Under the load retry policy: a transient backend error
                // must neither fail the resume nor condemn a healthy step.
                let report = self.retried("load/verify", &candidate.prefix, || {
                    scrub_step(&backend, &candidate.prefix, candidate.step)
                })?;
                if report.is_clean() {
                    break Some(candidate.step);
                }
                let reason = report
                    .defects()
                    .first()
                    .map(|i| format!("{}: {}", i.path, i.detail))
                    .unwrap_or_else(|| "failed verification".into());
                self.ctx.failures.log(FailureRecord {
                    rank: self.ctx.rank(),
                    stage: "load/verify".into(),
                    path: Some(candidate.prefix.clone()),
                    attempt: 1,
                    error: reason.clone(),
                    retried: true,
                });
                self.retried("load/discover", &candidate.prefix, || {
                    mgr.quarantine(candidate.step)
                })?;
                quarantined.push(QuarantinedStep { step: candidate.step, reason });
            };
            self.ctx.comm.broadcast(coordinator, Some((chosen, quarantined)))?
        } else {
            self.ctx.comm.broadcast(coordinator, None)?
        };
        let (chosen, quarantined) = decision;
        let Some(step) = chosen else { return Ok(None) };
        let location = root.join(&format!("step_{step}"));
        // Rung 1 of the recovery ladder: assemble the chosen step from the
        // peer-replicated hot tier (CRC-verified per file; any miss or
        // defect is recorded and simply reads cold). A collective — every
        // rank participates whenever the hot tier is enabled, even with an
        // empty ring.
        let overlay: Option<TierOverlay> = match (&self.ctx.hot, self.ctx.options.hot.enabled) {
            (Some(hot), true) => {
                let faults = {
                    let comm = self.ctx.comm.clone();
                    FaultHook::new(self.ctx.options.faults.clone(), self.ctx.rank())
                        .with_on_kill(move || comm.mark_self_failed())
                };
                let assembly =
                    assemble_hot_step(&self.ctx.comm, hot, &faults, step, &location.uri().key)?;
                Some((assembly.files, assembly.fallbacks))
            }
            _ => None,
        };
        let mut req = LoadRequest { location, state, loader_target };
        let mut outcome = self.load_with_overlay(&mut req, overlay)?;
        outcome.quarantined = quarantined;
        Ok(Some(outcome))
    }
}
