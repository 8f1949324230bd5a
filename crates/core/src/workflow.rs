//! The generic save/load (resharding) workflow (§3.3, Fig. 8).
//!
//! Save: local plans → gather at the coordinator → balanced dedup → global
//! metadata construction → scatter final plans → engine capture (sealing
//! each frame with its CRC as it copies) → return to the caller. One
//! background thread per save (`bcp-finalize-{rank}`) then puts the
//! state-file writes ([`crate::state_files`]) onto the I/O pool, runs the
//! shard upload, and passes the integrity barrier; the coordinator commits
//! (metadata + `COMPLETE` marker). The plan cache (§4.1) turns everything
//! before the engine into a one-time cost, so a warm save's collectives are
//! the cache agreement and the two barriers (telemetry adds its gather when
//! on).
//!
//! Load: the coordinator opens the step ([`crate::step`]) and broadcasts its
//! metadata → local load plans (box matching against the
//! TensorShardToBasicByteMap) → gather → redundant-read elimination →
//! scatter → engine pipeline (reads + forwarding) → barrier, where the load
//! returns; its telemetry artifact lands later ([`JobContext::settle`]).

use crate::api::SaveRequest;
use crate::engine::iopool::IoPool;
use crate::engine::load::{execute_load, LoadConfig, LoadStats};
use crate::engine::pool::PinnedPool;
use crate::engine::save::{execute_save, SaveConfig, SaveStats};
use crate::fault::{FaultHook, FaultPlan};
use crate::integrity::{commit_checkpoint, with_retries, FailureLog, FailureRecord};
use crate::metadata::GlobalMetadata;
use crate::plan::{build_tensor_map, local_load_plan, SavePlan};
use crate::planner::balance::{
    assign_reads, dedup_save_plans, AssignedLoadPlan, DedupStrategy, ReadRoles,
};
use crate::planner::cache::{CachedSave, PlanCache};
use crate::planner::planner_for;
use crate::state_files;
use crate::step::{self, StepView};
use crate::telemetry::{
    collect_rank_telemetry, gather_step_telemetry, persist_step_telemetry, write_step_telemetry,
};
use crate::{BcpError, Result};
use bcp_collectives::Communicator;
use bcp_model::{Framework, TrainState};
use bcp_monitor::sync::lock;
use bcp_monitor::{
    enter_context, MetricsHub, MetricsSink, TELEMETRY_LOAD_FILE, TELEMETRY_SAVE_FILE,
};
use bcp_storage::DynBackend;
use bytes::Bytes;
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Per-job context shared by save and load: everything a
/// [`crate::api::Checkpointer`] owns and lends to each workflow run.
pub struct JobContext {
    /// World communicator for this training job.
    pub comm: Communicator,
    /// Framework whose planner interprets the state dicts.
    pub framework: Framework,
    /// Current parallelism.
    pub parallelism: bcp_topology::Parallelism,
    /// Workflow and engine options.
    pub options: WorkflowOptions,
    /// Where spans go.
    pub sink: MetricsSink,
    /// Plan & metadata cache (§4.1).
    pub cache: PlanCache,
    /// Pinned capture buffers.
    pub pool: Arc<PinnedPool>,
    /// Persistent I/O worker pool shared by every save and load.
    pub io: Arc<IoPool>,
    /// The failure log (Appendix B).
    pub failures: Arc<FailureLog>,
    /// The private hub per-step telemetry artifacts are cut from, when
    /// telemetry is on.
    pub telemetry: Option<Arc<MetricsHub>>,
    /// The coordinator's last load artifact (path, completion), written on `io`.
    pub(crate) pending: Mutex<Option<PendingArtifact>>,
}

type PendingArtifact = (String, Receiver<(usize, Result<()>)>);

impl JobContext {
    /// This worker's global rank.
    pub fn rank(&self) -> usize {
        self.comm.rank()
    }

    /// The coordinator rank (lowest member, conventionally 0).
    pub fn coordinator(&self) -> usize {
        self.comm.members()[0]
    }

    /// Wait for the last load's artifact; a failed write logs `load/telemetry`.
    pub fn settle(&self) {
        let Some((path, done)) = lock(&self.pending).take() else { return };
        if let Ok((_, Err(e))) = done.recv() {
            artifact_failed(&self.failures, self.rank(), "load/telemetry", path, e);
        }
    }
}

impl Drop for JobContext {
    fn drop(&mut self) {
        self.settle();
    }
}

/// A telemetry artifact not written degrades observability, nothing else.
fn artifact_failed(log: &FailureLog, rank: usize, stage: &str, path: String, e: BcpError) {
    let (stage, path, error) = (stage.into(), Some(path), e.to_string());
    log.log(FailureRecord { rank, stage, path, attempt: 1, error, retried: false });
}

/// Workflow-level options. The plan cache, balanced save dedup,
/// redundant-read elimination and verified resume (§4.1, Appendix B) are
/// the design, not options.
#[derive(Clone, Default)]
pub struct WorkflowOptions {
    /// Engine save configuration.
    pub save: SaveConfig,
    /// Engine load configuration.
    pub load: LoadConfig,
    /// Injected crash schedule (empty in production; recovery tests kill
    /// ranks at named pipeline stages through it).
    pub faults: FaultPlan,
}

/// What each rank contributes to the gathered save-planning round.
#[derive(Debug, Clone)]
struct LocalSaveMsg {
    plan: SavePlan,
    state_files: Vec<String>,
}

/// Everything a save leaves behind for the caller.
pub struct SaveTicket {
    /// Training-blocking duration (capture + planning when uncached).
    pub blocking: Duration,
    finalize: std::thread::JoinHandle<Result<SaveStats>>,
}

impl SaveTicket {
    /// Wait for the asynchronous tail (upload + barrier + commit).
    pub fn wait(self) -> Result<SaveStats> {
        self.finalize.join().map_err(|_| BcpError::Corrupt("finalize thread panicked".into()))?
    }
}

/// Execute the full save workflow on this rank: `req` under `prefix` of
/// `backend` (the request's location, resolved).
pub fn save_checkpoint(
    ctx: &JobContext,
    backend: DynBackend,
    prefix: &str,
    req: &SaveRequest<'_>,
) -> Result<SaveTicket> {
    ctx.settle();
    let JobContext { options, cache, pool, io, sink, .. } = ctx;
    let (log, telemetry) = (ctx.failures.clone(), ctx.telemetry.clone());
    let rank = ctx.rank();
    let step = req.step;
    let planner = planner_for(ctx.framework);
    planner.validate(req.state, ctx.parallelism, rank)?;
    // A crashing rank declares itself dead to its peers so their collectives
    // abort with `PeerFailed` instead of waiting out the timeout.
    let faults = {
        let comm = ctx.comm.clone();
        FaultHook::new(options.faults.clone(), rank).with_on_kill(move || comm.mark_self_failed())
    };
    faults.check("save/plan")?;
    let blocking_start = Instant::now();
    // Packed now: the request borrows state training mutates next.
    let files = state_files::payloads(req, rank, ctx.coordinator());
    // Root span for the whole save. Uncounted: phase spans below it carry
    // the durations that feed the per-phase aggregations.
    let root = sink
        .span("save", rank, step)
        .uncounted()
        .attr("prefix", prefix)
        .attr("parallelism", ctx.parallelism.describe())
        .attr("backend", backend.name());

    // ---- Planning (Fig. 8 steps 2-4, save direction), cache-aware. ----
    // The cached value is the plan *and* the sealed metadata, and the
    // metadata also names the request's state files: the key is the state's
    // structure plus those names.
    let names: Vec<String> = files.iter().map(|(name, _)| name.clone()).collect();
    let sig = PlanCache::key(
        PlanCache::signature(planner.name(), &ctx.parallelism.describe(), rank, req.state),
        &names,
    );
    let cached = cache.get(sig);
    // All ranks must agree on the cache path or the collectives deadlock.
    let all_hit = ctx.comm.all_gather(cached.is_some() as u8)?.into_iter().all(|h| h == 1);

    let planned = if all_hit {
        cached.expect("all_hit implies local hit")
    } else {
        let _t = root.child("save/plan");
        let msg =
            LocalSaveMsg { plan: planner.local_save_plan(rank, req.state)?, state_files: names };
        let gathered = ctx.comm.gather(ctx.coordinator(), msg)?;
        let (plan, metadata) = if let Some(msgs) = gathered {
            // Coordinator: dedup + balance, build the metadata, scatter the
            // plans, then seal — peers start capturing while this rank
            // encodes. Only this rank ever holds the metadata.
            let mut meta = GlobalMetadata::new(
                planner.name(),
                step,
                &ctx.parallelism.describe(),
                ctx.comm.size(),
            );
            let mut plans = Vec::with_capacity(msgs.len());
            for m in msgs {
                meta.state_files.extend(m.state_files);
                plans.push(m.plan);
            }
            meta.state_files.sort();
            dedup_save_plans(&mut plans, DedupStrategy::WorstFit);
            meta.tensor_map = build_tensor_map(&plans);
            let plan = ctx.comm.scatter(ctx.coordinator(), Some(plans))?;
            // Seal only what a load would accept. A refusal here fails the
            // peers' barrier now rather than at their timeout.
            meta.validate().map_err(BcpError::Plan).inspect_err(|_| ctx.comm.mark_self_failed())?;
            (plan, Some(Bytes::from(meta.to_bytes())))
        } else {
            (ctx.comm.scatter(ctx.coordinator(), None)?, None)
        };
        debug_assert_eq!(plan.rank, rank, "scatter must deliver this rank's plan");
        cache.insert(sig, CachedSave { plan, metadata })
    };

    // ---- Engine pipeline (blocking part = capture). ----
    let handle = execute_save(
        &planned.plan,
        req.state,
        backend.clone(),
        prefix,
        pool,
        io,
        sink,
        log.clone(),
        &options.save,
        step,
        &faults,
        root.context(),
    )?;
    let blocking = blocking_start.elapsed();

    // ---- State-file uploads, shard upload, integrity + commit: the one
    // background thread. ----
    let comm = ctx.comm.clone();
    let coordinator = ctx.coordinator();
    let prefix2 = prefix.to_string();
    let retries = options.save.retries;
    let io2 = io.clone();
    let comm_abort = ctx.comm.clone();
    let finalize_inner = move || -> Result<SaveStats> {
        let mut root = root;
        // The state files (the dataloader's per-worker files: "we
        // implemented a process pool for concurrent uploads", §6.4) go onto
        // the I/O pool ahead of the shard upload `handle.wait()` runs, so they
        // overlap it. Each job frames its file and hands header, payload and
        // CRC to one gather-write; the phase span ends with the last write.
        let (done, small) = channel();
        faults.check("save/state")?;
        if !files.is_empty() {
            let bytes = files.iter().map(|(_, d)| d.len() as u64).sum();
            let phase = Arc::new(root.child("save/state").bytes(bytes));
            for (name, payload) in files {
                let (backend, log, phase) = (backend.clone(), log.clone(), phase.clone());
                let path = format!("{prefix2}/{name}");
                io2.submit(done.clone(), 0, move || {
                    // Parent the worker's storage spans under the phase.
                    let _e = enter_context(phase.context());
                    let segments = state_files::frame(&name, payload)?;
                    with_retries(retries, &log, rank, "save/state", Some(&path), || {
                        backend.write_segments(&path, &segments)
                    })
                });
            }
        }
        drop(done);
        let uploaded = handle.wait();
        // The channel closes once every state-file write has finished: none
        // outlives the save, whichever write failed.
        let written: Vec<Result<()>> = small.iter().map(|(_, r)| r).collect();
        written.into_iter().collect::<Result<()>>()?;
        let stats = uploaded?;
        // Integrity barrier (tree-based when the backend is Tree), then the
        // coordinator alone commits.
        faults.check("save/barrier")?;
        {
            let _t = root.child("sync/save_barrier").attr("collective", comm.backend_info());
            comm.barrier()?;
        }
        if rank == coordinator {
            faults.check("save/metadata")?;
            let sealed = planned
                .metadata
                .as_ref()
                .ok_or_else(|| BcpError::Plan("coordinator lost the sealed metadata".into()))?;
            let meta_path = step::metadata_path(&prefix2);
            {
                // Cold and warm saves share this tail: the step and the
                // trailer are the only bytes of the image that change.
                let t =
                    root.child("save/metadata").bytes(sealed.len() as u64).path(meta_path.clone());
                let _in_meta = t.enter();
                let meta_bytes = Bytes::from(GlobalMetadata::restamp_step(sealed, step));
                with_retries(retries, &log, rank, "save/metadata", Some(&meta_path), || {
                    backend.write(&meta_path, meta_bytes.clone())
                })?;
            }
            faults.check("save/commit")?;
            let t = root.child("save/commit").path(prefix2.clone());
            let _in_commit = t.enter();
            with_retries(retries, &log, rank, "save/commit", Some(&prefix2), || {
                commit_checkpoint(&backend, &prefix2)
            })?;
            root.event("commit");
        }
        // The checkpoint is committed: close the root span and persist the
        // step's telemetry artifact next to the data (best-effort — a
        // telemetry failure degrades observability, never the checkpoint).
        drop(root);
        if let Some(hub) = &telemetry {
            let mine = collect_rank_telemetry(hub, &log, rank, step, "save");
            if let Err(e) =
                persist_step_telemetry(&comm, &backend, &prefix2, mine, TELEMETRY_SAVE_FILE)
            {
                let path = format!("{prefix2}/{TELEMETRY_SAVE_FILE}");
                artifact_failed(&log, rank, "save/telemetry", path, e);
            }
        }
        // Second barrier: the commit is visible to every rank once their
        // ticket resolves, so a rank may immediately load what it saved.
        comm.barrier()?;
        Ok(stats)
    };
    // Failure propagation (mirror of the load side): a rank whose finalize
    // tail aborts will never reach the barriers, so declare it dead rather
    // than leave peers waiting.
    let finalize = move || -> Result<SaveStats> {
        let result = finalize_inner();
        if result.is_err() {
            comm_abort.mark_self_failed();
        }
        result
    };

    let finalize = std::thread::Builder::new()
        .name(format!("bcp-finalize-{rank}"))
        .spawn(finalize)
        .map_err(|e| BcpError::Corrupt(format!("spawn failed: {e}")))?;
    Ok(SaveTicket { blocking, finalize })
}

/// Result of one checkpoint load on this rank.
pub struct LoadReport {
    /// Engine statistics.
    pub stats: LoadStats,
    /// The checkpoint's global metadata, as the coordinator broadcast it.
    pub metadata: Arc<GlobalMetadata>,
}

/// Execute the full load (resharding) workflow on this rank. The state dict
/// passed in defines the *target* sharding; its tensor values are replaced.
/// `restore` rebuilds the caller's non-tensor state from the step's state
/// files, given their names and the one reader (frame and CRC checked).
/// Only the coordinator opens the step, unless it passes `opened` (a resume's
/// scrubbed view).
pub fn load_checkpoint<R>(
    ctx: &JobContext,
    backend: DynBackend,
    prefix: &str,
    opened: Option<StepView>,
    state: &mut TrainState,
    restore: impl FnOnce(&[String], &dyn Fn(&str) -> Result<Bytes>) -> Result<R>,
) -> Result<(LoadReport, R)> {
    ctx.settle();
    let JobContext { options, io, sink, failures: log, telemetry, .. } = ctx;
    let load = || -> Result<(LoadReport, R)> {
        let (rank, retries) = (ctx.rank(), options.load.retries);
        let faults = {
            let comm = ctx.comm.clone();
            FaultHook::new(options.faults.clone(), rank)
                .with_on_kill(move || comm.mark_self_failed())
        };
        // Root span for the whole load. The true step is only known once the
        // metadata is parsed, so the root starts at step 0 and is restamped
        // below.
        let mut root = sink
            .span("load", rank, 0)
            .uncounted()
            .attr("prefix", prefix)
            .attr("parallelism", ctx.parallelism.describe())
            .attr("backend", backend.name());
        // Step 1: the coordinator opens the step (one listing, the commit
        // rule, the metadata decoded, validated and step-checked) and
        // broadcasts its metadata or the refusal, which every rank returns
        // as the same `Corrupt`. Its span alone counts the metadata's bytes.
        faults.check("load/metadata")?;
        let metadata = {
            let mut t = root.child("load/metadata").path(step::metadata_path(prefix));
            let _in_meta = t.enter();
            let outcome = if rank == ctx.coordinator() {
                let attempt = |path: &str, op: &mut dyn FnMut() -> _| {
                    with_retries(retries, log, rank, "load/metadata", Some(path), op)
                };
                let view =
                    opened.map_or_else(|| StepView::open(&backend, prefix, None, &attempt), Ok)?;
                t.add_bytes(view.metadata_bytes);
                Some(view.committed_metadata().map(Arc::new))
            } else {
                None
            };
            let metadata = ctx.comm.broadcast(ctx.coordinator(), outcome)?;
            let metadata = metadata.map_err(BcpError::Corrupt)?;
            t.set_step(metadata.step);
            metadata
        };
        let step = metadata.step;
        root.set_step(step);

        // Steps 2-4 under one `load/plan` span: local load plan (box matching),
        // lent to the gather; the coordinator decides redundant-read
        // elimination over the borrowed plans, drops them, and scatters one
        // role per item; each rank then moves its own items into its
        // assignment.
        let assigned: AssignedLoadPlan = {
            let _t = root.child("load/plan");
            let local = Arc::new(local_load_plan(rank, state, &metadata)?);
            let gathered = ctx.comm.gather(ctx.coordinator(), local.clone())?;
            let roles = gathered.map(|plans| assign_reads(&plans));
            let roles: ReadRoles = ctx.comm.scatter(ctx.coordinator(), roles)?;
            let local = Arc::try_unwrap(local).map_err(|_| {
                BcpError::Plan("the coordinator still holds this rank's load plan".into())
            })?;
            roles.apply(local)?
        };

        // Step 5: engine pipeline.
        let stats = execute_load(
            &assigned,
            state,
            backend.clone(),
            prefix,
            Some(&ctx.comm),
            io,
            sink,
            log.clone(),
            &options.load,
            step,
            &faults,
            root.context(),
        )?;

        // The state files, through the one reader, restored ahead of the
        // barrier: a rank that cannot restore them fails its peers' load too.
        let restored = {
            let names = &metadata.state_files;
            let t = (!names.is_empty()).then(|| root.child("load/state"));
            let _in_state = t.as_ref().map(|t| t.enter());
            restore(names, &|name| {
                let path = format!("{prefix}/{name}");
                let stage = "load/state";
                let data =
                    with_retries(retries, log, rank, stage, Some(&path), || backend.read(&path))?;
                state_files::decode(name, &data)
            })?
        };

        // Step 6: the optimized collective barrier guarantees atomicity.
        faults.check("load/barrier")?;
        {
            let _t = root.child("sync/load_barrier").attr("collective", ctx.comm.backend_info());
            ctx.comm.barrier()?;
        }
        // Close the root span and gather; the coordinator's artifact is
        // written behind the load, on the I/O pool (nothing waits for it).
        drop(root);
        if let Some(hub) = telemetry {
            let mine = collect_rank_telemetry(hub, log, rank, step, "load");
            let path = format!("{prefix}/{TELEMETRY_LOAD_FILE}");
            match gather_step_telemetry(&ctx.comm, mine) {
                Ok(Some(doc)) => {
                    let (tx, done) = channel();
                    let (backend, to) = (backend.clone(), path.clone());
                    io.submit(tx, 0, move || write_step_telemetry(&backend, &to, doc));
                    *lock(&ctx.pending) = Some((path, done));
                }
                Ok(None) => {}
                Err(e) => artifact_failed(log, rank, "load/telemetry", path, e),
            }
        }
        Ok((LoadReport { stats, metadata }, restored))
    };
    let result = load();
    if result.is_err() {
        // Failure propagation: a rank aborting a collective load leaves
        // peers blocked on exchanges and forwards it will never complete.
        // Declare this rank dead so their collectives abort with
        // `PeerFailed` instead of riding out the timeout.
        ctx.comm.mark_self_failed();
    }
    result
}
