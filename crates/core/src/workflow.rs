//! The generic save/load (resharding) workflow (§3.3, Fig. 8).
//!
//! Save: local plans → gather at the coordinator → balanced dedup → global
//! metadata construction → scatter final plans → engine pipeline → integrity
//! barrier → coordinator commits (metadata + `COMPLETE` marker). The plan
//! cache (§4.1) turns everything before the engine into a one-time cost.
//!
//! Load: read global metadata → local load plans (box matching against the
//! TensorShardToBasicByteMap) → gather → redundant-read elimination →
//! scatter → engine pipeline (reads + all-to-all forwarding) → barrier.

use crate::chunks::{ChunkManifest, CHUNK_MANIFEST_FILE};
use crate::engine::iopool::IoPool;
use crate::engine::load::{execute_load, LoadConfig, LoadStats};
use crate::engine::pool::PinnedPool;
use crate::engine::save::{execute_save_staged, HotStaging, SaveConfig, SaveStats};
use crate::fault::{FaultHook, FaultPlan};
use crate::hottier::{replicate_after_commit, HotTierConfig, TierBreakdown};
use crate::integrity::{commit_checkpoint, with_retries, FailureLog, FailureRecord};
use crate::metadata::{GlobalMetadata, LoaderShardFileEntry, COMPLETE_MARKER, METADATA_FILE};
use crate::plan::{build_tensor_map, local_load_plan, LoadPlan, SavePlan};
use crate::planner::balance::{
    dedup_save_plans, eliminate_redundant_reads, AssignedLoadPlan, DedupStrategy,
};
use crate::planner::cache::{CachedSave, PlanCache};
use crate::planner::planner_for;
use crate::telemetry::{collect_rank_telemetry, persist_step_telemetry};
use crate::{BcpError, Result};
use bcp_collectives::Communicator;
use bcp_dataloader::{LoaderReplicatedState, LoaderShardState};
use bcp_model::{ExtraState, Framework, TrainState};
use bcp_monitor::{
    enter_context, MetricsHub, MetricsSink, TELEMETRY_LOAD_FILE, TELEMETRY_SAVE_FILE,
};
use bcp_storage::hot::HotTier;
use bcp_storage::{DynBackend, TieredReadBackend};
use bytes::Bytes;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
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
    /// The in-process hot tier, when tiered recovery is enabled: the save
    /// tail replicates each committed step's shard files into it and to `R`
    /// placement peers, off the save critical path.
    pub hot: Option<Arc<HotTier>>,
}

impl JobContext {
    /// This worker's global rank.
    pub fn rank(&self) -> usize {
        self.comm.rank()
    }

    /// The coordinator rank (lowest member, conventionally 0).
    pub fn coordinator(&self) -> usize {
        self.comm.members()[0]
    }
}

/// Workflow-level options.
#[derive(Clone)]
pub struct WorkflowOptions {
    /// Save dedup strategy (§4.1). `WorstFit` is ByteCheckpoint.
    pub dedup: DedupStrategy,
    /// Engine save configuration.
    pub save: SaveConfig,
    /// Engine load configuration.
    pub load: LoadConfig,
    /// Use the plan & metadata cache (§4.1).
    pub plan_cache: bool,
    /// Eliminate redundant reads across DP replicas on load (§4.1).
    pub dedup_reads: bool,
    /// Injected crash schedule (empty in production; recovery tests kill
    /// ranks at named pipeline stages through it).
    pub faults: FaultPlan,
    /// Verified-fallback loading: `load_latest` scrubs the newest committed
    /// step first and falls back past corrupt ones (quarantining them)
    /// instead of erroring.
    pub verified_fallback: bool,
    /// Tiered recovery: peer-replicate committed shard files into the
    /// in-process hot tier and recover through it before the persistent
    /// tree. Must agree across ranks (the replication exchange is a
    /// symmetric collective).
    pub hot: HotTierConfig,
}

impl Default for WorkflowOptions {
    fn default() -> WorkflowOptions {
        WorkflowOptions {
            dedup: DedupStrategy::WorstFit,
            save: SaveConfig::default(),
            load: LoadConfig::default(),
            plan_cache: true,
            dedup_reads: true,
            faults: FaultPlan::new(),
            verified_fallback: true,
            hot: HotTierConfig::default(),
        }
    }
}

/// What each rank contributes to the gathered save-planning round.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct LocalSaveMsg {
    plan: SavePlan,
    loader_files: Vec<LoaderShardFileEntry>,
    has_replicated_loader: bool,
    extra_file: Option<String>,
}

/// Everything a save leaves behind for the caller.
pub struct SaveTicket {
    /// Training-blocking duration (capture + planning when uncached).
    pub blocking: Duration,
    finalize: Option<std::thread::JoinHandle<Result<SaveStats>>>,
    sync_stats: Option<SaveStats>,
}

impl SaveTicket {
    /// Wait for the asynchronous tail (upload + barrier + commit).
    pub fn wait(self) -> Result<SaveStats> {
        match self.finalize {
            Some(h) => {
                h.join().map_err(|_| BcpError::Corrupt("finalize thread panicked".into()))?
            }
            None => Ok(self.sync_stats.expect("sync stats")),
        }
    }
}

/// Inputs to one checkpoint save.
pub struct SaveArgs<'a> {
    /// Training state (model + optimizer dicts).
    pub state: &'a TrainState,
    /// Dataloader states, when the caller owns a dataloader shard.
    pub loader: Option<(&'a LoaderReplicatedState, &'a LoaderShardState)>,
    /// Extra (CPU) state for this rank.
    pub extra: Option<&'a ExtraState>,
    /// Global step being checkpointed.
    pub step: u64,
}

/// Execute the full save workflow on this rank.
pub fn save_checkpoint(
    ctx: &JobContext,
    backend: DynBackend,
    prefix: &str,
    args: SaveArgs<'_>,
) -> Result<SaveTicket> {
    let JobContext { options, cache, pool, io, sink, .. } = ctx;
    let (log, telemetry, hot_tier) = (ctx.failures.clone(), ctx.telemetry.clone(), ctx.hot.clone());
    let rank = ctx.rank();
    let step = args.step;
    let planner = planner_for(ctx.framework);
    planner.validate(args.state, ctx.parallelism, rank)?;
    // A crashing rank declares itself dead to its peers so their collectives
    // abort with `PeerFailed` instead of waiting out the timeout.
    let faults = {
        let comm = ctx.comm.clone();
        FaultHook::new(options.faults.clone(), rank).with_on_kill(move || comm.mark_self_failed())
    };
    faults.check("save/plan")?;
    let blocking_start = Instant::now();
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
    // metadata also names the request's loader and extra files: the key is
    // the state's structure plus the shape of the request.
    let sig = {
        let mut h = DefaultHasher::new();
        PlanCache::signature(planner.name(), &ctx.parallelism.describe(), rank, args.state)
            .hash(&mut h);
        args.extra.is_some().hash(&mut h);
        args.loader.map(|(_, shard)| (shard.readers.len(), shard.dp_rank)).hash(&mut h);
        h.finish()
    };
    let cached: Option<Arc<CachedSave>> = if options.plan_cache { cache.get(sig) } else { None };
    // All ranks must agree on the cache path or the collectives deadlock.
    let all_hit = ctx.comm.all_gather(cached.is_some() as u8)?.into_iter().all(|h| h == 1);

    let planned: Arc<CachedSave> = if all_hit {
        cached.expect("all_hit implies local hit")
    } else {
        let _t = root.child("save/plan");
        let msg = LocalSaveMsg {
            plan: planner.local_save_plan(rank, args.state)?,
            loader_files: loader_file_entries(args.loader),
            has_replicated_loader: rank == ctx.coordinator() && args.loader.is_some(),
            extra_file: args.extra.map(|_| format!("extra_{rank}.bin")),
        };
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
            for (m, &member) in msgs.into_iter().zip(ctx.comm.members()) {
                meta.loader_map.shards.extend(m.loader_files);
                if m.has_replicated_loader {
                    meta.loader_map.replicated_file = Some("loader/replicated.json".to_string());
                }
                if let Some(f) = m.extra_file {
                    meta.extra_files.insert(member, f);
                }
                plans.push(m.plan);
            }
            dedup_save_plans(&mut plans, options.dedup);
            meta.tensor_map = build_tensor_map(&plans);
            let plan = ctx.comm.scatter(ctx.coordinator(), Some(plans))?;
            (plan, Some(Bytes::from(meta.to_bytes())))
        } else {
            (ctx.comm.scatter(ctx.coordinator(), None)?, None)
        };
        debug_assert_eq!(plan.rank, rank, "scatter must deliver this rank's plan");
        let fresh = CachedSave { plan, metadata };
        if options.plan_cache {
            cache.insert(sig, fresh)
        } else {
            Arc::new(fresh)
        }
    };

    // ---- Engine pipeline (blocking part = capture). ----
    let hot_active = hot_tier.is_some() && options.hot.enabled;
    let staging: Option<HotStaging> =
        hot_active.then(|| Arc::new(parking_lot::Mutex::new(Vec::new())));
    let handle = execute_save_staged(
        &planned.plan,
        args.state,
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
        staging.clone(),
    )?;
    let blocking = blocking_start.elapsed();

    // ---- Small-state uploads + integrity + commit, off the critical path. ----
    let loader_payloads = build_loader_payloads(ctx, args.loader);
    let extra_payload = args.extra.map(|e| (format!("extra_{rank}.bin"), Bytes::from(e.pack())));
    let comm = ctx.comm.clone();
    let coordinator = ctx.coordinator();
    let prefix2 = prefix.to_string();
    let retries = options.save.retries;
    let chunk_bytes = options.save.chunk_bytes;
    let io2 = io.clone();
    let hot_opts = options.hot;
    let comm_abort = ctx.comm.clone();
    let finalize_inner = move || -> Result<SaveStats> {
        let mut root = root;
        // Upload dataloader shard files concurrently ("we implemented a
        // process pool for concurrent uploads", §6.4) and the extra state.
        faults.check("save/loader")?;
        {
            let mut t = root.child("save/loader");
            let tctx = t.context();
            let jobs: Vec<Box<dyn FnOnce() -> Result<()> + Send + 'static>> = loader_payloads
                .iter()
                .map(|(file, data)| {
                    let backend = backend.clone();
                    let log = log.clone();
                    let path = format!("{prefix2}/{file}");
                    let data = data.clone();
                    Box::new(move || {
                        // Parent the worker's storage spans under the phase.
                        let _e = enter_context(tctx);
                        with_retries(retries, &log, rank, "save/loader", Some(&path), || {
                            backend.write(&path, data.clone())
                        })
                    }) as Box<dyn FnOnce() -> Result<()> + Send + 'static>
                })
                .collect();
            for res in io2.run_batch(jobs) {
                res?;
            }
            t.add_bytes(loader_payloads.iter().map(|(_, d)| d.len() as u64).sum());
        }
        faults.check("save/extra")?;
        if let Some((file, data)) = &extra_payload {
            let path = format!("{prefix2}/{file}");
            let t = root.child("save/extra").bytes(data.len() as u64).path(path.clone());
            let _in_extra = t.enter();
            with_retries(retries, &log, rank, "save/extra", Some(&path), || {
                backend.write(&path, data.clone())
            })?;
        }
        let stats = handle.wait()?;
        // Integrity barrier (tree-based when the backend is Tree), then the
        // coordinator alone commits.
        faults.check("save/barrier")?;
        {
            let _t = root.child("sync/save_barrier").attr("collective", comm.backend_info());
            comm.barrier()?;
        }
        // Brownout shedding: under sustained backend throttling the
        // resilience layer raises `shed_optional_work`, and this step's
        // *optional* artifacts — chunk manifest, hot-tier replication,
        // telemetry — are skipped so the shard uploads and the COMPLETE
        // marker get the whole token budget. All three are collectives, so
        // the decision is all-gathered: one rank in brownout sheds for
        // everyone, keeping the exchanges symmetric.
        let shed = comm.all_gather(backend.shed_optional_work() as u8)?.into_iter().any(|s| s == 1);
        if shed {
            root.event("brownout_shed");
            log.log(FailureRecord {
                rank,
                stage: "save/shed".into(),
                path: Some(prefix2.clone()),
                attempt: 1,
                error: "brownout: skipped chunk manifest, hot replication and telemetry".into(),
                retried: false,
            });
        }
        // Content-addressed chunk index: every rank contributes the chunk
        // lists its pipeline derived in place; the coordinator writes the
        // manifest *before* the COMPLETE marker so a committed step always
        // carries its index. Symmetric collective — all ranks participate.
        let gathered_chunks = if chunk_bytes > 0 && !shed {
            faults.check("save/chunks")?;
            comm.gather(coordinator, stats.chunks.clone())?
        } else {
            None
        };
        if rank == coordinator {
            faults.check("save/metadata")?;
            let sealed = planned
                .metadata
                .as_ref()
                .ok_or_else(|| BcpError::Plan("coordinator lost the sealed metadata".into()))?;
            let meta_path = format!("{prefix2}/{METADATA_FILE}");
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
            if let Some(contributions) = gathered_chunks {
                let manifest = ChunkManifest::assemble(step, chunk_bytes, contributions);
                let man_path = format!("{prefix2}/{CHUNK_MANIFEST_FILE}");
                let man_bytes = Bytes::from(manifest.to_bytes());
                let t = root
                    .child("save/chunk_manifest")
                    .bytes(man_bytes.len() as u64)
                    .path(man_path.clone());
                let _in_man = t.enter();
                with_retries(retries, &log, rank, "save/chunk_manifest", Some(&man_path), || {
                    backend.write(&man_path, man_bytes.clone())
                })?;
            }
            faults.check("save/commit")?;
            let t = root.child("save/commit").path(prefix2.clone());
            let _in_commit = t.enter();
            with_retries(retries, &log, rank, "save/commit", Some(&prefix2), || {
                match commit_checkpoint(&backend, &prefix2) {
                    Ok(()) => Ok(()),
                    Err(BcpError::Storage(e)) => Err(e),
                    Err(_) => unreachable!("commit only produces storage errors"),
                }
            })?;
            root.event("commit");
        }
        // Hot-tier replication, strictly after the commit (only committed
        // steps are worth replicating) and still off the training-blocking
        // path. A peer dying mid-exchange is logged best-effort: the
        // checkpoint is already durable, the hot hit rate just drops.
        if let (Some(hot), Some(staging), false) = (&hot_tier, &staging, shed) {
            faults.check("save/hot")?;
            let files = std::mem::take(&mut *staging.lock());
            let mut t = root.child("save/hot_replicate").uncounted();
            t.set_attr("files", files.len().to_string());
            t.set_attr("replicas", hot_opts.replicas.to_string());
            t.add_bytes(files.iter().map(|(_, b)| b.len() as u64).sum());
            let _in_hot = t.enter();
            if let Err(e) = replicate_after_commit(&comm, hot, &hot_opts, step, files) {
                log.log(FailureRecord {
                    rank,
                    stage: "save/hot".into(),
                    path: Some(prefix2.clone()),
                    attempt: 1,
                    error: e.to_string(),
                    retried: false,
                });
            }
        }
        // The checkpoint is committed: close the root span and persist the
        // step's telemetry artifact next to the data (best-effort — a
        // telemetry failure degrades observability, never the checkpoint).
        drop(root);
        if let (Some(hub), false) = (&telemetry, shed) {
            let mine = collect_rank_telemetry(hub, &log, rank, step, "save");
            if let Err(e) =
                persist_step_telemetry(&comm, &backend, &prefix2, mine, TELEMETRY_SAVE_FILE)
            {
                log.log(FailureRecord {
                    rank,
                    stage: "save/telemetry".into(),
                    path: Some(format!("{prefix2}/{TELEMETRY_SAVE_FILE}")),
                    attempt: 1,
                    error: e.to_string(),
                    retried: false,
                });
            }
        }
        // Second barrier: the commit is visible to every rank once their
        // ticket resolves, so a rank may immediately load what it saved.
        comm.barrier()?;
        Ok(stats)
    };
    // Failure propagation (mirror of the load side): a rank whose finalize
    // tail aborts will never reach the barriers or post its replication
    // messages, so declare it dead rather than leave peers waiting.
    let finalize = move || -> Result<SaveStats> {
        let result = finalize_inner();
        if result.is_err() {
            comm_abort.mark_self_failed();
        }
        result
    };

    if options.save.async_upload {
        let join = std::thread::Builder::new()
            .name(format!("bcp-finalize-{rank}"))
            .spawn(finalize)
            .map_err(|e| BcpError::Corrupt(format!("spawn failed: {e}")))?;
        Ok(SaveTicket { blocking, finalize: Some(join), sync_stats: None })
    } else {
        let stats = finalize()?;
        Ok(SaveTicket {
            blocking: blocking_start.elapsed(),
            finalize: None,
            sync_stats: Some(stats),
        })
    }
}

fn loader_file_entries(
    loader: Option<(&LoaderReplicatedState, &LoaderShardState)>,
) -> Vec<LoaderShardFileEntry> {
    let Some((_, shard)) = loader else { return Vec::new() };
    shard
        .readers
        .iter()
        .enumerate()
        .map(|(w, _)| LoaderShardFileEntry {
            dp_rank: shard.dp_rank,
            worker: w,
            file: format!("loader/dp{}_w{}.json", shard.dp_rank, w),
        })
        .collect()
}

fn build_loader_payloads(
    ctx: &JobContext,
    loader: Option<(&LoaderReplicatedState, &LoaderShardState)>,
) -> Vec<(String, Bytes)> {
    let Some((replicated, shard)) = loader else { return Vec::new() };
    let mut out = Vec::new();
    // Sharded states: one file per read worker (the 6-parts-per-loader
    // layout of §6.4), each independently loadable during resharding.
    for (w, reader) in shard.readers.iter().enumerate() {
        let single = LoaderShardState {
            dp_rank: shard.dp_rank,
            readers: vec![reader.clone()],
            next_worker: shard.next_worker,
        };
        out.push((format!("loader/dp{}_w{w}.json", shard.dp_rank), Bytes::from(single.pack())));
    }
    // Replicated states: saved only by the coordinator's worker.
    if ctx.rank() == ctx.coordinator() {
        out.push(("loader/replicated.json".to_string(), Bytes::from(replicated.pack())));
    }
    out
}

/// Result of one checkpoint load on this rank.
pub struct LoadReport {
    /// Engine statistics.
    pub stats: LoadStats,
    /// The checkpoint's global metadata.
    pub metadata: GlobalMetadata,
    /// Extra state recovered for this rank (rank 0's when the world grew).
    pub extra: Option<ExtraState>,
    /// Which tier served each shard, when this was a tiered (hot-overlay)
    /// load. `None` for plain cold loads.
    pub tier: Option<TierBreakdown>,
}

/// The assembled hot overlay handed to a tiered load: verified full-path
/// file bytes plus the human-readable reasons anything will read cold.
pub type TierOverlay = (HashMap<String, Bytes>, Vec<String>);

/// Execute the full load (resharding) workflow on this rank. The state dict
/// passed in defines the *target* sharding; its tensor values are replaced.
/// With a hot-tier overlay, reads are served from the verified hot copies
/// first and fall through to the persistent backend, with the per-shard tier
/// recorded in [`LoadReport::tier`] and in the `load/tier` telemetry span.
pub fn load_checkpoint(
    ctx: &JobContext,
    backend: DynBackend,
    prefix: &str,
    state: &mut TrainState,
    tier: Option<TierOverlay>,
) -> Result<LoadReport> {
    let JobContext { options, io, sink, failures: log, telemetry, .. } = ctx;
    let load = || -> Result<LoadReport> {
        let (tiered, fallbacks) = match tier {
            Some((map, fb)) => (Some(Arc::new(TieredReadBackend::new(map, backend.clone()))), fb),
            None => (None, Vec::new()),
        };
        let backend: DynBackend = match &tiered {
            Some(t) => t.clone(),
            None => backend,
        };
        let rank = ctx.rank();
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
        // Step 1: all ranks load the global metadata (committed checkpoints only).
        faults.check("load/metadata")?;
        let meta_path = format!("{prefix}/{METADATA_FILE}");
        let metadata = {
            let mut t = root.child("load/metadata").path(meta_path.clone());
            let _in_meta = t.enter();
            let retries = options.load.retries;
            let marker = format!("{prefix}/{COMPLETE_MARKER}");
            let committed =
                with_retries(retries, log, rank, "load/metadata", Some(&marker), || {
                    backend.exists(&marker)
                })?;
            if !committed {
                return Err(BcpError::Corrupt(format!(
                    "checkpoint {prefix} has no {COMPLETE_MARKER} marker \
                     (torn or in-progress save)"
                )));
            }
            let meta_bytes =
                with_retries(retries, log, rank, "load/metadata", Some(&meta_path), || {
                    backend.read(&meta_path)
                })?;
            t.add_bytes(meta_bytes.len() as u64);
            let metadata = GlobalMetadata::from_bytes(&meta_bytes).map_err(BcpError::Corrupt)?;
            metadata.validate().map_err(BcpError::Corrupt)?;
            t.set_step(metadata.step);
            metadata
        };
        let step = metadata.step;
        root.set_step(step);

        // Steps 2-4 under one `load/plan` span: local load plan (box matching),
        // then the coordinator optimizes (redundant-read elimination) and
        // scatters the final per-rank assignments.
        let assigned: AssignedLoadPlan = {
            let _t = root.child("load/plan");
            let local: LoadPlan = local_load_plan(rank, state, &metadata)?;
            if options.dedup_reads {
                let gathered = ctx.comm.gather(ctx.coordinator(), local)?;
                let assigned = gathered.map(|plans| eliminate_redundant_reads(&plans));
                ctx.comm.scatter(ctx.coordinator(), assigned)?
            } else {
                AssignedLoadPlan {
                    rank,
                    send_to: vec![Vec::new(); local.items.len()],
                    reads: local.items,
                    recvs: Vec::new(),
                }
            }
        };

        // Step 5: engine pipeline.
        let comm_opt = if options.dedup_reads { Some(&ctx.comm) } else { None };
        let stats = execute_load(
            &assigned,
            state,
            backend.clone(),
            prefix,
            comm_opt,
            io,
            sink,
            log.clone(),
            &options.load,
            step,
            &faults,
            root.context(),
        )?;

        // Extra state: this rank's file, else the coordinator's (world grew).
        let extra = {
            let file = metadata
                .extra_files
                .get(&rank)
                .or_else(|| metadata.extra_files.get(&ctx.coordinator()))
                .or_else(|| metadata.extra_files.values().next());
            match file {
                Some(f) => {
                    let path = format!("{prefix}/{f}");
                    let mut t = root.child("load/extra").path(path.clone());
                    let _in_extra = t.enter();
                    let data = with_retries(
                        options.load.retries,
                        log,
                        rank,
                        "load/extra",
                        Some(&path),
                        || backend.read(&path),
                    )?;
                    t.add_bytes(data.len() as u64);
                    Some(ExtraState::unpack(&data).ok_or_else(|| {
                        BcpError::Corrupt(format!("extra state file {f} is unreadable"))
                    })?)
                }
                None => None,
            }
        };

        // Step 6: the optimized collective barrier guarantees atomicity.
        faults.check("load/barrier")?;
        {
            let _t = root.child("sync/load_barrier").attr("collective", ctx.comm.backend_info());
            ctx.comm.barrier()?;
        }
        // Recovery-tier breakdown: which tier served each shard, recorded both
        // in the report and as a telemetry span so the persisted artifact (and
        // `bcpctl report --load`) can show it.
        let tier = tiered.as_ref().map(|t| {
            let b = TierBreakdown::from_backend(t, fallbacks);
            let mut span = root.child("load/tier").uncounted();
            span.set_attr("hot_files", b.hot_files.to_string());
            span.set_attr("cold_files", b.cold_files.to_string());
            span.set_attr("hot_bytes", b.hot_bytes.to_string());
            span.set_attr("cold_bytes", b.cold_bytes.to_string());
            span.set_attr("fallbacks", b.fallbacks.len().to_string());
            if !b.fallbacks.is_empty() {
                span.set_attr("fallback_reasons", b.fallbacks.join("; "));
            }
            b
        });
        // Close the root span, then persist this load's telemetry next to the
        // checkpoint (best-effort, separate artifact from the save's).
        drop(root);
        if let Some(hub) = telemetry {
            let mine = collect_rank_telemetry(hub, log, rank, step, "load");
            if let Err(e) =
                persist_step_telemetry(&ctx.comm, &backend, prefix, mine, TELEMETRY_LOAD_FILE)
            {
                log.log(FailureRecord {
                    rank,
                    stage: "load/telemetry".into(),
                    path: Some(format!("{prefix}/{TELEMETRY_LOAD_FILE}")),
                    attempt: 1,
                    error: e.to_string(),
                    retried: false,
                });
            }
        }
        Ok(LoadReport { stats, metadata, extra, tier })
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
