//! Layer probes: the workload's real inputs (its ranks' states, plans,
//! segment lists, metadata) replayed through each layer's public functions,
//! one span per call. Values are uncorrected medians.

use crate::trace::{SegmentLists, SpanId, Tracer, TracingBackend, NO_PARENT};
use bcp_perf::job::{Oracle, Store};
use bcp_perf::report::Metric;
use bcp_perf::workload::Workload;
use bcp_perf::{on_ranks, out_dir, RANKS};
use bytecheckpoint::collectives::{Backend, CommWorld};
use bytecheckpoint::core::chunks::{
    ChunkManifest, FileChunks, CHUNK_MANIFEST_FILE, DEFAULT_CHUNK_BYTES,
};
use bytecheckpoint::core::decompose::shard_metas;
use bytecheckpoint::core::engine::iopool::IoPool;
use bytecheckpoint::core::engine::load::execute_load;
use bytecheckpoint::core::engine::pool::PinnedPool;
use bytecheckpoint::core::engine::save::{execute_save, SaveConfig};
use bytecheckpoint::core::fault::FaultHook;
use bytecheckpoint::core::format::decode_frames;
use bytecheckpoint::core::integrity::{commit_checkpoint, FailureLog};
use bytecheckpoint::core::metadata::{GlobalMetadata, METADATA_FILE};
use bytecheckpoint::core::plan::{build_tensor_map, local_load_plan, LoadPlan, SavePlan};
use bytecheckpoint::core::planner::balance::{
    dedup_save_plans, eliminate_redundant_reads, AssignedLoadPlan, DedupStrategy,
};
use bytecheckpoint::core::planner::cache::PlanCache;
use bytecheckpoint::core::planner::planner_for;
use bytecheckpoint::monitor::{MetricsHub, MetricsSink, SpanContext};
use bytecheckpoint::prelude::*;
use bytecheckpoint::storage::StorageBackend;
use bytecheckpoint::tensor::checksum::crc32;
use bytes::Bytes;
use std::hint::black_box;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// The rank whose inputs the single-rank probes replay.
const RANK: usize = 0;
const MIB: u64 = 1024 * 1024;

pub struct Probes<'a> {
    pub w: &'a Workload,
    pub tracer: Arc<Tracer>,
    /// The saving side's states, both ranks.
    pub states: &'a [TrainState],
    /// The reshard target's states, both ranks.
    pub reshard: &'a [TrainState],
    /// The workload's own store, holding the committed step the loads read.
    pub store: &'a Store,
    /// Backend key of that step's prefix.
    pub step_key: String,
    pub metrics: Vec<Metric>,
    /// Probe loads verified, and those that restored a wrong state.
    pub attempted: u64,
    pub failed: u64,
}

fn gbps(bytes: u64, secs: f64) -> f64 {
    bytes as f64 / 1e9 / secs
}

/// Repetitions of a probe that walks `bytes`: more for small inputs, whose
/// single samples are the noisiest, within about a quarter GB per probe.
fn reps_for(bytes: u64) -> usize {
    (256 * MIB / bytes.max(1)).clamp(3, 15) as usize
}

fn bytes_of(segments: &SegmentLists) -> u64 {
    segments.iter().flat_map(|(_, s)| s).map(|b| b.len() as u64).sum()
}

fn entries(state: &TrainState) -> impl Iterator<Item = &bytecheckpoint::model::StateEntry> {
    state.model.entries.values().chain(state.optimizer.entries.values())
}

impl Probes<'_> {
    fn put(&mut self, name: &'static str, unit: &'static str, samples: &[f64]) {
        self.metrics.push(Metric::median_of(name, unit, samples));
    }

    /// `reps` spans of `f` under `parent`; the seconds of each.
    fn timed(
        &self,
        parent: SpanId,
        op: &str,
        reps: usize,
        mut f: impl FnMut() -> (u64, u64),
    ) -> Vec<f64> {
        (0..reps)
            .map(|_| {
                let run = |_| {
                    let (bytes, items) = f();
                    ((), bytes, items)
                };
                self.tracer.span(parent, op, "", RANK, run).1
            })
            .collect()
    }

    pub fn run(&mut self) -> Result<(), String> {
        let segments = self.replay_save()?;
        self.replay_load()?;
        let (tracer, name) = (self.tracer.clone(), self.w.name);
        let single_layers = |root| {
            self.byte_walkers(root, &segments);
            self.decompose(root);
            let outcome = self
                .memory_backend(root, &segments)
                .and_then(|()| self.disk_backend_and_rooflines(root, &segments))
                .and_then(|()| self.instrument_overhead(root))
                .and_then(|()| self.collectives(root));
            (outcome, 0, 0)
        };
        tracer.span(NO_PARENT, "probes", name, RANK, single_layers).0
    }

    // ---- the save path, in workflow order ---------------------------------

    /// Replay one rank's cold save layer by layer, `REPS` times: plan-cache
    /// signature → local plan → dedup over both ranks' plans → metadata →
    /// engine save into a `MemoryBackend` → metadata encode → chunk manifest
    /// → commit. Returns the rank's segment lists.
    fn replay_save(&mut self) -> Result<SegmentLists, String> {
        const REPS: usize = 5;
        let (w, tracer) = (self.w, self.tracer.clone());
        let planner = planner_for(w.saving.fw);
        let par = w.saving.par.describe();
        let state = &self.states[RANK];
        // The peer's plan: its own work in the real job, so off this clock.
        let peer_plans: Vec<SavePlan> = (0..RANKS)
            .map(|r| planner.local_save_plan(r, &self.states[r]).map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        let memory: DynBackend = Arc::new(MemoryBackend::new());
        let traced = TracingBackend::new(memory.clone(), tracer.clone(), RANK);
        let backend: DynBackend = traced.clone();
        let (pool, io) = (PinnedPool::new(2), IoPool::new(w.options().save.io_threads));
        let (sink, log) = (MetricsSink::disabled(), Arc::new(FailureLog::new()));
        let cfg = w.options().save;

        let (mut signature_ms, mut plan_ms, mut dedup_ms) = (vec![], vec![], vec![]);
        let (mut engine_ms, mut blocking_ms, mut encode_ms) = (vec![], vec![], vec![]);
        let (mut items, mut imbalance, mut meta_bytes, mut copied, mut attributed) =
            (vec![], vec![], vec![], vec![], vec![]);
        for rep in 0..REPS {
            let prefix = format!("replay/step_{rep}");
            let mut plans = peer_plans.clone();
            let copied_before = pool.copied_bytes();
            let mut root_id = NO_PARENT;
            let ((), _) = tracer.span(NO_PARENT, "replay.save", w.name, RANK, |root| {
                root_id = root;
                let (_, s) = tracer.span(root, "core.planner.cache.signature", "", RANK, |_| {
                    (black_box(PlanCache::signature(planner.name(), &par, RANK, state)), 0, 0)
                });
                signature_ms.push(s * 1e3);
                let (plan, s) = tracer.span(root, "core.plan.local_save_plan", "", RANK, |_| {
                    let p = planner.local_save_plan(RANK, state).expect("validated state plans");
                    let n = p.items.len() as u64;
                    (p, 0, n)
                });
                plan_ms.push(s * 1e3);
                items.push(plan.items.len() as f64);
                plans[RANK] = plan;
                let (report, s) = tracer.span(root, "core.planner.dedup", "", RANK, |_| {
                    (dedup_save_plans(&mut plans, DedupStrategy::WorstFit), 0, 0)
                });
                dedup_ms.push(s * 1e3);
                imbalance.push(report.imbalance());
                let (meta, _) = tracer.span(root, "core.plan.build_tensor_map", "", RANK, |_| {
                    let mut m = GlobalMetadata::new(planner.name(), rep as u64, &par, RANKS);
                    m.tensor_map = build_tensor_map(&plans);
                    (m, 0, 0)
                });
                let (blocking, s) = tracer.span(root, "core.engine.save", "", RANK, |engine| {
                    let t0 = Instant::now();
                    let handle = execute_save(
                        &plans[RANK],
                        state,
                        backend.clone(),
                        &prefix,
                        &pool,
                        &io,
                        &sink,
                        log.clone(),
                        &cfg,
                        rep as u64,
                        &FaultHook::inert(RANK),
                        SpanContext::none(),
                    )
                    .expect("engine save into memory");
                    let blocking = t0.elapsed().as_secs_f64();
                    let stats = handle.wait().expect("engine save into memory");
                    traced.flush(engine);
                    ((blocking, stats), plans[RANK].total_bytes(), plans[RANK].items.len() as u64)
                });
                let (blocking, stats) = blocking;
                engine_ms.push(s * 1e3);
                blocking_ms.push(blocking * 1e3);
                let (encoded, s) = tracer.span(root, "core.metadata.encode", "", RANK, |_| {
                    let b = meta.to_bytes();
                    let n = b.len() as u64;
                    (b, n, 0)
                });
                encode_ms.push(s * 1e3);
                meta_bytes.push(encoded.len() as f64);
                let ((), _) = tracer.span(root, "core.chunks.manifest", "", RANK, |_| {
                    let m =
                        ChunkManifest::assemble(rep as u64, cfg.chunk_bytes, vec![stats.chunks]);
                    let b = Bytes::from(m.to_bytes());
                    let n = b.len() as u64;
                    backend
                        .write(&format!("{prefix}/{CHUNK_MANIFEST_FILE}"), b)
                        .expect("memory write");
                    ((), n, 0)
                });
                let ((), _) = tracer.span(root, "core.integrity.commit", "", RANK, |_| {
                    let path = format!("{prefix}/{METADATA_FILE}");
                    backend.write(&path, Bytes::from(encoded)).expect("memory write");
                    commit_checkpoint(&backend, &prefix).expect("memory write");
                    ((), 0, 0)
                });
                traced.flush(root);
                ((), plans[RANK].total_bytes(), 0)
            });
            let (covered, total) = tracer.covered_s(root_id);
            attributed.push(covered / total);
            copied.push(
                (pool.copied_bytes() - copied_before) as f64 / plans[RANK].total_bytes() as f64,
            );
            for key in memory.list(&format!("{prefix}/")).map_err(|e| e.to_string())? {
                memory.delete(&key).map_err(|e| e.to_string())?;
            }
        }
        let (allocs, reuses) = pool.stats();
        self.put("core.planner.cache.signature.ms", "ms", &signature_ms);
        self.put("core.plan.local_save_plan.ms", "ms", &plan_ms);
        self.put("core.plan.local_save_plan.items", "count", &items);
        self.put("core.planner.dedup.ms", "ms", &dedup_ms);
        self.put("core.planner.dedup.imbalance", "ratio", &imbalance);
        self.put("core.engine.save.ms", "ms", &engine_ms);
        self.put("core.engine.save.blocking_ms", "ms", &blocking_ms);
        self.put("core.engine.pool.copied_bytes_per_state_byte", "ratio", &copied);
        self.metrics.push(Metric::new("core.engine.pool.allocs", "count", allocs as f64));
        self.metrics.push(Metric::new("core.engine.pool.reuses", "count", reuses as f64));
        self.put("core.metadata.encode.ms", "ms", &encode_ms);
        self.put("core.metadata.bytes", "bytes", &meta_bytes);
        self.put("core.workflow.save.attributed_frac", "ratio", &attributed);

        // One more engine save, unsplit, to see the rank's whole files as
        // segment lists: what crc32, the chunk hash and the backends walk.
        traced.tap_segments();
        let unsplit = SaveConfig { split_threshold: u64::MAX, ..cfg };
        let mut plans = peer_plans;
        dedup_save_plans(&mut plans, DedupStrategy::WorstFit);
        execute_save(
            &plans[RANK],
            state,
            backend.clone(),
            "replay/tap",
            &PinnedPool::new(2),
            &io,
            &sink,
            log,
            &unsplit,
            0,
            &FaultHook::inert(RANK),
            SpanContext::none(),
        )
        .and_then(|h| h.wait())
        .map_err(|e| format!("engine save for the segment tap: {e}"))?;
        traced.flush(NO_PARENT);
        let segments: SegmentLists = traced
            .take_segments()
            .into_iter()
            .map(|(path, segs)| (path.rsplit('/').next().unwrap_or(&path).to_string(), segs))
            .collect();
        Ok(segments)
    }

    // ---- the load path, in workflow order ---------------------------------

    /// Replay one rank's load of the job's committed step layer by layer:
    /// metadata read + decode → local plan → redundant-read elimination over
    /// both ranks' plans → engine load from the workload's own backend, into
    /// a poisoned target that is compared with the rank's state afterwards.
    fn replay_load(&mut self) -> Result<(), String> {
        const REPS: usize = 5;
        let (w, tracer) = (self.w, self.tracer.clone());
        let traced = TracingBackend::new(self.store.backend.clone(), tracer.clone(), RANK);
        let backend: DynBackend = traced.clone();
        let prefix = self.step_key.clone();
        let meta_path = format!("{prefix}/{METADATA_FILE}");
        let io = IoPool::new(w.options().load.io_threads);
        let (sink, log) = (MetricsSink::disabled(), Arc::new(FailureLog::new()));
        let cfg = w.options().load;
        let mut oracle = Oracle::new(vec![self.states[RANK].clone()]);
        let peer_meta =
            GlobalMetadata::from_bytes(&backend.read(&meta_path).map_err(|e| e.to_string())?)?;
        let peer_plan =
            local_load_plan(1, &self.states[1], &peer_meta).map_err(|e| e.to_string())?;
        traced.flush(NO_PARENT);

        let (mut decode_ms, mut plan_ms, mut dedup_ms, mut engine_ms) =
            (vec![], vec![], vec![], vec![]);
        let (mut items, mut ratio, mut fetched, mut reads, mut attributed) =
            (vec![], vec![], vec![], vec![], vec![]);
        let (mut reshard_ms, mut reshard_items) = (vec![], vec![]);
        for _ in 0..REPS {
            let mut root_id = NO_PARENT;
            let target = &mut oracle.got[0];
            let (meta, _) = tracer.span(NO_PARENT, "replay.load", w.name, RANK, |root| {
                root_id = root;
                let raw = backend.read(&meta_path).expect("committed step has metadata");
                traced.flush(root);
                let (meta, s) = tracer.span(root, "core.metadata.decode", "", RANK, |_| {
                    let m = GlobalMetadata::from_bytes(&raw).expect("committed metadata parses");
                    m.validate().expect("committed metadata validates");
                    (m, raw.len() as u64, 0)
                });
                decode_ms.push(s * 1e3);
                let (plan, s) = tracer.span(root, "core.plan.local_load_plan", "", RANK, |_| {
                    let p =
                        local_load_plan(RANK, target, &meta).expect("same parallelism is covered");
                    let n = p.items.len() as u64;
                    (p, 0, n)
                });
                plan_ms.push(s * 1e3);
                items.push(plan.items.len() as f64);
                let both: Vec<LoadPlan> = vec![plan.clone(), peer_plan.clone()];
                let (assigned, s) =
                    tracer.span(root, "core.planner.redundant_reads", "", RANK, |_| {
                        (eliminate_redundant_reads(&both), 0, 0)
                    });
                dedup_ms.push(s * 1e3);
                ratio.push(
                    assigned.iter().map(AssignedLoadPlan::read_bytes).sum::<u64>() as f64
                        / both.iter().map(LoadPlan::total_fetch_bytes).sum::<u64>() as f64,
                );
                // One rank alone: it reads all of its own items, as the
                // workflow does when read dedup is off.
                let alone = AssignedLoadPlan {
                    rank: RANK,
                    send_to: vec![Vec::new(); plan.items.len()],
                    reads: plan.items,
                    recvs: Vec::new(),
                };
                let (stats, s) = tracer.span(root, "core.engine.load", "", RANK, |engine| {
                    let stats = execute_load(
                        &alone,
                        target,
                        backend.clone(),
                        &prefix,
                        None,
                        &io,
                        &sink,
                        log.clone(),
                        &cfg,
                        meta.step,
                        &FaultHook::inert(RANK),
                        SpanContext::none(),
                    )
                    .expect("engine load of a committed step");
                    traced.flush(engine);
                    let n = (stats.fetched_bytes, stats.local_reads as u64);
                    (stats, n.0, n.1)
                });
                engine_ms.push(s * 1e3);
                fetched.push(stats.fetched_bytes as f64);
                reads.push(stats.local_reads as f64);
                (meta, stats.fetched_bytes, 0)
            });
            let (covered, total) = tracer.covered_s(root_id);
            attributed.push(covered / total);
            self.attempted += 1;
            self.failed += (oracle.mismatches() > 0) as u64;
            oracle.poison();
            // The other parallelism's plan, for its cost alone.
            let (n, s) =
                tracer.span(NO_PARENT, "core.plan.local_load_plan.reshard", "", RANK, |_| {
                    let p = local_load_plan(RANK, &self.reshard[RANK], &meta)
                        .expect("target is covered");
                    (p.items.len(), 0, p.items.len() as u64)
                });
            reshard_ms.push(s * 1e3);
            reshard_items.push(n as f64);
        }
        self.put("core.metadata.decode.ms", "ms", &decode_ms);
        self.put("core.plan.local_load_plan.ms", "ms", &plan_ms);
        self.put("core.plan.local_load_plan.items", "count", &items);
        self.put("core.plan.local_load_plan.reshard_ms", "ms", &reshard_ms);
        self.put("core.plan.local_load_plan.reshard_items", "count", &reshard_items);
        self.put("core.planner.redundant_reads.ms", "ms", &dedup_ms);
        self.put("core.planner.redundant_reads.read_bytes_ratio", "ratio", &ratio);
        self.put("core.engine.load.ms", "ms", &engine_ms);
        self.put("core.engine.load.fetched_bytes", "bytes", &fetched);
        self.put("core.engine.load.local_reads", "count", &reads);
        self.put("core.workflow.load.attributed_frac", "ratio", &attributed);

        // The recovery-path parser, on the rank's largest saved shard file.
        let files = self.store.backend.list(&format!("{prefix}/")).map_err(|e| e.to_string())?;
        let shard = files
            .iter()
            .filter(|f| f.ends_with(&format!("_{RANK}.bin")))
            .max_by_key(|f| self.store.backend.size(f).unwrap_or(0))
            .ok_or("the committed step has no shard file of the probe rank")?;
        let data = self.store.backend.read(shard).map_err(|e| e.to_string())?;
        let secs =
            self.timed(NO_PARENT, "core.format.decode_frames", reps_for(data.len() as u64), || {
                let frames = decode_frames(&data).expect("a committed shard file decodes");
                (data.len() as u64, frames.len() as u64)
            });
        let rates: Vec<f64> = secs.iter().map(|s| gbps(data.len() as u64, *s)).collect();
        self.put("core.format.decode_frames.gbps", "GB/s", &rates);
        Ok(())
    }

    // ---- single layers ------------------------------------------------------

    /// The two passes every saved byte gets: `crc32` per payload and the
    /// chunk hash over the file's segments.
    fn byte_walkers(&mut self, root: SpanId, segments: &SegmentLists) {
        let state = &self.states[RANK];
        let payload: u64 = entries(state).map(|e| e.tensor.nbytes() as u64).sum();
        let secs = self.timed(root, "tensor.checksum.crc32", reps_for(payload), || {
            let mut n = 0;
            for e in entries(state) {
                black_box(crc32(e.tensor.bytes().expect("materialized state")));
                n += 1;
            }
            (payload, n)
        });
        let rates: Vec<f64> = secs.iter().map(|s| gbps(payload, *s)).collect();
        self.put("tensor.crc32.gbps", "GB/s", &rates);

        let total = bytes_of(segments);
        let mut chunks = 0u64;
        let secs = self.timed(root, "core.chunks.from_segments", reps_for(total), || {
            chunks = segments
                .iter()
                .map(|(file, segs)| {
                    FileChunks::from_segments(file.clone(), segs, DEFAULT_CHUNK_BYTES).chunks.len()
                        as u64
                })
                .sum();
            (total, chunks)
        });
        let rates: Vec<f64> = secs.iter().map(|s| gbps(total, *s)).collect();
        self.put("core.chunks.hash.gbps", "GB/s", &rates);
        let per_gb = chunks as f64 / (total as f64 / 1e9);
        self.metrics.push(Metric::new("core.chunks.chunks_per_gb", "1/GB", per_gb));
    }

    /// `ShardSpec` → boxes, over every entry the rank holds.
    fn decompose(&mut self, root: SpanId) {
        let state = &self.states[RANK];
        let n = entries(state).count() as u64;
        let mut boxes = 0u64;
        let secs = self.timed(root, "core.decompose.shard_metas", 5, || {
            boxes = entries(state)
                .map(|e| shard_metas(&e.fqn, &e.global_shape, &e.spec).len() as u64)
                .sum();
            (0, boxes)
        });
        let per_entry: Vec<f64> = secs.iter().map(|s| s * 1e6 / n as f64).collect();
        self.put("core.decompose.shard_metas.us_per_entry", "us", &per_entry);
        let per = boxes as f64 / n as f64;
        self.metrics.push(Metric::new("core.decompose.shard_metas.boxes_per_entry", "count", per));
    }

    /// Write every file of `segments` under `dir`, then time 4 MiB ranged
    /// reads over all of them. Returns (write GB/s, read GB/s) samples.
    fn write_then_read(
        &self,
        root: SpanId,
        backend: &dyn StorageBackend,
        segments: &SegmentLists,
        reps: usize,
    ) -> Result<(Vec<f64>, Vec<f64>), String> {
        let total = bytes_of(segments);
        let name = backend.name().to_string();
        let mut failure = None;
        let writes = self.timed(root, &format!("storage.{name}.write_segments"), reps, || {
            for (file, segs) in segments {
                if let Err(e) = backend.write_segments(&format!("probe/{file}"), segs) {
                    failure = Some(e.to_string());
                }
            }
            (total, segments.len() as u64)
        });
        let reads = self.timed(root, &format!("storage.{name}.read_range"), reps, || {
            let mut calls = 0;
            for (file, segs) in segments {
                let size: u64 = segs.iter().map(|s| s.len() as u64).sum();
                let mut at = 0;
                while at < size {
                    let len = (4 * MIB).min(size - at);
                    match backend.read_range(&format!("probe/{file}"), at, len) {
                        Ok(b) => drop(black_box(b)),
                        Err(e) => failure = Some(e.to_string()),
                    }
                    at += len;
                    calls += 1;
                }
            }
            (total, calls)
        });
        match failure {
            Some(e) => Err(format!("storage.{name} probe: {e}")),
            None => Ok((
                writes.iter().map(|s| gbps(total, *s)).collect(),
                reads.iter().map(|s| gbps(total, *s)).collect(),
            )),
        }
    }

    fn memory_backend(&mut self, root: SpanId, segments: &SegmentLists) -> Result<(), String> {
        let reps = reps_for(bytes_of(segments));
        let (w, r) = self.write_then_read(root, &MemoryBackend::new(), segments, reps)?;
        self.put("storage.memory.write_segments.gbps", "GB/s", &w);
        self.put("storage.memory.read_range.gbps", "GB/s", &r);
        Ok(())
    }

    /// `DiskBackend` under `perf/out/` with this workload's files, and beside
    /// it the rooflines: `copy_from_slice`, and raw `std::fs` write + fsync +
    /// rename and read of the same file sizes in the same directory.
    fn disk_backend_and_rooflines(
        &mut self,
        root: SpanId,
        segments: &SegmentLists,
    ) -> Result<(), String> {
        let dir: PathBuf = out_dir().join(format!("probe-{}", self.w.name));
        let _ = std::fs::remove_dir_all(&dir);
        let disk = DiskBackend::new(&dir).map_err(|e| e.to_string())?;
        let io = |e: std::io::Error| format!("{}: {e}", dir.display());
        let bk = |e: bytecheckpoint::storage::StorageError| format!("storage.disk probe: {e}");

        let reps = reps_for(bytes_of(segments));
        let (w, r) = self.write_then_read(root, &disk, segments, reps)?;
        self.put("storage.disk.write_segments.gbps", "GB/s", &w);
        self.put("storage.disk.read_range.gbps", "GB/s", &r);

        // Per-op costs: whole 4 KiB objects (create + fsync + rename + dir
        // fsync each), and 4 KiB ranged reads (open + seek each).
        const SMALL_WRITES: usize = 32;
        const SMALL_READS: u64 = 512;
        let small = Bytes::from(vec![0x3Cu8; 4096]);
        let mut failure = None;
        let secs = self.timed(root, "storage.disk.write_small", 3, || {
            for i in 0..SMALL_WRITES {
                if let Err(e) = disk.write(&format!("small/obj_{i}"), small.clone()) {
                    failure = Some(e);
                }
            }
            (4096 * SMALL_WRITES as u64, SMALL_WRITES as u64)
        });
        let per_op: Vec<f64> = secs.iter().map(|s| s * 1e3 / SMALL_WRITES as f64).collect();
        self.put("storage.disk.write_small.ms_per_op", "ms", &per_op);
        let (largest, largest_segs) = segments
            .iter()
            .max_by_key(|(_, s)| s.iter().map(Bytes::len).sum::<usize>())
            .ok_or("the probe rank wrote no file")?;
        let size: u64 = largest_segs.iter().map(|s| s.len() as u64).sum();
        let stride = (size - 4096) / SMALL_READS;
        let secs = self.timed(root, "storage.disk.read_range_small", 3, || {
            for i in 0..SMALL_READS {
                match disk.read_range(&format!("probe/{largest}"), i * stride, 4096) {
                    Ok(b) => drop(black_box(b)),
                    Err(e) => failure = Some(e),
                }
            }
            (4096 * SMALL_READS, SMALL_READS)
        });
        let per_op: Vec<f64> = secs.iter().map(|s| s * 1e6 / SMALL_READS as f64).collect();
        self.put("storage.disk.read_range_small.us_per_op", "us", &per_op);

        // Split-upload's merge: the largest file as four parts, concatenated.
        let mut rates = Vec::new();
        for _ in 0..reps_for(size) {
            let quarter = largest_segs.len().div_ceil(4);
            let mut parts = Vec::new();
            for (i, part) in largest_segs.chunks(quarter).enumerate() {
                let name = format!("concat/{largest}.part{i}");
                disk.write_segments(&name, part).map_err(bk)?;
                parts.push(name);
            }
            let secs = self.timed(root, "storage.disk.concat", 1, || {
                if let Err(e) = disk.concat(&format!("concat/{largest}"), &parts) {
                    failure = Some(e);
                }
                (size, parts.len() as u64)
            });
            rates.push(gbps(size, secs[0]));
        }
        self.put("storage.disk.concat.gbps", "GB/s", &rates);
        if let Some(e) = failure {
            return Err(bk(e));
        }

        // Rooflines.
        let sizes: Vec<usize> =
            segments.iter().map(|(_, s)| s.iter().map(Bytes::len).sum()).collect();
        let total: u64 = sizes.iter().map(|s| *s as u64).sum();
        let src = vec![0xC3u8; sizes.iter().copied().max().unwrap_or(0).max(64 * MIB as usize)];
        let mut dst = vec![0u8; 64 * MIB as usize];
        dst.copy_from_slice(&src[..64 * MIB as usize]); // touch the pages first
        let secs = self.timed(root, "roofline.memcpy", 5, || {
            dst.copy_from_slice(black_box(&src[..64 * MIB as usize]));
            black_box(&mut dst);
            (64 * MIB, 1)
        });
        let rates: Vec<f64> = secs.iter().map(|s| gbps(64 * MIB, *s)).collect();
        self.put("roofline.memcpy.gbps", "GB/s", &rates);

        let raw = dir.join("roofline");
        std::fs::create_dir_all(&raw).map_err(io)?;
        let mut error = None;
        let secs = self.timed(root, "roofline.file_write_fsync", reps, || {
            for (i, size) in sizes.iter().enumerate() {
                let (tmp, path) = (raw.join(format!("f{i}.tmp")), raw.join(format!("f{i}")));
                let written = std::fs::File::create(&tmp).and_then(|mut f| {
                    f.write_all(&src[..*size])?;
                    f.sync_all()?;
                    std::fs::rename(&tmp, &path)
                });
                if let Err(e) = written {
                    error = Some(e);
                }
            }
            (total, sizes.len() as u64)
        });
        let rates: Vec<f64> = secs.iter().map(|s| gbps(total, *s)).collect();
        self.put("roofline.file_write_fsync.gbps", "GB/s", &rates);
        let secs = self.timed(root, "roofline.file_read", reps, || {
            for i in 0..sizes.len() {
                match std::fs::read(raw.join(format!("f{i}"))) {
                    Ok(b) => drop(black_box(b)),
                    Err(e) => error = Some(e),
                }
            }
            (total, sizes.len() as u64)
        });
        let rates: Vec<f64> = secs.iter().map(|s| gbps(total, *s)).collect();
        self.put("roofline.file_read.gbps", "GB/s", &rates);
        if let Some(e) = error {
            return Err(io(e));
        }
        std::fs::remove_dir_all(&dir).map_err(io)
    }

    /// One op stream through `InstrumentedBackend(MemoryBackend)` and through
    /// the bare backend; the difference per op. The sink is what a
    /// `Checkpointer` with telemetry on gives its wrapper.
    fn instrument_overhead(&mut self, root: SpanId) -> Result<(), String> {
        const OPS: u64 = 20_000;
        let stream = |backend: &dyn StorageBackend| -> Result<(), String> {
            let page = Bytes::from(vec![7u8; 4096]);
            for i in 0..OPS {
                if i % 10 == 0 {
                    backend.write("ops/page", page.clone()).map_err(|e| e.to_string())?;
                } else {
                    let at = (i * 4096) % (MIB - 4096);
                    black_box(backend.read_range("ops/blob", at, 4096).map_err(|e| e.to_string())?);
                }
            }
            Ok(())
        };
        let bare: DynBackend = Arc::new(MemoryBackend::new());
        bare.write("ops/blob", Bytes::from(vec![1u8; MIB as usize])).map_err(|e| e.to_string())?;
        let hub = Arc::new(MetricsHub::bounded(1 << 16));
        let sink = MetricsSink::fanout(vec![MetricsSink::disabled(), hub.sink()]);
        let instrumented = InstrumentedBackend::new(bare.clone(), sink, RANK);
        let mut failure = None;
        let (mut plain, mut wrapped) = (Vec::new(), Vec::new());
        for _ in 0..5 {
            plain.extend(self.timed(root, "storage.memory.op_stream", 1, || {
                failure = stream(&*bare).err().or(failure.take());
                (0, OPS)
            }));
            wrapped.extend(self.timed(root, "storage.instrument.op_stream", 1, || {
                failure = stream(&instrumented).err().or(failure.take());
                (0, OPS)
            }));
        }
        if let Some(e) = failure {
            return Err(format!("instrument probe: {e}"));
        }
        let per_op: Vec<f64> =
            wrapped.iter().zip(&plain).map(|(w, p)| (w - p) * 1e9 / OPS as f64).collect();
        self.put("storage.instrument.overhead_ns_per_op", "ns", &per_op);
        Ok(())
    }

    /// Two ranks on `CommWorld(Backend::Flat)`, small payloads: the cost of a
    /// rendezvous, which every save pays for its plan-cache vote and barriers.
    fn collectives(&mut self, root: SpanId) -> Result<(), String> {
        const BATCHES: usize = 5;
        const CALLS: usize = 300;
        let world = CommWorld::new(RANKS, Backend::Flat);
        type Op = fn(&Communicator) -> Result<(), bytecheckpoint::collectives::CollectiveError>;
        let ops: [(&'static str, &'static str, Op); 4] = [
            ("collectives.barrier.us", "collectives.barrier", |c| c.barrier()),
            ("collectives.gather.us", "collectives.gather", |c| c.gather(0, 1u64).map(drop)),
            ("collectives.scatter.us", "collectives.scatter", |c| {
                c.scatter(0, (c.rank() == 0).then(|| vec![1u64; RANKS])).map(drop)
            }),
            ("collectives.all_gather.us", "collectives.all_gather", |c| {
                c.all_gather(1u8).map(drop)
            }),
        ];
        for (metric, op, call) in ops {
            let per_rank = on_ranks(0..RANKS, |rank, _| -> Result<Vec<f64>, String> {
                let comm = world.communicator(rank).map_err(|e| e.to_string())?;
                let mut batches = Vec::new();
                for _ in 0..BATCHES {
                    let run =
                        || (0..CALLS).try_for_each(|_| call(&comm)).map_err(|e| e.to_string());
                    if rank == RANK {
                        let (out, secs) = self
                            .tracer
                            .span(root, op, "ranks=2", rank, |_| (run(), 0, CALLS as u64));
                        out?;
                        batches.push(secs * 1e6 / CALLS as f64);
                    } else {
                        run()?;
                    }
                }
                Ok(batches)
            });
            let mut samples = Vec::new();
            for r in per_rank {
                samples.extend(r.map_err(|e| format!("{op}: {e}"))?);
            }
            self.put(metric, "us", &samples);
        }
        Ok(())
    }
}
