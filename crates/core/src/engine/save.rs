//! The saving pipeline (§4.2): D2H capture → serialize → dump to shared
//! memory → (split-file) upload.
//!
//! In async mode only the capture blocks the caller ("checkpoint stall");
//! serialization and upload run on a background thread, exactly like the
//! paper's "symmetrical, fully asynchronous pipeline comprising D2H copy,
//! serialization, and file uploading operations".
//!
//! Single-copy data path: capture copies each tensor slice once into a
//! pooled (pinned) buffer and freezes it into sharable `Bytes`.
//! Serialization produces frame *headers* only; headers, payload views and
//! CRC trailers travel to the backend as gather segments via
//! [`bcp_storage::StorageBackend::write_segments`], so a tensor's bytes are
//! touched exactly once between the state dict and the backend. All uploads
//! (whole files and split parts) run concurrently as leaf jobs on the
//! persistent [`IoPool`].
//!
//! Split rule: a file goes up as `split_parts` parts plus a `concat` iff it
//! is larger than `split_threshold` *and* the backend's
//! [`bcp_storage::StorageBackend::concat_is_metadata_op`] holds (HDFS).
//! Everywhere else the merge would move every byte a second time — a copy
//! into fresh pages on memory and object store, read + rewrite + second
//! fsync on disk — so a shard file is one gather-write and no `.partN`
//! object ever exists.

use crate::chunks::{FileChunks, FileChunksBuilder};
use crate::engine::iopool::IoPool;
use crate::engine::pool::{PinnedPool, PooledBytes};
use crate::fault::FaultHook;
use crate::format::encode_frame_header;
use crate::integrity::{with_retries, FailureLog, RetryPolicy};
use crate::plan::SavePlan;
use crate::{BcpError, Result};
use bcp_model::TrainState;
use bcp_monitor::{enter_context, MetricsSink, SpanContext};
use bcp_storage::DynBackend;
use bcp_tensor::checksum::{crc32, Crc32};
use bytes::Bytes;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Engine tuning knobs for saving.
#[derive(Debug, Clone)]
pub struct SaveConfig {
    /// Upload threads per rank.
    pub io_threads: usize,
    /// Split files larger than this into sub-files uploaded concurrently
    /// and merged by metadata concat (§4.3 HDFS write path). Tunes that path
    /// only: on a backend whose `concat` moves bytes
    /// (`concat_is_metadata_op() == false`: memory, disk, object store)
    /// nothing is split whatever the value.
    pub split_threshold: u64,
    /// Number of sub-files when splitting (same scope as `split_threshold`).
    pub split_parts: usize,
    /// Async (pipeline off the critical path) vs fully synchronous saving.
    pub async_upload: bool,
    /// Retry policy for uploads.
    pub retries: RetryPolicy,
    /// Chunk granularity of the content-addressed index derived at commit
    /// time (`0` disables indexing; see [`crate::chunks`]).
    pub chunk_bytes: u64,
}

impl Default for SaveConfig {
    fn default() -> SaveConfig {
        SaveConfig {
            io_threads: 4,
            split_threshold: 8 * 1024 * 1024,
            split_parts: 4,
            async_upload: true,
            retries: RetryPolicy::default(),
            chunk_bytes: crate::chunks::DEFAULT_CHUNK_BYTES,
        }
    }
}

/// Timing and volume results of one rank's save.
#[derive(Debug, Clone)]
pub struct SaveStats {
    /// Training-blocking time (capture; everything in sync mode).
    pub blocking: Duration,
    /// End-to-end time including the async tail.
    pub end_to_end: Duration,
    /// Bytes uploaded.
    pub bytes: u64,
    /// Files written (after concat).
    pub files: usize,
    /// Content-addressed chunk index of this rank's files, derived in
    /// place from the gather segments (empty when `chunk_bytes == 0`).
    pub chunks: Vec<FileChunks>,
}

/// How much of a payload goes through the CRC before the same bytes go
/// through the chunk hash: small enough that the second kernel reads the
/// block from L1/L2, not from memory.
const SEAL_BLOCK_BYTES: usize = 32 * 1024;

/// One shard file while `save/serialize` builds it.
struct SealedFile {
    /// Gather segments in file order: header, payload view, CRC trailer.
    segments: Vec<Bytes>,
    /// Bytes serialized so far.
    len: u64,
    /// The file's chunk index, fed as the frames are sealed (`None` when
    /// `chunk_bytes == 0`).
    index: Option<FileChunksBuilder>,
}

/// What the upload tail resolves to: (bytes, files, per-file chunk indexes).
type UploadTail = (u64, usize, Vec<FileChunks>);

/// Handle to a possibly-still-running asynchronous save.
pub struct SaveHandle {
    blocking: Duration,
    join: Option<std::thread::JoinHandle<Result<UploadTail>>>,
    sync_result: Option<UploadTail>,
    started: Instant,
}

impl SaveHandle {
    /// The training-blocking duration (available immediately).
    pub fn blocking(&self) -> Duration {
        self.blocking
    }

    /// Wait for the pipeline to finish and collect stats.
    pub fn wait(self) -> Result<SaveStats> {
        let (bytes, files, chunks) = match self.join {
            Some(h) => h.join().map_err(|_| BcpError::Corrupt("save thread panicked".into()))??,
            None => self.sync_result.expect("sync result present when no thread"),
        };
        Ok(SaveStats {
            blocking: self.blocking,
            end_to_end: self.started.elapsed(),
            bytes,
            files,
            chunks,
        })
    }
}

/// Per-save collection point for the hot tier: the async pipeline deposits
/// each fully-uploaded file's assembled bytes here, so the workflow's
/// finalize tail can replicate them to peers without re-reading storage.
pub type HotStaging = Arc<parking_lot::Mutex<Vec<(String, Bytes)>>>;

/// Execute a rank's save plan against `backend` under `prefix`.
///
/// Returns once the blocking part is done; the returned handle resolves
/// when uploads complete. The serialized files are bit-deterministic: frame
/// order follows the plan (serialization is sequential; only uploads fan
/// out, and each file/part is one atomic gather-write), so payload offsets
/// match [`SavePlan::byte_metas`] (asserted) for any `io_threads`.
#[allow(clippy::too_many_arguments)] // the full engine context, passed once per save
pub fn execute_save(
    plan: &SavePlan,
    state: &TrainState,
    backend: DynBackend,
    prefix: &str,
    pool: &Arc<PinnedPool>,
    io: &Arc<IoPool>,
    sink: &MetricsSink,
    log: Arc<FailureLog>,
    cfg: &SaveConfig,
    step: u64,
    faults: &FaultHook,
    parent: SpanContext,
) -> Result<SaveHandle> {
    execute_save_staged(
        plan, state, backend, prefix, pool, io, sink, log, cfg, step, faults, parent, None,
    )
}

/// [`execute_save`] with an optional hot-tier staging sink: when `Some`,
/// every uploaded file's assembled bytes (segments stitched once, off the
/// training-blocking path) are deposited into it after the uploads succeed.
#[allow(clippy::too_many_arguments)] // the full engine context, passed once per save
pub fn execute_save_staged(
    plan: &SavePlan,
    state: &TrainState,
    backend: DynBackend,
    prefix: &str,
    pool: &Arc<PinnedPool>,
    io: &Arc<IoPool>,
    sink: &MetricsSink,
    log: Arc<FailureLog>,
    cfg: &SaveConfig,
    step: u64,
    faults: &FaultHook,
    parent: SpanContext,
    hot_staging: Option<HotStaging>,
) -> Result<SaveHandle> {
    let rank = plan.rank;
    let started = Instant::now();

    // ---- Phase 1 (blocking): D2H capture into the pinned pool. ----
    faults.check("save/capture")?;
    let capture_timer = Instant::now();
    let mut captured: Vec<PooledBytes> = Vec::with_capacity(plan.items.len());
    {
        let _t = sink.span_under("save/d2h", rank, step, parent).bytes(plan.total_bytes());
        // One batch per save: the pool sizes its ping-pong retention by it.
        let hosts = pool.acquire_batch(plan.items.iter().map(|item| item.nbytes as usize));
        for (item, mut host) in plan.items.iter().zip(hosts) {
            let dict = match item.category {
                crate::plan::Category::Model => &state.model,
                crate::plan::Category::Optimizer => &state.optimizer,
            };
            let entry = dict
                .get(&item.shard.fqn)
                .ok_or_else(|| BcpError::Missing(format!("{} not in state", item.shard.fqn)))?;
            let es = entry.dtype.size();
            let data = entry.tensor.bytes()?;
            let start = item.local_elem_start * es;
            let end = start + item.nbytes as usize;
            if end > data.len() {
                return Err(BcpError::Plan(format!(
                    "{}: plan slice [{start}, {end}) exceeds local tensor ({} bytes)",
                    item.shard.fqn,
                    data.len()
                )));
            }
            // Copy through a pooled (pinned) buffer — the D2H analogue, and
            // the *only* copy of the payload on the whole save path.
            host.extend_from_slice(&data[start..end]);
            captured.push(host.freeze());
        }
    }
    let blocking = capture_timer.elapsed();

    // ---- Phases 2–4 (async-able): serialize, dump, upload. ----
    let plan = plan.clone();
    let prefix = prefix.to_string();
    let sink = sink.clone();
    let cfg2 = cfg.clone();
    let faults = faults.clone();
    let io = io.clone();
    let pipeline = move || -> Result<(u64, usize, Vec<FileChunks>)> {
        // `captured` outlives every staged segment view, so the pooled
        // allocations are reclaimed (not leaked to the allocator) when the
        // uploads finish and `captured` drops last.
        let captured = captured;
        // Serialize frame *headers* per file, in plan order; payloads stay
        // as views over the capture buffers. This is also the one walk over
        // the saved bytes: each payload goes block by block through the
        // frame CRC and, while the block is still in cache, into its file's
        // streaming chunk index (§ distribution layer) — zero extra copies
        // between the state dict and the manifest, and no second pass.
        faults.check("save/serialize")?;
        let expected = plan.byte_metas();
        let mut files: BTreeMap<String, SealedFile> = BTreeMap::new();
        {
            let _t =
                sink.span_under("save/serialize", rank, step, parent).bytes(plan.total_bytes());
            for ((item, payload), bm) in plan.items.iter().zip(&captured).zip(&expected) {
                let payload = payload.share();
                let header =
                    encode_frame_header(&item.shard, item.basic.dtype, payload.len()).freeze();
                let f = files.entry(bm.file.clone()).or_insert_with(|| SealedFile {
                    segments: Vec::new(),
                    len: 0,
                    index: (cfg2.chunk_bytes > 0)
                        .then(|| FileChunksBuilder::new(bm.file.clone(), cfg2.chunk_bytes)),
                });
                debug_assert_eq!(
                    f.len + header.len() as u64,
                    bm.offset,
                    "planned offset must match serialization"
                );
                f.len += crate::format::frame_len(&item.shard, payload.len()) as u64;
                let crc = match &mut f.index {
                    Some(index) => {
                        let mut crc = Crc32::new();
                        index.update(&header);
                        for block in payload.chunks(SEAL_BLOCK_BYTES) {
                            crc.update(block);
                            index.update(block);
                        }
                        let crc = crc.finalize().to_le_bytes();
                        index.update(&crc);
                        crc
                    }
                    None => crc32(&payload).to_le_bytes(),
                };
                let crc = Bytes::copy_from_slice(&crc);
                f.segments.extend([header, payload, crc]);
            }
        }
        // Dump: hand the per-file segment lists over to upload (the
        // shared-memory staging step — no bytes move here).
        let mut chunks: Vec<FileChunks> = Vec::new();
        let mut staged: Vec<(String, Vec<Bytes>)> = Vec::with_capacity(files.len());
        {
            let mut t = sink.span_under("save/dump", rank, step, parent);
            for (file, sealed) in files {
                t.add_bytes(sealed.len);
                chunks.extend(sealed.index.map(FileChunksBuilder::finish));
                staged.push((file, sealed.segments));
            }
        }
        // Keep cheap segment views (refcounted `Bytes` clones) so the hot
        // tier can assemble whole-file copies after the uploads succeed.
        let hot_views: Option<Vec<(String, Vec<Bytes>)>> =
            hot_staging.as_ref().map(|_| staged.clone());
        // Upload: every whole file and every split part is one leaf job on
        // the shared I/O pool, so files upload concurrently.
        faults.check("save/upload")?;
        let mut total = 0u64;
        let nfiles = staged.len();
        {
            let mut t = sink.span_under("save/upload", rank, step, parent);
            let _in_upload = t.enter();
            // Per-file detail spans (uncounted: the phase span above already
            // carries the time) stay alive until their jobs complete so pool
            // workers' storage spans nest under them.
            let mut file_spans = Vec::with_capacity(nfiles);
            let mut jobs: Vec<Box<dyn FnOnce() -> Result<()> + Send + 'static>> = Vec::new();
            let mut concats: Vec<(String, Vec<String>, SpanContext)> = Vec::new();
            let split = cfg2.split_parts > 1 && backend.concat_is_metadata_op();
            for (file, segments) in staged {
                let bytes: u64 = segments.iter().map(|s| s.len() as u64).sum();
                total += bytes;
                t.add_bytes(bytes);
                let path = format!("{prefix}/{file}");
                let mut f = sink
                    .span_under("save/upload-file", rank, step, t.context())
                    .uncounted()
                    .path(path.clone())
                    .bytes(bytes);
                let fctx = f.context();
                if split && bytes > cfg2.split_threshold {
                    f.set_attr("split_parts", cfg2.split_parts.to_string());
                    let parts = split_segments(&segments, bytes as usize, cfg2.split_parts, &path);
                    concats.push((path, parts.iter().map(|(n, _)| n.clone()).collect(), fctx));
                    for (name, part_segs) in parts {
                        let backend = backend.clone();
                        let log = log.clone();
                        let retries = cfg2.retries;
                        jobs.push(Box::new(move || {
                            let _e = enter_context(fctx);
                            with_retries(
                                retries,
                                &log,
                                rank,
                                "save/upload-part",
                                Some(&name),
                                || backend.write_segments(&name, &part_segs),
                            )
                        }));
                    }
                } else {
                    let backend = backend.clone();
                    let log = log.clone();
                    let retries = cfg2.retries;
                    jobs.push(Box::new(move || {
                        let _e = enter_context(fctx);
                        with_retries(retries, &log, rank, "save/upload", Some(&path), || {
                            backend.write_segments(&path, &segments)
                        })
                    }));
                }
                file_spans.push(f);
            }
            for result in io.run_batch(jobs) {
                result?;
            }
            // Metadata-concat the split files once all their parts landed.
            let concat_jobs: Vec<Box<dyn FnOnce() -> Result<()> + Send + 'static>> = concats
                .into_iter()
                .map(|(path, part_names, fctx)| {
                    let backend = backend.clone();
                    let log = log.clone();
                    let retries = cfg2.retries;
                    Box::new(move || {
                        let _e = enter_context(fctx);
                        with_retries(retries, &log, rank, "save/concat", Some(&path), || {
                            backend.concat(&path, &part_names)
                        })
                    }) as Box<dyn FnOnce() -> Result<()> + Send + 'static>
                })
                .collect();
            for result in io.run_batch(concat_jobs) {
                result?;
            }
        }
        // Stage hot-tier copies only for files that actually landed: stitch
        // each file's segments once (off the training-blocking path).
        if let (Some(staging), Some(views)) = (&hot_staging, hot_views) {
            let mut out = staging.lock();
            for (file, segs) in views {
                let len: usize = segs.iter().map(Bytes::len).sum();
                let mut buf = bytes::BytesMut::with_capacity(len);
                for s in &segs {
                    buf.extend_from_slice(s);
                }
                out.push((file, buf.freeze()));
            }
        }
        Ok((total, nfiles, chunks))
    };

    if cfg.async_upload {
        let join = std::thread::Builder::new()
            .name(format!("bcp-save-{rank}"))
            .spawn(pipeline)
            .map_err(|e| BcpError::Corrupt(format!("spawn failed: {e}")))?;
        Ok(SaveHandle { blocking, join: Some(join), sync_result: None, started })
    } else {
        let result = pipeline()?;
        Ok(SaveHandle {
            blocking: started.elapsed(),
            join: None,
            sync_result: Some(result),
            started,
        })
    }
}

/// §4.3 split upload: carve the file's segment list into `parts` byte
/// windows at [`bcp_tensor::layout::even_split`] boundaries. Slicing `Bytes`
/// shares the parent allocations — no payload bytes are copied.
fn split_segments(
    segments: &[Bytes],
    total: usize,
    parts: usize,
    path: &str,
) -> Vec<(String, Vec<Bytes>)> {
    (0..parts)
        .map(|i| {
            let (off, len) = bcp_tensor::layout::even_split(total, parts, i);
            (format!("{path}.part{i}"), slice_window(segments, off, len))
        })
        .collect()
}

/// The sub-list of segment views covering bytes `[off, off + len)` of the
/// concatenated segment stream.
fn slice_window(segments: &[Bytes], mut off: usize, mut len: usize) -> Vec<Bytes> {
    let mut out = Vec::new();
    for seg in segments {
        if len == 0 {
            break;
        }
        if off >= seg.len() {
            off -= seg.len();
            continue;
        }
        let take = (seg.len() - off).min(len);
        out.push(seg.slice(off..off + take));
        off = 0;
        len -= take;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::local_save_plan;
    use bcp_model::states::{build_train_state, Framework};
    use bcp_model::zoo;
    use bcp_storage::MemoryBackend;
    use bcp_topology::Parallelism;

    fn setup() -> (SavePlan, TrainState, DynBackend) {
        let arch = zoo::tiny_gpt();
        let par = Parallelism::data_parallel(1).unwrap();
        let state = build_train_state(&arch, Framework::Ddp, par, 0, true);
        let plan = local_save_plan(0, &state, "cpu");
        (plan, state, Arc::new(MemoryBackend::new()))
    }

    #[test]
    fn saved_files_match_planned_byte_metas() {
        let (plan, state, backend) = setup();
        let pool = PinnedPool::new(2);
        let io = IoPool::new(2);
        let sink = MetricsSink::disabled();
        let log = Arc::new(FailureLog::new());
        let handle = execute_save(
            &plan,
            &state,
            backend.clone(),
            "ckpt",
            &pool,
            &io,
            &sink,
            log,
            &SaveConfig { async_upload: false, ..Default::default() },
            0,
            &FaultHook::inert(0),
            SpanContext::none(),
        )
        .unwrap();
        let stats = handle.wait().unwrap();
        assert_eq!(stats.bytes, {
            let mut per_file: BTreeMap<String, u64> = BTreeMap::new();
            for (item, bm) in plan.items.iter().zip(plan.byte_metas()) {
                *per_file.entry(bm.file).or_default() +=
                    crate::format::frame_len(&item.shard, item.nbytes as usize) as u64;
            }
            per_file.values().sum::<u64>()
        });
        // Single-copy: capture copied exactly the plan's payload bytes.
        assert_eq!(pool.copied_bytes(), plan.total_bytes());
        // Every planned ByteMeta points at the right payload.
        for (item, bm) in plan.items.iter().zip(plan.byte_metas()) {
            let got =
                backend.read_range(&format!("ckpt/{}", bm.file), bm.offset, bm.length).unwrap();
            let dict = match item.category {
                crate::plan::Category::Model => &state.model,
                crate::plan::Category::Optimizer => &state.optimizer,
            };
            let entry = dict.get(&item.shard.fqn).unwrap();
            let es = entry.dtype.size();
            let want = &entry.tensor.bytes().unwrap()
                [item.local_elem_start * es..item.local_elem_start * es + item.nbytes as usize];
            assert_eq!(&got[..], want, "{}", item.shard.fqn);
        }
        // Files decode as valid frames end-to-end.
        let file = backend.read("ckpt/model_0.bin").unwrap();
        let frames = crate::format::decode_frames(&file).unwrap();
        assert!(!frames.is_empty());
    }

    #[test]
    fn a_warm_same_plan_save_captures_into_reused_buffers_only() {
        let (plan, state, backend) = setup();
        let pool = PinnedPool::new(2);
        let io = IoPool::new(2);
        let save = |step: u64| {
            execute_save(
                &plan,
                &state,
                backend.clone(),
                &format!("ckpt/step_{step}"),
                &pool,
                &io,
                &MetricsSink::disabled(),
                Arc::new(FailureLog::new()),
                &SaveConfig::default(),
                step,
                &FaultHook::inert(0),
                SpanContext::none(),
            )
            .unwrap()
            .wait()
            .unwrap();
            pool.stats()
        };
        let items = plan.items.len() as u64;
        assert_eq!(save(0), (items, 0), "a cold save allocates every buffer");
        assert_eq!(save(1), (items, items), "a warm one none");
        assert_eq!(save(2), (items, 2 * items));
    }

    #[test]
    fn async_save_returns_before_upload_finishes() {
        let (plan, state, _) = setup();
        // Slow backend: writes sleep.
        let slow: DynBackend = Arc::new(bcp_storage::FaultLayer::new(
            Arc::new(MemoryBackend::new()),
            0,
            bcp_storage::fault::throttle(
                f64::INFINITY,
                4.0 * 1024.0 * 1024.0,
                Duration::from_millis(5),
            ),
        ));
        let pool = PinnedPool::new(2);
        let io = IoPool::new(1);
        let sink = MetricsSink::disabled();
        let log = Arc::new(FailureLog::new());
        let handle = execute_save(
            &plan,
            &state,
            slow,
            "ckpt",
            &pool,
            &io,
            &sink,
            log,
            &SaveConfig { async_upload: true, ..Default::default() },
            0,
            &FaultHook::inert(0),
            SpanContext::none(),
        )
        .unwrap();
        let blocking = handle.blocking();
        let stats = handle.wait().unwrap();
        assert!(
            stats.end_to_end > blocking * 2,
            "async tail should dominate: blocking {blocking:?} vs e2e {:?}",
            stats.end_to_end
        );
    }

    #[test]
    fn split_upload_round_trips_through_concat() {
        // Only a backend whose concat is a metadata operation is split for.
        let (plan, state, _) = setup();
        let hdfs = Arc::new(bcp_storage::HdfsBackend::with_defaults());
        let backend: DynBackend = hdfs.clone();
        let pool = PinnedPool::new(2);
        let io = IoPool::new(4);
        let sink = MetricsSink::disabled();
        let log = Arc::new(FailureLog::new());
        let cfg = SaveConfig {
            async_upload: false,
            split_threshold: 1024, // force splitting
            split_parts: 4,
            ..Default::default()
        };
        execute_save(
            &plan,
            &state,
            backend.clone(),
            "ckpt",
            &pool,
            &io,
            &sink,
            log,
            &cfg,
            0,
            &FaultHook::inert(0),
            SpanContext::none(),
        )
        .unwrap()
        .wait()
        .unwrap();
        // Every file went up as parts and was merged; no stray part files;
        // whole file decodes.
        let listing = backend.list("ckpt/").unwrap();
        assert!(listing.iter().all(|f| !f.contains(".part")), "{listing:?}");
        let (_, _, concats, _) = hdfs.namenode_stats().snapshot();
        assert_eq!(concats as usize, listing.len());
        let file = backend.read("ckpt/optim_0.bin").unwrap();
        assert!(!crate::format::decode_frames(&file).unwrap().is_empty());
    }

    #[test]
    fn transient_upload_failures_are_retried() {
        let (plan, state, _) = setup();
        let flaky: DynBackend = Arc::new(bcp_storage::FaultLayer::new(
            Arc::new(MemoryBackend::new()),
            0,
            vec![bcp_storage::FaultRule::new(
                bcp_storage::OpSet::Writes,
                bcp_storage::Fault::Fail { times: 2 },
            )],
        ));
        let pool = PinnedPool::new(2);
        let io = IoPool::new(2);
        let sink = MetricsSink::disabled();
        let log = Arc::new(FailureLog::new());
        let handle = execute_save(
            &plan,
            &state,
            flaky,
            "ckpt",
            &pool,
            &io,
            &sink,
            log.clone(),
            &SaveConfig { async_upload: false, ..Default::default() },
            0,
            &FaultHook::inert(0),
            SpanContext::none(),
        )
        .unwrap();
        assert!(handle.wait().is_ok());
        assert!(!log.is_empty(), "failures must be logged");
        assert!(log.records().iter().all(|r| r.stage.starts_with("save/")));
    }

    #[test]
    fn slice_window_covers_segment_boundaries() {
        let segs = vec![
            Bytes::from_static(b"0123"),
            Bytes::from_static(b"45"),
            Bytes::from_static(b"6789"),
        ];
        let flat = |w: Vec<Bytes>| w.iter().flat_map(|b| b.iter().copied()).collect::<Vec<u8>>();
        assert_eq!(flat(slice_window(&segs, 0, 10)), b"0123456789");
        assert_eq!(flat(slice_window(&segs, 3, 4)), b"3456");
        assert_eq!(flat(slice_window(&segs, 4, 2)), b"45");
        assert_eq!(flat(slice_window(&segs, 9, 1)), b"9");
        assert!(slice_window(&segs, 10, 0).is_empty());
    }
}
