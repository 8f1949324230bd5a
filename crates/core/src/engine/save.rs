//! The saving pipeline (§4.2): D2H capture → serialize → dump to shared
//! memory → (split-file) upload.
//!
//! In async mode only the capture blocks the caller ("checkpoint stall");
//! serialization and upload run on a background thread, exactly like the
//! paper's "symmetrical, fully asynchronous pipeline comprising D2H copy,
//! serialization, and file uploading operations".
//!
//! Single-copy data path: capture builds each shard file's whole image in
//! one pooled (pinned) buffer — frame header, payload, CRC slot, frame after
//! frame — so the payload copy into it is the only copy of a tensor's bytes
//! between the state dict and the backend. The async tail seals the image
//! in place (each frame's `crc32(payload)` into its slot, nothing else),
//! freezes it into `Bytes` that own the buffer, and uploads it as one
//! segment via
//! [`bcp_storage::StorageBackend::write_segments`]. A backend that keeps the
//! `Bytes` (memory) stores the image itself; the buffer returns to the pool
//! when the last view of it drops. All uploads (whole files and split parts)
//! run concurrently as leaf jobs on the persistent [`IoPool`].
//!
//! Split rule: a file goes up as `split_parts` parts plus a `concat` iff it
//! is larger than `split_threshold` *and* the backend's
//! [`bcp_storage::StorageBackend::concat_is_metadata_op`] holds (HDFS).
//! Everywhere else the merge would move every byte a second time — a copy
//! into fresh pages on memory and object store, read + rewrite + second
//! fsync on disk — so a shard file is one write and no `.partN` object ever
//! exists.

use crate::chunks::FileChunks;
use crate::engine::iopool::IoPool;
use crate::engine::pool::{PinnedPool, PooledBuf};
use crate::fault::FaultHook;
use crate::format::{frame_len, header_len, put_frame_header};
use crate::integrity::{with_retries, FailureLog, RetryPolicy};
use crate::plan::{Category, SavePlan};
use crate::{BcpError, Result};
use bcp_model::TrainState;
use bcp_monitor::{enter_context, MetricsSink, SpanContext};
use bcp_storage::DynBackend;
use bcp_tensor::checksum::crc32;
use bytes::{BufMut, Bytes};
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
    /// Inert, pinned by perf/ until ROADMAP 1 (d): the engine never reads
    /// it, since a save seals each frame with its CRC alone. It stays only
    /// because the perf harness's chunk-manifest probe reads it.
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
            chunk_bytes: 0,
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
    /// Inert, pinned by perf/ until ROADMAP 1 (d): the engine never fills
    /// it, so it is always empty. It stays only because the perf harness's
    /// chunk-manifest probe moves it out.
    pub chunks: Vec<FileChunks>,
}

/// What the upload tail resolves to: (bytes, files).
type UploadTail = (u64, usize);

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
    pub fn wait(mut self) -> Result<SaveStats> {
        let (bytes, files) = match self.join.take() {
            Some(h) => h.join().map_err(|_| BcpError::Corrupt("save thread panicked".into()))??,
            None => self.sync_result.take().expect("sync result present when no thread"),
        };
        Ok(SaveStats {
            blocking: self.blocking,
            end_to_end: self.started.elapsed(),
            bytes,
            files,
            chunks: Vec::new(),
        })
    }
}

/// A handle dropped unwaited (its save failed elsewhere first) still joins
/// the pipeline, so no upload into the abandoned step outlives the save.
impl Drop for SaveHandle {
    fn drop(&mut self) {
        if let Some(h) = self.join.take() {
            let _ = h.join();
        }
    }
}

/// Per-save collection point for the hot tier: the async pipeline deposits
/// each fully-uploaded file's sealed image here, so the workflow's finalize
/// tail can replicate them to peers without re-reading storage.
pub type HotStaging = Arc<parking_lot::Mutex<Vec<(String, Bytes)>>>;

/// Execute a rank's save plan against `backend` under `prefix`.
///
/// Returns once the blocking part is done; the returned handle resolves
/// when uploads complete. The serialized files are bit-deterministic: frame
/// order follows the plan (capture is sequential; only uploads fan out, and
/// each file/part is one atomic write), so payload offsets match
/// [`SavePlan::byte_metas`] (checked before each payload is copied) for any
/// `io_threads`.
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
/// every uploaded file's sealed image (a view, not a copy) is deposited into
/// it after the uploads succeed.
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
    // One image per shard file, keyed by the category that names the file.
    let mut images: BTreeMap<Category, PooledBuf> = BTreeMap::new();
    {
        let _t = sink.span_under("save/d2h", rank, step, parent).bytes(plan.total_bytes());
        let mut sizes: BTreeMap<Category, usize> = BTreeMap::new();
        for item in &plan.items {
            *sizes.entry(item.category).or_default() +=
                frame_len(&item.shard, item.nbytes as usize);
        }
        // One batch per save: the pool sizes its ping-pong retention by it.
        images.extend(sizes.keys().copied().zip(pool.acquire_batch(sizes.values().copied())));
        for (item, offset) in plan.items.iter().zip(plan.payload_offsets()) {
            let dict = match item.category {
                Category::Model => &state.model,
                Category::Optimizer => &state.optimizer,
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
            let image = images.get_mut(&item.category).expect("every planned file has an image");
            put_frame_header(image, &item.shard, item.basic.dtype, item.nbytes as usize)?;
            if image.len() as u64 != offset {
                return Err(BcpError::Plan(format!(
                    "{}: payload lands at byte {} of {}, planned at {offset}",
                    item.shard.fqn,
                    image.len(),
                    item.category.file_for(rank)
                )));
            }
            // Copy into the pooled (pinned) image — the D2H analogue, and
            // the *only* copy of the payload on the whole save path.
            image.extend_from_slice(&data[start..end]);
            // The CRC slot, sealed off the training-blocking path.
            image.put_u32_le(0);
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
    let pipeline = move || -> Result<UploadTail> {
        // Seal each image in place, walking its frames in plan order: each
        // payload's CRC lands in the slot capture left for it. This is the
        // one pass over the saved bytes between capture and upload.
        faults.check("save/serialize")?;
        let mut images = images;
        {
            let _t =
                sink.span_under("save/serialize", rank, step, parent).bytes(plan.total_bytes());
            for (&category, image) in &mut images {
                let mut at = 0;
                for item in plan.items.iter().filter(|item| item.category == category) {
                    let payload_at = at + header_len(&item.shard);
                    let crc_at = payload_at + item.nbytes as usize;
                    let crc = crc32(&image[payload_at..crc_at]).to_le_bytes();
                    image[crc_at..crc_at + 4].copy_from_slice(&crc);
                    at = crc_at + 4;
                }
            }
        }
        // Dump: freeze the sealed images into sharable `Bytes` (the
        // shared-memory staging step — no bytes move here).
        let mut staged: Vec<(String, Bytes)> = Vec::with_capacity(images.len());
        {
            let mut t = sink.span_under("save/dump", rank, step, parent);
            for (category, image) in images {
                t.add_bytes(image.len() as u64);
                staged.push((category.file_for(rank), image.freeze()));
            }
        }
        // Views for the hot tier, which adopts the images once they landed.
        let hot_views: Option<Vec<(String, Bytes)>> = hot_staging.as_ref().map(|_| staged.clone());
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
            for (file, image) in staged {
                let bytes = image.len() as u64;
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
                    let parts = split_image(&image, cfg2.split_parts, &path);
                    concats.push((path, parts.iter().map(|(n, _)| n.clone()).collect(), fctx));
                    for (name, part) in parts {
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
                                || backend.write_segments(&name, std::slice::from_ref(&part)),
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
                            backend.write_segments(&path, std::slice::from_ref(&image))
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
        // Stage hot-tier views only for files that actually landed; each
        // image returns to the pool once the hot tier drops it too.
        if let (Some(staging), Some(views)) = (&hot_staging, hot_views) {
            staging.lock().extend(views);
        }
        Ok((total, nfiles))
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

/// §4.3 split upload: carve the file image into `parts` byte windows at
/// [`bcp_tensor::layout::even_split`] boundaries. Slicing `Bytes` shares the
/// image's allocation — no bytes are copied.
fn split_image(image: &Bytes, parts: usize, path: &str) -> Vec<(String, Bytes)> {
    (0..parts)
        .map(|i| {
            let (off, len) = bcp_tensor::layout::even_split(image.len(), parts, i);
            (format!("{path}.part{i}"), image.slice(off..off + len))
        })
        .collect()
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
        // The memory backend stores the images themselves, so a step's
        // buffers come back to the pool when the step is deleted.
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
        let delete = |step: u64| {
            for key in backend.list(&format!("ckpt/step_{step}/")).unwrap() {
                backend.delete(&key).unwrap();
            }
        };
        let files = 2; // model_0.bin, optim_0.bin
        assert_eq!(save(0), (files, 0), "a cold save allocates one image per file");
        assert_eq!(save(1), (2 * files, 0), "step 0 still holds its images");
        delete(0);
        assert_eq!(save(2), (2 * files, files), "with the step before deleted: no allocation");
        delete(1);
        assert_eq!(save(3), (2 * files, 2 * files));
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
}
