//! The loading pipeline (§4.2, Fig. 10): ranged multi-threaded reads →
//! deserialize/extract → local assembly ("H2D") → forwarding of
//! redundancy-eliminated reads.
//!
//! The unit of fetch is the **run** ([`ReadRun`]), not the plan item: a
//! rank's assigned items are grouped per file and neighbouring byte ranges
//! are coalesced ([`build_runs`]), so storage operations, retries, spans
//! and the load artifact scale with the number of runs rather than the
//! number of tensors. Every piece of every run is submitted to the shared
//! [`IoPool`] up front; as a run's last piece lands its members are sliced
//! out (zero-copy), extracted, applied locally and eagerly forwarded to the
//! peers that deduplicated their reads onto this rank — while the remaining
//! fetches are still in flight. A receiver thread drains inbound forwards
//! concurrently, so read I/O and communication overlap instead of
//! serializing.

use crate::engine::iopool::IoPool;
use crate::engine::{extract_isect, Assembler};
use crate::fault::FaultHook;
use crate::integrity::{with_retries, FailureLog, RetryPolicy};
use crate::plan::ReadItem;
use crate::planner::balance::AssignedLoadPlan;
use crate::{BcpError, Result};
use bcp_collectives::Communicator;
use bcp_model::TrainState;
use bcp_monitor::{enter_context, MetricsSink, SpanContext, SpanGuard};
use bcp_storage::DynBackend;
use bytes::{Bytes, BytesMut};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Engine tuning knobs for loading.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Reader threads per rank.
    pub io_threads: usize,
    /// Target size of one storage read: neighbouring items are coalesced
    /// into runs of at most this many bytes, and a run larger than this (one
    /// oversized item) is split into ranged reads of this size spread over
    /// the reader threads (§4.3 multi-threaded single-file download).
    pub chunk_bytes: u64,
    /// Retry policy for downloads.
    pub retries: RetryPolicy,
}

impl Default for LoadConfig {
    fn default() -> LoadConfig {
        LoadConfig { io_threads: 4, chunk_bytes: 4 * 1024 * 1024, retries: RetryPolicy::default() }
    }
}

/// Timing and volume results of one rank's load.
#[derive(Debug, Clone)]
pub struct LoadStats {
    /// End-to-end load time on this rank.
    pub end_to_end: Duration,
    /// Bytes requested from storage by this rank: the sum of its run
    /// lengths, gaps between coalesced items included (and bytes two
    /// overlapping items share counted once).
    pub fetched_bytes: u64,
    /// Bytes received from peers instead of storage.
    pub forwarded_bytes: u64,
    /// Number of read items executed locally.
    pub local_reads: usize,
}

/// Key a receiver uses to match a forwarded payload to its own item.
#[derive(Debug, Clone, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
struct ReadKey {
    category: crate::plan::Category,
    fqn: String,
    isect_offsets: Vec<usize>,
    isect_lengths: Vec<usize>,
    file: String,
}

impl ReadKey {
    fn of(item: &ReadItem) -> ReadKey {
        ReadKey {
            category: item.category,
            fqn: item.fqn.clone(),
            isect_offsets: item.isect_offsets.clone(),
            isect_lengths: item.isect_lengths.clone(),
            file: item.file.clone(),
        }
    }
}

/// Two fetch ranges of one file closer together than this are read as one
/// run, gap included. One small ranged read costs about as much as reading
/// 10–40 KB more of a file already open (perf's
/// `storage.disk.read_range_small.us_per_op` ≈ 4 µs against
/// `roofline.file_read.gbps`), and on HDFS or an object store a request
/// costs orders of magnitude more, so below this distance the extra bytes
/// are cheaper than the extra operation.
pub const RUN_GAP_BYTES: u64 = 32 * 1024;

/// One contiguous byte range of one file, fetched as a unit, and the plan
/// items whose bytes it carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadRun {
    /// File name relative to the checkpoint prefix.
    pub file: String,
    /// Absolute offset of the run in the file.
    pub offset: u64,
    /// Length of the run in bytes.
    pub len: u64,
    /// `(index into the reads, offset inside the run, length)` per member.
    pub members: Vec<(usize, u64, u64)>,
}

/// Coalesce `reads` into per-file byte runs, sorted by `(file, offset)`.
///
/// Per file, items are taken in order of [`ReadItem::fetch_range`]. An item
/// that overlaps the current run always joins it (no byte of a file is
/// read twice); an item within [`RUN_GAP_BYTES`] of its end joins it
/// unless that would grow the run past `chunk_bytes`. A run therefore
/// grows past `chunk_bytes` only by an item that overlaps it (one oversized
/// item being the plain case) — and items overlap only inside one stored
/// shard, which bounds how far.
pub fn build_runs(reads: &[ReadItem], chunk_bytes: u64) -> Vec<ReadRun> {
    let mut ranged: Vec<(&str, u64, u64, usize)> = reads
        .iter()
        .enumerate()
        .map(|(idx, item)| {
            let (offset, len) = item.fetch_range();
            (item.file.as_str(), offset, len, idx)
        })
        .collect();
    ranged.sort_unstable();
    let mut runs: Vec<ReadRun> = Vec::new();
    for (file, offset, len, idx) in ranged {
        let end = offset + len;
        if let Some(run) = runs.last_mut().filter(|r| r.file == file) {
            let run_end = run.offset + run.len;
            let merged_len = end.max(run_end) - run.offset;
            let near = offset <= run_end + RUN_GAP_BYTES && merged_len <= chunk_bytes;
            if offset < run_end || near {
                run.len = merged_len;
                run.members.push((idx, offset - run.offset, len));
                continue;
            }
        }
        runs.push(ReadRun { file: file.to_string(), offset, len, members: vec![(idx, 0, len)] });
    }
    runs
}

/// The ranged chunks a fetch of `[offset, offset + len)` splits into.
fn chunk_ranges(offset: u64, len: u64, chunk_bytes: u64) -> Vec<(u64, u64)> {
    let chunks = len.div_ceil(chunk_bytes);
    (0..chunks)
        .map(|c| {
            let co = offset + c * chunk_bytes;
            let cl = chunk_bytes.min(offset + len - co);
            (co, cl)
        })
        .collect()
}

/// Reassemble fetched chunks into one contiguous `Bytes`.
///
/// Zero-copy when possible: a single chunk passes through untouched, and
/// when the backend guarantees ranged reads are views of one stable parent
/// allocation per object (`zero_copy_reads`) *and* the chunk views are
/// byte-adjacent, the chunks are stitched without copying. Otherwise one
/// copy into a fresh buffer.
fn coalesce_chunks(pieces: Vec<Bytes>, len: usize, allow_zero_copy: bool) -> Bytes {
    if pieces.is_empty() {
        return Bytes::new();
    }
    if pieces.len() == 1 {
        return pieces.into_iter().next().expect("one piece");
    }
    if allow_zero_copy {
        let adjacent = pieces
            .windows(2)
            .all(|w| w[0].as_ptr() as usize + w[0].len() == w[1].as_ptr() as usize);
        if adjacent {
            let total: usize = pieces.iter().map(Bytes::len).sum();
            debug_assert_eq!(total, len);
            return Bytes::from_owner(Stitched { pieces, total });
        }
    }
    let mut out = BytesMut::with_capacity(len);
    for p in pieces {
        out.extend_from_slice(&p);
    }
    out.freeze()
}

/// Byte-adjacent chunk views stitched into one logical slice. The `Bytes`
/// held in `pieces` keep the parent allocation alive.
struct Stitched {
    pieces: Vec<Bytes>,
    total: usize,
}

impl AsRef<[u8]> for Stitched {
    fn as_ref(&self) -> &[u8] {
        // SAFETY: constructed only when the backend's `zero_copy_reads`
        // contract holds (every piece is a view of the same stable parent
        // allocation) and the pieces were verified byte-adjacent, so
        // `pieces[0].as_ptr()..+total` is one contiguous live range of that
        // allocation, kept alive by the `Bytes` views we own.
        unsafe { std::slice::from_raw_parts(self.pieces[0].as_ptr(), self.total) }
    }
}

/// A run whose pieces are still landing.
struct PendingRun {
    pieces: Vec<Option<Bytes>>,
    remaining: usize,
    span: Option<SpanGuard>,
}

/// Put every piece of every run in flight on the I/O pool at once and hand
/// each run's bytes to `on_run` as its last piece lands (in completion
/// order). A run no larger than `chunk_bytes` is one ranged read; a larger
/// one is read in `chunk_bytes` pieces across the reader threads (§4.3: the
/// optimization that took production HDFS downloads from 400 MB/s to
/// 2-3 GB/s) and stitched back together. One uncounted `load/fetch` detail
/// span per run, under `parent` (the `load/read` phase span, which also
/// supplies rank and step), carries the path, the byte count and the member
/// count, so slow-I/O alerting and traces work on the load path too.
#[allow(clippy::too_many_arguments)]
fn fetch_runs(
    runs: &[ReadRun],
    backend: &DynBackend,
    prefix: &str,
    cfg: &LoadConfig,
    io: &IoPool,
    log: &Arc<FailureLog>,
    sink: &MetricsSink,
    parent: SpanContext,
    mut on_run: impl FnMut(&ReadRun, Bytes) -> Result<()>,
) -> Result<()> {
    let (rank, step) = (parent.rank(), parent.step());
    let (piece_tx, piece_rx) = crossbeam::channel::unbounded::<(usize, Result<Bytes>)>();
    let mut flat: Vec<(usize, usize)> = Vec::new(); // job index -> (run, piece)
    let mut pending: Vec<PendingRun> = Vec::with_capacity(runs.len());
    for (ri, run) in runs.iter().enumerate() {
        let path = format!("{prefix}/{}", run.file);
        let single = run.len <= cfg.chunk_bytes || cfg.io_threads <= 1;
        let ranges = if single {
            vec![(run.offset, run.len)]
        } else {
            chunk_ranges(run.offset, run.len, cfg.chunk_bytes)
        };
        let mut span = sink
            .span_under("load/fetch", rank, step, parent)
            .uncounted()
            .path(path.clone())
            .bytes(run.len)
            .attr("items", run.members.len().to_string());
        if !single {
            span.set_attr("chunks", ranges.len().to_string());
        }
        let fetch_ctx = span.context();
        let stage: &'static str = if single { "load/read" } else { "load/read-chunk" };
        for (pi, &(offset, len)) in ranges.iter().enumerate() {
            let job = flat.len();
            flat.push((ri, pi));
            let backend = backend.clone();
            let path = path.clone();
            let log = log.clone();
            let retries = cfg.retries;
            io.submit(piece_tx.clone(), job, move || {
                // Parent the pool worker's storage spans under the fetch.
                let _e = enter_context(fetch_ctx);
                with_retries(retries, &log, rank, stage, Some(&path), || {
                    backend.read_range(&path, offset, len)
                })
            });
        }
        pending.push(PendingRun {
            pieces: vec![None; ranges.len()],
            remaining: ranges.len(),
            span: Some(span),
        });
    }
    drop(piece_tx);

    let zero_copy = backend.zero_copy_reads();
    let mut completed = 0usize;
    while completed < pending.len() {
        let (job, res) = piece_rx
            .recv()
            .map_err(|_| BcpError::Corrupt("I/O pool dropped a ranged read".into()))?;
        let (ri, pi) = flat[job];
        let p = &mut pending[ri];
        p.pieces[pi] = Some(res?);
        p.remaining -= 1;
        if p.remaining == 0 {
            completed += 1;
            drop(p.span.take()); // the fetch ends here; extraction is not I/O
            let pieces: Vec<Bytes> =
                p.pieces.iter_mut().map(|s| s.take().expect("all pieces fetched")).collect();
            on_run(&runs[ri], coalesce_chunks(pieces, runs[ri].len as usize, zero_copy))?;
        }
    }
    Ok(())
}

/// Apply a forwarded payload to every waiting recv item with its key.
/// Unknown keys are ignored (the final leftover check reports anything that
/// never arrived).
fn apply_forwarded(
    assembler: &mut Assembler,
    state: &TrainState,
    waiting: &mut HashMap<ReadKey, Vec<(usize, &ReadItem)>>,
    key: &ReadKey,
    payload: &Bytes,
) -> Result<()> {
    if let Some(items) = waiting.remove(key) {
        for (_, item) in items {
            assembler.apply(state, item, payload)?;
        }
    }
    Ok(())
}

/// Execute a rank's assigned load plan (the Fig. 10 pipeline): read the
/// local items run by run with every ranged read in flight on the I/O pool
/// at once; extract, assemble and eagerly forward each item as its run
/// completes; drain inbound forwards concurrently on a receiver thread;
/// apply everything to the local state dicts.
#[allow(clippy::too_many_arguments)] // the full engine context, passed once per load
pub fn execute_load(
    assigned: &AssignedLoadPlan,
    state: &mut TrainState,
    backend: DynBackend,
    prefix: &str,
    comm: Option<&Communicator>,
    io: &Arc<IoPool>,
    sink: &MetricsSink,
    log: Arc<FailureLog>,
    cfg: &LoadConfig,
    step: u64,
    faults: &FaultHook,
    parent: SpanContext,
) -> Result<LoadStats> {
    let rank = assigned.rank;
    let started = Instant::now();
    faults.check("load/read")?;
    // Opened here so that setting the read window up (key index, receiver
    // thread) is attributed to it: the load's phase spans leave no gap.
    let read_span = sink.span_under("load/read", rank, step, parent);

    // Precompute read keys once (and an index for duplicate-destination
    // matching — previously an O(n²) rescan per recv).
    let keys: Vec<ReadKey> = assigned.reads.iter().map(ReadKey::of).collect();
    let mut key_to_idx: HashMap<ReadKey, usize> = HashMap::with_capacity(keys.len());
    for (idx, key) in keys.iter().enumerate() {
        key_to_idx.entry(key.clone()).or_insert(idx);
    }

    // Sort inbound expectations: same-rank duplicates apply straight from
    // the local read; remote ones wait on the receiver thread. The expected
    // message count per source is the number of *distinct* (source, key)
    // pairs — senders deduplicate recipients, so duplicate recv entries for
    // one key share a single message.
    let mut local_dups: Vec<Vec<&ReadItem>> = vec![Vec::new(); assigned.reads.len()];
    let mut remote_waiting: HashMap<ReadKey, Vec<(usize, &ReadItem)>> = HashMap::new();
    let mut expected_msgs: BTreeMap<usize, usize> = BTreeMap::new();
    let mut seen_pairs: HashSet<(usize, ReadKey)> = HashSet::new();
    for (from, item) in &assigned.recvs {
        let key = ReadKey::of(item);
        if *from == rank {
            if let Some(&idx) = key_to_idx.get(&key) {
                local_dups[idx].push(item);
            }
        } else {
            if seen_pairs.insert((*from, key.clone())) {
                *expected_msgs.entry(*from).or_default() += 1;
            }
            remote_waiting.entry(key).or_default().push((*from, item));
        }
    }
    let total_expected: usize = expected_msgs.values().sum();
    if total_expected > 0 && comm.is_none() {
        return Err(BcpError::Plan(
            "plan expects peer forwarding but no communicator was given".into(),
        ));
    }

    // Receiver thread: drains inbound forwards while we fetch. Messages are
    // matched by key content, so arrival order never matters.
    type FwdMsg = Result<(usize, ReadKey, Bytes)>;
    let (fwd_tx, fwd_rx) = crossbeam::channel::unbounded::<FwdMsg>();
    let mut recv_handle = None;
    if total_expected > 0 {
        let c = comm.expect("checked above").clone();
        let expected = expected_msgs.clone();
        let handle = std::thread::Builder::new()
            .name(format!("bcp-recv-{rank}"))
            .spawn(move || {
                'sources: for (&src, &count) in expected.iter() {
                    for _ in 0..count {
                        let msg = c.recv::<(ReadKey, Bytes)>(src);
                        let failed = msg.is_err();
                        let relay =
                            msg.map(|(key, payload)| (src, key, payload)).map_err(BcpError::from);
                        if fwd_tx.send(relay).is_err() || failed {
                            break 'sources;
                        }
                    }
                }
            })
            .map_err(|e| BcpError::Corrupt(format!("spawn failed: {e}")))?;
        recv_handle = Some(handle);
    } else {
        drop(fwd_tx);
    }

    let mut assembler = Assembler::new();
    let mut fetched_bytes = 0u64;
    let mut forwarded_bytes = 0u64;
    let mut applied_msgs = 0usize;
    // Dedupe eager sends by (peer, key) — the exact mirror of the
    // receiver's distinct-(source, key) expectation.
    let mut sent_pairs: HashSet<(usize, ReadKey)> = HashSet::new();

    // ---- Read window: every piece of every run in flight at once. ----
    {
        let mut t = read_span; // closes with the window
        let runs = build_runs(&assigned.reads, cfg.chunk_bytes);
        fetch_runs(&runs, &backend, prefix, cfg, io, &log, sink, t.context(), |run, raw| {
            fetched_bytes += run.len;
            t.add_bytes(run.len);
            for &(idx, offset, len) in &run.members {
                let item = &assigned.reads[idx];
                // Clamped, so a short read surfaces as `extract_isect`'s
                // "fetched range too short" rather than a slice panic.
                let end = ((offset + len) as usize).min(raw.len());
                let isect = extract_isect(item, &raw.slice((offset as usize).min(end)..end))?;
                // Local assembly, item-by-item (the fused "H2D").
                assembler.apply(state, item, &isect)?;
                for dup in &local_dups[idx] {
                    assembler.apply(state, dup, &isect)?;
                }
                // Eager forwards: post as soon as the intersection exists,
                // while other fetches are still in flight.
                if let Some(c) = comm {
                    for &peer in &assigned.send_to[idx] {
                        if sent_pairs.insert((peer, keys[idx].clone())) {
                            c.send_async(peer, (keys[idx].clone(), isect.clone()))?;
                        }
                    }
                }
            }
            // Opportunistically drain forwards that already arrived.
            while let Ok(msg) = fwd_rx.try_recv() {
                let (_from, key, payload) = msg?;
                forwarded_bytes += payload.len() as u64;
                apply_forwarded(&mut assembler, state, &mut remote_waiting, &key, &payload)?;
                applied_msgs += 1;
            }
            Ok(())
        })?;
    }

    // ---- Communication tail: whatever forwards are still inbound. ----
    if let Some(c) = comm {
        let mut t = sink
            .span_under("load/all2all", rank, step, parent)
            .attr("collective", c.backend_info());
        while applied_msgs < total_expected {
            match fwd_rx.recv() {
                Ok(Ok((_from, key, payload))) => {
                    forwarded_bytes += payload.len() as u64;
                    apply_forwarded(&mut assembler, state, &mut remote_waiting, &key, &payload)?;
                    applied_msgs += 1;
                }
                Ok(Err(e)) => return Err(e),
                Err(_) => return Err(BcpError::Corrupt("forward receiver thread died".into())),
            }
        }
        t.add_bytes(forwarded_bytes);
        if let Some(h) = recv_handle.take() {
            let _ = h.join();
        }
    }
    if let Some((_, entries)) = remote_waiting.iter().next() {
        let (from, item) = &entries[0];
        return Err(BcpError::Missing(format!(
            "{}: expected forwarded payload from {from}",
            item.fqn
        )));
    }

    let local_reads = assigned.reads.len();
    {
        let _t = sink.span_under("load/finish", rank, step, parent);
        assembler.finish(state)?;
    }
    Ok(LoadStats { end_to_end: started.elapsed(), fetched_bytes, forwarded_bytes, local_reads })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Category;
    use bcp_storage::{Fault, FaultLayer, FaultRule, MemoryBackend, OpSet, StorageBackend};
    use bytes::BytesMut;

    /// A 1-D f32 item covering `len_elems` elements at `payload_offset`.
    fn flat_item(fqn: &str, payload_offset: u64, len_elems: usize) -> ReadItem {
        ReadItem {
            category: Category::Model,
            fqn: fqn.into(),
            dtype: bcp_tensor::DType::F32,
            file: "model_0.bin".into(),
            payload_offset,
            stored_offsets: vec![0],
            stored_lengths: vec![len_elems],
            isect_offsets: vec![0],
            isect_lengths: vec![len_elems],
            dest_offsets: vec![0],
            dest_lengths: vec![len_elems],
            dest_local_elem_start: 0,
        }
    }

    /// Fetch `reads` from `backend` under `ckpt/`, returning each run with
    /// its bytes in `(file, offset)` order.
    fn fetch(
        backend: &DynBackend,
        reads: &[ReadItem],
        cfg: &LoadConfig,
        log: &Arc<FailureLog>,
    ) -> Vec<(ReadRun, Bytes)> {
        let io = IoPool::new(cfg.io_threads);
        let runs = build_runs(reads, cfg.chunk_bytes);
        let sink = MetricsSink::disabled();
        let mut got = Vec::new();
        fetch_runs(
            &runs,
            backend,
            "ckpt",
            cfg,
            &io,
            log,
            &sink,
            SpanContext::none(),
            |run, raw| {
                got.push((run.clone(), raw));
                Ok(())
            },
        )
        .unwrap();
        got.sort_by_key(|(run, _)| run.offset);
        got
    }

    #[test]
    fn oversized_item_is_read_in_pieces_and_stitched_exactly() {
        // A payload large enough to split into many pieces across the pool
        // (§4.3's multi-threaded ranged download).
        let n = 100_000usize;
        let mut payload = BytesMut::with_capacity(n * 4);
        for i in 0..n {
            payload.extend_from_slice(&(i as f32).to_le_bytes());
        }
        let payload = payload.freeze();
        let backend: DynBackend = Arc::new(MemoryBackend::new());
        backend.write("ckpt/model_0.bin", payload.clone()).unwrap();
        let cfg = LoadConfig { io_threads: 4, chunk_bytes: 16 * 1024, ..Default::default() };
        let got = fetch(&backend, &[flat_item("big", 0, n)], &cfg, &Arc::new(FailureLog::new()));
        assert_eq!(got.len(), 1, "an oversized item is a run of its own");
        let raw = &got[0].1;
        assert_eq!(&raw[..], &payload[..], "piecewise reassembly must be byte-exact");
        // Memory-backed ranged reads are adjacent views of the stored
        // object, so the pieces stitch back zero-copy.
        assert_eq!(raw.as_ptr(), payload.as_ptr(), "contiguous pieces must not be copied");
    }

    #[test]
    fn piecewise_fetch_retries_transient_failures() {
        let n = 50_000usize;
        let payload = Bytes::from(vec![0xCDu8; n * 4]);
        let inner = Arc::new(MemoryBackend::new());
        inner.write("ckpt/model_0.bin", payload.clone()).unwrap();
        let fail_twice = vec![FaultRule::new(OpSet::Reads, Fault::Fail { times: 2 })];
        let flaky: DynBackend = Arc::new(FaultLayer::new(inner, 0, fail_twice));
        let cfg = LoadConfig { io_threads: 2, chunk_bytes: 32 * 1024, ..Default::default() };
        let log = Arc::new(FailureLog::new());
        let got = fetch(&flaky, &[flat_item("big", 0, n)], &cfg, &log);
        assert_eq!(got[0].1.len(), payload.len());
        assert_eq!(log.records().len(), 2, "the injected read failures must be logged");
        assert!(log.records().iter().all(|r| r.stage == "load/read-chunk"));
    }

    #[test]
    fn neighbours_share_one_zero_copy_read() {
        // Three small tensors 8 bytes apart: one run, one ranged read, and
        // every member a view of the stored allocation.
        let stored = Bytes::from((0u8..=255).collect::<Vec<u8>>());
        let inner = Arc::new(MemoryBackend::new());
        inner.write("ckpt/model_0.bin", stored.clone()).unwrap();
        let counting = Arc::new(bcp_storage::OpCountingBackend::new(inner));
        let backend: DynBackend = counting.clone();
        let reads = [flat_item("c", 144, 16), flat_item("a", 0, 16), flat_item("b", 72, 16)];
        let cfg = LoadConfig { io_threads: 4, chunk_bytes: 1 << 20, ..Default::default() };
        let got = fetch(&backend, &reads, &cfg, &Arc::new(FailureLog::new()));
        assert_eq!(got.len(), 1);
        let (run, raw) = &got[0];
        assert_eq!((run.offset, run.len), (0, 208));
        assert_eq!(run.members, vec![(1, 0, 64), (2, 72, 64), (0, 144, 64)]);
        assert_eq!(counting.reads(), 1);
        // A single-range memory fetch is a view of the stored allocation.
        assert_eq!(raw.as_ptr(), stored.as_ptr());
        let b = raw.slice(72..136);
        assert_eq!(b.as_ptr(), stored[72..].as_ptr());
    }

    #[test]
    fn runs_close_at_the_gap_and_at_chunk_bytes() {
        let gap = RUN_GAP_BYTES;
        let reads = [
            flat_item("a", 0, 256),                  // [0, 1 KiB)
            flat_item("b", 1024 + gap, 256),         // exactly the gap away: joins
            flat_item("c", 3 * 1024 + 2 * gap, 256), // one byte past the gap: new run
        ];
        let runs = build_runs(&reads, u64::MAX);
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].members.len(), 2);
        assert_eq!(runs[1].offset, 3 * 1024 + 2 * gap);
        // Adjacent items that together exceed chunk_bytes stay apart.
        let reads = [flat_item("a", 0, 256), flat_item("b", 1024, 256)];
        assert_eq!(build_runs(&reads, 2048).len(), 1);
        assert_eq!(build_runs(&reads, 2047).len(), 2);
        // Overlapping items always share a run, whatever chunk_bytes says.
        let reads = [flat_item("a", 0, 256), flat_item("b", 512, 256)];
        let runs = build_runs(&reads, 1024);
        assert_eq!((runs.len(), runs[0].len), (1, 1536));
    }

    #[test]
    fn coalesce_copies_only_when_it_must() {
        let data = Bytes::from((0u8..200).collect::<Vec<u8>>());
        let adjacent = vec![data.slice(0..80), data.slice(80..200)];
        // Zero-copy stitch when the backend contract allows it.
        let stitched = coalesce_chunks(adjacent.clone(), 200, true);
        assert_eq!(&stitched[..], &data[..]);
        assert_eq!(stitched.as_ptr(), data.as_ptr());
        // Copy when the contract does not hold.
        let copied = coalesce_chunks(adjacent, 200, false);
        assert_eq!(&copied[..], &data[..]);
        assert_ne!(copied.as_ptr(), data.as_ptr());
        // Non-adjacent views fall back to copying even when allowed.
        let gappy = vec![data.slice(0..80), data.slice(100..200)];
        let out = coalesce_chunks(gappy, 180, true);
        assert_eq!(out.len(), 180);
        assert_eq!(&out[..80], &data[..80]);
        assert_eq!(&out[80..], &data[100..200]);
    }
}
