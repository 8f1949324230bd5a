//! The loading pipeline (§4.2, Fig. 10): ranged multi-threaded reads →
//! deserialize/extract → local assembly ("H2D") → forwarding of
//! redundancy-eliminated reads.
//!
//! Two execution modes, selected by [`LoadConfig::overlap`]:
//!
//! * **Overlapped** (default, the paper's Fig. 10 pipeline): every chunk of
//!   every assigned read item is submitted to the shared [`IoPool`] up
//!   front; as each item's last chunk lands it is extracted, applied
//!   locally and eagerly forwarded to the peers that deduplicated their
//!   reads onto this rank — while the remaining fetches are still in
//!   flight. A receiver thread drains inbound forwards concurrently, so
//!   read I/O and communication overlap instead of serializing.
//! * **Sequential** (the pre-overlap baseline, kept for comparison and as
//!   the conservative path): fetch all items, assemble, then one blocking
//!   all-to-all.

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
    /// Fetches larger than this are split into ranged chunk reads spread
    /// over the reader threads (§4.3 multi-threaded single-file download).
    pub chunk_bytes: u64,
    /// Overlap reads, extraction and peer forwarding item-by-item (Fig. 10)
    /// instead of running read → assemble → all-to-all as serial phases.
    pub overlap: bool,
    /// Retry policy for downloads.
    pub retries: RetryPolicy,
}

impl Default for LoadConfig {
    fn default() -> LoadConfig {
        LoadConfig {
            io_threads: 4,
            chunk_bytes: 4 * 1024 * 1024,
            overlap: true,
            retries: RetryPolicy::default(),
        }
    }
}

/// Timing and volume results of one rank's load.
#[derive(Debug, Clone)]
pub struct LoadStats {
    /// End-to-end load time on this rank.
    pub end_to_end: Duration,
    /// Bytes fetched from storage by this rank.
    pub fetched_bytes: u64,
    /// Bytes received from peers instead of storage.
    pub forwarded_bytes: u64,
    /// Number of read items executed locally.
    pub local_reads: usize,
}

/// Wire format of one rank's sequential-mode all-to-all sends.
type TransferMsg = Vec<(ReadKey, Bytes)>;

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

/// Fetch one item's byte range, chunked across the I/O pool when large.
#[allow(clippy::too_many_arguments)]
fn fetch_item(
    backend: &DynBackend,
    prefix: &str,
    item: &ReadItem,
    cfg: &LoadConfig,
    io: &Arc<IoPool>,
    log: &Arc<FailureLog>,
    rank: usize,
    sink: &MetricsSink,
    parent: SpanContext,
    step: u64,
) -> Result<Bytes> {
    let (offset, len) = item.fetch_range();
    let path = format!("{prefix}/{}", item.file);
    // Per-item detail span (uncounted: the load/read phase span carries the
    // time) giving the path and byte count each fetch moved, so slow-I/O
    // alerting and traces work on the load path too.
    let mut span =
        sink.span_under("load/fetch", rank, step, parent).uncounted().path(path.clone()).bytes(len);
    let _in_fetch = span.enter();
    if len <= cfg.chunk_bytes || cfg.io_threads <= 1 {
        return with_retries(cfg.retries, log, rank, "load/read", Some(&path), || {
            backend.read_range(&path, offset, len)
        });
    }
    // Multi-threaded ranged read of a single file (§4.3): the optimization
    // that took production HDFS downloads from 400 MB/s to 2-3 GB/s.
    let ranges = chunk_ranges(offset, len, cfg.chunk_bytes);
    span.set_attr("chunks", ranges.len().to_string());
    let fetch_ctx = span.context();
    let jobs: Vec<Box<dyn FnOnce() -> Result<Bytes> + Send + 'static>> = ranges
        .into_iter()
        .map(|(co, cl)| {
            let backend = backend.clone();
            let path = path.clone();
            let log = log.clone();
            let retries = cfg.retries;
            Box::new(move || {
                // Parent the pool worker's storage spans under the fetch.
                let _e = enter_context(fetch_ctx);
                with_retries(retries, &log, rank, "load/read-chunk", Some(&path), || {
                    backend.read_range(&path, co, cl)
                })
            }) as Box<dyn FnOnce() -> Result<Bytes> + Send + 'static>
        })
        .collect();
    let pieces: Vec<Bytes> = io.run_batch(jobs).into_iter().collect::<Result<_>>()?;
    Ok(coalesce_chunks(pieces, len as usize, backend.zero_copy_reads()))
}

/// Execute a rank's assigned load plan: read local items, forward
/// deduplicated payloads over `comm`, apply everything to the local state
/// dicts. Dispatches on [`LoadConfig::overlap`]; all ranks of a job must use
/// the same mode (the two modes use different communication patterns).
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
    if cfg.overlap {
        execute_load_overlapped(
            assigned, state, backend, prefix, comm, io, sink, log, cfg, step, faults, parent,
        )
    } else {
        execute_load_sequential(
            assigned, state, backend, prefix, comm, io, sink, log, cfg, step, faults, parent,
        )
    }
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

/// Fig. 10 pipeline: all chunk reads in flight on the I/O pool at once;
/// per-item extraction, local assembly and eager peer forwards as items
/// complete; inbound forwards drained concurrently by a receiver thread.
#[allow(clippy::too_many_arguments)]
fn execute_load_overlapped(
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

    struct PendingFetch {
        pieces: Vec<Option<Bytes>>,
        remaining: usize,
        span: Option<SpanGuard>,
        len: u64,
    }

    // ---- Read window: every chunk of every item in flight at once. ----
    {
        let mut t = sink.span_under("load/read", rank, step, parent);
        let read_ctx = t.context();
        let (chunk_tx, chunk_rx) = crossbeam::channel::unbounded::<(usize, Result<Bytes>)>();
        let mut flat: Vec<(usize, usize)> = Vec::new(); // job index -> (item, chunk)
        let mut pending: Vec<PendingFetch> = Vec::with_capacity(assigned.reads.len());
        for (idx, item) in assigned.reads.iter().enumerate() {
            let (offset, len) = item.fetch_range();
            let path = format!("{prefix}/{}", item.file);
            let single = len <= cfg.chunk_bytes || cfg.io_threads <= 1;
            let ranges = if single {
                vec![(offset, len)]
            } else {
                chunk_ranges(offset, len, cfg.chunk_bytes)
            };
            let mut span = sink
                .span_under("load/fetch", rank, step, read_ctx)
                .uncounted()
                .path(path.clone())
                .bytes(len);
            if !single {
                span.set_attr("chunks", ranges.len().to_string());
            }
            let fetch_ctx = span.context();
            let stage: &'static str = if single { "load/read" } else { "load/read-chunk" };
            for (ci, &(co, cl)) in ranges.iter().enumerate() {
                let flat_idx = flat.len();
                flat.push((idx, ci));
                let backend = backend.clone();
                let path = path.clone();
                let log = log.clone();
                let retries = cfg.retries;
                io.submit(chunk_tx.clone(), flat_idx, move || {
                    let _e = enter_context(fetch_ctx);
                    with_retries(retries, &log, rank, stage, Some(&path), || {
                        backend.read_range(&path, co, cl)
                    })
                });
            }
            pending.push(PendingFetch {
                pieces: vec![None; ranges.len()],
                remaining: ranges.len(),
                span: Some(span),
                len,
            });
        }
        drop(chunk_tx);

        let zero_copy = backend.zero_copy_reads();
        let mut completed = 0usize;
        while completed < pending.len() {
            let (flat_idx, res) = chunk_rx
                .recv()
                .map_err(|_| BcpError::Corrupt("I/O pool dropped a chunk read".into()))?;
            let (idx, ci) = flat[flat_idx];
            let data = res?;
            let p = &mut pending[idx];
            p.pieces[ci] = Some(data);
            p.remaining -= 1;
            if p.remaining == 0 {
                completed += 1;
                let span = p.span.take();
                let pieces: Vec<Bytes> =
                    p.pieces.iter_mut().map(|s| s.take().expect("all chunks fetched")).collect();
                let raw = coalesce_chunks(pieces, p.len as usize, zero_copy);
                fetched_bytes += raw.len() as u64;
                t.add_bytes(raw.len() as u64);
                let item = &assigned.reads[idx];
                let isect = extract_isect(item, &raw)?;
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
                drop(span);
            }
            // Opportunistically drain forwards that already arrived.
            loop {
                match fwd_rx.try_recv() {
                    Ok(Ok((_from, key, payload))) => {
                        forwarded_bytes += payload.len() as u64;
                        apply_forwarded(
                            &mut assembler,
                            state,
                            &mut remote_waiting,
                            &key,
                            &payload,
                        )?;
                        applied_msgs += 1;
                    }
                    Ok(Err(e)) => return Err(e),
                    Err(_) => break,
                }
            }
        }
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

/// The pre-overlap baseline: read everything, assemble, then one blocking
/// all-to-all. Kept selectable so benchmarks can quantify the overlap win
/// on identical plans.
#[allow(clippy::too_many_arguments)]
fn execute_load_sequential(
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
    let mut fetched_bytes = 0u64;

    // ---- Read phase (+ extraction, pipelined per item). ----
    faults.check("load/read")?;
    let mut local_payloads: Vec<(usize, Bytes)> = Vec::with_capacity(assigned.reads.len());
    {
        let mut t = sink.span_under("load/read", rank, step, parent);
        let read_ctx = t.context();
        for (idx, item) in assigned.reads.iter().enumerate() {
            let raw =
                fetch_item(&backend, prefix, item, cfg, io, &log, rank, sink, read_ctx, step)?;
            fetched_bytes += raw.len() as u64;
            t.add_bytes(raw.len() as u64);
            let isect = extract_isect(item, &raw)?;
            local_payloads.push((idx, isect));
        }
    }

    // Keys of local reads, computed once (duplicate-destination matching
    // used to recompute ReadKey::of per comparison inside a find()).
    let mut key_to_idx: HashMap<ReadKey, usize> = HashMap::with_capacity(assigned.reads.len());
    for (idx, item) in assigned.reads.iter().enumerate() {
        key_to_idx.entry(ReadKey::of(item)).or_insert(idx);
    }

    // ---- Assembly of locally-read items (the "H2D copy"). ----
    let mut assembler = Assembler::new();
    {
        let _t = sink.span_under("load/h2d", rank, step, parent);
        for (idx, payload) in &local_payloads {
            assembler.apply(state, &assigned.reads[*idx], payload)?;
        }
        // Duplicate destinations on this same rank (reader re-applies).
        for (from, item) in &assigned.recvs {
            if *from == rank {
                if let Some(&idx) = key_to_idx.get(&ReadKey::of(item)) {
                    assembler.apply(state, item, &local_payloads[idx].1)?;
                }
            }
        }
    }

    // ---- All-to-all forwarding of deduplicated reads (§4.1). ----
    let mut forwarded_bytes = 0u64;
    if let Some(comm) = comm {
        let mut t = sink
            .span_under("load/all2all", rank, step, parent)
            .attr("collective", comm.backend_info());
        // Build per-peer outboxes.
        let mut outbox: Vec<TransferMsg> = vec![Vec::new(); comm.size()];
        for ((idx, payload), recipients) in local_payloads.iter().zip(assigned.send_to.iter()) {
            let key = ReadKey::of(&assigned.reads[*idx]);
            for &peer in recipients {
                let peer_idx = comm
                    .members()
                    .iter()
                    .position(|&m| m == peer)
                    .ok_or_else(|| BcpError::Plan(format!("recipient {peer} not in group")))?;
                outbox[peer_idx].push((key.clone(), payload.clone()));
            }
        }
        let inbox = comm.all_to_all(outbox)?;
        let mut received: HashMap<ReadKey, Bytes> = Default::default();
        for msgs in inbox {
            for (key, payload) in msgs {
                forwarded_bytes += payload.len() as u64;
                received.insert(key, payload);
            }
        }
        t.add_bytes(forwarded_bytes);
        for (from, item) in &assigned.recvs {
            if *from == rank {
                continue; // handled above
            }
            let key = ReadKey::of(item);
            let payload = received.get(&key).ok_or_else(|| {
                BcpError::Missing(format!("{}: expected forwarded payload from {from}", item.fqn))
            })?;
            assembler.apply(state, item, payload)?;
        }
    } else if !assigned.recvs.iter().all(|(from, _)| *from == rank) {
        return Err(BcpError::Plan(
            "plan expects peer forwarding but no communicator was given".into(),
        ));
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

    fn whole_file_item(len_elems: usize) -> ReadItem {
        ReadItem {
            category: Category::Model,
            fqn: "big".into(),
            dtype: bcp_tensor::DType::F32,
            file: "model_0.bin".into(),
            payload_offset: 0,
            stored_offsets: vec![0],
            stored_lengths: vec![len_elems],
            isect_offsets: vec![0],
            isect_lengths: vec![len_elems],
            dest_offsets: vec![0],
            dest_lengths: vec![len_elems],
            dest_local_elem_start: 0,
        }
    }

    #[test]
    fn chunked_multithreaded_fetch_reassembles_exactly() {
        // A payload large enough to split into many chunks across the pool
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
        let io = IoPool::new(4);
        let log = Arc::new(FailureLog::new());
        let got = fetch_item(
            &backend,
            "ckpt",
            &whole_file_item(n),
            &cfg,
            &io,
            &log,
            0,
            &MetricsSink::disabled(),
            SpanContext::none(),
            0,
        )
        .unwrap();
        assert_eq!(&got[..], &payload[..], "chunked reassembly must be byte-exact");
        // Memory-backed ranged reads are adjacent views of the stored
        // object, so the chunks stitch back zero-copy.
        assert_eq!(got.as_ptr(), payload.as_ptr(), "contiguous chunks must not be copied");
    }

    #[test]
    fn chunked_fetch_retries_transient_failures() {
        let n = 50_000usize;
        let payload = Bytes::from(vec![0xCDu8; n * 4]);
        let inner = Arc::new(MemoryBackend::new());
        inner.write("ckpt/model_0.bin", payload.clone()).unwrap();
        let fail_twice = vec![FaultRule::new(OpSet::Reads, Fault::Fail { times: 2 })];
        let flaky: DynBackend = Arc::new(FaultLayer::new(inner, 0, fail_twice));
        let cfg = LoadConfig { io_threads: 2, chunk_bytes: 32 * 1024, ..Default::default() };
        let io = IoPool::new(2);
        let log = Arc::new(FailureLog::new());
        let got = fetch_item(
            &flaky,
            "ckpt",
            &whole_file_item(n),
            &cfg,
            &io,
            &log,
            3,
            &MetricsSink::disabled(),
            SpanContext::none(),
            0,
        )
        .unwrap();
        assert_eq!(got.len(), payload.len());
        assert!(!log.is_empty(), "the injected read failures must be logged");
        assert!(log.records().iter().all(|r| r.stage.starts_with("load/")));
    }

    #[test]
    fn small_fetch_stays_single_threaded_and_zero_copy() {
        let backend: DynBackend = Arc::new(MemoryBackend::new());
        let stored = Bytes::from(vec![1u8; 64]);
        backend.write("ckpt/model_0.bin", stored.clone()).unwrap();
        let cfg = LoadConfig { io_threads: 4, chunk_bytes: 1 << 20, ..Default::default() };
        let io = IoPool::new(4);
        let log = Arc::new(FailureLog::new());
        let got = fetch_item(
            &backend,
            "ckpt",
            &whole_file_item(16),
            &cfg,
            &io,
            &log,
            0,
            &MetricsSink::disabled(),
            SpanContext::none(),
            0,
        )
        .unwrap();
        assert_eq!(got.len(), 64);
        // A single-range memory fetch is a view of the stored allocation.
        assert_eq!(got.as_ptr(), stored.as_ptr());
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
