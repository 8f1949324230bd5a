//! The loading pipeline (§4.2, Fig. 10): ranged multi-threaded reads →
//! local assembly ("H2D") → forwarding of redundancy-eliminated reads.
//!
//! The unit of fetch is the **run** ([`ReadRun`]), not the plan item: a
//! rank's assigned items are grouped per file and neighbouring byte ranges
//! are coalesced ([`build_runs`]), so storage operations, retries, spans,
//! peer messages and the load artifact scale with the number of runs rather
//! than the number of tensors. Every piece of every run is submitted to the
//! shared [`IoPool`] up front; as a run's last piece lands its members are
//! sliced out (zero-copy) and applied locally — each piece adopted, or
//! copied once from the run into the load's arena — and the same slices
//! for the peers that deduplicated their reads onto this rank go out as one
//! batch per peer — while the remaining fetches are still in flight. A batch entry is addressed by the index of the read in this
//! rank's plan, which the receiver's plan names too. A receiver thread
//! drains inbound batches concurrently, so read I/O and communication
//! overlap instead of serializing.

use crate::engine::arena::Arena;
use crate::engine::iopool::IoPool;
use crate::engine::Assembler;
use crate::fault::FaultHook;
use crate::integrity::{with_retries, FailureLog, RetryPolicy};
use crate::plan::ReadItem;
use crate::planner::balance::AssignedLoadPlan;
use crate::{BcpError, Result};
use bcp_collectives::Communicator;
use bcp_model::TrainState;
use bcp_monitor::{enter_context, MetricsSink, SpanContext, SpanGuard};
use bcp_storage::DynBackend;
use bytes::Bytes;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Engine tuning knobs for loading.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Reader threads per rank.
    pub io_threads: usize,
    /// Target size of one storage read: neighbouring items are coalesced
    /// into runs of at most this many bytes. On a backend whose reads copy
    /// (`!zero_copy_reads()`), a run larger than this (one oversized item)
    /// is split into ranged reads of this size spread over the reader
    /// threads (§4.3 multi-threaded single-file download); where reads are
    /// views it is read whole.
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
    /// Bytes received from peers instead of storage: each forwarded read's
    /// fetch range, so a strided intersection counts the stored bytes
    /// between its rows too.
    pub forwarded_bytes: u64,
    /// Number of read items executed locally.
    pub local_reads: usize,
    /// Bytes of the tensors this rank assembled in its arena from pieces
    /// (copied, not adopted): 0 when every piece is a whole tensor.
    pub assembled_bytes: u64,
}

/// One run's payloads for one peer: `(index of the read in the sender's
/// plan, the read's slice of the run)` per entry.
type Batch = Vec<(usize, Bytes)>;

/// Two fetch ranges of one file closer together than this are read as one
/// run, gap included. One small ranged read costs about as much as reading
/// 10–40 KB more of a file already open (perf's
/// `storage.disk.read_range_small.us_per_op` ≈ 4 µs against
/// `roofline.file_read.gbps`), and on HDFS a request costs orders of
/// magnitude more, so below this distance the extra bytes are cheaper than
/// the extra operation.
pub const RUN_GAP_BYTES: u64 = 32 * 1024;

/// One contiguous byte range of one file, fetched as a unit, and the plan
/// items whose bytes it carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadRun {
    /// File name relative to the checkpoint prefix.
    pub file: Arc<str>,
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
    let mut ranged: Vec<(&Arc<str>, u64, u64, usize)> = reads
        .iter()
        .enumerate()
        .map(|(idx, item)| {
            let (offset, len) = item.fetch_range();
            (&item.file, offset, len, idx)
        })
        .collect();
    ranged.sort_unstable();
    let mut runs: Vec<ReadRun> = Vec::new();
    for (file, offset, len, idx) in ranged {
        let end = offset + len;
        if let Some(run) = runs.last_mut().filter(|r| r.file == *file) {
            let run_end = run.offset + run.len;
            let merged_len = end.max(run_end) - run.offset;
            let near = offset <= run_end + RUN_GAP_BYTES && merged_len <= chunk_bytes;
            if offset < run_end || near {
                run.len = merged_len;
                run.members.push((idx, offset - run.offset, len));
                continue;
            }
        }
        runs.push(ReadRun { file: file.clone(), offset, len, members: vec![(idx, 0, len)] });
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

/// Join a run's fetched pieces into one contiguous `Bytes`: a single piece
/// passes through untouched, several are copied once into a fresh buffer.
/// A run is split only on a backend whose reads copy, so that one copy is
/// the reassembly, not a second one.
fn coalesce_chunks(pieces: Vec<Bytes>, len: usize) -> Bytes {
    if let [one] = &pieces[..] {
        return one.clone();
    }
    let mut out = bytes::BytesMut::with_capacity(len);
    for p in pieces {
        out.extend_from_slice(&p);
    }
    out.freeze()
}

/// A run whose pieces are still landing.
struct PendingRun {
    pieces: Vec<Option<Bytes>>,
    remaining: usize,
    span: Option<SpanGuard>,
}

/// Put every piece of every run in flight on the I/O pool at once and hand
/// each run's bytes to `on_run` as its last piece lands (in completion
/// order). A run is one ranged read, except on a backend whose reads copy
/// (`!zero_copy_reads()`: HDFS, rate-limited layers), where a run larger
/// than `chunk_bytes` is read in `chunk_bytes` pieces across the reader
/// threads (§4.3: the optimization that took production HDFS downloads from
/// 400 MB/s to 2-3 GB/s) and concatenated. Where reads are views (memory,
/// disk mappings) no byte moves whatever a read's length, so splitting
/// would buy nothing and cost the concatenation. One uncounted `load/fetch`
/// detail span per run, under `parent` (the `load/read` phase span, which
/// also supplies rank and step), carries the path, the byte count and the
/// member count, so slow-I/O alerting and traces work on the load path too.
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
    let (piece_tx, piece_rx) = std::sync::mpsc::channel::<(usize, Result<Bytes>)>();
    let mut flat: Vec<(usize, usize)> = Vec::new(); // job index -> (run, piece)
    let mut pending: Vec<PendingRun> = Vec::with_capacity(runs.len());
    let split = !backend.zero_copy_reads() && cfg.io_threads > 1;
    for (ri, run) in runs.iter().enumerate() {
        let path = format!("{prefix}/{}", run.file);
        let single = !split || run.len <= cfg.chunk_bytes;
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
            drop(p.span.take()); // the fetch ends here; assembly is not I/O
            let pieces: Vec<Bytes> =
                p.pieces.iter_mut().map(|s| s.take().expect("all pieces fetched")).collect();
            on_run(&runs[ri], coalesce_chunks(pieces, runs[ri].len as usize))?;
        }
    }
    Ok(())
}

/// Apply one batch forwarded by `from` to the items waiting on its entries;
/// returns the batch's bytes. An entry nothing waits for is a plan mismatch.
fn apply_forwarded(
    assembler: &mut Assembler,
    waiting: &mut HashMap<(usize, usize), Vec<&ReadItem>>,
    from: usize,
    batch: Batch,
) -> Result<u64> {
    let mut bytes = 0;
    for (idx, payload) in batch {
        let items = waiting.remove(&(from, idx)).ok_or_else(|| {
            BcpError::Plan(format!(
                "read {idx} of rank {from} was forwarded, but nothing awaits it"
            ))
        })?;
        for item in items {
            assembler.apply(item, &payload)?;
        }
        bytes += payload.len() as u64;
    }
    Ok(bytes)
}

/// Execute a rank's assigned load plan (the Fig. 10 pipeline): read the
/// local items run by run with every ranged read in flight on the I/O pool
/// at once; assemble each item from its slice as its run completes, and
/// send the slices its peers read through it as one batch per peer; drain inbound batches
/// concurrently on a receiver thread; apply everything to the local state
/// dicts.
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
    // Opened here so that setting the read window up (arena, expectations,
    // receiver thread) is attributed to it: the load's phase spans leave no
    // gap.
    let mut read_span = sink.span_under("load/read", rank, step, parent);
    // What earlier loads left mapped for this one to take.
    read_span.set_attr("retained_arena_bytes", Arena::retained_bytes().to_string());
    // Sized from the plan before any byte is fetched: every piece this rank
    // applies, its reads and its receives.
    let mut assembler =
        Assembler::new(state, assigned.reads.iter().chain(assigned.recvs.iter().map(|r| &r.2)))?;
    let assembled_bytes = assembler.assembled_bytes();
    read_span.set_attr("assembled_bytes", assembled_bytes.to_string());
    let (arena_bytes, recycled) = assembler.arena();
    read_span.set_attr("arena_bytes", arena_bytes.to_string());
    read_span.set_attr("arena", if recycled { "recycled" } else { "fresh" });

    // Sort inbound expectations by the source's read index: same-rank
    // duplicates apply straight from the local read; remote ones wait on the
    // receiver thread. A source sends each read once to each peer that needs
    // it, so a source's expected payloads are its distinct (source, index)
    // pairs.
    let mut local_dups: Vec<Vec<&ReadItem>> = vec![Vec::new(); assigned.reads.len()];
    let mut waiting: HashMap<(usize, usize), Vec<&ReadItem>> = HashMap::new();
    for (from, idx, item) in &assigned.recvs {
        if *from != rank {
            waiting.entry((*from, *idx)).or_default().push(item);
            continue;
        }
        let dups = local_dups.get_mut(*idx).ok_or_else(|| {
            BcpError::Plan(format!(
                "{}: receives read {idx} of its own rank, which has none",
                item.fqn
            ))
        })?;
        dups.push(item);
    }
    let mut expected: BTreeMap<usize, usize> = BTreeMap::new();
    for &(from, _) in waiting.keys() {
        *expected.entry(from).or_default() += 1;
    }
    if !waiting.is_empty() && comm.is_none() {
        return Err(BcpError::Plan(
            "plan expects peer forwarding but no communicator was given".into(),
        ));
    }

    // Receiver thread: drains inbound batches while we fetch, counting
    // payloads, not messages, per source. Entries are matched by their
    // (source, index) address, so arrival order never matters.
    let (fwd_tx, fwd_rx) = std::sync::mpsc::channel::<Result<(usize, Batch)>>();
    let mut recv_handle = None;
    if let Some(c) = comm.filter(|_| !expected.is_empty()) {
        let c = c.clone();
        let handle = std::thread::Builder::new()
            .name(format!("bcp-recv-{rank}"))
            .spawn(move || {
                for (src, count) in expected {
                    let mut got = 0;
                    while got < count {
                        let msg = c.recv::<Batch>(src).map_err(BcpError::from);
                        let failed = msg.is_err();
                        got += msg.as_ref().map_or(0, Vec::len);
                        if fwd_tx.send(msg.map(|batch| (src, batch))).is_err() || failed {
                            return;
                        }
                    }
                }
            })
            .map_err(|e| BcpError::Corrupt(format!("spawn failed: {e}")))?;
        recv_handle = Some(handle);
    } else {
        drop(fwd_tx);
    }

    let mut fetched_bytes = 0u64;
    let mut forwarded_bytes = 0u64;
    let mut batches = 0usize;

    // ---- Read window: every piece of every run in flight at once. ----
    {
        let mut t = read_span; // closes with the window
        let runs = build_runs(&assigned.reads, cfg.chunk_bytes);
        fetch_runs(&runs, &backend, prefix, cfg, io, &log, sink, t.context(), |run, raw| {
            fetched_bytes += run.len;
            t.add_bytes(run.len);
            let mut outbound: BTreeMap<usize, Batch> = BTreeMap::new();
            for &(idx, offset, len) in &run.members {
                let item = &assigned.reads[idx];
                // Clamped, so a short read surfaces as `Assembler::apply`'s
                // `Corrupt` error rather than a slice panic.
                let end = ((offset + len) as usize).min(raw.len());
                let fetched = raw.slice((offset as usize).min(end)..end);
                // Local assembly, item-by-item (the fused "H2D").
                assembler.apply(item, &fetched)?;
                for dup in &local_dups[idx] {
                    assembler.apply(dup, &fetched)?;
                }
                for &peer in &assigned.send_to[idx] {
                    outbound.entry(peer).or_default().push((idx, fetched.clone()));
                }
            }
            // One batch per peer per run, posted while other fetches are
            // still in flight.
            if let Some(c) = comm {
                for (peer, batch) in outbound {
                    c.send_async(peer, batch)?;
                }
            }
            // Opportunistically drain batches that already arrived.
            while let Ok(msg) = fwd_rx.try_recv() {
                let (from, batch) = msg?;
                forwarded_bytes += apply_forwarded(&mut assembler, &mut waiting, from, batch)?;
                batches += 1;
            }
            Ok(())
        })?;
    }

    // ---- Communication tail: whatever batches are still inbound. ----
    if let Some(c) = comm {
        let mut t = sink
            .span_under("load/all2all", rank, step, parent)
            .attr("collective", c.backend_info());
        while !waiting.is_empty() {
            let (from, batch) = fwd_rx
                .recv()
                .map_err(|_| BcpError::Corrupt("forward receiver thread died".into()))??;
            forwarded_bytes += apply_forwarded(&mut assembler, &mut waiting, from, batch)?;
            batches += 1;
        }
        // A wait on peers, not storage I/O: attributes, so that no
        // throughput is derived from these bytes.
        t.set_attr("forwarded_bytes", forwarded_bytes.to_string());
        t.set_attr("batches", batches.to_string());
        if let Some(h) = recv_handle.take() {
            let _ = h.join();
        }
    }

    let local_reads = assigned.reads.len();
    {
        let _t = sink.span_under("load/finish", rank, step, parent);
        assembler.finish(state)?;
    }
    Ok(LoadStats {
        end_to_end: started.elapsed(),
        fetched_bytes,
        forwarded_bytes,
        local_reads,
        assembled_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Category;
    use bcp_storage::{
        Fault, FaultLayer, FaultRule, HdfsBackend, MemoryBackend, OpCountingBackend, OpSet,
        StorageBackend,
    };
    use bytes::BytesMut;

    /// A 1-D f32 item covering `len_elems` elements at `payload_offset`.
    fn flat_item(fqn: &str, payload_offset: u64, len_elems: usize) -> ReadItem {
        ReadItem {
            category: Category::Model,
            fqn: fqn.into(),
            dtype: bcp_tensor::DType::F32,
            file: "model_0.bin".into(),
            payload_offset,
            stored_offsets: [0].into(),
            stored_lengths: [len_elems].into(),
            isect_offsets: [0].into(),
            isect_lengths: [len_elems].into(),
            dest_offsets: [0].into(),
            dest_lengths: [len_elems].into(),
            dest_local_elem_start: 0,
            slot: 0,
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

    /// `n` f32s counting up from 0, as stored bytes.
    fn counting_floats(n: usize) -> Bytes {
        let mut payload = BytesMut::with_capacity(n * 4);
        for i in 0..n {
            payload.extend_from_slice(&(i as f32).to_le_bytes());
        }
        payload.freeze()
    }

    #[test]
    fn oversized_item_is_read_in_pieces_and_stitched_exactly() {
        // On a backend whose reads copy, a payload large enough splits into
        // many pieces across the pool (§4.3's multi-threaded ranged
        // download).
        let n = 100_000usize;
        let payload = counting_floats(n);
        let hdfs = Arc::new(HdfsBackend::new());
        hdfs.write("ckpt/model_0.bin", payload.clone()).unwrap();
        let counting = Arc::new(OpCountingBackend::new(hdfs));
        let backend: DynBackend = counting.clone();
        let cfg = LoadConfig { io_threads: 4, chunk_bytes: 16 * 1024, ..Default::default() };
        let got = fetch(&backend, &[flat_item("big", 0, n)], &cfg, &Arc::new(FailureLog::new()));
        assert_eq!(got.len(), 1, "an oversized item is a run of its own");
        assert_eq!(counting.reads(), payload.len().div_ceil(16 * 1024) as u64, "one read a piece");
        assert_eq!(&got[0].1[..], &payload[..], "piecewise reassembly must be byte-exact");
    }

    #[test]
    fn an_oversized_item_is_one_read_where_reads_are_views() {
        let n = 100_000usize;
        let payload = counting_floats(n);
        let cfg = LoadConfig { io_threads: 4, chunk_bytes: 16 * 1024, ..Default::default() };
        let read_whole = |inner: DynBackend| {
            inner.write("ckpt/model_0.bin", payload.clone()).unwrap();
            let counting = Arc::new(OpCountingBackend::new(inner));
            let backend: DynBackend = counting.clone();
            let log = Arc::new(FailureLog::new());
            let (_, raw) = fetch(&backend, &[flat_item("big", 0, n)], &cfg, &log).remove(0);
            assert_eq!(counting.reads(), 1, "{}: an oversized run is one read", backend.name());
            assert_eq!(&raw[..], &payload[..]);
            raw
        };
        let raw = read_whole(Arc::new(MemoryBackend::new()));
        assert_eq!(raw.as_ptr(), payload.as_ptr(), "the run is the stored allocation itself");
        #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
        {
            let dir =
                std::env::temp_dir().join(format!("bcp-load-one-read-{}", std::process::id()));
            read_whole(Arc::new(bcp_storage::DiskBackend::new(&dir).unwrap()));
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn piecewise_fetch_retries_transient_failures() {
        let n = 50_000usize;
        let payload = Bytes::from(vec![0xCDu8; n * 4]);
        let inner = Arc::new(MemoryBackend::new());
        inner.write("ckpt/model_0.bin", payload.clone()).unwrap();
        // A finite read rate makes reads copies, which a run is split for.
        let rules = vec![
            FaultRule::new(OpSet::Reads, Fault::Fail { times: 2 }),
            FaultRule::new(
                OpSet::Reads,
                Fault::Delay { bytes_per_sec: 1e12, latency: Duration::ZERO },
            ),
        ];
        let flaky: DynBackend = Arc::new(FaultLayer::new(inner, 0, rules));
        let cfg = LoadConfig { io_threads: 2, chunk_bytes: 32 * 1024, ..Default::default() };
        let log = Arc::new(FailureLog::new());
        let got = fetch(&flaky, &[flat_item("big", 0, n)], &cfg, &log);
        assert_eq!(&got[0].1[..], &payload[..]);
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
        let counting = Arc::new(OpCountingBackend::new(inner));
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
        let copied = coalesce_chunks(adjacent, 200);
        assert_eq!(&copied[..], &data[..]);
        assert_ne!(copied.as_ptr(), data.as_ptr());
        let gappy = vec![data.slice(0..80), data.slice(100..200)];
        let out = coalesce_chunks(gappy, 180);
        assert_eq!(out.len(), 180);
        assert_eq!(&out[..80], &data[..80]);
        assert_eq!(&out[80..], &data[100..200]);
    }

    /// Load `assigned` from `backend` into a state holding `w`, a
    /// zero-filled f32 tensor of `shape`; returns the stats and the
    /// restored `w`.
    fn load_into(
        assigned: &AssignedLoadPlan,
        backend: DynBackend,
        shape: &[usize],
        comm: Option<&Communicator>,
    ) -> Result<(LoadStats, Vec<f32>)> {
        let mut state = TrainState::default();
        state.model.insert(bcp_model::StateEntry {
            fqn: "w".into(),
            global_shape: shape.to_vec(),
            dtype: bcp_tensor::DType::F32,
            spec: bcp_topology::ShardSpec::Replicated,
            tensor: bcp_tensor::Tensor::zeros(bcp_tensor::DType::F32, shape.to_vec()),
        });
        let stats = execute_load(
            assigned,
            &mut state,
            backend,
            "ckpt",
            comm,
            &IoPool::new(1),
            &MetricsSink::disabled(),
            Arc::new(FailureLog::new()),
            &LoadConfig::default(),
            1,
            &FaultHook::inert(assigned.rank),
            SpanContext::none(),
        )?;
        Ok((stats, state.model.get("w").unwrap().tensor.to_f32_vec().unwrap()))
    }

    /// Load `assigned` into a state holding `w` (16 f32s) from a memory
    /// backend whose `model_0.bin` is 64 zero bytes.
    fn load_w(assigned: &AssignedLoadPlan, comm: Option<&Communicator>) -> Result<LoadStats> {
        let backend: DynBackend = Arc::new(MemoryBackend::new());
        backend.write("ckpt/model_0.bin", Bytes::from(vec![0u8; 64])).unwrap();
        Ok(load_into(assigned, backend, &[16], comm)?.0)
    }

    #[test]
    fn a_forwarded_strided_piece_restores_bitwise_at_the_receiver() {
        // Both ranks hold rows 1..3 x cols 2..5 of a stored (4,6) f32 shard
        // as their whole local tensor: a strided intersection, whose fetch
        // range also holds the three stored elements between its rows. Rank
        // 0 reads it and forwards the same slice to rank 1.
        let backend: DynBackend = Arc::new(MemoryBackend::new());
        backend.write("ckpt/model_0.bin", counting_floats(24)).unwrap();
        let item = ReadItem {
            stored_offsets: [0, 0].into(),
            stored_lengths: [4, 6].into(),
            isect_offsets: [1, 2].into(),
            isect_lengths: [2, 3].into(),
            dest_offsets: [1, 2].into(),
            dest_lengths: [2, 3].into(),
            ..flat_item("w", 0, 24)
        };
        assert_eq!(item.fetch_range(), (8 * 4, 9 * 4));
        let world = bcp_collectives::CommWorld::new(2, bcp_collectives::Backend::Flat);
        let reader = AssignedLoadPlan {
            rank: 0,
            reads: vec![item.clone()],
            send_to: vec![vec![1]],
            recvs: vec![],
        };
        let receiver =
            AssignedLoadPlan { rank: 1, reads: vec![], send_to: vec![], recvs: vec![(0, 0, item)] };
        let want = vec![8.0, 9.0, 10.0, 14.0, 15.0, 16.0];
        for (plan, forwarded) in [(reader, 0), (receiver, 9 * 4)] {
            let comm = world.communicator(plan.rank).unwrap();
            let (stats, got) = load_into(&plan, backend.clone(), &[2, 3], Some(&comm)).unwrap();
            assert_eq!(got, want, "rank {}", plan.rank);
            // Copied into the arena on both sides, never adopted.
            assert_eq!(stats.assembled_bytes, 6 * 4, "rank {}", plan.rank);
            assert_eq!(stats.forwarded_bytes, forwarded, "the fetch range, gap included");
        }
    }

    #[test]
    fn a_receive_no_read_answers_is_a_plan_error_not_a_wait() {
        let w = flat_item("w", 0, 16);
        let plan = |rank, reads: Vec<ReadItem>, send_to, recvs| AssignedLoadPlan {
            rank,
            reads,
            send_to,
            recvs,
        };
        // A same-rank duplicate of a read its rank does not have.
        let err = load_w(&plan(0, vec![], vec![], vec![(0, 3, w.clone())]), None).unwrap_err();
        assert!(matches!(&err, BcpError::Plan(m) if m.contains("w: receives read 3")), "{err}");
        // Rank 0 forwards its read 0 while rank 1 waits for a read 1.
        let world = bcp_collectives::CommWorld::new(2, bcp_collectives::Backend::Flat);
        let reader = plan(0, vec![w.clone()], vec![vec![1]], vec![]);
        load_w(&reader, Some(&world.communicator(0).unwrap())).unwrap();
        let misaddressed = plan(1, vec![], vec![], vec![(0, 1, w)]);
        let err = load_w(&misaddressed, Some(&world.communicator(1).unwrap())).unwrap_err();
        assert!(matches!(&err, BcpError::Plan(m) if m.contains("read 0 of rank 0")), "{err}");
    }
}
