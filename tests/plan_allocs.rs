//! Heap allocations of load planning, counted: decoding the global metadata,
//! building a rank's load plan and eliminating redundant reads each stay
//! within a fixed budget per entry, item or request on the many-tensor shape
//! (`perf/`'s `manytensor_dp2_disk`), same-parallelism and resharded; and so
//! do their bytes: a plan's items are one allocation, the coordinator's
//! decision is small integers per request, and a rank applying it
//! allocates its receives and nothing else. And
//! the heap bytes a reshard's `execute_load` allocates do not grow with the
//! bytes it restores (`zero3_dp2_disk`'s shape): every restored byte is
//! adopted or copied into the load's arena, none gathered into a heap
//! buffer on the way.
//!
//! The counters are per thread, so tests running in parallel do not
//! disturb each other's counts.

mod common;

use bytecheckpoint::core::engine::iopool::IoPool;
use bytecheckpoint::core::engine::load::{execute_load, LoadConfig};
use bytecheckpoint::core::engine::Assembler;
use bytecheckpoint::core::integrity::FailureLog;
use bytecheckpoint::core::metadata::{GlobalMetadata, METADATA_FILE};
use bytecheckpoint::core::plan::{
    build_tensor_map, local_load_plan, local_save_plan, LoadPlan, ReadItem,
};
use bytecheckpoint::core::planner::balance::{
    assign_reads, dedup_save_plans, eliminate_redundant_reads, DedupStrategy,
};
use bytecheckpoint::core::FaultHook;
use bytecheckpoint::model::{ArchKind, TransformerConfig};
use bytecheckpoint::monitor::SpanContext;
use bytecheckpoint::prelude::*;
use bytes::Bytes;
use common::run_ranks;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// The system allocator, counting this thread's allocations and
/// reallocations and the bytes they ask for.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count_one(bytes: usize) {
    // `try_with`: the slots are gone while the thread tears down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; counting touches const-initialised thread-local `Cell`s,
// which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the heap allocations it made on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// `f`'s result and the heap bytes it allocated on this thread.
fn counted_bytes<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = BYTES.with(Cell::get);
    let out = f();
    (out, BYTES.with(Cell::get) - before)
}

/// The `manytensor_dp2_disk` benchmark shape (as in `metadata_codec.rs`).
fn many_tensor() -> TransformerConfig {
    TransformerConfig {
        name: "manytensor".into(),
        kind: ArchKind::Gpt,
        hidden: 32,
        heads: 8,
        layers: 64,
        vocab: 8192,
        ffn_mult: 4,
        dtype: DType::BF16,
        num_experts: 0,
    }
}

const FW: Framework = Framework::Megatron { distributed_optimizer: true };

/// The sealed metadata of a Megatron dist-opt save at DP2, meta tensors.
fn saved_image() -> Vec<u8> {
    let par = Parallelism::new(1, 2, 1).unwrap();
    let mut plans: Vec<_> = (0..2)
        .map(|rank| {
            let state = build_train_state(&many_tensor(), FW, par, rank, false);
            local_save_plan(rank, &state, &format!("cuda:{rank}"))
        })
        .collect();
    dedup_save_plans(&mut plans, DedupStrategy::WorstFit);
    let mut m = GlobalMetadata::new("megatron", 1, &par.describe(), 2);
    m.tensor_map = build_tensor_map(&plans);
    m.to_bytes()
}

#[test]
fn decoding_the_metadata_costs_at_most_two_allocations_per_entry() {
    let image = saved_image();
    let (meta, allocs) = counted(|| GlobalMetadata::from_bytes(&image).unwrap());
    let entries: usize = meta.tensor_map.values().map(Vec::len).sum();
    assert!(entries > 5_000, "the shape is many-tensor: {entries} entries");
    assert!(
        allocs <= 2 * entries as u64,
        "from_bytes made {allocs} allocations for {entries} entries"
    );
}

#[test]
fn planning_a_load_costs_at_most_four_allocations_per_item_and_one_per_request() {
    let meta = GlobalMetadata::from_bytes(&saved_image()).unwrap();
    for (target, par) in
        [("DP2", Parallelism::new(1, 2, 1).unwrap()), ("TP2", Parallelism::new(2, 1, 1).unwrap())]
    {
        let plans: Vec<LoadPlan> = (0..2)
            .map(|rank| {
                let state = build_train_state(&many_tensor(), FW, par, rank, false);
                let (plan, allocs) = counted(|| local_load_plan(rank, &state, &meta).unwrap());
                let items = plan.items.len();
                assert!(items > 1_000, "{target} rank {rank}: {items} items");
                assert!(
                    allocs <= 4 * items as u64,
                    "{target} rank {rank}: local_load_plan made {allocs} allocations for {items} items"
                );
                plan
            })
            .collect();
        let requests: usize = plans.iter().map(|p| p.items.len()).sum();
        let (assigned, allocs) = counted(|| eliminate_redundant_reads(&plans));
        assert_eq!(assigned.len(), 2);
        assert!(
            allocs <= requests as u64,
            "{target}: eliminate_redundant_reads made {allocs} allocations for {requests} requests"
        );
    }
}

#[test]
fn planning_a_load_allocates_its_items_once_and_the_exchange_only_small_integers() {
    let meta = GlobalMetadata::from_bytes(&saved_image()).unwrap();
    for (target, par) in
        [("DP2", Parallelism::new(1, 2, 1).unwrap()), ("TP2", Parallelism::new(2, 1, 1).unwrap())]
    {
        let plans: Vec<LoadPlan> = (0..2)
            .map(|rank| {
                let state = build_train_state(&many_tensor(), FW, par, rank, false);
                let (plan, bytes) = counted_bytes(|| local_load_plan(rank, &state, &meta).unwrap());
                let items = plan.items.len();
                let budget = items * std::mem::size_of::<ReadItem>() * 11 / 10;
                assert!(
                    bytes <= budget as u64,
                    "{target} rank {rank}: local_load_plan allocated {bytes} bytes for {items} items"
                );
                plan
            })
            .collect();
        // The coordinator borrows the plans and allocates roles, read
        // numbers and recipient lists: no item.
        let requests: usize = plans.iter().map(|p| p.items.len()).sum();
        let (roles, bytes) = counted_bytes(|| assign_reads(&plans));
        assert!(
            bytes <= 64 * requests as u64,
            "{target}: assign_reads allocated {bytes} bytes for {requests} requests"
        );
        // Each rank moves its own items: its reads stay where they were
        // planned, and only the receives are a new list.
        let mut received = 0;
        for (roles, plan) in roles.into_iter().zip(plans) {
            let (assigned, bytes) = counted_bytes(|| roles.apply(plan).unwrap());
            let recvs = assigned.recvs.len();
            received += recvs;
            let budget = recvs * std::mem::size_of::<(usize, usize, ReadItem)>();
            assert_eq!(
                bytes, budget as u64,
                "{target} rank {}: applying the roles allocated {bytes} bytes for {recvs} receives",
                assigned.rank
            );
        }
        assert!(received > 0, "{target}: some request is a receive");
    }
}

#[test]
fn assembling_a_load_allocates_the_same_few_times_however_many_tensors_it_restores() {
    let meta = GlobalMetadata::from_bytes(&saved_image()).unwrap();
    let par = Parallelism::new(1, 2, 1).unwrap();
    let mut state = build_train_state(&many_tensor(), FW, par, 0, false);
    let plan = local_load_plan(0, &state, &meta).unwrap();
    let tensors = state.model.len() + state.optimizer.len();
    assert!(tensors > 3_000, "the shape is many-tensor: {tensors} tensors");
    // Each item's slice of a fetched run, cut before counting: views of one
    // buffer, as the load path's are views of its runs.
    let longest = plan.items.iter().map(|i| i.fetch_range().1).max().unwrap() as usize;
    let runs = Bytes::from(vec![0u8; longest]);
    let fetched: Vec<Bytes> =
        plan.items.iter().map(|i| runs.slice(..i.fetch_range().1 as usize)).collect();
    let (_, allocs) = counted(|| {
        let mut asm = Assembler::new(&state, &plan.items).unwrap();
        for (item, bytes) in plan.items.iter().zip(&fetched) {
            asm.apply(item, bytes).unwrap();
        }
        asm.finish(&mut state).unwrap();
    });
    eprintln!("{allocs} allocations restoring {tensors} tensors from {} items", plan.items.len());
    assert!(
        allocs <= 8,
        "Assembler::new, apply and finish made {allocs} allocations restoring {tensors} tensors"
    );
    let restored = state.model.entries.values().chain(state.optimizer.entries.values());
    assert!(restored.clone().all(|e| !e.tensor.is_meta()), "every tensor restored");
    assert!(restored.clone().all(|e| e.tensor.bytes().unwrap().len() == e.tensor.nbytes()));
}

/// `zero3_dp2_disk`'s reshard at test size, `hidden` wide: an FSDP ZeRO-3
/// DP2 save on memory (whose reads are views, so the I/O threads allocate
/// nothing), loaded into Megatron TP2. Returns, per rank, the heap bytes
/// `execute_load` allocated on the rank's thread and the bytes it restored.
///
/// The plan is the same at every width this test uses: the same items, and
/// one run per shard file, because no run is capped (`chunk_bytes` is
/// unbounded) and at both widths every gap between two reads of a file is
/// a column-parallel half below `RUN_GAP_BYTES`. Every row-parallel weight
/// and its three optimizer states is a strided piece: 2–9 MiB per rank.
fn reshard_heap_bytes(hidden: usize) -> Vec<(u64, u64)> {
    let arch = TransformerConfig {
        name: "zero3-reshard".into(),
        kind: ArchKind::Gpt,
        hidden,
        heads: 4,
        layers: 72,
        vocab: 192,
        ffn_mult: 3,
        dtype: DType::F32,
        num_experts: 0,
    };
    let zero3 = Framework::Fsdp { zero3: true };
    let (saving, loading) =
        (Parallelism::data_parallel(2).unwrap(), Parallelism::new(2, 1, 1).unwrap());
    let mem: DynBackend = Arc::new(MemoryBackend::new());
    let mut registry = BackendRegistry::new();
    registry.register(Scheme::Memory, mem.clone());
    let saved = arch.clone();
    run_ranks(saving, zero3, Arc::new(registry), move |rank, ckpt| {
        let state = build_train_state(&saved, zero3, saving, rank, true);
        ckpt.save(&SaveRequest::new("mem://x/j/step_1", &state, 1)).unwrap().wait().unwrap();
    });
    let meta = GlobalMetadata::from_bytes(&mem.read(&format!("j/step_1/{METADATA_FILE}")).unwrap())
        .unwrap();
    let mut states: Vec<TrainState> =
        (0..2).map(|rank| build_train_state(&arch, FW, loading, rank, true)).collect();
    let plans: Vec<LoadPlan> = states
        .iter()
        .enumerate()
        .map(|(rank, state)| local_load_plan(rank, state, &meta).unwrap())
        .collect();
    let assigned = eliminate_redundant_reads(&plans);
    let world = CommWorld::new(2, Backend::Flat);
    std::thread::scope(|scope| {
        let ranks: Vec<_> = states
            .iter_mut()
            .zip(&assigned)
            .map(|(state, plan)| {
                let (world, mem) = (world.clone(), mem.clone());
                scope.spawn(move || {
                    let comm = world.communicator(plan.rank).unwrap();
                    let io = IoPool::new(2);
                    let (sink, log) = (MetricsSink::disabled(), Arc::new(FailureLog::new()));
                    let cfg = LoadConfig { chunk_bytes: u64::MAX, ..LoadConfig::default() };
                    let faults = FaultHook::inert(plan.rank);
                    let (stats, bytes) = counted_bytes(|| {
                        execute_load(
                            plan,
                            state,
                            mem,
                            "j/step_1",
                            Some(&comm),
                            &io,
                            &sink,
                            log,
                            &cfg,
                            1,
                            &faults,
                            SpanContext::none(),
                        )
                        .unwrap()
                    });
                    // An arena below 2 MiB would be a heap buffer of its own.
                    let arena = stats.assembled_bytes;
                    assert!(arena == 0 || arena >= 2 << 20, "a mapped arena, not {arena} bytes");
                    (bytes, state.model.local_bytes() + state.optimizer.local_bytes())
                })
            })
            .collect();
        ranks.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

#[test]
fn a_reshard_allocates_no_heap_bytes_in_proportion_to_the_bytes_it_restores() {
    let (narrow, wide) = (reshard_heap_bytes(32), reshard_heap_bytes(64));
    for (rank, (&(narrow_heap, narrow_state), &(wide_heap, wide_state))) in
        narrow.iter().zip(&wide).enumerate()
    {
        eprintln!(
            "rank {rank}: {narrow_heap} heap bytes restoring {narrow_state}, \
             {wide_heap} restoring {wide_state}"
        );
        assert!(
            wide_state > 3 * narrow_state,
            "rank {rank}: the wide shape restores ~4x the bytes"
        );
        assert!(
            wide_heap <= narrow_heap + narrow_heap / 8,
            "rank {rank}: execute_load allocated {narrow_heap} heap bytes restoring \
             {narrow_state} bytes, and {wide_heap} restoring {wide_state}"
        );
    }
}
