//! Heap allocations of load planning, counted: decoding the global metadata,
//! building a rank's load plan and eliminating redundant reads each stay
//! within a fixed budget per entry, item or request on the many-tensor shape
//! (`perf/`'s `manytensor_dp2_disk`), same-parallelism and resharded.
//!
//! The counter is per thread, so tests running in parallel do not disturb
//! each other's counts.

use bytecheckpoint::core::metadata::GlobalMetadata;
use bytecheckpoint::core::plan::{build_tensor_map, local_load_plan, local_save_plan, LoadPlan};
use bytecheckpoint::core::planner::balance::{
    dedup_save_plans, eliminate_redundant_reads, DedupStrategy,
};
use bytecheckpoint::model::{ArchKind, TransformerConfig};
use bytecheckpoint::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting this thread's allocations and
/// reallocations.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the slot is gone while the thread tears down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; counting touches a const-initialised thread-local `Cell`,
// which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
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
