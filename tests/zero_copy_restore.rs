//! A restore adopts the bytes it reads: on a backend whose ranged reads are
//! views of the stored object, an unresharded load hands back tensors whose
//! storage *is* the stored shard bytes — no second, zero-filled copy of the
//! state. A resharded load, which assembles tensors from several pieces,
//! stays bitwise equal to the reference, and every tensor it assembles lives
//! in one 2 MiB-aligned arena per rank, sized from the plan.

mod common;

use bytecheckpoint::model::TransformerConfig;
use bytecheckpoint::prelude::*;
use bytes::Bytes;
use common::{assert_states_eq, reference_state, run_ranks};
use std::sync::Arc;

const MEGATRON: Framework = Framework::Megatron { distributed_optimizer: true };
const HUGE_PAGE: usize = 2 << 20;

/// A memory registry holding step 1 of `arch` saved under TP2, and the
/// stored objects (`MemoryBackend::read` returns the stored allocation
/// itself).
fn saved_tp2(arch: &TransformerConfig) -> (Arc<BackendRegistry>, Vec<Bytes>) {
    let saving = Parallelism::new(2, 1, 1).unwrap();
    let mem: DynBackend = Arc::new(MemoryBackend::new());
    let registry = {
        let mut reg = BackendRegistry::new();
        reg.register(Scheme::Memory, mem.clone());
        Arc::new(reg)
    };
    let arch = arch.clone();
    run_ranks(saving, MEGATRON, registry.clone(), move |rank, ckpt| {
        let state = reference_state(&arch, MEGATRON, saving, rank, 1);
        ckpt.save(&SaveRequest::new("mem://x/j/step_1", &state, 1)).unwrap().wait().unwrap();
    });
    let stored = mem.list("j/step_1/").unwrap().iter().map(|key| mem.read(key).unwrap()).collect();
    (registry, stored)
}

/// Load step 1 into `par` on every rank, bitwise-checked against the
/// reference; returns each rank's restored state.
fn load(
    arch: &TransformerConfig,
    par: Parallelism,
    registry: &Arc<BackendRegistry>,
) -> Vec<TrainState> {
    let arch = arch.clone();
    run_ranks(par, MEGATRON, registry.clone(), move |rank, ckpt| {
        let mut state = build_train_state(&arch, MEGATRON, par, rank, true);
        ckpt.load(&mut LoadRequest::new("mem://x/j/step_1", &mut state)).unwrap();
        assert_states_eq(&state, &reference_state(&arch, MEGATRON, par, rank, 1), rank);
        state
    })
}

/// `(fqn, start address, byte length)` of every restored tensor.
fn extents(state: &TrainState) -> Vec<(String, usize, usize)> {
    let entries = state.model.entries.iter().chain(&state.optimizer.entries);
    entries
        .map(|(fqn, entry)| {
            let bytes = entry.tensor.bytes().unwrap();
            (fqn.clone(), bytes.as_ptr() as usize, bytes.len())
        })
        .collect()
}

/// Whether `[start, start + len)` lies inside one stored object.
fn inside_stored(stored: &[Bytes], start: usize, len: usize) -> bool {
    stored.iter().any(|obj| {
        let at = obj.as_ptr() as usize;
        at <= start && start + len <= at + obj.len()
    })
}

#[test]
fn an_unresharded_load_adopts_the_stored_bytes_and_a_reshard_is_bitwise() {
    let arch = zoo::tiny_gpt();
    let (registry, stored) = saved_tp2(&arch);
    load(&arch, Parallelism::new(1, 2, 1).unwrap(), &registry);
    for state in load(&arch, Parallelism::new(2, 1, 1).unwrap(), &registry) {
        for (fqn, start, len) in extents(&state) {
            assert!(
                inside_stored(&stored, start, len),
                "{fqn}: restored into a copy, not the stored shard bytes"
            );
        }
    }
}

#[test]
fn a_reshard_assembles_into_one_huge_page_aligned_arena_per_rank() {
    // TP2 -> TP1.DP2: every weight matrix is rebuilt from two TP halves.
    let arch = TransformerConfig {
        name: "wide-GPT".into(),
        hidden: 128,
        layers: 2,
        vocab: 256,
        ..zoo::tiny_gpt()
    };
    let (registry, stored) = saved_tp2(&arch);
    for (rank, state) in
        load(&arch, Parallelism::new(1, 2, 1).unwrap(), &registry).iter().enumerate()
    {
        let mut copied: Vec<(String, usize, usize)> = extents(state)
            .into_iter()
            .filter(|&(_, start, len)| !inside_stored(&stored, start, len))
            .collect();
        let assembled: usize = copied.iter().map(|(_, _, len)| len).sum();
        eprintln!(
            "ASSEMBLED rank {rank}: {assembled} of {}",
            extents(state).iter().map(|e| e.2).sum::<usize>()
        );
        assert!(
            assembled >= HUGE_PAGE,
            "rank {rank}: the scenario must assemble >= 2 MiB, got {assembled} bytes"
        );
        copied.sort_by_key(|&(_, start, _)| start);
        for pair in copied.windows(2) {
            let ((a, a_start, a_len), (b, b_start, _)) = (&pair[0], &pair[1]);
            assert!(a_start + a_len <= *b_start, "rank {rank}: {a} overlaps {b}");
        }
        let (_, lowest, _) = &copied[0];
        assert_eq!(lowest % HUGE_PAGE, 0, "rank {rank}: the arena starts on a 2 MiB boundary");
        let (_, last, last_len) = copied.last().unwrap();
        let span = last + last_len - lowest;
        let budget: usize = copied.iter().map(|(_, _, len)| len.next_multiple_of(64)).sum();
        assert!(
            span <= budget,
            "rank {rank}: assembled tensors span {span} bytes, more than one arena of {budget}"
        );
    }
}
