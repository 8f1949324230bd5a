//! A restore adopts the bytes it reads: on a backend whose ranged reads are
//! views of the stored object, an unresharded load hands back tensors whose
//! storage *is* the stored shard bytes — no second, zero-filled copy of the
//! state — and a resharded load, which assembles tensors from several
//! pieces, stays bitwise equal to the reference.

mod common;

use bytecheckpoint::prelude::*;
use bytes::Bytes;
use common::{assert_states_eq, reference_state, run_ranks};
use std::sync::Arc;

const MEGATRON: Framework = Framework::Megatron { distributed_optimizer: true };

#[test]
fn an_unresharded_load_adopts_the_stored_bytes_and_a_reshard_is_bitwise() {
    let arch = zoo::tiny_gpt();
    let (saving, resharded) =
        (Parallelism::new(2, 1, 1).unwrap(), Parallelism::new(1, 2, 1).unwrap());
    let mem: DynBackend = Arc::new(MemoryBackend::new());
    let registry = {
        let mut reg = BackendRegistry::new();
        reg.register(Scheme::Memory, mem.clone());
        Arc::new(reg)
    };
    let save_arch = arch.clone();
    run_ranks(saving, MEGATRON, registry.clone(), move |rank, ckpt| {
        let state = reference_state(&save_arch, MEGATRON, saving, rank, 1);
        ckpt.save(&SaveRequest::new("mem://x/j/step_1", &state, 1)).unwrap().wait().unwrap();
    });
    // `MemoryBackend::read` returns the stored allocation itself.
    let stored: Vec<Bytes> =
        mem.list("j/step_1/").unwrap().iter().map(|key| mem.read(key).unwrap()).collect();

    for par in [saving, resharded] {
        let arch = arch.clone();
        let states = run_ranks(par, MEGATRON, registry.clone(), move |rank, ckpt| {
            let mut state = build_train_state(&arch, MEGATRON, par, rank, true);
            ckpt.load(&mut LoadRequest::new("mem://x/j/step_1", &mut state)).unwrap();
            assert_states_eq(&state, &reference_state(&arch, MEGATRON, par, rank, 1), rank);
            state
        });
        if par != saving {
            continue;
        }
        for state in &states {
            for (fqn, entry) in state.model.entries.iter().chain(&state.optimizer.entries) {
                let bytes = entry.tensor.bytes().unwrap();
                let (start, end) = (bytes.as_ptr() as usize, bytes.as_ptr() as usize + bytes.len());
                let inside = stored.iter().any(|obj| {
                    let at = obj.as_ptr() as usize;
                    at <= start && end <= at + obj.len()
                });
                assert!(inside, "{fqn}: restored into a copy, not the stored shard bytes");
            }
        }
    }
}
