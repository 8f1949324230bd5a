//! Crash-consistency exploration (Appendix B, made exhaustive): record an
//! 8-rank save through a mutation journal, enumerate *every* storage state
//! a crash could leave behind — each mutation-log prefix plus torn variants
//! of the in-flight write, including mid-segment cuts and the torn
//! `COMPLETE` marker — and drive recovery (`gc_torn` + `load_latest`)
//! against each. The invariant: recovery always lands on a committed,
//! CRC-verified step with bitwise-correct state, never applies torn data,
//! and never hangs (the worlds run with a bounded collective timeout).
//!
//! Also the verified-fallback acceptance path: a silently bit-flipped
//! newest step is detected by the pre-load scrub, quarantined, logged, and
//! recovery resumes from the previous committed step.

use bcp_collectives::{Backend, CommWorld};
use bcp_core::api::{Checkpointer, SaveRequest};
use bcp_core::crashsim::{enumerate_crash_states, torn_counts};
use bcp_core::metadata::{GlobalMetadata, COMPLETE_MARKER, METADATA_FILE};
use bcp_core::registry::BackendRegistry;
use bcp_core::scrub::scrub_step;
use bcp_model::states::{build_train_state, Framework};
use bcp_model::{zoo, TrainState, TrainerConfig};
use bcp_storage::journal::{JournalBackend, JournalOp};
use bcp_storage::uri::Scheme;
use bcp_storage::{DynBackend, FaultLayer, MemoryBackend};
use bcp_topology::Parallelism;
use std::sync::Arc;
use std::time::Duration;

const WORLD: usize = 8;

fn fw() -> Framework {
    Framework::Ddp
}

fn par() -> Parallelism {
    Parallelism::data_parallel(WORLD).unwrap()
}

fn registry_for(backend: DynBackend) -> Arc<BackendRegistry> {
    let mut reg = BackendRegistry::new();
    reg.register(Scheme::Memory, backend);
    Arc::new(reg)
}

/// Ground-truth state at `rank` after `steps` deterministic training steps.
fn reference_state(rank: usize, steps: u64) -> TrainState {
    let mut s = build_train_state(&zoo::tiny_gpt(), fw(), par(), rank, true);
    TrainerConfig::default().run(&mut s, 0, steps);
    s
}

fn assert_states_bitwise_eq(got: &TrainState, want: &TrainState, rank: usize, ctx: &str) {
    for (dict_name, got_d, want_d) in
        [("model", &got.model, &want.model), ("optimizer", &got.optimizer, &want.optimizer)]
    {
        for (fqn, w) in &want_d.entries {
            let g = got_d.get(fqn).unwrap_or_else(|| panic!("{ctx}: rank {rank} missing {fqn}"));
            assert!(
                g.tensor.bitwise_eq(&w.tensor),
                "{ctx}: rank {rank} {dict_name} {fqn} differs from reference"
            );
        }
    }
}

/// Spawn one thread per rank over a fresh world. The bounded collective
/// timeout is the "recovery never hangs" backstop: any state that wedged a
/// rank would fail the whole test within 10 s, not block the suite.
fn run_world<F, T>(registry: Arc<BackendRegistry>, f: F) -> Vec<T>
where
    F: Fn(usize, Checkpointer) -> T + Send + Sync + 'static,
    T: Send + 'static,
{
    let world = CommWorld::with_timeout(WORLD, Backend::Flat, Duration::from_secs(10));
    let f = Arc::new(f);
    let handles: Vec<_> = (0..WORLD)
        .map(|rank| {
            let world = world.clone();
            let registry = registry.clone();
            let f = f.clone();
            std::thread::spawn(move || {
                let ckpt = Checkpointer::builder(world.communicator(rank).unwrap())
                    .framework(fw())
                    .parallelism(par())
                    .registry(registry)
                    .telemetry(false)
                    .build()
                    .unwrap();
                f(rank, ckpt)
            })
        })
        .collect();
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}

/// New bytes an op writes, or `None` for atomic ops (no torn variants).
fn op_new_bytes(op: &JournalOp) -> Option<u64> {
    match op {
        JournalOp::Write { data, .. } | JournalOp::Append { data, .. } => Some(data.len() as u64),
        JournalOp::WriteSegments { segments, .. } => {
            Some(segments.iter().map(|s| s.len() as u64).sum())
        }
        // Concat sizes depend on prior state; torn coverage for concat is
        // asserted at the journal unit-test level.
        JournalOp::Concat { .. } => None,
        JournalOp::Delete { .. } | JournalOp::Rename { .. } => None,
    }
}

/// The full matrix: every crash state of a journaled 8-rank save recovers
/// to a committed, scrub-clean step whose state matches the reference
/// bitwise. Torn data is never applied, and every rank agrees on the step.
#[test]
fn every_crash_state_recovers_to_a_committed_verified_step() {
    let mem: DynBackend = Arc::new(MemoryBackend::new());
    let journal = Arc::new(JournalBackend::new(mem).unwrap());
    let journal_dyn: DynBackend = journal.clone();
    let registry = registry_for(journal_dyn);

    // Step 1 commits cleanly, then becomes the journal baseline: every
    // enumerated crash state contains a committed step to fall back to.
    run_world(registry.clone(), move |rank, ckpt| {
        let state = reference_state(rank, 1);
        ckpt.save(&SaveRequest::new("mem://jobs/train/step_1", &state, 1)).unwrap().wait().unwrap();
    });
    journal.rebase().unwrap();

    // Step 2 is recorded op by op.
    run_world(registry, move |rank, ckpt| {
        let state = reference_state(rank, 2);
        ckpt.save(&SaveRequest::new("mem://jobs/train/step_2", &state, 2)).unwrap().wait().unwrap();
    });

    let ops = journal.ops();
    assert!(
        ops.len() >= 4,
        "an 8-rank save must journal shard uploads + metadata + marker, got {}",
        ops.len()
    );
    assert!(
        matches!(ops.last(), Some(JournalOp::Write { path, .. }) if path.ends_with(COMPLETE_MARKER)),
        "the COMPLETE marker must be the final journaled op"
    );

    let states = enumerate_crash_states(&journal).unwrap();

    // Matrix coverage: every prefix, ≥ 3 torn cuts per multi-byte write
    // (the 2-byte marker gets its created-empty and one-byte cuts), and the
    // torn-marker state itself.
    let prefixes = states.iter().filter(|s| s.torn_cut.is_none()).count();
    assert_eq!(prefixes, ops.len() + 1, "every mutation-log prefix must be enumerated");
    let torn = torn_counts(&states);
    for (i, op) in ops.iter().enumerate() {
        if let Some(bytes) = op_new_bytes(op) {
            let want = if bytes >= 4 { 3 } else { 1 };
            let got = torn.iter().find(|&&(idx, _)| idx == i).map(|&(_, n)| n).unwrap_or(0);
            assert!(
                got >= want,
                "op {i} ({}, {bytes} bytes) has {got} torn variants, want ≥ {want}",
                op.label()
            );
        }
    }
    assert!(
        states.iter().any(|s| s.torn_cut.is_some() && s.label.contains(COMPLETE_MARKER)),
        "the torn-COMPLETE-marker state must be in the matrix"
    );

    // References computed once; shared read-only across every world.
    let refs: Arc<Vec<[TrainState; 2]>> =
        Arc::new((0..WORLD).map(|r| [reference_state(r, 1), reference_state(r, 2)]).collect());

    for state in &states {
        let label = state.label.clone();
        let refs = refs.clone();
        let steps = run_world(registry_for(state.backend.clone()), move |rank, ckpt| {
            let mut target = build_train_state(&zoo::tiny_gpt(), fw(), par(), rank, true);
            let out = ckpt
                .load_latest("mem://jobs/train", &mut target, None)
                .unwrap_or_else(|e| panic!("{label}: rank {rank} recovery failed: {e}"))
                .unwrap_or_else(|| panic!("{label}: a committed step must survive"));
            let step = out.resumed_step();
            assert!(
                step == 1 || step == 2,
                "{label}: rank {rank} resumed from impossible step {step}"
            );
            assert_states_bitwise_eq(&target, &refs[rank][(step - 1) as usize], rank, &label);
            step
        });
        assert!(
            steps.iter().all(|&s| s == steps[0]),
            "{}: ranks disagree on the resumed step: {steps:?}",
            state.label
        );
        // The step recovery landed on is committed and fully verified —
        // torn data was either GC'd or never loadable.
        let step = steps[0];
        let report = scrub_step(&state.backend, &format!("train/step_{step}"), step).unwrap();
        assert!(
            report.committed && report.is_clean(),
            "{}: recovered step {step} must be committed and scrub-clean: {:?}",
            state.label,
            report.issues
        );
    }
}

/// Verified fallback end to end: one silently flipped bit in the newest
/// step's shard data costs exactly one step of progress. `load_latest`
/// detects it before loading, quarantines the step, records the failure,
/// and every rank resumes bitwise-correct from the previous committed step.
#[test]
fn bit_flipped_newest_step_is_quarantined_and_previous_step_loads() {
    let mem: DynBackend = Arc::new(MemoryBackend::new());
    let registry = registry_for(mem.clone());

    for step in 1..=2u64 {
        run_world(registry.clone(), move |rank, ckpt| {
            let state = reference_state(rank, step);
            let loc = format!("mem://jobs/train/step_{step}");
            ckpt.save(&SaveRequest::new(loc.as_str(), &state, step)).unwrap().wait().unwrap();
        });
    }

    // Flip one seed-derived bit in a step-2 shard file, at rest.
    let meta =
        GlobalMetadata::from_bytes(&mem.read(&format!("train/step_2/{METADATA_FILE}")).unwrap())
            .unwrap();
    let shard_file = meta
        .tensor_map
        .values()
        .flatten()
        .map(|e| e.byte.file.to_string())
        .next()
        .expect("step 2 references at least one shard file");
    let corruptor = FaultLayer::new(mem.clone(), 0xB1C7, Vec::new());
    corruptor.flip_bit_at_rest(&format!("train/step_2/{shard_file}")).unwrap();
    assert_eq!(corruptor.injected(), 1);

    let results = run_world(registry, move |rank, ckpt| {
        let mut target = build_train_state(&zoo::tiny_gpt(), fw(), par(), rank, true);
        let out = ckpt
            .load_latest("mem://jobs/train", &mut target, None)
            .unwrap()
            .expect("step 1 must survive the fallback");
        let want = reference_state(rank, 1);
        assert_states_bitwise_eq(&target, &want, rank, "verified fallback");
        let verify_failures =
            ckpt.failures().records().iter().filter(|r| r.stage == "load/verify").count();
        (out.resumed_step(), out.fell_back(), out.quarantined.clone(), verify_failures)
    });

    for (rank, (step, fell_back, quarantined, _)) in results.iter().enumerate() {
        assert_eq!(*step, 1, "rank {rank} must resume from the previous committed step");
        assert!(*fell_back, "rank {rank} must report the fallback");
        assert_eq!(quarantined.len(), 1, "rank {rank} must see the quarantined step");
        assert_eq!(quarantined[0].step, 2);
        assert!(
            quarantined[0].reason.contains(&shard_file),
            "rank {rank}: reason {:?} must name the corrupt shard file",
            quarantined[0].reason
        );
    }
    assert!(
        results.iter().any(|(_, _, _, n)| *n > 0),
        "the coordinator must log a load/verify failure record"
    );

    // The corrupt step was moved aside, not deleted: it is out of the
    // manager's step listing but preserved for forensics.
    assert!(
        mem.list("train/step_2/").unwrap().is_empty(),
        "quarantined step must leave the live tree"
    );
    assert!(
        !mem.list("train/quarantine/step_2/").unwrap().is_empty(),
        "quarantined step must be preserved under quarantine/"
    );
}
