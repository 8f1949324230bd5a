//! Damage to a step's state files — rank 0's extra state, one dataloader
//! shard file — is caught the way damage to a shard file is: the scrub names
//! the file, a direct load of the step fails on every rank (`Corrupt` on the
//! ranks that read the damage), and `load_latest` quarantines the step and
//! resumes the one before it, with that step's extra and dataloader state. A bit flip in a digit keeps the JSON payload
//! parseable, so only the file's CRC can tell; a truncation breaks the
//! payload, which must still cost one step rather than the resume.

mod common;

use bytecheckpoint::core::BcpError;
use bytecheckpoint::prelude::*;
use common::{assert_states_eq, run_ranks};
use std::sync::Arc;

const FW: Framework = Framework::Ddp;

#[derive(Clone, Copy, Debug)]
enum Damage {
    /// Bit 0 of a digit of rank 0's `rng_counter`: still a digit.
    ExtraDigit,
    /// Bit 0 of a digit of a cursor's `pos` in one dataloader shard file.
    LoaderDigit,
    /// Rank 0's extra-state file cut to half its length.
    ExtraTruncated,
    /// One dataloader shard file cut to half its length.
    LoaderTruncated,
}

fn par() -> Parallelism {
    Parallelism::data_parallel(2).unwrap()
}

fn replicated() -> LoaderReplicatedState {
    LoaderReplicatedState {
        workers_per_rank: 2,
        dp_size: 2,
        sources: vec![DataSource { name: "web".into(), ratio: 1.0, seed: 3 }],
        context_window: 512,
    }
}

/// The extra and dataloader state rank `rank` saves at `step`.
fn saved(rank: usize, step: u64) -> (ExtraState, LoaderShardState) {
    let mut extra = ExtraState::new(7 + rank as u64);
    extra.step = step;
    extra.rng_counter = 2000 * step + rank as u64;
    let mut dl = Dataloader::new(replicated(), rank);
    (0..2 * step as usize + rank).for_each(|_| drop(dl.next_batch()));
    (extra, dl.shard_state())
}

fn state(rank: usize) -> TrainState {
    build_train_state(&zoo::tiny_gpt(), FW, par(), rank, true)
}

/// Save steps 1 and 2 under `root` (the URI `registry` resolves to
/// `backend`, whose path for it is `job`), damage step 2 and check all three
/// outcomes.
fn check(damage: Damage, backend: DynBackend, registry: Arc<BackendRegistry>, root: &'static str) {
    let at = move |step: u64| format!("{root}/step_{step}");
    run_ranks(par(), FW, registry.clone(), move |rank, ckpt| {
        let (state, rep) = (state(rank), replicated());
        for step in 1..=2 {
            let (extra, shard) = saved(rank, step);
            let req = SaveRequest::new(at(step).as_str(), &state, step)
                .with_extra(&extra)
                .with_loader(&rep, &shard);
            ckpt.save(&req).unwrap().wait().unwrap();
        }
    });

    let prefix = "job/step_2";
    let name = match damage {
        Damage::ExtraDigit | Damage::ExtraTruncated => "/extra_0.",
        Damage::LoaderDigit | Damage::LoaderTruncated => "/loader/dp0_w0.",
    };
    let files = backend.list(&format!("{prefix}/")).unwrap();
    let victim = files.iter().find(|f| f.contains(name)).expect("the state file").clone();
    let mut bytes = backend.read(&victim).unwrap().to_vec();
    match damage {
        Damage::ExtraDigit | Damage::LoaderDigit => {
            let field: &[u8] = if matches!(damage, Damage::ExtraDigit) {
                b"\"rng_counter\":"
            } else {
                b"\"pos\":"
            };
            let at = bytes.windows(field.len()).position(|w| w == field).unwrap() + field.len();
            assert!(bytes[at].is_ascii_digit(), "{damage:?}: byte {at} is not a digit");
            bytes[at] ^= 1;
        }
        Damage::ExtraTruncated | Damage::LoaderTruncated => bytes.truncate(bytes.len() / 2),
    }
    backend.write(&victim, bytes.into()).unwrap();

    let report = scrub_step(&backend, prefix, 2).unwrap();
    assert!(
        report.defects().iter().any(|d| d.path == victim),
        "{damage:?}: the scrub of step 2 does not name {victim}: {:?}",
        report.issues
    );

    let direct = run_ranks(par(), FW, registry.clone(), move |rank, ckpt| {
        let mut target = state(rank);
        let mut req = LoadRequest::new(at(2).as_str(), &mut target)
            .with_loader_target(LoaderTarget::new(2, 2, rank));
        match ckpt.load(&mut req) {
            Ok(_) => "Ok".to_string(),
            Err(BcpError::Corrupt(m)) => format!("Corrupt({m})"),
            Err(e) => format!("Err({e})"),
        }
    });
    assert!(direct[0].starts_with("Corrupt"), "{damage:?}: rank 0 loaded step 2 as {}", direct[0]);
    // The state files are restored before the load barrier: a rank that
    // cannot restore them fails every rank's load.
    assert!(!direct.iter().any(|r| r == "Ok"), "{damage:?}: step 2 loaded as {direct:?}");

    run_ranks(par(), FW, registry, move |rank, ckpt| {
        let mut target = state(rank);
        let loader = Some(LoaderTarget::new(2, 2, rank));
        let out = match ckpt.load_latest(root, &mut target, loader) {
            Ok(out) => out.expect("a committed step"),
            Err(e) => panic!("{damage:?}: rank {rank}: load_latest failed: {e}"),
        };
        assert_eq!(out.resumed_step(), 1, "{damage:?}: rank {rank}");
        let quarantined: Vec<u64> = out.quarantined.iter().map(|q| q.step).collect();
        assert_eq!(quarantined, [2], "{damage:?}: rank {rank}");
        let (extra, shard) = saved(rank, 1);
        assert_eq!(out.extra, Some(extra), "{damage:?}: rank {rank}");
        assert_eq!(out.loader, Some((replicated(), shard)), "{damage:?}: rank {rank}");
        assert_states_eq(&target, &state(rank), rank);
    });
}

/// [`check`] on a `MemoryBackend` and on a `DiskBackend`.
fn on_both_backends(damage: Damage) {
    let mem: DynBackend = Arc::new(MemoryBackend::new());
    let mut reg = BackendRegistry::new();
    reg.register(Scheme::Memory, mem.clone());
    check(damage, mem, Arc::new(reg), "mem://x/job");

    let dir =
        std::env::temp_dir().join(format!("bcp-state-damage-{}-{damage:?}", std::process::id()));
    let disk: DynBackend = Arc::new(DiskBackend::new(&dir).unwrap());
    let mut reg = BackendRegistry::new();
    reg.register(Scheme::File, disk.clone());
    check(damage, disk, Arc::new(reg), "file:///job");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_digit_flipped_in_the_extra_state_quarantines_the_step() {
    on_both_backends(Damage::ExtraDigit);
}

#[test]
fn a_digit_flipped_in_a_dataloader_file_quarantines_the_step() {
    on_both_backends(Damage::LoaderDigit);
}

#[test]
fn a_truncated_extra_state_file_quarantines_the_step() {
    on_both_backends(Damage::ExtraTruncated);
}

#[test]
fn a_truncated_dataloader_file_quarantines_the_step() {
    on_both_backends(Damage::LoaderTruncated);
}
