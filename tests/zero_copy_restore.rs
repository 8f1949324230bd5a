//! A restore adopts the bytes it reads: on a backend whose ranged reads are
//! views of the stored object, an unresharded load hands back tensors whose
//! storage *is* the stored shard bytes — no second, zero-filled copy of the
//! state. On disk those views are read-only mappings of the shard files, so
//! the bytes go from page cache to tensor without a copy — a tensor larger
//! than the load's `chunk_bytes` included, which is read as one run. A
//! resharded load, which assembles tensors from several pieces, stays
//! bitwise equal to the reference, and every tensor it assembles lives in
//! one 2 MiB-aligned arena per rank, sized from the plan. A reshard from
//! disk restores every tensor in one of two places only: a mapping of a
//! shard file (adopted) or the rank's arena (copied once) — a tensor whose
//! rows are strided in the stored shard included, which no heap buffer
//! holds on the way. A second reshard in the same process assembles into
//! the first one's arena mappings, recycled with their stale bytes, and
//! restores bitwise all the same.

mod common;

use bytecheckpoint::model::{StateEntry, TransformerConfig};
use bytecheckpoint::prelude::*;
use bytes::Bytes;
use common::{assert_states_eq, reference_state, run_ranks};
use std::sync::Arc;

const MEGATRON: Framework = Framework::Megatron { distributed_optimizer: true };
const ZERO3: Framework = Framework::Fsdp { zero3: true };
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

/// A GPT wide enough that TP2 -> TP1.DP2 assembles ≥ 2 MiB per rank (every
/// weight matrix is rebuilt from two TP halves) and that every TP2 shard
/// file is one run of at least `MAP_MIN_BYTES`.
fn wide_gpt() -> TransformerConfig {
    TransformerConfig {
        name: "wide-GPT".into(),
        hidden: 128,
        layers: 2,
        vocab: 256,
        ..zoo::tiny_gpt()
    }
}

/// Rows of each TP2 rank's shard of [`OVERSIZED`] (× 1 024 f32 columns:
/// 4.25 MiB, above the default `chunk_bytes`).
const OVERSIZED_ROWS: usize = 1088;
const OVERSIZED: &str = "oversized.weight";

/// `state` of TP2 rank `rank` plus its shard of one model tensor split on
/// dim 0 like a vocab-parallel embedding, too large to coalesce: a run of
/// its own beside the coalesced runs of the other tensors. The shard holds
/// a pattern cheap to make in a debug build, or zeros for a load target.
fn with_oversized(mut state: TrainState, rank: usize, zeroed: bool) -> TrainState {
    let shape = vec![OVERSIZED_ROWS, 1024];
    let n = OVERSIZED_ROWS * 1024;
    let tensor = if zeroed {
        Tensor::zeros(DType::F32, shape)
    } else {
        let mut bytes = Vec::with_capacity(n * 4);
        for i in rank * n..(rank + 1) * n {
            bytes.extend_from_slice(&(i as f32).to_le_bytes());
        }
        Tensor::from_bytes(DType::F32, shape, bytes.into()).unwrap()
    };
    state.model.insert(StateEntry {
        fqn: OVERSIZED.into(),
        global_shape: vec![2 * OVERSIZED_ROWS, 1024],
        dtype: DType::F32,
        spec: ShardSpec::dim(0, 2, rank),
        tensor,
    });
    state
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

/// Assert that `copied`, the `(fqn, start, byte length)` of rank `rank`'s
/// assembled tensors, lie in one arena: pairwise disjoint, the lowest on a
/// 2 MiB boundary, all within Σ `nbytes` rounded up to 64.
fn assert_in_one_arena(rank: usize, mut copied: Vec<(String, usize, usize)>) {
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

#[test]
fn a_reshard_assembles_into_one_huge_page_aligned_arena_per_rank() {
    // Four layers: each rank's arena is then over 4 MiB, more than twice
    // the 2 MiB arenas of the disk reshard below, and a free mapping goes
    // only to an arena at least half its length, so neither test's loads
    // take the other's mappings.
    let arch = TransformerConfig { layers: 4, ..wide_gpt() };
    let (registry, stored) = saved_tp2(&arch);
    for (rank, state) in
        load(&arch, Parallelism::new(1, 2, 1).unwrap(), &registry).iter().enumerate()
    {
        let copied: Vec<(String, usize, usize)> = extents(state)
            .into_iter()
            .filter(|&(_, start, len)| !inside_stored(&stored, start, len))
            .collect();
        let assembled: usize = copied.iter().map(|(_, _, len)| len).sum();
        eprintln!(
            "ASSEMBLED rank {rank}: {assembled} of {}",
            extents(state).iter().map(|e| e.2).sum::<usize>()
        );
        assert!(
            assembled > 2 * HUGE_PAGE,
            "rank {rank}: the scenario must assemble > 4 MiB, got {assembled} bytes"
        );
        assert_in_one_arena(rank, copied);
    }
}

/// `(start, end, file)` of every read-only private file mapping
/// `/proc/self/maps` lists.
#[cfg(target_os = "linux")]
fn read_only_file_mappings() -> Vec<(usize, usize, std::path::PathBuf)> {
    let maps = std::fs::read_to_string("/proc/self/maps").unwrap();
    maps.lines()
        .filter_map(|line| {
            let fields: Vec<&str> = line.split_whitespace().collect();
            let (range, perms, file) = (fields[0], fields[1], fields.get(5)?);
            let (start, end) = range.split_once('-')?;
            let hex = |s| usize::from_str_radix(s, 16).unwrap();
            (perms == "r--p").then(|| (hex(start), hex(end), file.into()))
        })
        .collect()
}

/// A `DiskBackend` under a fresh temp dir named after `tag`, and a
/// registry serving it for `file://`.
#[cfg(target_os = "linux")]
fn disk_registry(tag: &str) -> (std::path::PathBuf, DynBackend, Arc<BackendRegistry>) {
    let dir = std::env::temp_dir().join(format!("bcp-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let disk: DynBackend = Arc::new(DiskBackend::new(&dir).unwrap());
    let mut reg = BackendRegistry::new();
    reg.register(Scheme::File, disk.clone());
    (dir, disk, Arc::new(reg))
}

/// The canonical paths of the model and optimizer shard files of
/// `job/step_1` under `dir`.
#[cfg(target_os = "linux")]
fn shard_files(dir: &std::path::Path, disk: &DynBackend) -> Vec<std::path::PathBuf> {
    disk.list("job/step_1/")
        .unwrap()
        .iter()
        .filter(|key| key.contains("/model_") || key.contains("/optim_"))
        .map(|key| dir.join(key).canonicalize().unwrap())
        .collect()
}

#[test]
#[cfg(target_os = "linux")]
fn an_unresharded_disk_load_restores_into_mappings_of_the_shard_files() {
    let arch = wide_gpt();
    let par = Parallelism::new(2, 1, 1).unwrap();
    let (dir, disk, registry) = disk_registry("zero-copy-disk");
    let saving = arch.clone();
    run_ranks(par, MEGATRON, registry.clone(), move |rank, ckpt| {
        let state = with_oversized(reference_state(&saving, MEGATRON, par, rank, 1), rank, false);
        ckpt.save(&SaveRequest::new("file:///job/step_1", &state, 1)).unwrap().wait().unwrap();
    });
    let shard_files = shard_files(&dir, &disk);
    assert_eq!(shard_files.len(), 4, "{shard_files:?}");

    let loading = arch.clone();
    let states = run_ranks(par, MEGATRON, registry, move |rank, ckpt| {
        let mut state =
            with_oversized(build_train_state(&loading, MEGATRON, par, rank, true), rank, true);
        ckpt.load(&mut LoadRequest::new("file:///job/step_1", &mut state)).unwrap();
        let want = with_oversized(reference_state(&loading, MEGATRON, par, rank, 1), rank, false);
        assert_states_eq(&state, &want, rank);
        state
    });
    let mapped: Vec<_> = read_only_file_mappings()
        .into_iter()
        .filter(|(_, _, file)| shard_files.contains(file))
        .collect();
    let chunk = WorkflowOptions::default().load.chunk_bytes as usize;
    for (rank, state) in states.iter().enumerate() {
        let oversized = state.model.get(OVERSIZED).unwrap().tensor.nbytes();
        assert!(oversized > chunk, "rank {rank}: the oversized shard is {oversized} bytes");
        for (fqn, start, len) in extents(state) {
            assert!(
                mapped.iter().any(|&(lo, hi, _)| lo <= start && start + len <= hi),
                "rank {rank} {fqn}: restored into anonymous memory, not a mapping of a shard file"
            );
        }
    }
    drop(states);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `zero3_dp2_disk`'s reshard at test size, twice in one process: an FSDP
/// ZeRO-3 DP2 save on disk, loaded into Megatron TP2. Every FSDP rank
/// stores whole rows of each matrix it holds, and the row-parallel weights
/// (`proj`, `fc2`) and their optimizer states are cut across those rows, so
/// each TP rank's shard of one is a whole tensor strided in the stored one.
/// Each rank's tensors lie either in a read-only mapping of the step's
/// shard files or in the rank's arena, none in anonymous heap: the bytes
/// outside the mappings are exactly `LoadStats::assembled_bytes`, pairwise
/// disjoint, the lowest on a 2 MiB boundary, within one arena's span. Once
/// the first load's tensors are dropped, the second load's arenas are the
/// first one's mappings, recycled with their stale bytes, and both restore
/// bitwise.
#[test]
#[cfg(target_os = "linux")]
fn a_disk_reshard_restores_into_shard_file_mappings_or_the_arena_only() {
    // Each rank's arena is exactly 2 MiB (128 tensors of 16 KiB), the
    // smallest a mapped arena can be: no other test here asks for one so
    // small, and the free list unmaps its largest mapping first.
    let arch = TransformerConfig { hidden: 64, layers: 16, vocab: 192, ffn_mult: 3, ..wide_gpt() };
    let (saving, loading) =
        (Parallelism::data_parallel(2).unwrap(), Parallelism::new(2, 1, 1).unwrap());
    let (dir, disk, registry) = disk_registry("zero3-reshard");
    let saved = arch.clone();
    run_ranks(saving, ZERO3, registry.clone(), move |rank, ckpt| {
        let state = reference_state(&saved, ZERO3, saving, rank, 1);
        ckpt.save(&SaveRequest::new("file:///job/step_1", &state, 1)).unwrap().wait().unwrap();
    });
    let shard_files = shard_files(&dir, &disk);
    assert_eq!(shard_files.len(), 4, "{shard_files:?}");

    // One reshard, checked; returns each rank's arena base and what its
    // `load/read` span says of the arena. The restored tensors, and with
    // them the arenas, drop on return.
    let wants: Arc<Vec<TrainState>> =
        Arc::new((0..2).map(|rank| reference_state(&arch, MEGATRON, loading, rank, 1)).collect());
    let reshard = || -> (Vec<usize>, Vec<(String, String)>) {
        let (loaded, wants) = (arch.clone(), wants.clone());
        let states = run_ranks(loading, MEGATRON, registry.clone(), move |rank, ckpt| {
            let mut state = build_train_state(&loaded, MEGATRON, loading, rank, true);
            let out = ckpt.load(&mut LoadRequest::new("file:///job/step_1", &mut state)).unwrap();
            assert_states_eq(&state, &wants[rank], rank);
            (state, out.report.stats.assembled_bytes as usize)
        });
        let mapped: Vec<_> = read_only_file_mappings()
            .into_iter()
            .filter(|(_, _, file)| shard_files.contains(file))
            .collect();
        let mut bases = Vec::new();
        for (rank, (state, assembled)) in states.iter().enumerate() {
            let copied: Vec<(String, usize, usize)> = extents(state)
                .into_iter()
                .filter(|&(_, start, len)| {
                    !mapped.iter().any(|&(lo, hi, _)| lo <= start && start + len <= hi)
                })
                .collect();
            let outside: usize = copied.iter().map(|(_, _, len)| len).sum();
            assert_eq!(
                outside,
                *assembled,
                "rank {rank}: {outside} bytes in {} tensors lie outside the shard-file mappings, \
                 but the arena assembled {assembled}: the rest is anonymous heap",
                copied.len()
            );
            assert!(*assembled >= HUGE_PAGE, "rank {rank}: the arena is mapped, {assembled} bytes");
            let row_parallel =
                |fqn: &str| fqn.ends_with("attn.out.weight") || fqn.ends_with("mlp.down.weight");
            let strided = copied.iter().filter(|(fqn, _, _)| row_parallel(fqn)).count();
            assert_eq!(
                strided,
                4 * 2 * arch.layers,
                "rank {rank}: every row-parallel weight and its three optimizer states are copied"
            );
            bases.push(copied.iter().map(|&(_, start, _)| start).min().unwrap());
            assert_in_one_arena(rank, copied);
        }
        bases.sort_unstable();
        let artifact = dir.join("job/step_1").join(TELEMETRY_LOAD_FILE);
        let doc = StepTelemetry::from_jsonl(&std::fs::read_to_string(artifact).unwrap()).unwrap();
        let arenas = doc
            .all_spans()
            .into_iter()
            .filter(|span| span.name == "load/read")
            .map(|span| (span.attrs["arena_bytes"].clone(), span.attrs["arena"].clone()))
            .collect();
        (bases, arenas)
    };
    let (first, fresh) = reshard();
    let (second, recycled) = reshard();
    // Both ranks' arenas have one length, so which rank gets which mapping
    // back is a race; the set of mappings is not.
    assert_eq!(second, first, "the second reshard assembles into the first one's arenas");
    let arena = |kind: &str| vec![(HUGE_PAGE.to_string(), kind.to_string()); 2];
    assert_eq!((fresh, recycled), (arena("fresh"), arena("recycled")), "the load/read spans");
    let _ = std::fs::remove_dir_all(&dir);
}
