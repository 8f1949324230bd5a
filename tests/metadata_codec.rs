//! The global-metadata codec (`GlobalMetadata::{to_bytes, from_bytes,
//! restamp_step}`): exact round trip, the restamp rule, density on the
//! many-tensor shape, and refusal of every damaged file.

mod common;

use bytecheckpoint::core::metadata::{
    BasicMeta, ByteMeta, GlobalMetadata, LoaderShardFileEntry, ShardMeta, TensorShardEntry,
    METADATA_FILE,
};
use bytecheckpoint::core::plan::{build_tensor_map, local_save_plan, SavePlan};
use bytecheckpoint::core::planner::balance::{dedup_save_plans, DedupStrategy};
use bytecheckpoint::model::{ArchKind, TransformerConfig};
use bytecheckpoint::prelude::*;
use common::{reference_state, run_ranks};
use proptest::prelude::*;
use std::sync::Arc;

const DTYPES: [DType; 9] = [
    DType::F64,
    DType::F32,
    DType::F16,
    DType::BF16,
    DType::I64,
    DType::I32,
    DType::I16,
    DType::U8,
    DType::Bool,
];

/// One entry of a 0-4-D tensor: per axis `(dim, offset seed, length seed)`,
/// then dtype, `requires_grad`, contiguity, device, file and byte offset.
fn arb_entry() -> impl Strategy<Value = TensorShardEntry> {
    (
        proptest::collection::vec((1usize..40, any::<usize>(), any::<usize>()), 0..5),
        0usize..DTYPES.len(),
        (any::<bool>(), any::<bool>()),
        (0usize..3, 0usize..4),
        any::<u32>(),
    )
        .prop_map(|(axes, dtype, (requires_grad, contiguous), (device, file), offset)| {
            let global_shape: Vec<usize> = axes.iter().map(|a| a.0).collect();
            let offsets: Vec<usize> = axes.iter().map(|&(dim, o, _)| o % dim).collect();
            let lengths: Vec<usize> =
                axes.iter().zip(&offsets).map(|(&(dim, _, l), &o)| 1 + l % (dim - o)).collect();
            let mut basic =
                BasicMeta::contiguous(DTYPES[dtype], global_shape, format!("cuda:{device}"));
            basic.requires_grad = requires_grad;
            if !contiguous {
                // Column-major: not what the shape derives (above rank 1).
                basic.stride.reverse();
            }
            let length = (lengths.iter().product::<usize>() * basic.dtype.size()) as u64;
            TensorShardEntry {
                shard: ShardMeta { fqn: String::new(), offsets, lengths },
                basic,
                byte: ByteMeta { file: format!("model_{file}.bin"), offset: offset as u64, length },
            }
        })
}

fn arb_metadata() -> impl Strategy<Value = GlobalMetadata> {
    (
        any::<u64>(),
        proptest::collection::vec(proptest::collection::vec(arb_entry(), 0..4), 0..6),
        prop_oneof![Just(None), Just(Some("loader/replicated.json".to_string()))],
        proptest::collection::vec((0usize..4, 0usize..3), 0..4),
        proptest::collection::vec(0usize..8, 0..3),
    )
        .prop_map(|(step, tensors, replicated_file, loader_shards, extra_ranks)| {
            let mut m = GlobalMetadata::new("megatron", step, "TP=2,DP=2,PP=1", 4);
            for (i, mut entries) in tensors.into_iter().enumerate() {
                let fqn = format!("layers.{i}.weight");
                entries.iter_mut().for_each(|e| e.shard.fqn = fqn.clone());
                m.tensor_map.insert(fqn, entries);
            }
            m.loader_map.replicated_file = replicated_file;
            m.loader_map.shards = loader_shards
                .into_iter()
                .map(|(dp_rank, worker)| LoaderShardFileEntry {
                    dp_rank,
                    worker,
                    file: format!("loader/dp{dp_rank}_w{worker}.json"),
                })
                .collect();
            m.extra_files =
                extra_ranks.into_iter().map(|r| (r, format!("extra_{r}.bin"))).collect();
            m
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn decode_of_encode_is_the_identity(m in arb_metadata()) {
        m.validate().expect("generated metadata is well-formed");
        prop_assert_eq!(GlobalMetadata::from_bytes(&m.to_bytes()).unwrap(), m);
    }

    #[test]
    fn restamp_is_byte_for_byte_a_fresh_encode(m in arb_metadata(), step in any::<u64>()) {
        let restamped = GlobalMetadata::restamp_step(&m.to_bytes(), step);
        let mut at_step = m;
        at_step.step = step;
        prop_assert_eq!(restamped, at_step.to_bytes());
    }
}

/// Every single-bit flip and every truncation of a valid file is refused
/// with an error; none panics.
#[test]
fn any_bit_flip_and_any_truncation_is_an_error() {
    let mut m = GlobalMetadata::new("fsdp", 7, "TP=1,DP=2,PP=1", 2);
    for (i, fqn) in ["a.weight", "b.bias"].into_iter().enumerate() {
        m.tensor_map.insert(
            fqn.to_string(),
            vec![TensorShardEntry {
                shard: ShardMeta { fqn: fqn.to_string(), offsets: vec![i, 0], lengths: vec![2, 3] },
                basic: BasicMeta::contiguous(DType::BF16, vec![4, 3], "cuda:0"),
                byte: ByteMeta { file: "model_0.bin".into(), offset: 40 * i as u64, length: 12 },
            }],
        );
    }
    m.extra_files.insert(1, "extra_1.bin".into());
    let good = m.to_bytes();
    assert_eq!(GlobalMetadata::from_bytes(&good).unwrap(), m);
    for at in 0..good.len() {
        for bit in 0..8 {
            let mut bad = good.clone();
            bad[at] ^= 1 << bit;
            assert!(GlobalMetadata::from_bytes(&bad).is_err(), "flip of bit {bit} of byte {at}");
        }
        assert!(GlobalMetadata::from_bytes(&good[..at]).is_err(), "truncation to {at} bytes");
    }
}

/// A shard offset whose end overflows `u64` is a well-formed varint, so it
/// decodes; validation refuses it, and a load of such a file returns
/// `Corrupt` before any ranged read could wrap or panic.
#[test]
fn an_offset_whose_end_overflows_u64_is_refused() {
    let arch = zoo::tiny_gpt();
    let fw = Framework::Ddp;
    let par = Parallelism::data_parallel(2).unwrap();
    let mem: DynBackend = Arc::new(MemoryBackend::new());
    let registry = {
        let mut reg = BackendRegistry::new();
        reg.register(Scheme::Memory, mem.clone());
        Arc::new(reg)
    };
    run_ranks(par, fw, registry.clone(), move |rank, ckpt| {
        let state = reference_state(&arch, fw, par, rank, 1);
        ckpt.save(&SaveRequest::new("mem://x/j/step_1", &state, 1)).unwrap().wait().unwrap();
    });
    let path = format!("j/step_1/{METADATA_FILE}");
    let mut m = GlobalMetadata::from_bytes(&mem.read(&path).unwrap()).unwrap();
    let entry = &mut m.tensor_map.values_mut().next().unwrap()[0];
    entry.byte.offset = u64::MAX - entry.byte.length / 2;
    let hostile = m.to_bytes();
    assert_eq!(GlobalMetadata::from_bytes(&hostile).unwrap(), m);
    assert!(m.validate().unwrap_err().contains("overflows"));
    mem.write(&path, hostile.into()).unwrap();
    let errors = run_ranks(par, fw, registry, move |rank, ckpt| {
        let mut target = build_train_state(&zoo::tiny_gpt(), fw, par, rank, true);
        match ckpt.load(&mut LoadRequest::new("mem://x/j/step_1", &mut target)) {
            Ok(_) => panic!("rank {rank} loaded a step whose metadata overflows"),
            Err(e) => e.to_string(),
        }
    });
    for e in errors {
        assert!(e.contains("overflows"), "{e}");
    }
}

/// The `manytensor_dp2_disk` benchmark shape: what its coordinator encodes.
#[test]
fn the_manytensor_shape_encodes_to_at_most_48_bytes_per_entry() {
    let arch = TransformerConfig {
        name: "manytensor".into(),
        kind: ArchKind::Gpt,
        hidden: 32,
        heads: 8,
        layers: 64,
        vocab: 8192,
        ffn_mult: 4,
        dtype: DType::BF16,
        num_experts: 0,
    };
    let fw = Framework::Megatron { distributed_optimizer: true };
    let par = Parallelism::new(1, 2, 1).unwrap();
    let mut plans: Vec<SavePlan> = (0..2)
        .map(|rank| {
            let state = build_train_state(&arch, fw, par, rank, false);
            local_save_plan(rank, &state, &format!("cuda:{rank}"))
        })
        .collect();
    dedup_save_plans(&mut plans, DedupStrategy::WorstFit);
    let mut m = GlobalMetadata::new("megatron", 1, &par.describe(), 2);
    m.tensor_map = build_tensor_map(&plans);
    let entries: usize = m.tensor_map.values().map(Vec::len).sum();
    let bytes = m.to_bytes().len();
    assert!(entries > 5_000, "the shape is many-tensor: {entries} entries");
    assert!(bytes <= 48 * entries, "{bytes} bytes for {entries} entries");
    assert_eq!(GlobalMetadata::from_bytes(&m.to_bytes()).unwrap(), m);
}

/// Through the public API: within one plan signature the step and the
/// trailer are the only bytes of the file that change, and the warm saves
/// took the cache-hit path that re-stamps instead of encoding.
#[test]
fn warm_steps_differ_only_in_the_step_and_the_trailer() {
    let arch = zoo::tiny_gpt();
    let fw = Framework::Ddp;
    let par = Parallelism::data_parallel(2).unwrap();
    let mem: DynBackend = Arc::new(MemoryBackend::new());
    let registry = {
        let mut reg = BackendRegistry::new();
        reg.register(Scheme::Memory, mem.clone());
        Arc::new(reg)
    };
    let stats = run_ranks(par, fw, registry, move |rank, ckpt| {
        let state = reference_state(&arch, fw, par, rank, 1);
        for step in 1..=3u64 {
            let at = format!("mem://x/j/step_{step}");
            ckpt.save(&SaveRequest::new(at.as_str(), &state, step)).unwrap().wait().unwrap();
        }
        ckpt.plan_cache_stats()
    });
    assert_eq!(stats, vec![(2, 1); 2], "(hits, misses) per rank");
    let files: Vec<_> =
        (1..=3).map(|s| mem.read(&format!("j/step_{s}/{METADATA_FILE}")).unwrap()).collect();
    for (i, pair) in files.windows(2).enumerate() {
        let (a, b) = (&pair[0], &pair[1]);
        assert_eq!(a.len(), b.len());
        let n = a.len();
        let differing: Vec<usize> = (0..n).filter(|&at| a[at] != b[at]).collect();
        assert!(differing.contains(&8), "steps {} and {} carry different steps", i + 1, i + 2);
        assert!(
            differing.iter().all(|&at| (8..16).contains(&at) || at >= n - 4),
            "bytes {differing:?} differ"
        );
        assert_eq!(GlobalMetadata::from_bytes(b).unwrap().step, i as u64 + 2);
    }
}
