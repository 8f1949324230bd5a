//! The global-metadata codec (`GlobalMetadata::{to_bytes, from_bytes,
//! restamp_step}`): exact round trip, the restamp rule, density on the
//! many-tensor shape, and refusal of every damaged file.

mod common;

use bytecheckpoint::core::export::metadata_json;
use bytecheckpoint::core::metadata::{
    BasicMeta, ByteMeta, GlobalMetadata, ShardMeta, TensorShardEntry, METADATA_FILE,
};
use bytecheckpoint::core::plan::{build_tensor_map, local_save_plan, SavePlan};
use bytecheckpoint::core::planner::balance::{dedup_save_plans, DedupStrategy};
use bytecheckpoint::model::{ArchKind, TransformerConfig};
use bytecheckpoint::prelude::*;
use bytecheckpoint::tensor::layout::{even_split, Axes};
use common::{reference_state, run_ranks};
use proptest::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
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

/// The saved entries of one 0-6-D tensor (past `INLINE_AXES`, so its axes
/// spill to the heap): per axis `(dim, offset seed, length seed)` of one
/// box, then per entry dtype, `requires_grad`, contiguity, device, file and
/// byte offset. The entries share the tensor's global shape, and their
/// boxes are disjoint slabs of that box along its first axis, or replicas
/// of it where that axis is too short to cut (or there is none), as
/// `GlobalMetadata::validate` requires.
fn arb_tensor() -> impl Strategy<Value = Vec<TensorShardEntry>> {
    (
        proptest::collection::vec((1usize..40, any::<usize>(), any::<usize>()), 0..7),
        proptest::collection::vec(
            (
                0usize..DTYPES.len(),
                (any::<bool>(), any::<bool>()),
                (0usize..3, 0usize..4),
                any::<u32>(),
            ),
            0..4,
        ),
    )
        .prop_map(|(axes, entries)| {
            let global_shape: Vec<usize> = axes.iter().map(|a| a.0).collect();
            let offsets: Vec<usize> = axes.iter().map(|&(dim, o, _)| o % dim).collect();
            let lengths: Vec<usize> =
                axes.iter().zip(&offsets).map(|(&(dim, _, l), &o)| 1 + l % (dim - o)).collect();
            let n = entries.len();
            entries
                .into_iter()
                .enumerate()
                .map(|(i, (dtype, (requires_grad, contiguous), (device, file), offset))| {
                    let (mut offsets, mut lengths) = (offsets.clone(), lengths.clone());
                    if let (Some(o), Some(l)) = (offsets.first_mut(), lengths.first_mut()) {
                        if *l >= n {
                            let (slab_offset, slab_len) = even_split(*l, n, i);
                            (*o, *l) = (*o + slab_offset, slab_len);
                        }
                    }
                    let mut basic = BasicMeta::contiguous(
                        DTYPES[dtype],
                        global_shape.clone(),
                        format!("cuda:{device}"),
                    );
                    basic.requires_grad = requires_grad;
                    if !contiguous {
                        // Column-major: not what the shape derives (above rank 1).
                        basic.stride.reverse();
                    }
                    let length = (lengths.iter().product::<usize>() * basic.dtype.size()) as u64;
                    TensorShardEntry {
                        shard: ShardMeta {
                            fqn: String::new().into(),
                            offsets: offsets.into(),
                            lengths: lengths.into(),
                        },
                        basic,
                        byte: ByteMeta {
                            file: format!("model_{file}.bin").into(),
                            offset: offset as u64,
                            length,
                        },
                    }
                })
                .collect()
        })
}

fn arb_metadata() -> impl Strategy<Value = GlobalMetadata> {
    (
        any::<u64>(),
        proptest::collection::vec(arb_tensor(), 0..6),
        prop_oneof![Just(None), Just(Some("loader/replicated.bin".to_string()))],
        proptest::collection::vec((0usize..4, 0usize..3), 0..4),
        proptest::collection::vec(0usize..8, 0..3),
    )
        .prop_map(|(step, tensors, replicated, loader_shards, extra_ranks)| {
            let mut m = GlobalMetadata::new("megatron", step, "TP=2,DP=2,PP=1", 4);
            for (i, mut entries) in tensors.into_iter().enumerate() {
                let fqn = format!("layers.{i}.weight");
                entries.iter_mut().for_each(|e| e.shard.fqn = fqn.clone().into());
                m.tensor_map.insert(fqn, entries);
            }
            // Named, ascending and listed once each, as `validate` requires.
            m.state_files = replicated
                .into_iter()
                .chain(loader_shards.into_iter().map(|(dp, w)| format!("loader/dp{dp}_w{w}.bin")))
                .chain(extra_ranks.into_iter().map(|r| format!("extra_{r}.bin")))
                .collect();
            m.state_files.sort();
            m.state_files.dedup();
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

    /// Whether its values sit in place or on the heap, `Axes` compares,
    /// orders, hashes, prints and serializes as the `Vec<usize>` of them.
    #[test]
    fn the_axis_type_behaves_as_the_vec_of_its_values(
        a in proptest::collection::vec(0usize..3, 0..=8),
        b in proptest::collection::vec(0usize..3, 0..=8),
    ) {
        let hash = |v: &dyn Fn(&mut DefaultHasher)| {
            let mut h = DefaultHasher::new();
            v(&mut h);
            h.finish()
        };
        let (x, y) = (Axes::from(a.clone()), Axes::from(&b[..]));
        let mut pushed = Axes::new();
        a.iter().for_each(|&v| pushed.push(v));
        let collected: Axes = b.iter().copied().collect();
        prop_assert_eq!(&pushed, &x);
        prop_assert_eq!(&collected, &y);
        prop_assert_eq!(&x[..], &a[..]);
        prop_assert_eq!(x == y, a == b);
        prop_assert_eq!(x.cmp(&y), a.cmp(&b));
        prop_assert_eq!(x.partial_cmp(&y), a.partial_cmp(&b));
        prop_assert_eq!(hash(&|h| x.hash(h)), hash(&|h| a.hash(h)));
        prop_assert_eq!(format!("{x:?}"), format!("{a:?}"));
        prop_assert_eq!(format!("{y:#?}"), format!("{b:#?}"));
        prop_assert_eq!(serde_json::to_string(&x).unwrap(), serde_json::to_string(&a).unwrap());
        // Popping back down through the inline capacity keeps them equal.
        let (mut popped, mut shorter) = (pushed, a.clone());
        loop {
            let (p, v) = (popped.pop(), shorter.pop());
            prop_assert_eq!(p, v);
            prop_assert_eq!(&popped, &shorter);
            if v.is_none() {
                break;
            }
        }
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
                shard: ShardMeta {
                    fqn: fqn.to_string().into(),
                    offsets: vec![i, 0].into(),
                    lengths: vec![2, 3].into(),
                },
                basic: BasicMeta::contiguous(DType::BF16, vec![4, 3], "cuda:0"),
                byte: ByteMeta { file: "model_0.bin".into(), offset: 40 * i as u64, length: 12 },
            }],
        );
    }
    m.state_files = vec!["extra_1.bin".into()];
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

/// What `bcpctl inspect --json` prints for a fixed metadata, byte for byte:
/// 0- to 6-axis boxes, a stride that is not row-major, an entry that does
/// not require gradients, and the state files.
#[test]
fn the_json_view_prints_what_it_always_has() {
    let mut m = GlobalMetadata::new("megatron", 42, "TP=2,DP=1,PP=1", 2);
    let shapes: [&[usize]; 5] = [&[], &[5], &[4, 6], &[2, 3, 2, 2, 3], &[2, 1, 2, 1, 2, 3]];
    for (i, shape) in shapes.into_iter().enumerate() {
        let fqn = format!("t{}.weight", shape.len());
        let rank = i % 2;
        let offsets: Vec<usize> = shape.iter().map(|&d| d / 2).collect();
        let lengths: Vec<usize> = shape.iter().zip(&offsets).map(|(&d, &o)| d - o).collect();
        let mut basic = BasicMeta::contiguous(DType::BF16, shape.to_vec(), format!("cuda:{rank}"));
        if shape.len() == 2 {
            basic.stride = vec![1, 4].into();
            basic.requires_grad = false;
        }
        let length = (lengths.iter().product::<usize>() * 2) as u64;
        let entry = TensorShardEntry {
            shard: ShardMeta {
                fqn: fqn.as_str().into(),
                offsets: offsets.into(),
                lengths: lengths.into(),
            },
            basic,
            byte: ByteMeta {
                file: format!("model_{rank}.bin").into(),
                offset: 64 * i as u64,
                length,
            },
        };
        m.tensor_map.insert(fqn, vec![entry]);
    }
    m.state_files =
        vec!["extra_1.bin".into(), "loader/dp0_w1.bin".into(), "loader/replicated.bin".into()];
    m.validate().unwrap();
    assert_eq!(metadata_json(&m), include_str!("golden/metadata.json"));
}
