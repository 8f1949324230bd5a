//! Per-rank sharded training state, per framework.
//!
//! Given (architecture, framework, parallelism, rank), build the state dict
//! the training worker would hand to `bytecheckpoint.save`: every tensor it
//! holds, each annotated with its global shape and [`ShardSpec`]. This is
//! the Rust equivalent of extracting "Megatron ShardedTensor or FSDP
//! DTensor" sharding specifications.

use crate::arch::{TpRole, TransformerConfig};
use bcp_tensor::fill::{encode_values, fqn_seed, value_at};
use bcp_tensor::{DType, Tensor};
use bcp_topology::{Parallelism, ShardSpec};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The training frameworks the paper supports (Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Framework {
    /// Megatron-LM 3D parallelism. `distributed_optimizer` enables the
    /// ZeRO-1/2-style flattened-and-DP-sharded optimizer state that produces
    /// irregular tensors.
    Megatron {
        /// Use the distributed optimizer (flatten TP shard, split over DP).
        distributed_optimizer: bool,
    },
    /// PyTorch FSDP. `zero3` shards parameters too; otherwise ZeRO-2
    /// (parameters replicated, optimizer flat-sharded). Both flat-shard the
    /// *concatenation* of all tensors, so per-tensor ranges are irregular.
    Fsdp {
        /// ZeRO-3 (parameter sharding) vs ZeRO-2.
        zero3: bool,
    },
    /// PyTorch DDP: everything replicated.
    Ddp,
    /// veScale DTensor on a (dp, tp) mesh: grid sharding for model and
    /// optimizer states.
    VeScale,
}

impl Framework {
    /// Short name used in metadata and file paths.
    pub fn name(&self) -> &'static str {
        match self {
            Framework::Megatron { .. } => "megatron",
            Framework::Fsdp { .. } => "fsdp",
            Framework::Ddp => "ddp",
            Framework::VeScale => "vescale",
        }
    }
}

/// One tensor in a rank's state dict.
#[derive(Debug, Clone)]
pub struct StateEntry {
    /// Fully qualified name of the *logical* tensor.
    pub fqn: String,
    /// Global (unsharded) shape.
    pub global_shape: Vec<usize>,
    /// Storage dtype.
    pub dtype: DType,
    /// How this rank's local shard maps into the global tensor.
    pub spec: ShardSpec,
    /// The local shard (materialized or meta). For grid specs its shape is
    /// the box lengths; for flat specs it is 1-D.
    pub tensor: Tensor,
}

/// An ordered name → entry map (order matters for flat-parameter layouts).
#[derive(Debug, Clone, Default)]
pub struct StateDict {
    /// Entries keyed by FQN.
    pub entries: BTreeMap<String, StateEntry>,
}

impl StateDict {
    /// Number of tensors held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the dict is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total local bytes held by this rank.
    pub fn local_bytes(&self) -> u64 {
        self.entries.values().map(|e| e.tensor.nbytes() as u64).sum()
    }

    /// Insert an entry keyed by its FQN.
    pub fn insert(&mut self, entry: StateEntry) {
        self.entries.insert(entry.fqn.clone(), entry);
    }

    /// Look up by FQN.
    pub fn get(&self, fqn: &str) -> Option<&StateEntry> {
        self.entries.get(fqn)
    }
}

/// A rank's full GPU-side training state.
#[derive(Debug, Clone, Default)]
pub struct TrainState {
    /// Model weights.
    pub model: StateDict,
    /// Optimizer state (fp32 master weights and Adam moments).
    pub optimizer: StateDict,
}

/// The three optimizer state kinds kept per parameter (Adam + master copy).
pub const OPTIM_KINDS: [&str; 3] = ["master", "exp_avg", "exp_avg_sq"];

/// FQN of an optimizer state tensor for a parameter.
pub fn optim_fqn(kind: &str, param_fqn: &str) -> String {
    format!("optim.{kind}.{param_fqn}")
}

/// Initial value of element `g` of tensor `fqn` (step 0): master weights
/// mirror the parameter init; Adam moments start at zero, exactly like a
/// fresh `torch.optim.Adam`.
pub fn initial_value(fqn: &str, g: u64) -> f32 {
    if fqn.starts_with("optim.exp_avg") {
        0.0
    } else if let Some(rest) = fqn.strip_prefix("optim.master.") {
        value_at(fqn_seed(rest), g)
    } else {
        value_at(fqn_seed(fqn), g)
    }
}

/// Materialize the local shard for `spec` of the logical tensor `fqn` at
/// step 0. Values are addressed by *global* element index, so any two ranks
/// (under any parallelism) agree bitwise on shared elements.
pub fn materialize_shard(
    fqn: &str,
    dtype: DType,
    global_shape: &[usize],
    spec: &ShardSpec,
) -> Tensor {
    let n = spec.local_numel(global_shape).expect("spec valid for shape");
    let mut values = vec![0f32; n];
    spec.for_each_global_index(global_shape, |l, g| {
        values[l] = initial_value(fqn, g as u64);
    })
    .expect("spec valid for shape");
    let shape = local_shape(global_shape, spec);
    encode_values(dtype, shape, &values)
}

/// Local shard shape for a spec: box lengths for grid specs, 1-D for flat.
pub fn local_shape(global_shape: &[usize], spec: &ShardSpec) -> Vec<usize> {
    match spec {
        ShardSpec::Flat { length, .. } | ShardSpec::FlatOfBox { length, .. } => vec![*length],
        _ => spec.grid_box(global_shape).expect("spec valid for shape").1.to_vec(),
    }
}

fn make_entry(
    fqn: String,
    dtype: DType,
    global_shape: Vec<usize>,
    spec: ShardSpec,
    materialize: bool,
) -> StateEntry {
    let tensor = if materialize {
        materialize_shard(&fqn, dtype, &global_shape, &spec)
    } else {
        Tensor::meta(dtype, local_shape(&global_shape, &spec))
    };
    StateEntry { fqn, global_shape, dtype, spec, tensor }
}

/// TP grid spec for a parameter role, or `Replicated`.
fn tp_spec(role: TpRole, tp: usize, tp_idx: usize) -> ShardSpec {
    if tp == 1 {
        return ShardSpec::Replicated;
    }
    match role {
        TpRole::Column | TpRole::Vocab => ShardSpec::dim(0, tp, tp_idx),
        // Expert parallelism maps onto the model-parallel axis in this
        // substrate: experts (dim 0) split across the group.
        TpRole::Expert => ShardSpec::dim(0, tp, tp_idx),
        TpRole::Row => ShardSpec::dim(1, tp, tp_idx),
        TpRole::Replicated => ShardSpec::Replicated,
    }
}

/// Build the state dict a rank would hold for (arch, framework, parallelism).
///
/// `materialize = false` produces meta tensors (paper-scale planning);
/// `true` produces real deterministic data (tests, examples).
pub fn build_train_state(
    arch: &TransformerConfig,
    fw: Framework,
    par: Parallelism,
    rank: usize,
    materialize: bool,
) -> TrainState {
    match fw {
        Framework::Megatron { distributed_optimizer } => {
            build_megatron(arch, par, rank, distributed_optimizer, materialize)
        }
        Framework::Fsdp { zero3 } => build_fsdp(arch, par, rank, zero3, materialize),
        Framework::Ddp => build_ddp(arch, materialize),
        Framework::VeScale => build_vescale(arch, par, rank, materialize),
    }
}

fn build_megatron(
    arch: &TransformerConfig,
    par: Parallelism,
    rank: usize,
    distributed_optimizer: bool,
    materialize: bool,
) -> TrainState {
    let c = par.coords(rank).expect("rank in world");
    let mut model = StateDict::default();
    let mut optimizer = StateDict::default();
    for p in arch.params() {
        if arch.stage_of(&p, par.pp) != c.pp {
            continue;
        }
        let spec = tp_spec(p.tp, par.tp, c.tp);
        model.insert(make_entry(
            p.fqn.clone(),
            p.dtype,
            p.shape.clone(),
            spec.clone(),
            materialize,
        ));
        // Optimizer states: fp32, sharded like the param across TP, and —
        // with the distributed optimizer — the TP shard is flattened and
        // split across the DP group (irregular tensors, paper Fig. 7).
        let (box_off, box_len) = spec.grid_box(&p.shape).expect("grid spec");
        for kind in OPTIM_KINDS {
            let ofqn = optim_fqn(kind, &p.fqn);
            let ospec = if distributed_optimizer && par.dp > 1 {
                let box_numel: usize = box_len.iter().product();
                let (off, len) = bcp_tensor::layout::even_split(box_numel, par.dp, c.dp);
                ShardSpec::FlatOfBox {
                    box_offsets: box_off.to_vec(),
                    box_lengths: box_len.to_vec(),
                    offset: off,
                    length: len,
                }
            } else {
                spec.clone()
            };
            optimizer.insert(make_entry(ofqn, DType::F32, p.shape.clone(), ospec, materialize));
        }
    }
    TrainState { model, optimizer }
}

fn build_fsdp(
    arch: &TransformerConfig,
    par: Parallelism,
    rank: usize,
    zero3: bool,
    materialize: bool,
) -> TrainState {
    assert_eq!(par.tp, 1, "FSDP uses pure data parallelism");
    assert_eq!(par.pp, 1, "FSDP uses pure data parallelism");
    let dp = par.dp;
    let c = par.coords(rank).expect("rank in world");
    let params = arch.params();
    // The flat parameter: all tensors concatenated in definition order, then
    // even-split across DP ranks. Each tensor intersecting this rank's range
    // yields a per-tensor Flat spec — generally irregular.
    let total: usize = params.iter().map(|p| p.numel()).sum();
    let (my_start, my_len) = bcp_tensor::layout::even_split(total, dp, c.dp);
    let my_end = my_start + my_len;

    let mut model = StateDict::default();
    let mut optimizer = StateDict::default();
    let mut cursor = 0usize;
    for p in &params {
        let t_start = cursor;
        let t_end = cursor + p.numel();
        cursor = t_end;
        // Model weights.
        if zero3 {
            let lo = my_start.max(t_start);
            let hi = my_end.min(t_end);
            if lo < hi {
                let spec = ShardSpec::Flat { offset: lo - t_start, length: hi - lo };
                model.insert(make_entry(
                    p.fqn.clone(),
                    p.dtype,
                    p.shape.clone(),
                    spec,
                    materialize,
                ));
            }
        } else {
            // ZeRO-2: every rank keeps the full parameters.
            model.insert(make_entry(
                p.fqn.clone(),
                p.dtype,
                p.shape.clone(),
                ShardSpec::Replicated,
                materialize,
            ));
        }
        // Optimizer states are always flat-sharded (both ZeRO-2 and ZeRO-3).
        let lo = my_start.max(t_start);
        let hi = my_end.min(t_end);
        if lo < hi {
            let spec = ShardSpec::Flat { offset: lo - t_start, length: hi - lo };
            for kind in OPTIM_KINDS {
                optimizer.insert(make_entry(
                    optim_fqn(kind, &p.fqn),
                    DType::F32,
                    p.shape.clone(),
                    spec.clone(),
                    materialize,
                ));
            }
        }
    }
    TrainState { model, optimizer }
}

fn build_ddp(arch: &TransformerConfig, materialize: bool) -> TrainState {
    let mut model = StateDict::default();
    let mut optimizer = StateDict::default();
    for p in arch.params() {
        model.insert(make_entry(
            p.fqn.clone(),
            p.dtype,
            p.shape.clone(),
            ShardSpec::Replicated,
            materialize,
        ));
        for kind in OPTIM_KINDS {
            optimizer.insert(make_entry(
                optim_fqn(kind, &p.fqn),
                DType::F32,
                p.shape.clone(),
                ShardSpec::Replicated,
                materialize,
            ));
        }
    }
    TrainState { model, optimizer }
}

fn build_vescale(
    arch: &TransformerConfig,
    par: Parallelism,
    rank: usize,
    materialize: bool,
) -> TrainState {
    // veScale: DTensor placements on a (dp, tp) mesh; PP unused here.
    assert_eq!(par.pp, 1, "veScale substrate models a (dp, tp) mesh");
    let c = par.coords(rank).expect("rank in world");
    let mut model = StateDict::default();
    let mut optimizer = StateDict::default();
    for p in arch.params() {
        let spec = tp_spec(p.tp, par.tp, c.tp);
        model.insert(make_entry(
            p.fqn.clone(),
            p.dtype,
            p.shape.clone(),
            spec.clone(),
            materialize,
        ));
        for kind in OPTIM_KINDS {
            optimizer.insert(make_entry(
                optim_fqn(kind, &p.fqn),
                DType::F32,
                p.shape.clone(),
                spec.clone(),
                materialize,
            ));
        }
    }
    TrainState { model, optimizer }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;

    #[test]
    fn megatron_tp_shards_partition_each_tensor() {
        let arch = zoo::tiny_gpt();
        let par = Parallelism::new(2, 1, 1).unwrap();
        let s0 = build_train_state(
            &arch,
            Framework::Megatron { distributed_optimizer: false },
            par,
            0,
            true,
        );
        let s1 = build_train_state(
            &arch,
            Framework::Megatron { distributed_optimizer: false },
            par,
            1,
            true,
        );
        let qkv0 = s0.model.get("layers.0.attn.qkv.weight").unwrap();
        let qkv1 = s1.model.get("layers.0.attn.qkv.weight").unwrap();
        let h = arch.hidden;
        assert_eq!(qkv0.tensor.shape(), &[3 * h / 2, h]);
        let (o0, _) = qkv0.spec.grid_box(&qkv0.global_shape).unwrap();
        let (o1, _) = qkv1.spec.grid_box(&qkv1.global_shape).unwrap();
        assert_eq!(o0, vec![0, 0]);
        assert_eq!(o1, vec![3 * h / 2, 0]);
        // LayerNorm replicated: identical bytes on both ranks.
        let ln0 = s0.model.get("layers.0.ln1.weight").unwrap();
        let ln1 = s1.model.get("layers.0.ln1.weight").unwrap();
        assert!(ln0.tensor.bitwise_eq(&ln1.tensor));
    }

    #[test]
    fn megatron_pp_stages_partition_layers() {
        let arch = zoo::tiny_gpt(); // 4 layers
        let par = Parallelism::new(1, 1, 2).unwrap();
        let fw = Framework::Megatron { distributed_optimizer: false };
        let s0 = build_train_state(&arch, fw, par, 0, false);
        let s1 = build_train_state(&arch, fw, par, 1, false);
        assert!(s0.model.get("layers.0.ln1.weight").is_some());
        assert!(s0.model.get("layers.3.ln1.weight").is_none());
        assert!(s1.model.get("layers.3.ln1.weight").is_some());
        assert!(s1.model.get("layers.0.ln1.weight").is_none());
        // Embedding on first stage, head on last.
        assert!(s0.model.get("embedding.word.weight").is_some());
        assert!(s1.model.get("lm_head.weight").is_some());
        assert!(s1.model.get("embedding.word.weight").is_none());
    }

    #[test]
    fn megatron_distributed_optimizer_produces_irregular_flatofbox() {
        let arch = zoo::tiny_gpt();
        let par = Parallelism::new(2, 2, 1).unwrap();
        let fw = Framework::Megatron { distributed_optimizer: true };
        let s = build_train_state(&arch, fw, par, 0, true);
        let e = s.optimizer.get(&optim_fqn("master", "layers.0.attn.qkv.weight")).unwrap();
        match &e.spec {
            ShardSpec::FlatOfBox { box_lengths, length, .. } => {
                let h = arch.hidden;
                assert_eq!(box_lengths, &vec![3 * h / 2, h]);
                assert_eq!(*length, (3 * h / 2) * h / 2);
            }
            other => panic!("expected FlatOfBox, got {other:?}"),
        }
        // The two DP shards of the flattened box cover it exactly.
        let s_dp1 = build_train_state(&arch, fw, par, 2, true); // dp=1, tp=0
        let e1 = s_dp1.optimizer.get(&optim_fqn("master", "layers.0.attn.qkv.weight")).unwrap();
        let (n0, n1) = (e.tensor.numel(), e1.tensor.numel());
        assert_eq!(n0 + n1, (3 * arch.hidden / 2) * arch.hidden);
    }

    #[test]
    fn fsdp_zero3_flat_shards_cover_everything_once() {
        let arch = zoo::tiny_gpt();
        let dp = 4;
        let par = Parallelism::data_parallel(dp).unwrap();
        let fw = Framework::Fsdp { zero3: true };
        // Collect, per fqn, all (offset, len) ranges across ranks.
        let mut coverage: BTreeMap<String, Vec<(usize, usize)>> = BTreeMap::new();
        let mut totals: BTreeMap<String, usize> = BTreeMap::new();
        for r in 0..dp {
            let s = build_train_state(&arch, fw, par, r, false);
            for e in s.model.entries.values() {
                let (off, len) = e.spec.flat_range().unwrap();
                coverage.entry(e.fqn.clone()).or_default().push((off, len));
                totals.insert(e.fqn.clone(), e.global_shape.iter().product());
            }
        }
        // Every tensor fully covered, no overlaps.
        for (fqn, mut ranges) in coverage {
            ranges.sort();
            let mut cursor = 0;
            for (off, len) in ranges {
                assert_eq!(off, cursor, "{fqn}: gap or overlap at {off}");
                cursor = off + len;
            }
            assert_eq!(cursor, totals[&fqn], "{fqn}: not fully covered");
        }
    }

    #[test]
    fn fsdp_produces_irregular_shards() {
        let arch = zoo::tiny_gpt();
        let par = Parallelism::data_parallel(3).unwrap();
        let fw = Framework::Fsdp { zero3: true };
        let mut any_irregular = false;
        for r in 0..3 {
            let s = build_train_state(&arch, fw, par, r, false);
            for e in s.model.entries.values() {
                if e.spec.is_irregular(&e.global_shape) {
                    any_irregular = true;
                }
            }
        }
        assert!(any_irregular, "flat-parameter sharding must cut across row boundaries");
    }

    #[test]
    fn fsdp_zero2_replicates_params_but_shards_optimizer() {
        let arch = zoo::tiny_dit();
        let par = Parallelism::data_parallel(2).unwrap();
        let s = build_train_state(&arch, Framework::Fsdp { zero3: false }, par, 1, false);
        for e in s.model.entries.values() {
            assert_eq!(e.spec, ShardSpec::Replicated);
        }
        assert!(s.optimizer.entries.values().all(|e| matches!(e.spec, ShardSpec::Flat { .. })));
    }

    #[test]
    fn shared_elements_agree_bitwise_across_parallelisms() {
        // The core substitution property: the same logical tensor
        // materialized under different shardings agrees on every element.
        let arch = zoo::tiny_gpt();
        let full = build_train_state(
            &arch,
            Framework::Ddp,
            Parallelism::data_parallel(1).unwrap(),
            0,
            true,
        );
        let fw = Framework::Megatron { distributed_optimizer: false };
        let par = Parallelism::new(2, 1, 2).unwrap();
        for r in 0..par.world_size() {
            let s = build_train_state(&arch, fw, par, r, true);
            for e in s.model.entries.values() {
                let reference = full.model.get(&e.fqn).unwrap();
                let (off, len) = e.spec.grid_box(&e.global_shape).unwrap();
                let want = reference.tensor.extract_box(&off, &len).unwrap();
                assert!(
                    e.tensor.bitwise_eq(&want),
                    "rank {r} tensor {} shard differs from reference",
                    e.fqn
                );
            }
        }
    }

    #[test]
    fn meta_state_has_no_data_but_right_sizes() {
        let arch = zoo::tgpt_13b();
        let par = Parallelism::new(2, 8, 2).unwrap();
        let fw = Framework::Megatron { distributed_optimizer: true };
        let s = build_train_state(&arch, fw, par, 0, false);
        assert!(s.model.entries.values().all(|e| e.tensor.is_meta()));
        // Model bytes on one rank ≈ params / (tp * pp) * dtype size; allow
        // slack for replicated tensors.
        let expected = arch.weight_bytes() / (par.tp as u64 * par.pp as u64);
        let got = s.model.local_bytes();
        assert!(
            got > expected / 2 && got < expected * 2,
            "rank model bytes {got} vs expected ~{expected}"
        );
    }

    #[test]
    fn optimizer_moments_start_at_zero_and_master_mirrors_param() {
        let arch = zoo::tiny_gpt();
        let s = build_train_state(
            &arch,
            Framework::Ddp,
            Parallelism::data_parallel(1).unwrap(),
            0,
            true,
        );
        let p = s.model.get("final_ln.weight").unwrap();
        let m = s.optimizer.get(&optim_fqn("master", "final_ln.weight")).unwrap();
        let ea = s.optimizer.get(&optim_fqn("exp_avg", "final_ln.weight")).unwrap();
        assert_eq!(p.tensor.to_f32_vec().unwrap(), m.tensor.to_f32_vec().unwrap());
        assert!(ea.tensor.to_f32_vec().unwrap().iter().all(|&v| v == 0.0));
    }
}
