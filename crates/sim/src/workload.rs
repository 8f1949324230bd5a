//! Per-rank workload profiles at paper scale.
//!
//! The simulator must know, for every rank, how many bytes and plan items
//! each checkpoint phase touches. Those come from the *real* state builders
//! and planner: we build meta-tensor state dicts for one representative rank
//! per (tp, pp) coordinate (DP replicas are identical up to ±1 element of
//! the even split) and run `bcp-core`'s actual `local_save_plan` on them.

use bcp_core::plan::{local_save_plan, Category};
use bcp_model::states::{build_train_state, Framework};
use bcp_model::TransformerConfig;
use bcp_topology::{Parallelism, RankCoord};
use std::collections::HashMap;

/// Profile of one (tp, pp) group, shared by its DP replicas.
#[derive(Debug, Clone, Default)]
pub struct GroupProfile {
    /// Model-state bytes held by one rank of this group.
    pub model_bytes: u64,
    /// Optimizer-state bytes held by one rank (already DP-sharded under
    /// ZeRO / distributed optimizer).
    pub optim_bytes: u64,
    /// Plan items (ShardMeta entries) for the model dict.
    pub model_items: u64,
    /// Plan items for the optimizer dict.
    pub optim_items: u64,
    /// Decomposed pieces in excess of one per tensor — the irregular-shard
    /// metadata overhead the paper accepts in exchange for zero
    /// communication.
    pub extra_pieces: u64,
    /// Distinct flat-sharded (irregular-capable) tensors held by one rank —
    /// the tensors DCP's regularization pass must all-gather.
    pub flat_tensors: u64,
}

/// The full workload profile of a (model, framework, parallelism) triple.
#[derive(Debug, Clone)]
pub struct WorkloadProfile {
    /// Parallelism this profile was computed for.
    pub par: Parallelism,
    /// Per-(tp, pp) group profiles, indexed `pp * tp_degree + tp`.
    pub groups: Vec<GroupProfile>,
}

impl WorkloadProfile {
    /// Compute from real meta state dicts (one representative rank per
    /// (tp, pp) coordinate).
    pub fn compute(arch: &TransformerConfig, fw: Framework, par: Parallelism) -> WorkloadProfile {
        let mut groups = Vec::with_capacity(par.tp * par.pp);
        for pp in 0..par.pp {
            for tp in 0..par.tp {
                let rank = par.rank_of(RankCoord { tp, dp: 0, pp }).expect("in world");
                let state = build_train_state(arch, fw, par, rank, false);
                let plan = local_save_plan(rank, &state, "meta");
                let mut g = GroupProfile::default();
                for dict in [&state.model, &state.optimizer] {
                    g.flat_tensors += dict
                        .entries
                        .values()
                        .filter(|e| {
                            matches!(
                                e.spec,
                                bcp_topology::ShardSpec::Flat { .. }
                                    | bcp_topology::ShardSpec::FlatOfBox { .. }
                            )
                        })
                        .count() as u64;
                }
                let mut per_fqn: HashMap<&str, u64> = HashMap::new();
                for item in &plan.items {
                    match item.category {
                        Category::Model => {
                            g.model_bytes += item.nbytes;
                            g.model_items += 1;
                        }
                        Category::Optimizer => {
                            g.optim_bytes += item.nbytes;
                            g.optim_items += 1;
                        }
                    }
                    *per_fqn.entry(&*item.shard.fqn).or_default() += 1;
                }
                g.extra_pieces = per_fqn.values().map(|&c| c.saturating_sub(1)).sum::<u64>();
                groups.push(g);
            }
        }
        WorkloadProfile { par, groups }
    }

    /// World size.
    pub fn world(&self) -> usize {
        self.par.world_size()
    }

    /// Total unique model bytes in one checkpoint (model replicas across DP
    /// deduplicate; TP/PP groups hold disjoint shards up to the negligible
    /// TP-replicated LayerNorms).
    pub fn total_model_bytes(&self) -> u64 {
        self.groups.iter().map(|g| g.model_bytes).sum()
    }

    /// Total optimizer bytes in one checkpoint.
    pub fn total_optim_bytes(&self) -> u64 {
        self.groups.iter().map(|g| g.optim_bytes).sum::<u64>() * self.par.dp as u64
    }

    /// Total plan items across all ranks (what the first planning round
    /// gathers at the coordinator).
    pub fn total_items(&self) -> u64 {
        self.groups.iter().map(|g| g.model_items + g.optim_items).sum::<u64>() * self.par.dp as u64
    }

    /// Bytes one rank holds locally (capture / D2H volume). All DP replicas
    /// of a group are equal; returns the per-group value replicated over DP.
    pub fn per_rank_state_bytes(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.world());
        for pp in 0..self.par.pp {
            for dp in 0..self.par.dp {
                let _ = dp;
                for tp in 0..self.par.tp {
                    let g = &self.groups[pp * self.par.tp + tp];
                    out.push(g.model_bytes + g.optim_bytes);
                }
            }
        }
        out
    }

    /// Per-rank *upload* demands in bytes after deduplication.
    ///
    /// `balanced = true` models Worst-Fit (each group's model bytes spread
    /// evenly over its DP replicas); `false` models the first-DP-group
    /// baseline (dp index 0 carries all model bytes of its group).
    pub fn save_demands(&self, balanced: bool) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.world());
        for pp in 0..self.par.pp {
            for dp in 0..self.par.dp {
                for tp in 0..self.par.tp {
                    let g = &self.groups[pp * self.par.tp + tp];
                    let model_share = if balanced {
                        g.model_bytes as f64 / self.par.dp as f64
                    } else if dp == 0 {
                        g.model_bytes as f64
                    } else {
                        0.0
                    };
                    out.push(model_share + g.optim_bytes as f64);
                }
            }
        }
        out
    }

    /// Per-rank *download* demands in bytes for a standard load.
    ///
    /// `dedup_reads = true` models §4.1 redundant-read elimination: model
    /// bytes are read once per DP group and forwarded; `false` models every
    /// replica reading everything it needs.
    pub fn load_demands(&self, dedup_reads: bool) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.world());
        for pp in 0..self.par.pp {
            for dp in 0..self.par.dp {
                let _ = dp;
                for tp in 0..self.par.tp {
                    let g = &self.groups[pp * self.par.tp + tp];
                    let model_share = if dedup_reads {
                        g.model_bytes as f64 / self.par.dp as f64
                    } else {
                        g.model_bytes as f64
                    };
                    out.push(model_share + g.optim_bytes as f64);
                }
            }
        }
        out
    }

    /// Bytes each rank must *receive* over the interconnect when reads are
    /// deduplicated (the forwarded share of model state).
    pub fn forwarded_bytes_per_rank(&self) -> f64 {
        if self.par.dp <= 1 {
            return 0.0;
        }
        let per_group_model: f64 = self.total_model_bytes() as f64 / self.groups.len() as f64;
        per_group_model * (self.par.dp as f64 - 1.0) / self.par.dp as f64
    }

    /// Optimizer-state bytes one rank holds — the irregular (flat-sharded)
    /// portion that DCP's all-gather pass must regularize.
    pub fn optim_bytes_per_rank(&self) -> u64 {
        self.groups.iter().map(|g| g.optim_bytes).max().unwrap_or(0)
    }

    /// Optimizer plan items per rank — what the decomposition pass touches.
    pub fn optim_items_per_rank(&self) -> u64 {
        self.groups.iter().map(|g| g.optim_items).max().unwrap_or(0)
    }

    /// Flat-sharded tensors per rank (see [`GroupProfile::flat_tensors`]).
    pub fn flat_tensors_per_rank(&self) -> u64 {
        self.groups.iter().map(|g| g.flat_tensors).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcp_model::zoo;

    #[test]
    fn tgpt70b_profile_matches_hand_math() {
        // TP=4, DP=75, PP=8 (Table 3 source config at 2400 GPUs).
        let arch = zoo::tgpt_70b();
        let par = Parallelism::new(4, 75, 8).unwrap();
        let fw = Framework::Megatron { distributed_optimizer: true };
        let p = WorkloadProfile::compute(&arch, fw, par);
        // Unique model bytes = params * 2 (bf16), within 2%.
        let expect = arch.num_params() * 2;
        let got = p.total_model_bytes();
        let ratio = got as f64 / expect as f64;
        assert!((0.98..1.02).contains(&ratio), "model bytes ratio {ratio}");
        // Optimizer = params * 3 states * 4 bytes.
        let expect_opt = arch.num_params() * 12;
        let ratio = p.total_optim_bytes() as f64 / expect_opt as f64;
        assert!((0.98..1.05).contains(&ratio), "optim bytes ratio {ratio}");
        // Per-rank capture volume ~ (2 + 12/75)/32 of total = ~4.6 GB.
        let per = p.per_rank_state_bytes();
        assert_eq!(per.len(), 2400);
        let gb = per[0] as f64 / 1e9;
        assert!((3.0..7.0).contains(&gb), "per-rank {gb} GB");
    }

    #[test]
    fn balanced_demands_are_flatter_than_first_replica() {
        let arch = zoo::tgpt_13b();
        let par = Parallelism::new(2, 8, 2).unwrap();
        let fw = Framework::Megatron { distributed_optimizer: true };
        let p = WorkloadProfile::compute(&arch, fw, par);
        let bal = p.save_demands(true);
        let first = p.save_demands(false);
        let max_bal = bal.iter().cloned().fold(0.0, f64::max);
        let max_first = first.iter().cloned().fold(0.0, f64::max);
        // The optimizer share is identical (already DP-sharded); the model
        // share is 8x heavier on the first replica, so the straggler is
        // close to 2x worse overall here.
        assert!(max_first > max_bal * 1.8, "first {max_first}, balanced {max_bal}");
        // Totals identical: dedup never changes what is stored.
        let sum = |v: &[f64]| v.iter().sum::<f64>();
        assert!((sum(&bal) - sum(&first)).abs() < 1.0);
    }

    #[test]
    fn fsdp_profiles_have_irregular_pieces() {
        let arch = zoo::vdit_4b();
        let par = Parallelism::data_parallel(32).unwrap();
        let p = WorkloadProfile::compute(&arch, Framework::Fsdp { zero3: false }, par);
        assert!(
            p.groups.iter().any(|g| g.extra_pieces > 0),
            "ZeRO-2 must produce decomposed pieces"
        );
        // ZeRO-2: model replicated -> every rank holds the full 4B * 2 B.
        let per = p.per_rank_state_bytes();
        assert!(per[0] as f64 > 8e9, "per-rank {} bytes", per[0]);
    }

    #[test]
    fn total_items_scale_with_world() {
        let arch = zoo::text_405b();
        let par = Parallelism::new(8, 70, 16).unwrap();
        let fw = Framework::Megatron { distributed_optimizer: true };
        let p = WorkloadProfile::compute(&arch, fw, par);
        let items = p.total_items();
        // Millions of plan items at 8960 ranks (the 62 s planning anchor).
        assert!(items > 2_000_000, "items {items}");
        assert!(items < 50_000_000, "items {items}");
    }
}
