//! Optimized plan generation (§4.1): workload-balanced save deduplication
//! and redundant-read elimination.

use crate::plan::{LoadPlan, ReadItem, SavePlan};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// How duplicated (replicated) shards are assigned to a saving rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DedupStrategy {
    /// ByteCheckpoint: Worst-Fit — each shard goes to the candidate rank
    /// with the smallest cumulative assigned bytes ("assigning the current
    /// tensor shard to the rank with the smallest cumulative tensor shard
    /// size").
    WorstFit,
    /// DCP/MCP baseline: "designating the first DP group to save all model
    /// states" — always the lowest-ranked candidate, creating stragglers.
    FirstReplica,
}

/// Outcome summary of save-plan deduplication.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DedupReport {
    /// Duplicate items dropped.
    pub duplicates_removed: usize,
    /// Final assigned bytes per rank (index = position in `plans`).
    pub bytes_per_rank: Vec<u64>,
}

impl DedupReport {
    /// Max-over-mean load imbalance (1.0 = perfectly balanced).
    pub fn imbalance(&self) -> f64 {
        let max = self.bytes_per_rank.iter().copied().max().unwrap_or(0) as f64;
        let nonzero = self.bytes_per_rank.iter().filter(|&&b| b > 0).count().max(1);
        let mean = self.bytes_per_rank.iter().sum::<u64>() as f64 / nonzero as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }
}

/// Deduplicate replicated shards across ranks' save plans, in place.
///
/// Two items are replicas when they name the same (category, fqn, box).
/// Exactly one candidate keeps each shard; the rest drop it. Groups are
/// processed largest-first so Worst-Fit packs well.
pub fn dedup_save_plans(plans: &mut [SavePlan], strategy: DedupStrategy) -> DedupReport {
    // key -> (nbytes, candidate plan indices)
    type Key = (crate::plan::Category, String, Vec<usize>, Vec<usize>);
    let mut groups: BTreeMap<Key, (u64, Vec<usize>)> = BTreeMap::new();
    for (pi, plan) in plans.iter().enumerate() {
        for item in &plan.items {
            let key = (
                item.category,
                item.shard.fqn.clone(),
                item.shard.offsets.clone(),
                item.shard.lengths.clone(),
            );
            let entry = groups.entry(key).or_insert((item.nbytes, Vec::new()));
            entry.1.push(pi);
        }
    }
    let mut ordered: Vec<(Key, (u64, Vec<usize>))> = groups.into_iter().collect();
    // Largest shards first (classic Worst-Fit-Decreasing), name as tiebreak.
    ordered.sort_by(|a, b| b.1 .0.cmp(&a.1 .0).then_with(|| a.0.cmp(&b.0)));

    let mut load = vec![0u64; plans.len()];
    let mut owners: BTreeMap<Key, usize> = BTreeMap::new();
    let mut duplicates_removed = 0usize;
    for (key, (nbytes, mut candidates)) in ordered {
        candidates.sort_unstable();
        candidates.dedup();
        let owner = match strategy {
            DedupStrategy::FirstReplica => candidates[0],
            DedupStrategy::WorstFit => {
                *candidates.iter().min_by_key(|&&c| (load[c], c)).expect("non-empty candidate set")
            }
        };
        duplicates_removed += candidates.len() - 1;
        load[owner] += nbytes;
        owners.insert(key, owner);
    }
    for (pi, plan) in plans.iter_mut().enumerate() {
        plan.items.retain(|item| {
            let key = (
                item.category,
                item.shard.fqn.clone(),
                item.shard.offsets.clone(),
                item.shard.lengths.clone(),
            );
            owners.get(&key) == Some(&pi)
        });
    }
    DedupReport { duplicates_removed, bytes_per_rank: load }
}

/// Who reads a deduplicated item and who receives it over the interconnect.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AssignedLoadPlan {
    /// Executing rank.
    pub rank: usize,
    /// Items this rank reads from storage (for itself and/or for peers).
    pub reads: Vec<ReadItem>,
    /// For each read, the peer ranks that need the same source data,
    /// parallel to `reads` (empty = nobody else).
    pub send_to: Vec<Vec<usize>>,
    /// Items this rank receives from a peer instead of reading:
    /// `(source_rank, item-with-local-dest)`.
    pub recvs: Vec<(usize, ReadItem)>,
}

impl AssignedLoadPlan {
    /// Bytes this rank fetches from storage.
    pub fn read_bytes(&self) -> u64 {
        self.reads.iter().map(|i| i.fetch_range().1).sum()
    }
}

/// Eliminate repetitive tensor reading across ranks (§4.1): items with
/// identical sources are read once — by the Worst-Fit-chosen requester — and
/// forwarded to the rest over the interconnect (all-to-all in the engine).
pub fn eliminate_redundant_reads(plans: &[LoadPlan]) -> Vec<AssignedLoadPlan> {
    // Every request as (plan index, item), stably sorted by its borrowed
    // source key: a group is a run of equal keys, still in plan-then-item
    // order inside.
    let mut requests: Vec<(usize, &ReadItem)> = plans
        .iter()
        .enumerate()
        .flat_map(|(pi, plan)| plan.items.iter().map(move |item| (pi, item)))
        .collect();
    requests.sort_by(|a, b| a.1.source_key().cmp(&b.1.source_key()));
    // Largest fetch first; the stable sort leaves equal sizes in key order.
    let mut groups: Vec<(u64, &[(usize, &ReadItem)])> = requests
        .chunk_by(|a, b| a.1.source_key() == b.1.source_key())
        .map(|members| (members[0].1.fetch_range().1, members))
        .collect();
    groups.sort_by_key(|&(bytes, _)| std::cmp::Reverse(bytes));

    let mut out: Vec<AssignedLoadPlan> = plans
        .iter()
        .map(|p| AssignedLoadPlan {
            rank: p.rank,
            reads: Vec::new(),
            send_to: Vec::new(),
            recvs: Vec::new(),
        })
        .collect();
    let mut load = vec![0u64; plans.len()];
    for (bytes, members) in groups {
        let reader =
            members.iter().map(|&(pi, _)| pi).min_by_key(|&c| (load[c], c)).expect("non-empty");
        load[reader] += bytes;
        // The reader keeps its own (first) dest version; every other request
        // becomes a receive — a peer's from the reader, or the reader's own
        // when it asked for the same source into a second dest piece.
        let reader_item =
            members.iter().find(|&&(pi, _)| pi == reader).expect("reader is a requester").1;
        let reader_rank = plans[reader].rank;
        let mut recipients = Vec::new();
        for &(pi, item) in members {
            if pi != reader {
                recipients.push(plans[pi].rank);
            } else if item.dest_local_elem_start == reader_item.dest_local_elem_start {
                continue;
            }
            out[pi].recvs.push((reader_rank, item.clone()));
        }
        recipients.sort_unstable();
        recipients.dedup();
        out[reader].reads.push(reader_item.clone());
        out[reader].send_to.push(recipients);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::local_save_plan;
    use bcp_model::states::{build_train_state, Framework};
    use bcp_model::zoo;
    use bcp_topology::Parallelism;

    fn ddp_plans(dp: usize) -> Vec<SavePlan> {
        let arch = zoo::tiny_gpt();
        let par = Parallelism::data_parallel(dp).unwrap();
        (0..dp)
            .map(|r| {
                local_save_plan(r, &build_train_state(&arch, Framework::Ddp, par, r, false), "cpu")
            })
            .collect()
    }

    #[test]
    fn worst_fit_balances_replicated_saves() {
        let mut plans = ddp_plans(4);
        let per_rank_before = plans[0].total_bytes();
        let report = dedup_save_plans(&mut plans, DedupStrategy::WorstFit);
        // Every shard saved exactly once.
        let total: u64 = plans.iter().map(|p| p.total_bytes()).sum();
        assert_eq!(total, per_rank_before);
        assert!(report.duplicates_removed > 0);
        // Balanced: max/mean below 1.5 (first-replica would be 4.0).
        assert!(report.imbalance() < 1.5, "imbalance {}", report.imbalance());
    }

    #[test]
    fn first_replica_piles_everything_on_rank0() {
        let mut plans = ddp_plans(4);
        let report = dedup_save_plans(&mut plans, DedupStrategy::FirstReplica);
        assert!(plans[0].total_bytes() > 0);
        for p in &plans[1..] {
            assert_eq!(p.total_bytes(), 0, "only rank 0 should save in the baseline");
        }
        assert!(report.imbalance() >= 1.0);
    }

    #[test]
    fn dedup_keeps_unique_shards_everywhere() {
        // Megatron TP=2: grid shards are unique per tp index; nothing from a
        // different box may be dropped.
        let arch = zoo::tiny_gpt();
        let par = Parallelism::new(2, 2, 1).unwrap();
        let fw = Framework::Megatron { distributed_optimizer: true };
        let mut plans: Vec<SavePlan> = (0..4)
            .map(|r| local_save_plan(r, &build_train_state(&arch, fw, par, r, false), "cpu"))
            .collect();
        let key_of = |i: &crate::plan::WriteItem| {
            (i.category, i.shard.fqn.clone(), i.shard.offsets.clone(), i.shard.lengths.clone())
        };
        let before_keys: std::collections::BTreeSet<_> =
            plans.iter().flat_map(|p| p.items.iter().map(key_of)).collect();
        let before: u64 = plans.iter().map(|p| p.total_bytes()).sum();
        let report = dedup_save_plans(&mut plans, DedupStrategy::WorstFit);
        let after: u64 = plans.iter().map(|p| p.total_bytes()).sum();
        // DP replicas (and TP-replicated LayerNorms) were dropped...
        assert!(after < before);
        assert!(report.duplicates_removed > 0);
        // ...but every distinct shard survives exactly once.
        let mut after_keys = std::collections::BTreeSet::new();
        for p in &plans {
            for i in &p.items {
                assert!(after_keys.insert(key_of(i)), "{} saved twice", i.shard.fqn);
            }
        }
        assert_eq!(before_keys, after_keys);
    }

    #[test]
    fn zero_redundancy_after_dedup() {
        let mut plans = ddp_plans(3);
        dedup_save_plans(&mut plans, DedupStrategy::WorstFit);
        let mut seen = std::collections::HashSet::new();
        for p in &plans {
            for i in &p.items {
                let key = (i.category, i.shard.fqn.clone(), i.shard.offsets.clone());
                assert!(seen.insert(key), "shard saved twice: {}", i.shard.fqn);
            }
        }
    }

    #[test]
    fn redundant_reads_are_eliminated_and_forwarded() {
        // Three identical load plans (DP replicas loading the same model).
        let item = ReadItem {
            category: crate::plan::Category::Model,
            fqn: "w".into(),
            dtype: bcp_tensor::DType::F32,
            file: "model_0.bin".into(),
            payload_offset: 0,
            stored_offsets: vec![0],
            stored_lengths: vec![128],
            isect_offsets: vec![0],
            isect_lengths: vec![128],
            dest_offsets: vec![0],
            dest_lengths: vec![128],
            dest_local_elem_start: 0,
        };
        let plans: Vec<LoadPlan> =
            (0..3).map(|r| LoadPlan { rank: r, items: vec![item.clone()] }).collect();
        let assigned = eliminate_redundant_reads(&plans);
        let total_reads: usize = assigned.iter().map(|a| a.reads.len()).sum();
        assert_eq!(total_reads, 1, "one storage read for three requesters");
        let reader = assigned.iter().find(|a| !a.reads.is_empty()).unwrap();
        assert_eq!(reader.send_to[0].len(), 2);
        for a in &assigned {
            if a.rank != reader.rank {
                assert_eq!(a.recvs.len(), 1);
                assert_eq!(a.recvs[0].0, reader.rank);
            }
        }
    }

    /// The previous implementation, kept as the oracle: owned `BTreeMap`
    /// keys, a size-then-key comparator, and `fetch_range` by raveling two
    /// coordinate vectors. The sort-based one must agree element for element.
    fn reference_eliminate(plans: &[LoadPlan]) -> Vec<AssignedLoadPlan> {
        fn fetch_bytes(i: &ReadItem) -> u64 {
            let rel: Vec<usize> =
                i.isect_offsets.iter().zip(&i.stored_offsets).map(|(i, s)| i - s).collect();
            let last: Vec<usize> =
                rel.iter().zip(&i.isect_lengths).map(|(o, l)| o + l - 1).collect();
            let first = bcp_tensor::layout::ravel_index(&rel, &i.stored_lengths);
            let last = bcp_tensor::layout::ravel_index(&last, &i.stored_lengths);
            ((last - first + 1) * i.dtype.size()) as u64
        }
        type Key = (crate::plan::Category, String, Vec<usize>, Vec<usize>, String);
        let mut groups: BTreeMap<Key, Vec<(usize, ReadItem)>> = BTreeMap::new();
        for (pi, plan) in plans.iter().enumerate() {
            for item in &plan.items {
                let (category, fqn, io, il, file) = item.source_key();
                let key = (category, fqn.to_string(), io.to_vec(), il.to_vec(), file.to_string());
                groups.entry(key).or_default().push((pi, item.clone()));
            }
        }
        let mut ordered: Vec<(Key, Vec<(usize, ReadItem)>)> = groups.into_iter().collect();
        ordered.sort_by(|a, b| {
            fetch_bytes(&b.1[0].1).cmp(&fetch_bytes(&a.1[0].1)).then_with(|| a.0.cmp(&b.0))
        });
        let mut out: Vec<AssignedLoadPlan> = plans
            .iter()
            .map(|p| AssignedLoadPlan {
                rank: p.rank,
                reads: vec![],
                send_to: vec![],
                recvs: vec![],
            })
            .collect();
        let mut load = vec![0u64; plans.len()];
        for (_key, members) in ordered {
            let mut candidates: Vec<usize> = members.iter().map(|(pi, _)| *pi).collect();
            candidates.sort_unstable();
            candidates.dedup();
            let reader = *candidates.iter().min_by_key(|&&c| (load[c], c)).unwrap();
            load[reader] += fetch_bytes(&members[0].1);
            let reader_item = members.iter().find(|(pi, _)| *pi == reader).unwrap().1.clone();
            let reader_rank = plans[reader].rank;
            let mut recipients = Vec::new();
            for (pi, item) in &members {
                if *pi == reader {
                    continue;
                }
                recipients.push(plans[*pi].rank);
                out[*pi].recvs.push((reader_rank, item.clone()));
            }
            for (pi, item) in &members {
                if *pi == reader && item.dest_local_elem_start != reader_item.dest_local_elem_start
                {
                    out[*pi].recvs.push((reader_rank, item.clone()));
                }
            }
            recipients.sort_unstable();
            recipients.dedup();
            out[reader].reads.push(reader_item);
            out[reader].send_to.push(recipients);
        }
        out
    }

    /// Source `k` of a small pool whose members share files, tensors, sizes
    /// and (for some pairs) whole keys, requested into dest piece `dest`.
    fn pooled_item(k: usize, dest: usize) -> ReadItem {
        ReadItem {
            category: [crate::plan::Category::Model, crate::plan::Category::Optimizer][k % 2],
            fqn: ["w", "b"][k / 2 % 2].into(),
            dtype: [bcp_tensor::DType::F32, bcp_tensor::DType::BF16][k / 4 % 2],
            file: format!("model_{}.bin", k % 3),
            payload_offset: 64 * k as u64,
            stored_offsets: vec![0, 0],
            stored_lengths: vec![4, 8],
            isect_offsets: vec![k % 3, (k % 2) * 2],
            isect_lengths: vec![1 + k % 2, 2 + k % 3],
            dest_offsets: vec![k % 3, (k % 2) * 2],
            dest_lengths: vec![1 + k % 2, 2 + k % 3],
            dest_local_elem_start: 16 * dest,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// Random plans over 1-4 ranks with duplicate sources across ranks
        /// and duplicate dest pieces on one rank: same output as the oracle.
        #[test]
        fn sort_based_elimination_matches_the_map_based_oracle(
            picks in proptest::collection::vec(
                proptest::collection::vec((0usize..12, 0usize..3), 0..14),
                1..5,
            ),
        ) {
            // Plan order is not rank order, so recipient sorting matters.
            let plans: Vec<LoadPlan> = picks
                .iter()
                .zip([3usize, 0, 2, 1])
                .map(|(items, rank)| LoadPlan {
                    rank,
                    items: items.iter().map(|&(k, dest)| pooled_item(k, dest)).collect(),
                })
                .collect();
            proptest::prop_assert_eq!(eliminate_redundant_reads(&plans), reference_eliminate(&plans));
        }
    }

    #[test]
    fn distinct_sources_read_independently() {
        let mk = |rank: usize, file: &str| LoadPlan {
            rank,
            items: vec![ReadItem {
                category: crate::plan::Category::Model,
                fqn: "w".into(),
                dtype: bcp_tensor::DType::F32,
                file: file.into(),
                payload_offset: 0,
                stored_offsets: vec![0],
                stored_lengths: vec![4],
                isect_offsets: vec![0],
                isect_lengths: vec![4],
                dest_offsets: vec![0],
                dest_lengths: vec![4],
                dest_local_elem_start: 0,
            }],
        };
        let assigned = eliminate_redundant_reads(&[mk(0, "a.bin"), mk(1, "b.bin")]);
        assert_eq!(assigned[0].reads.len(), 1);
        assert_eq!(assigned[1].reads.len(), 1);
        assert!(assigned.iter().all(|a| a.recvs.is_empty()));
    }

    #[test]
    fn read_balancing_spreads_load() {
        // 4 replicas requesting 8 distinct shards: each rank should read ~2.
        let mut plans: Vec<LoadPlan> =
            (0..4).map(|r| LoadPlan { rank: r, items: vec![] }).collect();
        for s in 0..8usize {
            for p in plans.iter_mut() {
                p.items.push(ReadItem {
                    category: crate::plan::Category::Model,
                    fqn: format!("t{s}"),
                    dtype: bcp_tensor::DType::F32,
                    file: "model_0.bin".into(),
                    payload_offset: (s * 1024) as u64,
                    stored_offsets: vec![0],
                    stored_lengths: vec![256],
                    isect_offsets: vec![0],
                    isect_lengths: vec![256],
                    dest_offsets: vec![0],
                    dest_lengths: vec![256],
                    dest_local_elem_start: 0,
                });
            }
        }
        let assigned = eliminate_redundant_reads(&plans);
        for a in &assigned {
            assert_eq!(a.reads.len(), 2, "rank {} reads {}", a.rank, a.reads.len());
        }
    }
}
