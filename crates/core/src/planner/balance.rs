//! Optimized plan generation (§4.1): workload-balanced save deduplication
//! and redundant-read elimination.

use crate::plan::{LoadPlan, ReadItem, SavePlan};
use crate::{BcpError, Result};
use bcp_tensor::layout::Axes;
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::sync::Arc;

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
    type Key = (crate::plan::Category, Arc<str>, Axes, Axes);
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
#[derive(Debug, Clone, PartialEq)]
pub struct AssignedLoadPlan {
    /// Executing rank.
    pub rank: usize,
    /// Items this rank reads from storage (for itself and/or for peers), in
    /// plan order: a read's index is its number among the plan's reads.
    pub reads: Vec<ReadItem>,
    /// For each read, the peer ranks that need the same source data,
    /// parallel to `reads` (empty = nobody else).
    pub send_to: Vec<Vec<usize>>,
    /// Items this rank receives from a peer instead of reading, in plan
    /// order: `(source_rank, index into the source's reads,
    /// item-with-local-dest)`.
    pub recvs: Vec<(usize, usize, ReadItem)>,
}

impl AssignedLoadPlan {
    /// Bytes this rank fetches from storage.
    pub fn read_bytes(&self) -> u64 {
        self.reads.iter().map(|i| i.fetch_range().1).sum()
    }
}

/// What one planned item becomes once redundant reads are eliminated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadRole {
    /// Read from storage, as this rank's read number `n` (plan order).
    Read(u32),
    /// Receive read number `read` of rank `rank`: a peer's, or this rank's
    /// own when it planned the same source into a second dest piece.
    Recv {
        /// The reading rank.
        rank: u32,
        /// The read's number on that rank.
        read: u32,
    },
    /// A repeat of a source and dest piece this rank reads already.
    Skip,
}

/// The coordinator's decision for one rank: small integers only, so plan
/// items never leave the rank that planned them.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadRoles {
    /// One role per item of the rank's plan, in plan order.
    pub roles: Vec<ReadRole>,
    /// For each of the rank's reads, the peer ranks it forwards to.
    pub send_to: Vec<Vec<usize>>,
}

impl ReadRoles {
    /// This rank's assignment, built by moving the items of `plan` (the
    /// plan the roles were decided for): reads stay in place, in plan
    /// order, receives are extracted, and skipped repeats dropped. Only the
    /// receives allocate.
    pub fn apply(self, plan: LoadPlan) -> Result<AssignedLoadPlan> {
        let LoadPlan { rank, mut items } = plan;
        let ReadRoles { roles, send_to } = self;
        let is_read = |r: &ReadRole| matches!(r, ReadRole::Read(_));
        if roles.len() != items.len()
            || roles.iter().filter(|r| is_read(r)).count() != send_to.len()
        {
            return Err(BcpError::Plan(format!(
                "rank {rank}: {} read roles and {} forward lists for {} planned items",
                roles.len(),
                send_to.len(),
                items.len()
            )));
        }
        let recv_count = roles.iter().filter(|r| matches!(r, ReadRole::Recv { .. })).count();
        let mut recvs = Vec::with_capacity(recv_count);
        // `extract_if` visits every item once, in order: the roles of the
        // items it takes out are the non-read roles, in order.
        let mut at = roles.iter();
        let mut taken = roles.iter().filter(|r| !is_read(r));
        for item in items.extract_if(.., |_| !at.next().is_some_and(is_read)) {
            if let Some(&ReadRole::Recv { rank, read }) = taken.next() {
                recvs.push((rank as usize, read as usize, item));
            }
        }
        Ok(AssignedLoadPlan { rank, reads: items, send_to, recvs })
    }
}

/// The coordinator half of redundant-read elimination (§4.1): items with
/// identical sources are read once — by the Worst-Fit-chosen requester —
/// and forwarded to the rest over the interconnect (all-to-all in the
/// engine). It borrows the gathered plans and returns, per plan, a role per
/// item and each read's recipients; [`ReadRoles::apply`] is the rank's half.
pub fn assign_reads<P: Borrow<LoadPlan>>(plans: &[P]) -> Vec<ReadRoles> {
    // A request is its position in the plans laid end to end: four bytes,
    // where its plan is the last one starting at or before it.
    let mut starts = Vec::with_capacity(plans.len() + 1);
    starts.push(0usize);
    for plan in plans {
        starts.push(starts[starts.len() - 1] + plan.borrow().items.len());
    }
    let at = |r: u32| {
        let pi = starts.partition_point(|&s| s <= r as usize) - 1;
        (pi, r as usize - starts[pi])
    };
    let item = |r: u32| {
        let (pi, ii) = at(r);
        &plans[pi].borrow().items[ii]
    };
    // Every request, stably sorted by its borrowed source key: a group is a
    // run of equal keys, in plan-then-item order inside. Plans come out of
    // planning in key order, so the sort mostly merges runs.
    let total = u32::try_from(starts[plans.len()]).expect("fewer than 2^32 planned items");
    let mut requests: Vec<u32> = (0..total).collect();
    requests.sort_by(|&a, &b| item(a).source_key().cmp(&item(b).source_key()));
    // Each group as (fetch bytes, start, end) in `requests`: largest fetch
    // first, equal sizes in key order.
    let mut groups: Vec<(u64, u32, u32)> = Vec::with_capacity(requests.len());
    let mut start = 0;
    for members in requests.chunk_by(|&a, &b| item(a).source_key() == item(b).source_key()) {
        let end = start + members.len() as u32;
        groups.push((item(members[0]).fetch_range().1, start, end));
        start = end;
    }
    groups.sort_unstable_by_key(|&(bytes, start, _)| (std::cmp::Reverse(bytes), start));
    let members =
        |start: u32, end: u32| requests[start as usize..end as usize].iter().map(|&r| at(r));

    // Worst-Fit: the requester with the fewest bytes to read so far reads
    // the group, as its first request of it (numbered below).
    let mut roles: Vec<Vec<ReadRole>> =
        plans.iter().map(|p| vec![ReadRole::Skip; p.borrow().items.len()]).collect();
    let mut load = vec![0u64; plans.len()];
    for &(bytes, start, end) in &groups {
        let reader = members(start, end).map(|(pi, _)| pi).min_by_key(|&c| (load[c], c));
        let reader = reader.expect("a group has members");
        load[reader] += bytes;
        let (_, first) = members(start, end).find(|&(pi, _)| pi == reader).expect("a requester");
        roles[reader][first] = ReadRole::Read(0);
    }
    // Reads are numbered in plan order.
    let mut send_to: Vec<Vec<Vec<usize>>> = roles
        .iter_mut()
        .map(|roles| {
            let mut n = 0;
            for role in roles.iter_mut().filter(|r| matches!(r, ReadRole::Read(_))) {
                *role = ReadRole::Read(n);
                n += 1;
            }
            vec![Vec::new(); n as usize]
        })
        .collect();
    // Every other request becomes a receive of the group's read — a peer's,
    // or the reader's own when it asked for the same source into a second
    // dest piece — unless it repeats the read's dest piece. A group's
    // requests from one plan are adjacent, so each peer is counted once.
    for &(_, start, end) in &groups {
        let (reader, first, read) = members(start, end)
            .find_map(|(pi, ii)| match roles[pi][ii] {
                ReadRole::Read(n) => Some((pi, ii, n)),
                _ => None,
            })
            .expect("every group has its read");
        let dest = plans[reader].borrow().items[first].dest_local_elem_start;
        let rank = u32::try_from(plans[reader].borrow().rank).expect("a rank below 2^32");
        let from = ReadRole::Recv { rank, read };
        let mut peers = 0;
        let mut last = reader;
        for (pi, ii) in members(start, end) {
            if pi != reader {
                peers += usize::from(pi != last);
                roles[pi][ii] = from;
            } else if ii != first && plans[pi].borrow().items[ii].dest_local_elem_start != dest {
                roles[pi][ii] = from;
            }
            last = pi;
        }
        if peers > 0 {
            let mut recipients = Vec::with_capacity(peers);
            let mut last = reader;
            for (pi, _) in members(start, end) {
                if pi != reader && pi != last {
                    recipients.push(plans[pi].borrow().rank);
                }
                last = pi;
            }
            recipients.sort_unstable();
            recipients.dedup();
            send_to[reader][read as usize] = recipients;
        }
    }
    roles.into_iter().zip(send_to).map(|(roles, send_to)| ReadRoles { roles, send_to }).collect()
}

/// Eliminate repetitive tensor reading across ranks (§4.1): [`assign_reads`]
/// over the plans, then each plan's [`ReadRoles::apply`] to a copy of it.
pub fn eliminate_redundant_reads(plans: &[LoadPlan]) -> Vec<AssignedLoadPlan> {
    assign_reads(plans)
        .into_iter()
        .zip(plans)
        .map(|(roles, plan)| roles.apply(plan.clone()).expect("roles decided for this plan"))
        .collect()
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
            stored_offsets: vec![0].into(),
            stored_lengths: vec![128].into(),
            isect_offsets: vec![0].into(),
            isect_lengths: vec![128].into(),
            dest_offsets: vec![0].into(),
            dest_lengths: vec![128].into(),
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

    /// The map-based implementation, kept as the oracle: owned `BTreeMap`
    /// keys, a size-then-key comparator, `fetch_range` by raveling two
    /// coordinate vectors, and cloned items. Reads and receives are put in
    /// plan order at the end. The split halves must agree element for
    /// element.
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
        type Members = Vec<(usize, usize, ReadItem)>;
        let mut groups: BTreeMap<Key, Members> = BTreeMap::new();
        for (pi, plan) in plans.iter().enumerate() {
            for (ii, item) in plan.items.iter().enumerate() {
                let (category, fqn, io, il, file) = item.source_key();
                let key = (category, fqn.to_string(), io.to_vec(), il.to_vec(), file.to_string());
                groups.entry(key).or_default().push((pi, ii, item.clone()));
            }
        }
        let mut ordered: Vec<(Key, Members)> = groups.into_iter().collect();
        ordered.sort_by(|a, b| {
            fetch_bytes(&b.1[0].2).cmp(&fetch_bytes(&a.1[0].2)).then_with(|| a.0.cmp(&b.0))
        });
        // Per plan: (item index, read) and (item index, receive), in
        // decision order.
        type Reads = Vec<(usize, ReadItem, Vec<usize>)>;
        type Recvs = Vec<(usize, (usize, usize, ReadItem))>;
        let mut reads: Vec<Reads> = vec![Vec::new(); plans.len()];
        let mut recvs: Vec<Recvs> = vec![Vec::new(); plans.len()];
        let mut load = vec![0u64; plans.len()];
        for (_key, members) in ordered {
            let mut candidates: Vec<usize> = members.iter().map(|(pi, ..)| *pi).collect();
            candidates.sort_unstable();
            candidates.dedup();
            let reader = *candidates.iter().min_by_key(|&&c| (load[c], c)).unwrap();
            load[reader] += fetch_bytes(&members[0].2);
            let (_, first, reader_item) =
                members.iter().find(|(pi, ..)| *pi == reader).unwrap().clone();
            let (reader_rank, read_idx) = (plans[reader].rank, reads[reader].len());
            let mut recipients = Vec::new();
            for (pi, ii, item) in &members {
                if *pi == reader {
                    continue;
                }
                recipients.push(plans[*pi].rank);
                recvs[*pi].push((*ii, (reader_rank, read_idx, item.clone())));
            }
            for (pi, ii, item) in &members {
                if *pi == reader && item.dest_local_elem_start != reader_item.dest_local_elem_start
                {
                    recvs[*pi].push((*ii, (reader_rank, read_idx, item.clone())));
                }
            }
            recipients.sort_unstable();
            recipients.dedup();
            reads[reader].push((first, reader_item, recipients));
        }
        // Renumber each plan's reads in plan order, and point the receives
        // at the new numbers.
        let renumbered: Vec<Vec<usize>> = reads
            .iter()
            .map(|r| {
                let mut order: Vec<usize> = (0..r.len()).collect();
                order.sort_by_key(|&i| r[i].0);
                let mut new = vec![0; r.len()];
                for (n, &i) in order.iter().enumerate() {
                    new[i] = n;
                }
                new
            })
            .collect();
        let plan_of = |rank: usize| plans.iter().position(|p| p.rank == rank).unwrap();
        plans
            .iter()
            .zip(reads.into_iter().zip(recvs))
            .map(|(p, (mut reads, mut recvs))| {
                reads.sort_by_key(|r| r.0);
                recvs.sort_by_key(|r| r.0);
                AssignedLoadPlan {
                    rank: p.rank,
                    send_to: reads.iter().map(|r| r.2.clone()).collect(),
                    reads: reads.into_iter().map(|r| r.1).collect(),
                    recvs: recvs
                        .into_iter()
                        .map(|(_, (from, idx, item))| (from, renumbered[plan_of(from)][idx], item))
                        .collect(),
                }
            })
            .collect()
    }

    /// Worst-Fit's reader per source key and the bytes each rank reads:
    /// what the reads' numbering leaves alone.
    type Key = (crate::plan::Category, String, Vec<usize>, Vec<usize>, String);

    fn readers_and_bytes(assigned: &[AssignedLoadPlan]) -> (BTreeMap<Key, usize>, Vec<u64>) {
        let mut readers = BTreeMap::new();
        for a in assigned {
            for r in &a.reads {
                let (category, fqn, io, il, file) = r.source_key();
                let key = (category, fqn.to_string(), io.to_vec(), il.to_vec(), file.to_string());
                assert_eq!(readers.insert(key, a.rank), None, "a source read twice");
            }
        }
        (readers, assigned.iter().map(AssignedLoadPlan::read_bytes).collect())
    }

    /// Source `k` of a small pool whose members share files, tensors, sizes
    /// and (for some pairs) whole keys, requested into dest piece `dest`.
    fn pooled_item(k: usize, dest: usize) -> ReadItem {
        ReadItem {
            category: [crate::plan::Category::Model, crate::plan::Category::Optimizer][k % 2],
            fqn: ["w", "b"][k / 2 % 2].into(),
            dtype: [bcp_tensor::DType::F32, bcp_tensor::DType::BF16][k / 4 % 2],
            file: format!("model_{}.bin", k % 3).into(),
            payload_offset: 64 * k as u64,
            stored_offsets: vec![0, 0].into(),
            stored_lengths: vec![4, 8].into(),
            isect_offsets: vec![k % 3, (k % 2) * 2].into(),
            isect_lengths: vec![1 + k % 2, 2 + k % 3].into(),
            dest_offsets: vec![k % 3, (k % 2) * 2].into(),
            dest_lengths: vec![1 + k % 2, 2 + k % 3].into(),
            dest_local_elem_start: 16 * dest,
        }
    }

    /// Plans over 1-4 ranks drawing `(pool source, dest piece)` picks. Plan
    /// order is not rank order, so recipient sorting and rank lookups matter.
    fn pooled_plans(picks: &[Vec<(usize, usize)>]) -> Vec<LoadPlan> {
        picks
            .iter()
            .zip([3usize, 0, 2, 1])
            .map(|(items, rank)| LoadPlan {
                rank,
                items: items.iter().map(|&(k, dest)| pooled_item(k, dest)).collect(),
            })
            .collect()
    }

    fn picks() -> impl proptest::prelude::Strategy<Value = Vec<Vec<(usize, usize)>>> {
        proptest::collection::vec(proptest::collection::vec((0usize..12, 0usize..3), 0..14), 1..5)
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// Random plans with duplicate sources across ranks and duplicate
        /// dest pieces on one rank: same output as the oracle.
        #[test]
        fn sort_based_elimination_matches_the_map_based_oracle(picks in picks()) {
            let plans = pooled_plans(&picks);
            proptest::prop_assert_eq!(eliminate_redundant_reads(&plans), reference_eliminate(&plans));
        }

        /// The coordinator's roles, each applied by its own rank to its own
        /// plan, pick the oracle's reader for every source and leave every
        /// rank the oracle's read bytes.
        #[test]
        fn the_split_halves_pick_the_oracles_readers_and_read_bytes(picks in picks()) {
            let plans = pooled_plans(&picks);
            let roles = assign_reads(&plans);
            proptest::prop_assert_eq!(roles.len(), plans.len());
            let applied: Vec<AssignedLoadPlan> = roles
                .into_iter()
                .zip(plans.iter().cloned())
                .map(|(roles, plan)| roles.apply(plan).unwrap())
                .collect();
            proptest::prop_assert_eq!(
                readers_and_bytes(&applied),
                readers_and_bytes(&reference_eliminate(&plans))
            );
        }

        /// A receive addresses its source's read by index: that read has the
        /// receive's source key, and its `send_to` lists the receiving rank
        /// unless the receiver is the source itself.
        #[test]
        fn every_receive_names_a_read_of_its_source(picks in picks()) {
            let assigned = eliminate_redundant_reads(&pooled_plans(&picks));
            for a in &assigned {
                for (from, idx, item) in &a.recvs {
                    let source = assigned.iter().find(|s| s.rank == *from).expect("a planned rank");
                    let read = source.reads.get(*idx).map(ReadItem::source_key);
                    proptest::prop_assert_eq!(read, Some(item.source_key()));
                    if *from != a.rank {
                        proptest::prop_assert!(source.send_to[*idx].contains(&a.rank));
                    }
                }
            }
        }
    }

    #[test]
    fn roles_decided_for_another_plan_are_a_plan_error() {
        let plans = pooled_plans(&[vec![(0, 0), (1, 0)], vec![(0, 0)]]);
        let mut roles = assign_reads(&plans);
        let other = roles.remove(1);
        assert!(matches!(other.apply(plans[0].clone()), Err(BcpError::Plan(_))));
        let mut extra = roles.remove(0);
        extra.send_to.push(Vec::new());
        assert!(matches!(extra.apply(plans[0].clone()), Err(BcpError::Plan(_))));
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
                stored_offsets: vec![0].into(),
                stored_lengths: vec![4].into(),
                isect_offsets: vec![0].into(),
                isect_lengths: vec![4].into(),
                dest_offsets: vec![0].into(),
                dest_lengths: vec![4].into(),
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
                    fqn: format!("t{s}").into(),
                    dtype: bcp_tensor::DType::F32,
                    file: "model_0.bin".into(),
                    payload_offset: (s * 1024) as u64,
                    stored_offsets: vec![0].into(),
                    stored_lengths: vec![256].into(),
                    isect_offsets: vec![0].into(),
                    isect_lengths: vec![256].into(),
                    dest_offsets: vec![0].into(),
                    dest_lengths: vec![256].into(),
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
