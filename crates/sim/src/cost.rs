//! The calibrated cost model.
//!
//! Constants are set from the paper's own numbers where it states them
//! (§4.3 read/write throughput, §5.1 cluster capacity, Appendix B barrier
//! cost, §4.1 planning cost) and from public hardware specs otherwise
//! (PCIe 4.0 host copies, 200 Gbps IB). Absolute outputs are therefore
//! plausible rather than reproduced-to-the-second; the comparisons are
//! structural (see EXPERIMENTS.md).

/// One gigabyte in bytes, as f64.
pub const GB: f64 = 1e9;

/// Bandwidths in bytes/second, latencies in seconds.
#[derive(Debug, Clone)]
pub struct CostModel {
    // ---- Host ↔ device ----
    /// D2H copy through the pinned pool (§4.2): ~20 GB/s on PCIe 4.0 x16.
    pub d2h_pinned_bw: f64,
    /// D2H copy through pageable memory: ~4 GB/s.
    pub d2h_pageable_bw: f64,
    /// H2D copy bandwidth.
    pub h2d_bw: f64,

    // ---- Host CPU ----
    /// Serialization throughput per worker process (~1.5 GB/s: memcpy +
    /// framing), times `serialize_procs` parallel processes (§4.2 "multiple
    /// parallel processes to serialize tensors").
    pub serialize_bw_per_proc: f64,
    /// Parallel serialization processes per rank.
    pub serialize_procs: usize,
    /// Dump into shared memory (`/dev/shm`): ~8 GB/s.
    pub shm_dump_bw: f64,

    // ---- Interconnect ----
    /// Per-GPU InfiniBand bandwidth: 200 Gbps = 25 GB/s (§4.3 testbed).
    pub ib_bw: f64,
    /// Base latency of one synchronous all-gather; the DCP irregular-tensor
    /// path pays `base * sqrt(group - 1)` per tensor (ring-style growth with
    /// group size — "these overheads grow as the training scale increases").
    pub allgather_step_latency: f64,

    // ---- HDFS (§4.3, §5.1) ----
    /// Optimized single-client write (split sub-files + concat): 3 GB/s.
    pub hdfs_write_bw: f64,
    /// Optimized single-client read (multi-threaded ranged): 2.5 GB/s.
    pub hdfs_read_bw: f64,
    /// Cluster aggregate bandwidth: 10 TB/s ("10 TB/s read/write").
    pub hdfs_aggregate_bw: f64,
    /// Metadata cost per file create/commit after the §6.4 fixes: 150 ms
    /// worst case; we charge a typical 20 ms.
    pub hdfs_meta_per_file: f64,

    // ---- Collectives / planning (§4.1, §5.2, Appendix B) ----
    /// Coordinator CPU cost per plan item processed during gather+dedup.
    /// Calibrated against "planning ... a 405B model across 8960 GPUs takes
    /// 62 seconds".
    pub plan_item_cost: f64,
    /// Flat (NCCL-like) per-peer channel setup at the coordinator; drives
    /// the "~20 s barrier at 10k GPUs" (Appendix B): ~2 ms/rank.
    pub flat_per_rank_cost: f64,
    /// Tree (gRPC-like) per-hop latency.
    pub tree_hop_latency: f64,
    /// Tree branching for inter-machine grouping.
    pub tree_branching: usize,
    /// GPUs per host (first-level subtrees; 8 on A100/H800 machines).
    pub gpus_per_host: usize,

    // ---- Irregular tensor handling (Table 7) ----
    /// Cost to decompose one flat-sharded tensor into ShardMeta boxes, as
    /// measured for the paper's production (Python) implementation: ~8 ms
    /// per item, calibrated to Table 7's ~0.2 s scale-independent
    /// decomposition times. (Our Rust decomposition is far faster — see
    /// `perf/`'s `core.decompose.shard_metas.us_per_entry` — but the table
    /// models the published system.)
    pub decompose_item_cost: f64,

    // ---- Dataloader (§4.4) ----
    /// Cold state-collection cost per byte (the "~8 s for ~1 GB" anchor).
    pub loader_collect_per_byte: f64,
    /// Per-read-worker signalling/pause cost when collecting cold.
    pub loader_collect_per_worker: f64,
    /// Token-buffer merge/redistribution throughput during dataloader
    /// resharding (the serialization-heavy CPU path that makes full-state
    /// resharding expensive in Table 4).
    pub loader_merge_bw: f64,
}

impl Default for CostModel {
    fn default() -> CostModel {
        CostModel {
            d2h_pinned_bw: 20.0 * GB,
            d2h_pageable_bw: 4.0 * GB,
            h2d_bw: 20.0 * GB,
            serialize_bw_per_proc: 1.5 * GB,
            serialize_procs: 4,
            shm_dump_bw: 8.0 * GB,
            ib_bw: 25.0 * GB,
            allgather_step_latency: 0.25e-3,
            hdfs_write_bw: 3.0 * GB,
            hdfs_read_bw: 2.5 * GB,
            hdfs_aggregate_bw: 10_000.0 * GB,
            hdfs_meta_per_file: 0.02,
            plan_item_cost: 6.0e-6,
            flat_per_rank_cost: 2.0e-3,
            tree_hop_latency: 1.0e-3,
            tree_branching: 8,
            gpus_per_host: 8,
            decompose_item_cost: 8.0e-3,
            loader_collect_per_byte: 8.0e-9,
            loader_collect_per_worker: 0.05,
            loader_merge_bw: 0.3 * GB,
        }
    }
}

impl CostModel {
    /// Effective serialization bandwidth per rank.
    pub fn serialize_bw(&self) -> f64 {
        self.serialize_bw_per_proc * self.serialize_procs as f64
    }

    /// Control-plane cost of a barrier over `world` ranks.
    pub fn barrier_cost(&self, world: usize, tree: bool) -> f64 {
        if tree {
            // Up + down the hierarchy.
            2.0 * self.tree_depth(world) as f64 * self.tree_hop_latency
        } else {
            world as f64 * self.flat_per_rank_cost
        }
    }

    /// Height of the §5.2 communication tree over `world` ranks.
    pub fn tree_depth(&self, world: usize) -> usize {
        let hosts = world.div_ceil(self.gpus_per_host);
        let mut depth = 1; // intra-host star
        let mut level = hosts;
        while level > 1 {
            level = level.div_ceil(self.tree_branching);
            depth += 1;
        }
        depth
    }

    /// First-save planning cost: gather/scatter of `total_items` plan items
    /// over the control plane plus coordinator dedup CPU.
    pub fn plan_first_cost(&self, world: usize, total_items: u64, tree: bool) -> f64 {
        let comm = if tree {
            2.0 * self.tree_depth(world) as f64 * self.tree_hop_latency
        } else {
            world as f64 * self.flat_per_rank_cost
        };
        comm + total_items as f64 * self.plan_item_cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anchors_from_the_paper_hold() {
        let m = CostModel::default();
        // Appendix B: flat barrier at ~10k GPUs stalls ~20 s.
        let flat = m.barrier_cost(10_000, false);
        assert!((15.0..25.0).contains(&flat), "flat barrier {flat}");
        // The tree barrier at the same scale is sub-50 ms.
        let tree = m.barrier_cost(10_000, true);
        assert!(tree < 0.05, "tree barrier {tree}");
    }

    #[test]
    fn planning_62s_for_405b_at_8960() {
        let m = CostModel::default();
        // ~8960 ranks × ~1100 items/rank ≈ 10M items (see workload tests).
        let t = m.plan_first_cost(8960, 9_800_000, false);
        assert!((40.0..90.0).contains(&t), "first-plan cost {t}");
    }

    #[test]
    fn tree_depth_is_logarithmic() {
        let m = CostModel::default();
        assert_eq!(m.tree_depth(8), 1);
        assert!(m.tree_depth(8960) <= 5);
        assert!(m.tree_depth(100_000) <= 6);
    }
}
