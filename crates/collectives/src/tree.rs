//! Tree-based hierarchical communication topology (paper §5.2).
//!
//! "Training workers on a single machine are organized into first-level
//! subtrees, with the worker of local rank 0 designated as the root. For
//! inter-machine communication, we iteratively group multiple machines,
//! designating the worker with the lowest global rank in each group as the
//! root. This procedure continues until all workers are integrated into a
//! hierarchy converging at the global root (i.e., the coordinator)."

use serde::{Deserialize, Serialize};

/// A gather/scatter tree over ranks `0..world_size`, rooted at rank 0.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TreeTopology {
    /// `parent[r]` is `None` only for the root.
    parent: Vec<Option<usize>>,
    /// Children of each rank, in ascending order.
    children: Vec<Vec<usize>>,
}

impl TreeTopology {
    /// Build the hierarchy: per-host star subtrees (root = local rank 0),
    /// then host roots grouped `branching` at a time, iteratively, until one
    /// root remains. `branching` bounds the inter-machine fan-in.
    pub fn build(world_size: usize, gpus_per_host: usize, branching: usize) -> TreeTopology {
        assert!(world_size > 0 && gpus_per_host > 0 && branching > 1);
        let mut parent: Vec<Option<usize>> = vec![None; world_size];
        // Level 1: ranks on each host attach to the host's local rank 0.
        let mut level: Vec<usize> = Vec::new(); // current roots, ascending
        for host_start in (0..world_size).step_by(gpus_per_host) {
            let host_end = (host_start + gpus_per_host).min(world_size);
            for p in parent.iter_mut().take(host_end).skip(host_start + 1) {
                *p = Some(host_start);
            }
            level.push(host_start);
        }
        // Upper levels: group roots `branching` at a time; lowest global rank
        // in each group becomes the group root.
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(branching));
            for group in level.chunks(branching) {
                let root = group[0]; // ascending order -> lowest global rank
                for &r in &group[1..] {
                    parent[r] = Some(root);
                }
                next.push(root);
            }
            level = next;
        }
        let mut children = vec![Vec::new(); world_size];
        for (r, p) in parent.iter().enumerate() {
            if let Some(&p) = p.as_ref() {
                children[p].push(r);
            }
        }
        TreeTopology { parent, children }
    }

    /// Number of ranks.
    pub fn world_size(&self) -> usize {
        self.parent.len()
    }

    /// The root (coordinator) rank.
    pub fn root(&self) -> usize {
        self.parent.iter().position(|p| p.is_none()).expect("a tree always has a root")
    }

    /// Parent of `rank`, `None` for the root.
    pub fn parent(&self, rank: usize) -> Option<usize> {
        self.parent[rank]
    }

    /// Children of `rank`.
    pub fn children(&self, rank: usize) -> &[usize] {
        &self.children[rank]
    }

    /// Depth of `rank` (root = 0).
    pub fn depth(&self, rank: usize) -> usize {
        let mut d = 0;
        let mut r = rank;
        while let Some(p) = self.parent[r] {
            r = p;
            d += 1;
        }
        d
    }

    /// Height of the whole tree (max depth).
    pub fn height(&self) -> usize {
        (0..self.world_size()).map(|r| self.depth(r)).max().unwrap_or(0)
    }

    /// Maximum fan-in (children count) over all ranks. The flat topology's
    /// equivalent is `world_size - 1` at the coordinator; the tree keeps it
    /// at `max(gpus_per_host - 1, branching - 1)`-ish.
    pub fn max_fanin(&self) -> usize {
        self.children.iter().map(|c| c.len()).max().unwrap_or(0)
    }

    /// All ranks in the subtree rooted at `rank` (including `rank`), in
    /// ascending order. Used by hierarchical scatter to route each child its
    /// subtree's payload.
    pub fn subtree_members(&self, rank: usize) -> Vec<usize> {
        let mut members = vec![rank];
        let mut frontier = vec![rank];
        while let Some(r) = frontier.pop() {
            for &c in self.children(r) {
                members.push(c);
                frontier.push(c);
            }
        }
        members.sort_unstable();
        members
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_host_is_a_star() {
        let t = TreeTopology::build(8, 8, 8);
        assert_eq!(t.root(), 0);
        assert_eq!(t.children(0), &[1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(t.height(), 1);
    }

    #[test]
    fn multi_host_hierarchy() {
        // 4 hosts × 4 GPUs, branching 2: host roots 0,4,8,12;
        // groups (0,4) root 0 and (8,12) root 8; then (0,8) root 0.
        let t = TreeTopology::build(16, 4, 2);
        assert_eq!(t.root(), 0);
        assert_eq!(t.parent(4), Some(0));
        assert_eq!(t.parent(12), Some(8));
        assert_eq!(t.parent(8), Some(0));
        assert_eq!(t.depth(12), 2);
        assert_eq!(t.depth(13), 3);
    }

    #[test]
    fn every_rank_reaches_root() {
        let t = TreeTopology::build(100, 8, 4);
        let root = t.root();
        for r in 0..100 {
            let mut cur = r;
            let mut steps = 0;
            while let Some(p) = t.parent(cur) {
                cur = p;
                steps += 1;
                assert!(steps <= 100, "cycle detected");
            }
            assert_eq!(cur, root);
        }
    }

    #[test]
    fn fanin_stays_bounded_at_scale() {
        // The paper's pathology: flat NCCL gather at 8960 ranks needs 8959
        // peer connections at the coordinator. The tree keeps fan-in small.
        let world = 8960;
        let t = TreeTopology::build(world, 8, 8);
        // Rank 0 roots one group per level, so its fan-in is roughly
        // (gpus_per_host - 1) + levels * (branching - 1) — about 30 here,
        // nearly 300x smaller than the flat coordinator's 8959.
        assert!(t.max_fanin() <= 40, "fan-in {} too large", t.max_fanin());
        assert!(t.height() <= 8, "height {} too large", t.height());
    }

    #[test]
    fn partial_last_host() {
        let t = TreeTopology::build(10, 8, 8);
        // Host 0: ranks 0-7, host 1: ranks 8-9.
        assert_eq!(t.parent(9), Some(8));
        assert_eq!(t.parent(8), Some(0));
    }
}
