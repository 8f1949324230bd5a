//! Process groups and the [`Communicator`] handle each rank uses.

use crate::rendezvous::{group_key, Rendezvous, SlotKey};
use crate::stats::CommStats;
use crate::tree::TreeTopology;
use crate::{CollectiveError, Result, DEFAULT_TIMEOUT};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// Collective backend, mirroring the paper's §5.2 evolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Direct rendezvous of all participants (NCCL-style coordinator-centric
    /// gather/scatter; connection count explodes with scale).
    Flat,
    /// Hierarchical gather/scatter/broadcast/barrier over a host-aware tree
    /// (gRPC-style; parent↔child connections only). Data-plane ops
    /// (`all_gather`, `all_reduce`) remain direct, as in the paper where the
    /// tree serves the planning/integrity control plane.
    Tree {
        /// GPUs per host (first-level star subtrees).
        gpus_per_host: usize,
        /// Inter-machine grouping factor.
        branching: usize,
    },
}

/// Reduction operator for [`Communicator::all_reduce_f32`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Elementwise sum.
    Sum,
    /// Elementwise maximum.
    Max,
    /// Elementwise minimum.
    Min,
}

/// Shared state for one "job": the rendezvous table, backend and stats.
pub struct CommWorld {
    world_size: usize,
    backend: Backend,
    rdv: Arc<Rendezvous>,
    stats: Arc<CommStats>,
    timeout: Duration,
}

impl CommWorld {
    /// Create a world of `world_size` ranks with the given backend.
    pub fn new(world_size: usize, backend: Backend) -> Arc<CommWorld> {
        Arc::new(CommWorld {
            world_size,
            backend,
            rdv: Rendezvous::new(),
            stats: Arc::new(CommStats::default()),
            timeout: DEFAULT_TIMEOUT,
        })
    }

    /// Create a world with a custom collective timeout (failure tests).
    pub fn with_timeout(world_size: usize, backend: Backend, timeout: Duration) -> Arc<CommWorld> {
        Arc::new(CommWorld {
            world_size,
            backend,
            rdv: Rendezvous::new(),
            stats: Arc::new(CommStats::default()),
            timeout,
        })
    }

    /// Total number of ranks.
    pub fn world_size(&self) -> usize {
        self.world_size
    }

    /// Accumulated communication statistics.
    pub fn stats(&self) -> &CommStats {
        &self.stats
    }

    /// Mark a rank failed: its peers' collectives abort with
    /// [`CollectiveError::PeerFailed`] instead of hanging (failure injection).
    pub fn inject_failure(&self, rank: usize) {
        self.rdv.mark_failed(rank);
    }

    /// Obtain the communicator handle for `rank` over the full world.
    pub fn communicator(self: &Arc<Self>, rank: usize) -> Result<Communicator> {
        if rank >= self.world_size {
            return Err(CollectiveError::NotAMember { rank });
        }
        let members: Arc<Vec<usize>> = Arc::new((0..self.world_size).collect());
        Ok(Communicator::new(self.clone(), rank, members))
    }
}

/// A per-rank handle for issuing collectives on a group of ranks.
///
/// All members must issue the same sequence of collectives on a group
/// (standard SPMD contract); operations are matched positionally.
#[derive(Clone)]
pub struct Communicator {
    world: Arc<CommWorld>,
    rank: usize,
    members: Arc<Vec<usize>>,
    group: u64,
    /// Virtual tree over member *indices*, present for the Tree backend.
    tree: Option<Arc<TreeTopology>>,
}

impl Communicator {
    fn new(world: Arc<CommWorld>, rank: usize, members: Arc<Vec<usize>>) -> Communicator {
        let group = group_key(&members);
        let tree = match world.backend {
            Backend::Flat => None,
            Backend::Tree { gpus_per_host, branching } => {
                let n = members.len();
                Some(Arc::new(TreeTopology::build(n, gpus_per_host.min(n).max(1), branching)))
            }
        };
        Communicator { world, rank, members, group, tree }
    }

    /// This rank's global rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Members of this group, ascending global ranks.
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// Group size.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// This rank's index within the group member list.
    pub fn index(&self) -> usize {
        self.members.iter().position(|&r| r == self.rank).expect("member")
    }

    /// Short description of the collective backend, attached to barrier and
    /// all-to-all spans so traces show how the control plane was shaped.
    pub fn backend_info(&self) -> String {
        match &self.tree {
            Some(tree) => {
                format!("tree(height={}, max_fanin={})", tree.height(), tree.max_fanin())
            }
            None => "flat".to_string(),
        }
    }

    /// Mark THIS rank as failed in the world's rendezvous, making every
    /// in-flight and future collective involving it abort with
    /// `PeerFailed` on the surviving ranks. Fault-injection hooks call this
    /// when a simulated crash fires, so a "dead" worker's peers unblock
    /// deterministically instead of waiting out the timeout.
    pub fn mark_self_failed(&self) {
        self.world.inject_failure(self.rank);
    }

    fn next_key(&self) -> SlotKey {
        SlotKey { group: self.group, seq: self.world.rdv.next_seq(self.group, self.rank) }
    }

    /// One rendezvous among an ad-hoc sub-set of this group's members (tree
    /// edges). The sub-set gets its own group key derived from this group's,
    /// so different trees over the same world never collide.
    fn edge_exchange<I, O, F>(
        &self,
        op: &'static str,
        members: &[usize],
        input: I,
        f: F,
    ) -> Result<O>
    where
        I: Send + 'static,
        O: Send + 'static,
        F: FnOnce(BTreeMap<usize, I>) -> BTreeMap<usize, O>,
    {
        let sub = group_key(members) ^ self.group.rotate_left(17);
        let key = SlotKey { group: sub, seq: self.world.rdv.next_seq(sub, self.rank) };
        self.world.rdv.exchange(op, key, members, self.rank, input, self.world.timeout, f)
    }

    // ------------------------------------------------------------------
    // Control-plane collectives (tree-accelerated when Backend::Tree)
    // ------------------------------------------------------------------

    /// Gather one value from every member at `root` (a global rank).
    /// Returns `Some(values)` (ordered by member index) at the root, `None`
    /// elsewhere.
    pub fn gather<T: Send + 'static>(&self, root: usize, value: T) -> Result<Option<Vec<T>>> {
        match (&self.tree, self.members.iter().position(|&r| r == root)) {
            (Some(tree), Some(root_idx)) if tree.root() == root_idx => {
                self.tree_gather(tree.clone(), value).map(|o| {
                    o.map(|mut v| {
                        v.sort_by_key(|(idx, _)| *idx);
                        v.into_iter().map(|(_, t)| t).collect()
                    })
                })
            }
            _ => self.flat_gather(root, value),
        }
    }

    fn flat_gather<T: Send + 'static>(&self, root: usize, value: T) -> Result<Option<Vec<T>>> {
        if !self.members.contains(&root) {
            return Err(CollectiveError::BadInput(format!("gather root {root} not a member")));
        }
        for &m in self.members.iter() {
            self.world.stats.record_connection(root, m);
        }
        self.world.stats.record_op(self.size(), 0);
        let key = self.next_key();
        self.world.rdv.exchange(
            "gather",
            key,
            &self.members,
            self.rank,
            value,
            self.world.timeout,
            move |inputs| {
                let ranks: Vec<usize> = inputs.keys().copied().collect();
                let all: Vec<T> = inputs.into_values().collect(); // BTreeMap: rank order
                let mut out: BTreeMap<usize, Option<Vec<T>>> =
                    ranks.into_iter().map(|r| (r, None)).collect();
                out.insert(root, Some(all));
                out
            },
        )
    }

    fn tree_gather<T: Send + 'static>(
        &self,
        tree: Arc<TreeTopology>,
        value: T,
    ) -> Result<Option<Vec<(usize, T)>>> {
        let my_idx = self.index();
        let mut acc: Vec<(usize, T)> = vec![(my_idx, value)];
        // Phase 1: collect from children (if any).
        let children = tree.children(my_idx);
        if !children.is_empty() {
            let mut members: Vec<usize> = children.iter().map(|&c| self.members[c]).collect();
            members.push(self.rank);
            members.sort_unstable();
            for &c in children {
                self.world.stats.record_connection(self.rank, self.members[c]);
            }
            self.world.stats.record_op(members.len(), 0);
            let me = self.rank;
            let collected: Vec<(usize, T)> = self.edge_exchange(
                "tree-gather-up",
                &members,
                acc,
                move |inputs: BTreeMap<usize, Vec<(usize, T)>>| {
                    // All deposits flow to the subtree root; children get
                    // empty vectors back (they only needed the send).
                    let ranks: Vec<usize> = inputs.keys().copied().collect();
                    let mut all = Vec::new();
                    for (_, v) in inputs {
                        all.extend(v);
                    }
                    let mut out: BTreeMap<usize, Vec<(usize, T)>> =
                        ranks.into_iter().map(|r| (r, Vec::new())).collect();
                    out.insert(me, all);
                    out
                },
            )?;
            acc = collected;
        }
        // Phase 2: forward to the parent. This is *the same exchange* as the
        // parent's phase 1 — the child's "send" is its participation in the
        // parent's collect group — so both sides supply an equivalent
        // combine (whoever arrives last runs it). A leaf has no phase 1, so
        // its first op on the edge group is this send; ordering stays
        // consistent across the tree.
        match tree.parent(my_idx) {
            None => Ok(Some(acc)),
            Some(p) => {
                let parent_rank = self.members[p];
                let mut members: Vec<usize> =
                    tree.children(p).iter().map(|&c| self.members[c]).collect();
                members.push(parent_rank);
                members.sort_unstable();
                let _: Vec<(usize, T)> = self.edge_exchange(
                    "tree-gather-up",
                    &members,
                    acc,
                    move |inputs: BTreeMap<usize, Vec<(usize, T)>>| {
                        let ranks: Vec<usize> = inputs.keys().copied().collect();
                        let mut all = Vec::new();
                        for (_, v) in inputs {
                            all.extend(v);
                        }
                        let mut out: BTreeMap<usize, Vec<(usize, T)>> =
                            ranks.into_iter().map(|r| (r, Vec::new())).collect();
                        out.insert(parent_rank, all);
                        out
                    },
                )?;
                Ok(None)
            }
        }
    }

    /// Scatter a vector of per-member values from `root`; each member
    /// receives its element (by member index). Non-root members pass `None`.
    pub fn scatter<T: Send + 'static>(&self, root: usize, values: Option<Vec<T>>) -> Result<T> {
        if self.rank == root {
            match &values {
                Some(v) if v.len() == self.size() => {}
                Some(v) => {
                    return Err(CollectiveError::BadInput(format!(
                        "scatter needs {} values, got {}",
                        self.size(),
                        v.len()
                    )))
                }
                None => return Err(CollectiveError::BadInput("root must provide values".into())),
            }
        }
        match (&self.tree, self.members.iter().position(|&r| r == root)) {
            (Some(tree), Some(root_idx)) if tree.root() == root_idx => {
                self.tree_scatter(tree.clone(), values)
            }
            _ => self.flat_scatter(root, values),
        }
    }

    fn flat_scatter<T: Send + 'static>(&self, root: usize, values: Option<Vec<T>>) -> Result<T> {
        for &m in self.members.iter() {
            self.world.stats.record_connection(root, m);
        }
        self.world.stats.record_op(self.size(), 0);
        let key = self.next_key();
        let members = self.members.clone();
        let members_for_f = self.members.clone();
        self.world.rdv.exchange(
            "scatter",
            key,
            &members,
            self.rank,
            values,
            self.world.timeout,
            move |mut inputs: BTreeMap<usize, Option<Vec<T>>>| {
                let vals = inputs.remove(&root).flatten().expect("validated: root provided values");
                members_for_f.iter().copied().zip(vals).collect()
            },
        )
    }

    fn tree_scatter<T: Send + 'static>(
        &self,
        tree: Arc<TreeTopology>,
        values: Option<Vec<T>>,
    ) -> Result<T> {
        let my_idx = self.index();
        // Phase 1: receive my subtree's bundle from the parent (the root
        // already holds the full set).
        let mut bundle: Vec<(usize, T)> = match tree.parent(my_idx) {
            None => {
                let vals = values.expect("validated: root provided values");
                vals.into_iter().enumerate().collect()
            }
            Some(p) => {
                let parent_rank = self.members[p];
                let mut members: Vec<usize> =
                    tree.children(p).iter().map(|&c| self.members[c]).collect();
                members.push(parent_rank);
                members.sort_unstable();
                let tree2 = tree.clone();
                let members_map: Vec<usize> = self.members.as_ref().clone();
                // The parent deposits its bundle; children deposit empty.
                // The combine routes each child its subtree subset.
                let my_deposit: Vec<(usize, T)> = Vec::new();
                self.edge_exchange(
                    "tree-scatter-down",
                    &members,
                    my_deposit,
                    move |mut inputs: BTreeMap<usize, Vec<(usize, T)>>| {
                        let parent_bundle = inputs.remove(&parent_rank).unwrap_or_default();
                        route_bundle(parent_bundle, &tree2, p, &members_map, parent_rank)
                    },
                )?
            }
        };
        // Phase 2: forward children their subsets. A node's phase 2 is the
        // same exchange as each child's phase 1 above (the child deposits an
        // empty vector, the parent deposits the bundle; the combine routes
        // subtree subsets to the children).
        if !tree.children(my_idx).is_empty() {
            let mut members: Vec<usize> =
                tree.children(my_idx).iter().map(|&c| self.members[c]).collect();
            members.push(self.rank);
            members.sort_unstable();
            for &c in tree.children(my_idx) {
                self.world.stats.record_connection(self.rank, self.members[c]);
            }
            self.world.stats.record_op(members.len(), 0);
            let tree2 = tree.clone();
            let members_map: Vec<usize> = self.members.as_ref().clone();
            let me = self.rank;
            let mine: Vec<(usize, T)> = self.edge_exchange(
                "tree-scatter-down",
                &members,
                bundle,
                move |mut inputs: BTreeMap<usize, Vec<(usize, T)>>| {
                    let parent_bundle = inputs.remove(&me).unwrap_or_default();
                    route_bundle(parent_bundle, &tree2, my_idx, &members_map, me)
                },
            )?;
            bundle = mine;
        }
        let my_idx_final = my_idx;
        bundle
            .into_iter()
            .find(|(idx, _)| *idx == my_idx_final)
            .map(|(_, t)| t)
            .ok_or_else(|| CollectiveError::BadInput("scatter routing lost my element".into()))
    }

    /// Broadcast a value from `root` to all members.
    pub fn broadcast<T: Send + Clone + 'static>(&self, root: usize, value: Option<T>) -> Result<T> {
        if self.rank == root && value.is_none() {
            return Err(CollectiveError::BadInput("broadcast root must provide a value".into()));
        }
        // Broadcast is scatter of clones; reuse scatter's tree routing by
        // expanding at the root. Payloads are small control-plane values.
        let values = if self.rank == root {
            let v = value.expect("checked above");
            Some(vec![v; self.size()])
        } else {
            None
        };
        self.scatter(root, values)
    }

    /// Barrier: returns only when every member has arrived. Tree backend
    /// runs gather-up + broadcast-down over the hierarchy (Appendix B's
    /// optimized integrity barrier); flat is a single rendezvous.
    pub fn barrier(&self) -> Result<()> {
        match &self.tree {
            Some(tree) => {
                let t = tree.clone();
                let up = self.tree_gather(t, ())?;
                let root_rank = self.members[tree.root()];
                let token = if up.is_some() { Some(()) } else { None };
                // Only the tree root holds Some; broadcast from it.
                self.broadcast_from_tree_root(root_rank, token)?;
                Ok(())
            }
            None => {
                self.world.stats.record_op(self.size(), 0);
                let key = self.next_key();
                self.world.rdv.exchange(
                    "barrier",
                    key,
                    &self.members,
                    self.rank,
                    (),
                    self.world.timeout,
                    |inputs| inputs.into_keys().map(|r| (r, ())).collect(),
                )
            }
        }
    }

    fn broadcast_from_tree_root(&self, root_rank: usize, token: Option<()>) -> Result<()> {
        let values = if self.rank == root_rank {
            debug_assert!(token.is_some());
            Some(vec![(); self.size()])
        } else {
            None
        };
        self.scatter(root_rank, values)
    }

    // ------------------------------------------------------------------
    // Point-to-point messaging (eager, non-blocking sends)
    // ------------------------------------------------------------------

    /// Directional channel key for messages `from → to` within this group.
    /// Order-dependent (unlike [`group_key`]) so the two directions of a
    /// pair have independent sequence streams, and seeded with the group key
    /// so distinct groups over the same ranks never collide.
    fn p2p_channel(&self, from: usize, to: usize) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ self.group.rotate_left(29);
        for r in [from, to] {
            for b in (r as u64).to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        h
    }

    /// Post `value` to member `to` without blocking. The k-th send to a
    /// given peer pairs with that peer's k-th [`Communicator::recv`] from
    /// this rank (positional matching, like collectives). Eager sends let
    /// the load pipeline forward intersections as soon as they are
    /// extracted, while peers are still fetching.
    pub fn send_async<T: Send + 'static>(&self, to: usize, value: T) -> Result<()> {
        if !self.members.contains(&to) {
            return Err(CollectiveError::BadInput(format!("send target {to} not a member")));
        }
        let chan = self.p2p_channel(self.rank, to);
        let seq = self.world.rdv.next_seq(chan, self.rank);
        self.world.stats.record_connection(self.rank, to);
        self.world.stats.record_op(2, 0);
        self.world.rdv.post(SlotKey { group: chan, seq }, value);
        Ok(())
    }

    /// Receive the next message sent by member `from` to this rank,
    /// blocking up to the world timeout. Errors promptly with `PeerFailed`
    /// if `from` is marked failed before its message arrives.
    pub fn recv<T: Send + 'static>(&self, from: usize) -> Result<T> {
        if !self.members.contains(&from) {
            return Err(CollectiveError::BadInput(format!("recv source {from} not a member")));
        }
        let chan = self.p2p_channel(from, self.rank);
        let seq = self.world.rdv.next_seq(chan, self.rank);
        self.world.rdv.take("recv", SlotKey { group: chan, seq }, from, self.world.timeout)
    }

    // ------------------------------------------------------------------
    // Data-plane collectives (always direct)
    // ------------------------------------------------------------------

    /// Every member receives every member's value, ordered by member index.
    pub fn all_gather<T: Send + Clone + 'static>(&self, value: T) -> Result<Vec<T>> {
        for (i, &a) in self.members.iter().enumerate() {
            for &b in self.members.iter().skip(i + 1) {
                self.world.stats.record_connection(a, b);
            }
        }
        self.world.stats.record_op(self.size(), 0);
        let key = self.next_key();
        self.world.rdv.exchange(
            "all_gather",
            key,
            &self.members,
            self.rank,
            value,
            self.world.timeout,
            |inputs: BTreeMap<usize, T>| {
                let all: Vec<T> = inputs.values().cloned().collect();
                inputs.into_keys().map(|r| (r, all.clone())).collect()
            },
        )
    }

    /// Elementwise all-reduce over `f32` vectors (used by the genuinely
    /// trained data-parallel example).
    pub fn all_reduce_f32(&self, data: Vec<f32>, op: ReduceOp) -> Result<Vec<f32>> {
        self.world.stats.record_op(self.size(), (data.len() * 4) as u64);
        let key = self.next_key();
        self.world.rdv.exchange(
            "all_reduce",
            key,
            &self.members,
            self.rank,
            data,
            self.world.timeout,
            move |inputs: BTreeMap<usize, Vec<f32>>| {
                let mut iter = inputs.values();
                let mut acc = iter.next().cloned().unwrap_or_default();
                for v in iter {
                    for (a, b) in acc.iter_mut().zip(v) {
                        *a = match op {
                            ReduceOp::Sum => *a + b,
                            ReduceOp::Max => a.max(*b),
                            ReduceOp::Min => a.min(*b),
                        };
                    }
                }
                inputs.into_keys().map(|r| (r, acc.clone())).collect()
            },
        )
    }
}

/// Route a scatter bundle held at tree node `holder_idx` to itself and its
/// children (each child gets its whole subtree's elements).
fn route_bundle<T>(
    bundle: Vec<(usize, T)>,
    tree: &TreeTopology,
    holder_idx: usize,
    members: &[usize],
    holder_rank: usize,
) -> BTreeMap<usize, Vec<(usize, T)>> {
    let mut out: BTreeMap<usize, Vec<(usize, T)>> = BTreeMap::new();
    out.insert(holder_rank, Vec::new());
    // Precompute child subtree membership.
    let child_subtrees: Vec<(usize, Vec<usize>)> =
        tree.children(holder_idx).iter().map(|&c| (c, tree.subtree_members(c))).collect();
    for (c, _) in &child_subtrees {
        out.insert(members[*c], Vec::new());
    }
    for (idx, item) in bundle {
        if idx == holder_idx {
            out.get_mut(&holder_rank).expect("inserted").push((idx, item));
            continue;
        }
        let mut routed = false;
        for (c, subtree) in &child_subtrees {
            if subtree.binary_search(&idx).is_ok() {
                out.get_mut(&members[*c]).expect("inserted").push((idx, item));
                routed = true;
                break;
            }
        }
        debug_assert!(routed, "element for idx {idx} had no route from {holder_idx}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn run_world<F, T>(n: usize, backend: Backend, f: F) -> Vec<T>
    where
        F: Fn(Communicator) -> T + Send + Sync + 'static,
        T: Send + 'static,
    {
        let world = CommWorld::new(n, backend);
        let f = Arc::new(f);
        let mut handles = Vec::new();
        for rank in 0..n {
            let world = world.clone();
            let f = f.clone();
            handles.push(thread::spawn(move || f(world.communicator(rank).unwrap())));
        }
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    fn backends() -> Vec<Backend> {
        vec![Backend::Flat, Backend::Tree { gpus_per_host: 4, branching: 2 }]
    }

    #[test]
    fn gather_orders_by_rank() {
        for backend in backends() {
            let results = run_world(8, backend, |c| c.gather(0, c.rank() * 2).unwrap());
            assert_eq!(results[0], Some(vec![0, 2, 4, 6, 8, 10, 12, 14]), "{backend:?}");
            for r in &results[1..] {
                assert_eq!(*r, None);
            }
        }
    }

    #[test]
    fn scatter_routes_by_rank() {
        for backend in backends() {
            let results = run_world(8, backend, |c| {
                let vals =
                    if c.rank() == 0 { Some((0..8).map(|i| i * 100).collect()) } else { None };
                c.scatter(0, vals).unwrap()
            });
            assert_eq!(results, (0..8).map(|i| i * 100).collect::<Vec<_>>(), "{backend:?}");
        }
    }

    #[test]
    fn broadcast_delivers_everywhere() {
        for backend in backends() {
            let results = run_world(6, backend, |c| {
                let v = if c.rank() == 0 { Some("payload".to_string()) } else { None };
                c.broadcast(0, v).unwrap()
            });
            assert!(results.iter().all(|r| r == "payload"), "{backend:?}");
        }
    }

    #[test]
    fn barrier_completes_for_all() {
        for backend in backends() {
            let results = run_world(8, backend, |c| c.barrier().is_ok());
            assert!(results.into_iter().all(|ok| ok), "{backend:?}");
        }
    }

    #[test]
    fn all_gather_everyone_sees_everything() {
        for backend in backends() {
            let results = run_world(5, backend, |c| c.all_gather(c.rank()).unwrap());
            for r in results {
                assert_eq!(r, vec![0, 1, 2, 3, 4], "{backend:?}");
            }
        }
    }

    #[test]
    fn all_reduce_sums() {
        let results = run_world(3, Backend::Flat, |c| {
            c.all_reduce_f32(vec![c.rank() as f32, 1.0], ReduceOp::Sum).unwrap()
        });
        for r in results {
            assert_eq!(r, vec![3.0, 3.0]);
        }
    }

    #[test]
    fn tree_backend_uses_fewer_connections_at_root() {
        // 16 ranks, 4 per host. Flat gather at root connects root to all 15;
        // tree connects only along edges.
        let flat = CommWorld::new(16, Backend::Flat);
        let tree = CommWorld::new(16, Backend::Tree { gpus_per_host: 4, branching: 2 });
        for (world, _name) in [(flat, "flat"), (tree, "tree")] {
            let mut handles = Vec::new();
            for rank in 0..16 {
                let w = world.clone();
                handles.push(thread::spawn(move || {
                    let c = w.communicator(rank).unwrap();
                    c.gather(0, rank).unwrap()
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
        }
        // Re-run to capture stats per world.
        let flat = CommWorld::new(16, Backend::Flat);
        let tree = CommWorld::new(16, Backend::Tree { gpus_per_host: 4, branching: 2 });
        for world in [&flat, &tree] {
            let mut handles = Vec::new();
            for rank in 0..16 {
                let w = world.clone();
                handles.push(thread::spawn(move || {
                    let c = w.communicator(rank).unwrap();
                    c.gather(0, rank).unwrap()
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
        }
        let flat_conns = flat.stats().snapshot().connections;
        let tree_conns = tree.stats().snapshot().connections;
        assert_eq!(flat_conns, 15);
        assert_eq!(tree_conns, 15); // a tree has n-1 edges
                                    // The structural difference is fan-in, visible on the topology.
        let t = TreeTopology::build(16, 4, 2);
        assert!(t.max_fanin() < 15);
    }

    #[test]
    fn failure_injection_propagates() {
        let world = CommWorld::new(3, Backend::Flat);
        world.inject_failure(2);
        let mut handles = Vec::new();
        for rank in 0..2 {
            let w = world.clone();
            handles.push(thread::spawn(move || {
                let c = w.communicator(rank).unwrap();
                c.barrier()
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), Err(CollectiveError::PeerFailed { rank: 2 }));
        }
    }

    #[test]
    fn scatter_validates_input_length() {
        let world = CommWorld::new(2, Backend::Flat);
        let c0 = world.communicator(0).unwrap();
        let err = c0.scatter(0, Some(vec![1])).unwrap_err();
        assert!(matches!(err, CollectiveError::BadInput(_)));
    }

    #[test]
    fn p2p_sends_match_receives_in_order() {
        let results = run_world(2, Backend::Flat, |c| {
            if c.rank() == 0 {
                for i in 0..5u32 {
                    c.send_async(1, format!("msg-{i}")).unwrap();
                }
                Vec::new()
            } else {
                (0..5).map(|_| c.recv::<String>(0).unwrap()).collect()
            }
        });
        assert_eq!(results[1], (0..5).map(|i| format!("msg-{i}")).collect::<Vec<_>>());
    }

    #[test]
    fn p2p_directions_are_independent() {
        // Both ranks send before either receives: non-blocking sends plus
        // per-direction channels mean neither order can deadlock or
        // cross-deliver.
        let results = run_world(2, Backend::Flat, |c| {
            let peer = 1 - c.rank();
            c.send_async(peer, format!("from-{}", c.rank())).unwrap();
            c.recv::<String>(peer).unwrap()
        });
        assert_eq!(results, vec!["from-1".to_string(), "from-0".to_string()]);
    }

    #[test]
    fn p2p_recv_from_failed_peer_errors_promptly() {
        let world = CommWorld::new(2, Backend::Flat);
        world.inject_failure(0);
        let c = world.communicator(1).unwrap();
        let start = std::time::Instant::now();
        let err = c.recv::<u32>(0).unwrap_err();
        assert_eq!(err, CollectiveError::PeerFailed { rank: 0 });
        assert!(start.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn p2p_recv_times_out_without_sender() {
        let world = CommWorld::with_timeout(2, Backend::Flat, Duration::from_millis(50));
        let c = world.communicator(1).unwrap();
        let err = c.recv::<u32>(0).unwrap_err();
        assert!(matches!(err, CollectiveError::Timeout { op: "recv", .. }));
    }

    #[test]
    fn p2p_validates_membership() {
        let world = CommWorld::new(2, Backend::Flat);
        let c = world.communicator(0).unwrap();
        assert!(matches!(c.send_async(9, 1u8), Err(CollectiveError::BadInput(_))));
        assert!(matches!(c.recv::<u8>(9), Err(CollectiveError::BadInput(_))));
    }

    #[test]
    fn large_tree_world_gather() {
        // 32 ranks, deeper tree; checks multi-level up-propagation.
        let results = run_world(32, Backend::Tree { gpus_per_host: 8, branching: 2 }, |c| {
            c.gather(0, c.rank() as u64).unwrap()
        });
        assert_eq!(results[0], Some((0..32u64).collect::<Vec<_>>()));
    }
}
