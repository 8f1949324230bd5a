//! Read-side checkpoint distribution: peer-to-peer fan-out of a committed
//! step's chunks to N cold-starting replicas.
//!
//! The training world that *wrote* a checkpoint is small; the inference
//! fleet that *reads* it is not. With every replica reading independently,
//! aggregate restore throughput is capped by backend bandwidth. This module
//! inverts that: unique chunks (from the commit-time [`ChunkManifest`]) are
//! scheduled round-robin over the replicas, each chunk's *owner* fetches it
//! from the backend exactly once (through the single-flight
//! [`bcp_storage::ReadCache`] when provided), and the fan-out tree from
//! [`bcp_topology::FanoutPlan`] relays it peer-to-peer over the
//! `send_async`/`recv` rendezvous mailboxes. Backend traffic is O(unique
//! bytes), independent of replica count.
//!
//! Correctness leans on two invariants:
//!
//! * **Positional p2p matching** — every replica iterates the *same*
//!   global chunk order, so on any directed tree edge the k-th send is the
//!   k-th chunk relayed over that edge, matching the receiver's k-th
//!   `recv`. No reorder buffer, no tags.
//! * **Content verification** — a relayed chunk is re-hashed on receive
//!   (unless disabled) and reassembly re-checks lengths, so a corrupted
//!   relay fails closed instead of propagating down the tree.

use crate::chunks::{chunk_hash, ChunkManifest, CHUNK_MANIFEST_FILE};
use crate::{BcpError, Result};
use bcp_collectives::Communicator;
use bcp_monitor::MetricsSink;
use bcp_storage::{DynBackend, ReadCache};
use bcp_topology::{ClusterLayout, FanoutPlan};
use bytes::Bytes;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Tuning for one fan-out session.
#[derive(Debug, Clone)]
pub struct FanoutOptions {
    /// Ranks per host for the tree shape (cross-host edges are the scarce
    /// resource the two-level tree minimizes).
    pub gpus_per_host: usize,
    /// Re-hash chunks received from peers against the manifest.
    pub verify_hashes: bool,
}

impl Default for FanoutOptions {
    fn default() -> FanoutOptions {
        FanoutOptions { gpus_per_host: 8, verify_hashes: true }
    }
}

/// What one replica moved during a fan-out session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DistStats {
    /// Unique chunks in the schedule.
    pub chunks_total: usize,
    /// Chunks this replica fetched from the backend (as owner).
    pub backend_chunks: usize,
    /// Bytes this replica actually read from the backend.
    pub backend_bytes: u64,
    /// Owner fetches absorbed by the read cache (no backend traffic).
    pub cache_hits: usize,
    /// Chunks received from the parent peer.
    pub peer_chunks: usize,
    /// Bytes received from the parent peer.
    pub peer_bytes: u64,
    /// Bytes relayed to children.
    pub relayed_bytes: u64,
    /// Files assembled.
    pub files: usize,
    /// Assembled bytes (equals the manifest's total).
    pub assembled_bytes: u64,
}

/// Read and validate a committed step's chunk manifest.
pub fn read_chunk_manifest(backend: &DynBackend, prefix: &str) -> Result<ChunkManifest> {
    let path = format!("{prefix}/{CHUNK_MANIFEST_FILE}");
    let data = backend.read(&path)?;
    ChunkManifest::from_bytes(&data).map_err(BcpError::Corrupt)
}

/// Cold-start one replica from `manifest` under the fan-out tree.
///
/// Every member of `comm` must call this with the same manifest, prefix and
/// options (it is a collective). Returns the fully assembled shard files
/// (bitwise-identical to the committed step) and this replica's traffic
/// stats. `cache` — when provided — keys owner fetches by *content hash*,
/// so identical chunks across files/steps and sessions sharing the cache
/// hit instead of re-fetching; without it, owners read the backend
/// directly.
pub fn fetch_step_fanout(
    comm: &Communicator,
    backend: &DynBackend,
    cache: Option<&Arc<ReadCache>>,
    prefix: &str,
    manifest: &ChunkManifest,
    opts: &FanoutOptions,
    sink: &MetricsSink,
) -> Result<(BTreeMap<String, Bytes>, DistStats)> {
    let members = comm.members().to_vec();
    let world = members.len();
    let me = members
        .iter()
        .position(|&m| m == comm.rank())
        .ok_or_else(|| BcpError::Plan("rank not a member of the fan-out group".into()))?;
    let layout = ClusterLayout::new(world, opts.gpus_per_host.max(1))
        .map_err(|e| BcpError::Plan(format!("fan-out layout: {e}")))?;
    let plan = FanoutPlan::new(layout);

    let unique = manifest.unique_chunks();
    let mut stats = DistStats { chunks_total: unique.len(), ..DistStats::default() };
    let mut store: HashMap<String, Bytes> = HashMap::with_capacity(unique.len());
    for (i, site) in unique.iter().enumerate() {
        let owner = plan.owner_of(i);
        let data = if me == owner {
            // Owner: the single backend touch for this chunk, coalesced and
            // deduped by content hash when a cache is attached.
            let path = format!("{prefix}/{}", site.file);
            let mut fetched = false;
            let data = match cache {
                Some(c) => c.get_with(&format!("h:{}", site.hash), None, || {
                    fetched = true;
                    c.inner().read_range(&path, site.offset, site.len)
                })?,
                None => {
                    fetched = true;
                    backend.read_range(&path, site.offset, site.len)?
                }
            };
            if fetched {
                stats.backend_chunks += 1;
                stats.backend_bytes += data.len() as u64;
            } else {
                stats.cache_hits += 1;
            }
            data
        } else {
            let parent = plan.parent(owner, me).expect("non-owner has a parent");
            let data: Bytes = comm.recv(members[parent])?;
            if opts.verify_hashes && chunk_hash(&data) != site.hash {
                return Err(BcpError::Corrupt(format!(
                    "chunk {} ({}@{}) corrupted in relay from rank {}",
                    site.hash, site.file, site.offset, members[parent]
                )));
            }
            stats.peer_chunks += 1;
            stats.peer_bytes += data.len() as u64;
            data
        };
        for child in plan.children(owner, me) {
            comm.send_sized_async(members[child], data.clone(), data.len() as u64)?;
            stats.relayed_bytes += data.len() as u64;
        }
        store.insert(site.hash.clone(), data);
    }

    let files = manifest.reassemble(&store)?;
    stats.files = files.len();
    stats.assembled_bytes = files.values().map(|b| b.len() as u64).sum();
    emit_stats(sink, comm.rank(), manifest.step, &stats);
    Ok((files, stats))
}

/// Emit the session's traffic as `dist/fanout/*` point spans so the live
/// plane folds them into `fanout_peer_bytes_total` and friends.
fn emit_stats(sink: &MetricsSink, rank: usize, step: u64, stats: &DistStats) {
    for (name, bytes) in
        [("dist/fanout/peer", stats.peer_bytes), ("dist/fanout/backend", stats.backend_bytes)]
    {
        if bytes > 0 {
            drop(sink.span(name, rank, step).uncounted().bytes(bytes));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunks::FileChunks;
    use bcp_collectives::{Backend, CommWorld};
    use bcp_storage::MemoryBackend;

    fn committed_manifest(
        backend: &DynBackend,
        prefix: &str,
        files: &[(&str, Vec<u8>)],
    ) -> ChunkManifest {
        let mut contrib = Vec::new();
        for (name, data) in files {
            backend.write(&format!("{prefix}/{name}"), Bytes::from(data.clone())).unwrap();
            contrib.push(FileChunks::from_bytes(*name, data, 64));
        }
        ChunkManifest::assemble(3, 64, vec![contrib])
    }

    #[test]
    fn all_replicas_assemble_identical_files() {
        let backend: DynBackend = Arc::new(MemoryBackend::new());
        let data_a: Vec<u8> = (0..777u32).map(|i| (i % 251) as u8).collect();
        let data_b = vec![9u8; 200];
        let manifest = Arc::new(committed_manifest(
            &backend,
            "step_3",
            &[("model_0.bin", data_a.clone()), ("model_1.bin", data_b.clone())],
        ));
        let world = CommWorld::new(6, Backend::Flat);
        let handles: Vec<_> = (0..6)
            .map(|r| {
                let comm = world.communicator(r).unwrap();
                let backend = backend.clone();
                let manifest = manifest.clone();
                std::thread::spawn(move || {
                    fetch_step_fanout(
                        &comm,
                        &backend,
                        None,
                        "step_3",
                        &manifest,
                        &FanoutOptions { gpus_per_host: 2, ..Default::default() },
                        &MetricsSink::disabled(),
                    )
                    .unwrap()
                })
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let total_backend: u64 = results.iter().map(|(_, s)| s.backend_bytes).sum();
        assert_eq!(
            total_backend,
            manifest.unique_bytes(),
            "backend read exactly the unique bytes once, across all replicas"
        );
        for (files, stats) in &results {
            assert_eq!(&files["model_0.bin"][..], &data_a[..]);
            assert_eq!(&files["model_1.bin"][..], &data_b[..]);
            assert_eq!(stats.assembled_bytes, manifest.total_bytes());
            assert_eq!(stats.chunks_total, manifest.unique_chunks().len());
        }
        // Every replica either fetched or was served each chunk.
        for (i, (_, s)) in results.iter().enumerate() {
            assert_eq!(
                s.backend_chunks + s.cache_hits + s.peer_chunks,
                s.chunks_total,
                "replica {i}"
            );
        }
    }

    #[test]
    fn manifest_round_trips_through_backend() {
        let backend: DynBackend = Arc::new(MemoryBackend::new());
        let manifest = committed_manifest(&backend, "step_9", &[("m.bin", vec![1u8; 100])]);
        backend
            .write(&format!("step_9/{CHUNK_MANIFEST_FILE}"), Bytes::from(manifest.to_bytes()))
            .unwrap();
        let back = read_chunk_manifest(&backend, "step_9").unwrap();
        assert_eq!(back, manifest);
        backend.write(&format!("step_9/{CHUNK_MANIFEST_FILE}"), Bytes::from_static(b"{")).unwrap();
        assert!(read_chunk_manifest(&backend, "step_9").is_err());
    }
}
