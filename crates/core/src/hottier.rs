//! Tiered recovery: peer-replicated hot-tier checkpoints (TierCheck /
//! DataStates-LLM style, mapped onto this repo's machinery).
//!
//! Save side: after the coordinator commits a step, every rank inserts its
//! own serialized shard files into its in-process [`HotTier`] and ships a
//! copy to `R` peers over [`Communicator::send_async`] — placement decided
//! by the failure-domain-aware [`ReplicaPlacement`] (never on the source
//! host), entirely inside the save's asynchronous finalize tail so the
//! committed-save latency is unchanged.
//!
//! Load side: `load_latest` grows a recovery ladder. Survivors verify the
//! hot copies they hold for the chosen step frame-by-frame (the PR 4 CRC
//! machinery), re-fetch their own shards from whichever peer still holds a
//! clean replica, and serve the load through a
//! [`bcp_storage::TieredReadBackend`] overlay — any miss or verification
//! defect falls through to the persistent tree, and a corrupt persistent
//! step still falls back to quarantine as before. [`TierBreakdown`] records
//! which tier served each shard.

use crate::fault::FaultHook;
use crate::format::decode_frames;
use crate::{BcpError, Result};
use bcp_collectives::Communicator;
use bcp_storage::hot::{HotFiles, HotTier, TieredReadBackend};
use bcp_topology::ReplicaPlacement;
use bytes::Bytes;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Hot-tier configuration (must be identical on every rank of a job: the
/// replication exchange is a symmetric collective protocol).
///
/// Serializable so a [`crate::spec::JobSpec`] can carry it over the
/// control-plane wire. Build one with the chainable constructors:
///
/// ```
/// # use bcp_core::HotTierConfig;
/// let cfg = HotTierConfig::enabled().replicas(2).capacity_steps(3).gpus_per_host(8);
/// assert!(cfg.enabled);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct HotTierConfig {
    /// Replicate committed shard frames into the in-process hot tier and
    /// recover through it. Defaults to **off** (opt-in).
    pub enabled: bool,
    /// Peer replicas per shard (R). Capped at `num_hosts - 1` by placement.
    pub replicas: usize,
    /// Hot-ring capacity in steps (K).
    pub capacity_steps: usize,
    /// Ranks per failure domain (host). 1 treats every rank as its own
    /// host — the right default for thread-per-rank jobs and single-GPU
    /// processes; real jobs pass their actual GPUs-per-host.
    pub gpus_per_host: usize,
}

impl Default for HotTierConfig {
    fn default() -> HotTierConfig {
        HotTierConfig { enabled: false, replicas: 1, capacity_steps: 2, gpus_per_host: 1 }
    }
}

impl HotTierConfig {
    /// An enabled tier with the default shape (R = 1, K = 2, one rank per
    /// host).
    pub fn enabled() -> HotTierConfig {
        HotTierConfig { enabled: true, ..HotTierConfig::default() }
    }

    /// Set the peer replica count (R).
    pub fn replicas(mut self, replicas: usize) -> HotTierConfig {
        self.replicas = replicas;
        self
    }

    /// Set the hot-ring capacity in steps (K); clamped to ≥ 1.
    pub fn capacity_steps(mut self, steps: usize) -> HotTierConfig {
        self.capacity_steps = steps.max(1);
        self
    }

    /// Set the failure-domain width; clamped to ≥ 1.
    pub fn gpus_per_host(mut self, gpus: usize) -> HotTierConfig {
        self.gpus_per_host = gpus.max(1);
        self
    }
}

/// `true` is an enabled tier with default shape; `false` disables it.
impl From<bool> for HotTierConfig {
    fn from(enabled: bool) -> HotTierConfig {
        HotTierConfig { enabled, ..HotTierConfig::default() }
    }
}

fn placement(comm: &Communicator, opts: &HotTierConfig) -> Result<ReplicaPlacement> {
    ReplicaPlacement::new(comm.size(), opts.gpus_per_host.max(1), opts.replicas)
        .map_err(|e| BcpError::Plan(format!("hot-tier placement: {e}")))
}

/// One peer-to-peer replication message: `(step, source rank, files)`.
type ReplicaMsg = (u64, usize, HotFiles);

/// Post-commit replication exchange (save finalize tail). Every rank
/// inserts its own files, ships them to its placement targets and stores
/// the replicas its peers ship to it. Symmetric: all ranks compute the same
/// placement, so the positional p2p matching lines up without negotiation.
///
/// Errors (a peer died mid-exchange) are returned for best-effort logging;
/// the rank's *own* insert has already happened by then, and a partially
/// replicated step merely lowers the hot hit rate — never correctness.
pub fn replicate_after_commit(
    comm: &Communicator,
    hot: &Arc<HotTier>,
    opts: &HotTierConfig,
    step: u64,
    files: HotFiles,
) -> Result<()> {
    let members = comm.members().to_vec();
    let rank = comm.rank();
    let me = comm.index();
    hot.insert(step, rank, files.clone());
    let placement = placement(comm, opts)?;
    for &t in &placement.targets(me) {
        comm.send_async::<ReplicaMsg>(members[t], (step, rank, files.clone()))?;
    }
    for &s in &placement.sources_for(me) {
        let (rstep, rsrc, rfiles): ReplicaMsg = comm.recv(members[s])?;
        hot.insert(rstep, rsrc, rfiles);
    }
    Ok(())
}

/// Frame-verify a held file set, dropping (and recording) defective files.
fn verify_files(files: HotFiles, source: usize, fallbacks: &mut Vec<String>) -> HotFiles {
    files
        .into_iter()
        .filter(|(name, bytes)| match decode_frames(bytes) {
            Ok(frames) if !frames.is_empty() => true,
            Ok(_) => {
                fallbacks.push(format!("hot copy {name} (rank {source}) holds no frames"));
                false
            }
            Err(e) => {
                fallbacks.push(format!("hot copy {name} (rank {source}) failed verification: {e}"));
                false
            }
        })
        .collect()
}

/// The assembled hot view of one step on this rank.
pub struct HotAssembly {
    /// Full object path (`<prefix>/<file>`) → verified bytes.
    pub files: HashMap<String, Bytes>,
    /// Why shards will fall through to the persistent tree (verification
    /// defects, missing replicas, dead peers).
    pub fallbacks: Vec<String>,
}

/// Rung 1 of the recovery ladder: assemble the chosen committed step from
/// hot copies. A collective — every rank must call it at the same point.
///
/// 1. Each rank CRC-verifies every file set it holds for `step` (its own
///    and peer replicas), dropping defects.
/// 2. Ranks `all_gather` who holds what; for every surviving source set,
///    the lowest-indexed clean holder ships it to every member lacking it
///    (full-union assembly: dedup'd read plans make a rank read files that
///    *other* ranks saved, so every rank needs every set). Shipped sets are
///    re-verified on receipt.
/// 3. The union of surviving sets becomes the read overlay; anything absent
///    is served by the cold backend underneath.
pub fn assemble_hot_step(
    comm: &Communicator,
    hot: &Arc<HotTier>,
    faults: &FaultHook,
    step: u64,
    prefix: &str,
) -> Result<HotAssembly> {
    faults.check("load/hot")?;
    let members = comm.members().to_vec();
    let me = comm.index();
    let mut fallbacks = Vec::new();

    // 1. Verify local holdings.
    let mut verified: HashMap<usize, HotFiles> = HashMap::new();
    for source in hot.sources(step) {
        let clean = verify_files(hot.get(step, source).unwrap_or_default(), source, &mut fallbacks);
        if !clean.is_empty() {
            verified.insert(source, clean);
        }
    }

    // 2. Who holds what (global source ranks, sorted for determinism).
    let mut held: Vec<usize> = verified.keys().copied().collect();
    held.sort_unstable();
    let summaries: Vec<Vec<usize>> = comm.all_gather(held)?;
    let all_sources: BTreeSet<usize> = summaries.iter().flatten().copied().collect();
    for &m in &members {
        if !all_sources.contains(&m) {
            fallbacks.push(format!(
                "no surviving hot copy of rank {m}'s shard files for step {step}: cold read"
            ));
        }
    }

    // 3. Full-union shipping: the lowest-indexed holder of each surviving
    //    source set ships it to every member lacking it. Both sides walk
    //    (source asc, needer asc), and `send_async` is eager, so the
    //    blocking recvs on each rank line up with the holders' send order.
    for &src in &all_sources {
        let holder_idx = summaries
            .iter()
            .enumerate()
            .filter(|(_, h)| h.contains(&src))
            .map(|(j, _)| j)
            .min()
            .expect("src came from summaries");
        for (needer_idx, held) in summaries.iter().enumerate() {
            if held.contains(&src) {
                continue;
            }
            if me == holder_idx {
                let payload = verified.get(&src).cloned().unwrap_or_default();
                if let Err(e) = comm.send_async::<HotFiles>(members[needer_idx], payload) {
                    fallbacks.push(format!(
                        "hot replica ship of rank {src}'s files to rank {} failed: {e}",
                        members[needer_idx]
                    ));
                }
            } else if me == needer_idx {
                match comm.recv::<HotFiles>(members[holder_idx]) {
                    Ok(files) => {
                        let clean = verify_files(files, src, &mut fallbacks);
                        if !clean.is_empty() {
                            verified.insert(src, clean);
                        }
                    }
                    Err(e) => fallbacks.push(format!(
                        "hot replica fetch of rank {src}'s files from rank {} failed: {e}",
                        members[holder_idx]
                    )),
                }
            }
        }
    }

    // 4. Overlay map over full object paths.
    let mut files = HashMap::new();
    for set in verified.values() {
        for (name, bytes) in set {
            files.insert(format!("{prefix}/{name}"), bytes.clone());
        }
    }
    Ok(HotAssembly { files, fallbacks })
}

/// Which tier served each shard of one load, cut from the
/// [`TieredReadBackend`]'s read log (shard files only: frame files named
/// `model_*` / `optim_*`; metadata, loader and extra state always read
/// cold and are not shards).
#[derive(Debug, Clone, Default)]
pub struct TierBreakdown {
    /// Distinct shard files served from the hot tier.
    pub hot_files: usize,
    /// Distinct shard files served from the persistent tree.
    pub cold_files: usize,
    /// Shard bytes served hot.
    pub hot_bytes: u64,
    /// Shard bytes served cold.
    pub cold_bytes: u64,
    /// Why shards fell through (empty when everything was served hot).
    pub fallbacks: Vec<String>,
}

fn is_shard_file(path: &str) -> bool {
    let name = path.rsplit('/').next().unwrap_or(path);
    name.ends_with(".bin") && (name.starts_with("model_") || name.starts_with("optim_"))
}

impl TierBreakdown {
    /// Summarize a finished tiered load.
    pub fn from_backend(tiered: &TieredReadBackend, fallbacks: Vec<String>) -> TierBreakdown {
        let mut hot_paths = BTreeSet::new();
        let mut cold_paths = BTreeSet::new();
        let mut hot_bytes = 0u64;
        let mut cold_bytes = 0u64;
        for hit in tiered.tier_log() {
            if !is_shard_file(&hit.path) {
                continue;
            }
            if hit.hot {
                hot_bytes += hit.bytes;
                hot_paths.insert(hit.path);
            } else {
                cold_bytes += hit.bytes;
                cold_paths.insert(hit.path);
            }
        }
        TierBreakdown {
            hot_files: hot_paths.len(),
            cold_files: cold_paths.len(),
            hot_bytes,
            cold_bytes,
            fallbacks,
        }
    }

    /// Fraction of shard files served from the hot tier (0 when no shard
    /// reads happened).
    pub fn hot_fraction(&self) -> f64 {
        let total = self.hot_files + self.cold_files;
        if total == 0 {
            0.0
        } else {
            self.hot_files as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::encode_frame;
    use crate::metadata::ShardMeta;
    use bcp_storage::{DynBackend, MemoryBackend, StorageBackend};
    use bcp_tensor::DType;

    fn frame_file() -> Bytes {
        let shard = ShardMeta { fqn: "w".into(), offsets: vec![0], lengths: vec![4] };
        let payload = [1u8; 16];
        let (buf, _) = encode_frame(&shard, DType::F32, &payload);
        buf.freeze()
    }

    #[test]
    fn verify_drops_corrupt_files_and_records_reasons() {
        let good = frame_file();
        let mut bad = good.to_vec();
        let last = bad.len() - 1;
        bad[last] ^= 0xFF; // break the CRC trailer
        let mut fallbacks = Vec::new();
        let clean = verify_files(
            vec![("model_0.bin".into(), good), ("optim_0.bin".into(), Bytes::from(bad))],
            0,
            &mut fallbacks,
        );
        assert_eq!(clean.len(), 1);
        assert_eq!(clean[0].0, "model_0.bin");
        assert_eq!(fallbacks.len(), 1);
        assert!(fallbacks[0].contains("optim_0.bin"), "{fallbacks:?}");
    }

    #[test]
    fn breakdown_counts_shard_files_only() {
        let cold: DynBackend = std::sync::Arc::new(MemoryBackend::new());
        cold.write("s/metadata.json", Bytes::from_static(b"{}")).unwrap();
        cold.write("s/extra_0.bin", Bytes::from_static(b"xx")).unwrap();
        cold.write("s/optim_0.bin", Bytes::from_static(b"cccc")).unwrap();
        let mut hot = HashMap::new();
        hot.insert("s/model_0.bin".to_string(), Bytes::from_static(b"hhhhhhhh"));
        let t = TieredReadBackend::new(hot, cold);
        t.read("s/metadata.json").unwrap();
        t.read("s/extra_0.bin").unwrap();
        t.read_range("s/model_0.bin", 0, 8).unwrap();
        t.read_range("s/optim_0.bin", 0, 4).unwrap();
        let b = TierBreakdown::from_backend(&t, vec!["reason".into()]);
        assert_eq!((b.hot_files, b.cold_files), (1, 1));
        assert_eq!((b.hot_bytes, b.cold_bytes), (8, 4));
        assert!((b.hot_fraction() - 0.5).abs() < 1e-12);
        assert_eq!(b.fallbacks, vec!["reason".to_string()]);
    }

    #[test]
    fn empty_breakdown_reports_zero_fraction() {
        assert_eq!(TierBreakdown::default().hot_fraction(), 0.0);
    }
}
