//! Dataloader state loading and resharding (§3.3, Fig. 9) wired into the
//! checkpoint workflow.
//!
//! The holders of dataloader state (workers whose non-DP coordinates are 0)
//! read the replicated file plus every sharded file listed in the
//! LoaderShardToByteMap, reshard them to the new (dp, workers) shape via
//! `bcp-dataloader`'s merge/re-stripe algorithm, and keep their own shard.

use crate::metadata::GlobalMetadata;
use crate::{BcpError, Result};
use bcp_dataloader::{reshard_states, LoaderReplicatedState, LoaderShardState};
use bytes::Bytes;

/// Load and reshard dataloader states for `target_dp_rank` under the target
/// `(new_dp, new_workers_per_rank)` shape. Returns `None` when the
/// checkpoint carries no dataloader state. `read` fetches one file of the
/// checkpoint by the name the metadata gives it — the caller's storage read,
/// under the caller's retry policy.
pub fn load_loader_states(
    read: impl Fn(&str) -> Result<Bytes>,
    meta: &GlobalMetadata,
    new_dp: usize,
    new_workers_per_rank: usize,
    target_dp_rank: usize,
) -> Result<Option<(LoaderReplicatedState, LoaderShardState)>> {
    let Some(rep_file) = &meta.loader_map.replicated_file else {
        return Ok(None);
    };
    let rep_bytes = read(rep_file)?;
    let replicated = LoaderReplicatedState::unpack(&rep_bytes).ok_or_else(|| {
        BcpError::Corrupt(format!("unreadable replicated loader file {rep_file}"))
    })?;

    // Reassemble each old DP rank's shard from its per-worker files.
    let mut old: Vec<LoaderShardState> = (0..replicated.dp_size)
        .map(|dp| LoaderShardState { dp_rank: dp, readers: Vec::new(), next_worker: 0 })
        .collect();
    let mut entries = meta.loader_map.shards.clone();
    entries.sort_by_key(|e| (e.dp_rank, e.worker));
    for entry in &entries {
        let data = read(&entry.file)?;
        let piece = LoaderShardState::unpack(&data).ok_or_else(|| {
            BcpError::Corrupt(format!("unreadable loader shard file {}", entry.file))
        })?;
        if entry.dp_rank >= old.len() {
            return Err(BcpError::Corrupt(format!(
                "loader shard file {} references dp rank {} outside dp size {}",
                entry.file, entry.dp_rank, replicated.dp_size
            )));
        }
        old[entry.dp_rank].next_worker = piece.next_worker;
        old[entry.dp_rank].readers.extend(piece.readers);
    }
    for (dp, shard) in old.iter().enumerate() {
        if shard.readers.len() != replicated.workers_per_rank {
            return Err(BcpError::Corrupt(format!(
                "dp rank {dp} has {} reader files, expected {}",
                shard.readers.len(),
                replicated.workers_per_rank
            )));
        }
    }

    let (new_replicated, mut new_shards) =
        reshard_states(&replicated, &old, new_dp, new_workers_per_rank);
    if target_dp_rank >= new_shards.len() {
        return Err(BcpError::Plan(format!(
            "target dp rank {target_dp_rank} outside new dp size {new_dp}"
        )));
    }
    Ok(Some((new_replicated, new_shards.swap_remove(target_dp_rank))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcp_dataloader::{DataSource, Dataloader};
    use bcp_storage::{DynBackend, MemoryBackend};
    use std::sync::Arc;

    fn replicated(dp: usize, workers: usize) -> LoaderReplicatedState {
        LoaderReplicatedState {
            workers_per_rank: workers,
            dp_size: dp,
            sources: vec![DataSource { name: "web".into(), ratio: 1.0, seed: 5 }],
            context_window: 4096,
        }
    }

    /// Read `ckpt/<file>` straight from `backend`.
    fn reader(backend: &DynBackend) -> impl Fn(&str) -> Result<Bytes> + '_ {
        |file| Ok(backend.read(&format!("ckpt/{file}"))?)
    }

    /// Store loader files the way the save workflow does.
    fn store(
        backend: &DynBackend,
        prefix: &str,
        rep: &LoaderReplicatedState,
        shards: &[LoaderShardState],
    ) -> GlobalMetadata {
        let mut meta = GlobalMetadata::new("fsdp", 0, "TP=1,DP=2,PP=1", rep.dp_size);
        backend
            .write(&format!("{prefix}/loader/replicated.json"), Bytes::from(rep.pack()))
            .unwrap();
        meta.loader_map.replicated_file = Some("loader/replicated.json".into());
        for shard in shards {
            for (w, reader) in shard.readers.iter().enumerate() {
                let single = LoaderShardState {
                    dp_rank: shard.dp_rank,
                    readers: vec![reader.clone()],
                    next_worker: shard.next_worker,
                };
                let file = format!("loader/dp{}_w{w}.json", shard.dp_rank);
                backend.write(&format!("{prefix}/{file}"), Bytes::from(single.pack())).unwrap();
                meta.loader_map.shards.push(crate::metadata::LoaderShardFileEntry {
                    dp_rank: shard.dp_rank,
                    worker: w,
                    file,
                });
            }
        }
        meta
    }

    #[test]
    fn round_trip_same_shape_is_exact() {
        let backend: DynBackend = Arc::new(MemoryBackend::new());
        let rep = replicated(2, 2);
        let mut loaders: Vec<Dataloader> =
            (0..2).map(|r| Dataloader::new(rep.clone(), r)).collect();
        for dl in &mut loaders {
            for _ in 0..4 {
                dl.next_batch();
            }
        }
        let shards: Vec<LoaderShardState> = loaders.iter().map(|l| l.shard_state()).collect();
        let meta = store(&backend, "ckpt", &rep, &shards);

        let (new_rep, shard1) =
            load_loader_states(reader(&backend), &meta, 2, 2, 1).unwrap().unwrap();
        assert_eq!(new_rep, rep);
        assert_eq!(shard1, shards[1]);
        // Resumed loader continues identically to the uninterrupted one.
        let mut resumed = Dataloader::from_states(new_rep, shard1);
        assert_eq!(resumed.next_batch(), loaders[1].next_batch());
    }

    #[test]
    fn resharded_loading_changes_shape() {
        let backend: DynBackend = Arc::new(MemoryBackend::new());
        let rep = replicated(2, 2);
        let mut loaders: Vec<Dataloader> =
            (0..2).map(|r| Dataloader::new(rep.clone(), r)).collect();
        for dl in &mut loaders {
            for _ in 0..3 {
                dl.next_batch();
            }
        }
        let shards: Vec<LoaderShardState> = loaders.iter().map(|l| l.shard_state()).collect();
        let meta = store(&backend, "ckpt", &rep, &shards);
        let (new_rep, shard) =
            load_loader_states(reader(&backend), &meta, 4, 1, 3).unwrap().unwrap();
        assert_eq!(new_rep.dp_size, 4);
        assert_eq!(new_rep.workers_per_rank, 1);
        assert_eq!(shard.dp_rank, 3);
        assert_eq!(shard.readers.len(), 1);
    }

    #[test]
    fn missing_loader_section_returns_none() {
        let backend: DynBackend = Arc::new(MemoryBackend::new());
        let meta = GlobalMetadata::new("ddp", 0, "TP=1,DP=1,PP=1", 1);
        assert!(load_loader_states(reader(&backend), &meta, 1, 1, 0).unwrap().is_none());
    }

    #[test]
    fn corrupt_loader_file_detected() {
        let backend: DynBackend = Arc::new(MemoryBackend::new());
        let rep = replicated(1, 1);
        let dl = Dataloader::new(rep.clone(), 0);
        let meta = store(&backend, "ckpt", &rep, &[dl.shard_state()]);
        backend.write("ckpt/loader/dp0_w0.json", Bytes::from_static(b"garbage")).unwrap();
        assert!(matches!(
            load_loader_states(reader(&backend), &meta, 1, 1, 0),
            Err(BcpError::Corrupt(_))
        ));
    }
}
