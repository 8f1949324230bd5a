//! A step's non-tensor state: the packed extra state (§3.2) and the
//! dataloader's replicated and per-worker states behind the
//! LoaderShardToByteMap (§3.3, Fig. 9), as one list of named state files.
//!
//! [`payloads`] turns a save request's loader and extra state into
//! `(name, payload)` pairs; the save-plan message, the plan-cache key and
//! the global metadata ([`crate::GlobalMetadata::state_files`]) carry the
//! names alone. Each file is one [`crate::format`] frame — fqn = its name,
//! `DType::U8`, 1-D — so the CRC that seals a shard file seals it too,
//! [`crate::scrub`] decodes it the way it decodes a shard file, and
//! [`decode`], the one reader, refuses it on the same terms. The payloads
//! themselves stay the JSON of `ExtraState::pack` and `Loader*State::pack`.
//!
//! On load, [`restore_extra`] and [`restore_loader`] rebuild the caller's
//! state from what the reader returns; the loader is resharded to the new
//! `(dp, workers)` shape by `bcp-dataloader`'s merge/re-stripe algorithm.

use crate::api::{LoaderTarget, SaveRequest};
use crate::format::{decode_frames, header_len, put_frame_header};
use crate::metadata::ShardMeta;
use crate::{BcpError, Result};
use bcp_dataloader::{reshard_states, LoaderReplicatedState, LoaderShardState};
use bcp_model::ExtraState;
use bcp_tensor::checksum::crc32;
use bcp_tensor::DType;
use bytes::{Bytes, BytesMut};

/// The replicated dataloader state, saved by the coordinator alone.
const REPLICATED_LOADER: &str = "loader/replicated.bin";

fn loader_shard_file(dp_rank: usize, worker: usize) -> String {
    format!("loader/dp{dp_rank}_w{worker}.bin")
}

fn extra_file(rank: usize) -> String {
    format!("extra_{rank}.bin")
}

/// `rank`'s state files for `req`: its extra state, one file per dataloader
/// read worker (the per-worker layout of §6.4, each loadable on its own
/// during resharding) and, on the coordinator, the replicated dataloader
/// state.
pub fn payloads(req: &SaveRequest<'_>, rank: usize, coordinator: usize) -> Vec<(String, Bytes)> {
    let mut out = Vec::new();
    if let Some(extra) = req.extra {
        out.push((extra_file(rank), Bytes::from(extra.pack())));
    }
    if let Some((replicated, shard)) = req.loader {
        for (w, reader) in shard.readers.iter().enumerate() {
            let single = LoaderShardState {
                dp_rank: shard.dp_rank,
                readers: vec![reader.clone()],
                next_worker: shard.next_worker,
            };
            out.push((loader_shard_file(shard.dp_rank, w), Bytes::from(single.pack())));
        }
        if rank == coordinator {
            out.push((REPLICATED_LOADER.to_string(), Bytes::from(replicated.pack())));
        }
    }
    out
}

fn frame_shard(name: &str, len: usize) -> ShardMeta {
    ShardMeta { fqn: name.into(), offsets: [0].into(), lengths: [len].into() }
}

/// The state file `name` as the three segments of its frame — header,
/// the payload itself, CRC — for `write_segments`: framing copies no
/// payload byte.
pub fn frame(name: &str, payload: Bytes) -> Result<[Bytes; 3]> {
    let shard = frame_shard(name, payload.len());
    let mut header = BytesMut::with_capacity(header_len(&shard));
    put_frame_header(&mut header, &shard, DType::U8, payload.len())?;
    let crc = Bytes::copy_from_slice(&crc32(&payload).to_le_bytes());
    Ok([header.freeze(), payload, crc])
}

/// The payload of the state file `name`, stored as `data`: exactly one
/// frame, a 1-D `U8` frame named `name`, whose CRC verifies.
pub fn decode(name: &str, data: &Bytes) -> Result<Bytes> {
    let frames =
        decode_frames(data).map_err(|e| BcpError::Corrupt(format!("state file {name}: {e}")))?;
    match &frames[..] {
        [f] if f.dtype == DType::U8 && f.shard == frame_shard(name, f.payload.len()) => {
            Ok(f.payload.clone())
        }
        _ => Err(BcpError::Corrupt(format!("state file {name} does not hold its own frame"))),
    }
}

fn listed(names: &[String], name: &str) -> bool {
    names.binary_search_by(|n| n.as_str().cmp(name)).is_ok()
}

/// This rank's extra state from the step whose state files are `names`:
/// its own file, else the coordinator's (the world grew), else any. `read`
/// returns a listed file's decoded payload. `None` when the step has none.
pub fn restore_extra(
    read: impl Fn(&str) -> Result<Bytes>,
    names: &[String],
    rank: usize,
    coordinator: usize,
) -> Result<Option<ExtraState>> {
    let (own, coord) = (extra_file(rank), extra_file(coordinator));
    let name = if listed(names, &own) {
        own
    } else if listed(names, &coord) {
        coord
    } else {
        match names.iter().find(|n| n.starts_with("extra_")) {
            Some(n) => n.clone(),
            None => return Ok(None),
        }
    };
    let extra = ExtraState::unpack(&read(&name)?)
        .ok_or_else(|| BcpError::Corrupt(format!("extra state file {name} is unreadable")))?;
    Ok(Some(extra))
}

/// The dataloader states of the step whose state files are `names`,
/// resharded to `target`: the replicated file plus every per-worker file
/// it implies, merged and re-striped. `read` returns a listed file's decoded
/// payload. `None` when the step carries no dataloader state.
pub fn restore_loader(
    read: impl Fn(&str) -> Result<Bytes>,
    names: &[String],
    target: LoaderTarget,
) -> Result<Option<(LoaderReplicatedState, LoaderShardState)>> {
    if !listed(names, REPLICATED_LOADER) {
        return Ok(None);
    }
    let replicated = LoaderReplicatedState::unpack(&read(REPLICATED_LOADER)?).ok_or_else(|| {
        BcpError::Corrupt(format!("unreadable replicated loader file {REPLICATED_LOADER}"))
    })?;
    // Reassemble each old DP rank's shard from its per-worker files.
    let old = (0..replicated.dp_size)
        .map(|dp| {
            let mut shard = LoaderShardState { dp_rank: dp, readers: Vec::new(), next_worker: 0 };
            for w in 0..replicated.workers_per_rank {
                let name = loader_shard_file(dp, w);
                if !listed(names, &name) {
                    return Err(BcpError::Corrupt(format!(
                        "{} dp ranks of {} workers need {name}, which the step lacks",
                        replicated.dp_size, replicated.workers_per_rank
                    )));
                }
                let piece = LoaderShardState::unpack(&read(&name)?).ok_or_else(|| {
                    BcpError::Corrupt(format!("unreadable loader shard file {name}"))
                })?;
                shard.next_worker = piece.next_worker;
                shard.readers.extend(piece.readers);
            }
            if shard.readers.len() != replicated.workers_per_rank {
                return Err(BcpError::Corrupt(format!(
                    "dp rank {dp} has {} readers, expected {}",
                    shard.readers.len(),
                    replicated.workers_per_rank
                )));
            }
            Ok(shard)
        })
        .collect::<Result<Vec<_>>>()?;

    let (new_replicated, mut new_shards) =
        reshard_states(&replicated, &old, target.dp_size, target.workers_per_rank);
    if target.my_dp_rank >= new_shards.len() {
        return Err(BcpError::Plan(format!(
            "target dp rank {} outside new dp size {}",
            target.my_dp_rank, target.dp_size
        )));
    }
    Ok(Some((new_replicated, new_shards.swap_remove(target.my_dp_rank))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcp_dataloader::{DataSource, Dataloader};
    use bcp_model::TrainState;
    use std::collections::BTreeMap;

    fn replicated(dp: usize, workers: usize) -> LoaderReplicatedState {
        LoaderReplicatedState {
            workers_per_rank: workers,
            dp_size: dp,
            sources: vec![DataSource { name: "web".into(), ratio: 1.0, seed: 5 }],
            context_window: 4096,
        }
    }

    fn framed(name: &str, payload: Bytes) -> Bytes {
        let bytes: Vec<u8> = frame(name, payload).unwrap().iter().flatten().copied().collect();
        Bytes::from(bytes)
    }

    /// Every rank's state files, framed as a save writes them, by name.
    fn store(
        rep: &LoaderReplicatedState,
        shards: &[LoaderShardState],
        extra: Option<&ExtraState>,
    ) -> BTreeMap<String, Bytes> {
        let state = TrainState::default();
        let mut files = BTreeMap::new();
        for (rank, shard) in shards.iter().enumerate() {
            let mut req = SaveRequest::new("mem://x/ckpt", &state, 1).with_loader(rep, shard);
            req.extra = extra;
            for (name, payload) in payloads(&req, rank, 0) {
                let data = framed(&name, payload);
                assert!(files.insert(name, data).is_none());
            }
        }
        files
    }

    fn names(files: &BTreeMap<String, Bytes>) -> Vec<String> {
        files.keys().cloned().collect()
    }

    /// The one reader over `files`.
    fn reader(files: &BTreeMap<String, Bytes>) -> impl Fn(&str) -> Result<Bytes> + '_ {
        |name| decode(name, &files[name])
    }

    fn loaders(rep: &LoaderReplicatedState, batches: usize) -> Vec<Dataloader> {
        let mut loaders: Vec<Dataloader> =
            (0..rep.dp_size).map(|r| Dataloader::new(rep.clone(), r)).collect();
        for dl in &mut loaders {
            (0..batches).for_each(|_| drop(dl.next_batch()));
        }
        loaders
    }

    #[test]
    fn round_trip_same_shape_is_exact() {
        let rep = replicated(2, 2);
        let mut loaders = loaders(&rep, 4);
        let shards: Vec<LoaderShardState> = loaders.iter().map(|l| l.shard_state()).collect();
        let files = store(&rep, &shards, None);
        let target = LoaderTarget::new(2, 2, 1);
        let (new_rep, shard1) =
            restore_loader(reader(&files), &names(&files), target).unwrap().unwrap();
        assert_eq!(new_rep, rep);
        assert_eq!(shard1, shards[1]);
        // Resumed loader continues identically to the uninterrupted one.
        let mut resumed = Dataloader::from_states(new_rep, shard1);
        assert_eq!(resumed.next_batch(), loaders[1].next_batch());
    }

    #[test]
    fn resharded_loading_changes_shape() {
        let rep = replicated(2, 2);
        let shards: Vec<LoaderShardState> =
            loaders(&rep, 3).iter().map(|l| l.shard_state()).collect();
        let files = store(&rep, &shards, None);
        let target = LoaderTarget::new(4, 1, 3);
        let (new_rep, shard) =
            restore_loader(reader(&files), &names(&files), target).unwrap().unwrap();
        assert_eq!(new_rep.dp_size, 4);
        assert_eq!(new_rep.workers_per_rank, 1);
        assert_eq!(shard.dp_rank, 3);
        assert_eq!(shard.readers.len(), 1);
    }

    #[test]
    fn a_step_without_state_files_restores_none() {
        let files = BTreeMap::new();
        let target = LoaderTarget::new(1, 1, 0);
        assert!(restore_loader(reader(&files), &[], target).unwrap().is_none());
        assert!(restore_extra(reader(&files), &[], 0, 0).unwrap().is_none());
    }

    #[test]
    fn extra_state_falls_back_to_the_coordinators_file() {
        let rep = replicated(2, 1);
        let shards: Vec<LoaderShardState> =
            loaders(&rep, 1).iter().map(|l| l.shard_state()).collect();
        let mut extra = ExtraState::new(3);
        extra.rng_counter = 41;
        let files = store(&rep, &shards, Some(&extra));
        let got = restore_extra(reader(&files), &names(&files), 5, 0).unwrap();
        assert_eq!(got, Some(extra));
    }

    #[test]
    fn a_damaged_or_missing_loader_file_is_corrupt() {
        let rep = replicated(1, 2);
        let shards = vec![Dataloader::new(rep.clone(), 0).shard_state()];
        let target = LoaderTarget::new(1, 2, 0);
        let mut files = store(&rep, &shards, None);
        let victim = loader_shard_file(0, 1);
        let mut bytes = files[&victim].to_vec();
        let at = bytes.len() - 6;
        bytes[at] ^= 1;
        files.insert(victim.clone(), Bytes::from(bytes));
        let err = restore_loader(reader(&files), &names(&files), target).unwrap_err();
        assert!(matches!(&err, BcpError::Corrupt(m) if m.contains("CRC")), "{err}");
        files.remove(&victim);
        let err = restore_loader(reader(&files), &names(&files), target).unwrap_err();
        assert!(matches!(&err, BcpError::Corrupt(m) if m.contains("lacks")), "{err}");
    }

    #[test]
    fn a_state_file_holds_its_own_frame_and_nothing_else() {
        let payload = Bytes::from_static(b"{\"step\":1}");
        let framed = framed("extra_0.bin", payload.clone());
        assert_eq!(decode("extra_0.bin", &framed).unwrap(), payload);
        // Another file's frame, two frames, a truncation, no frame at all.
        let twice = Bytes::from([&framed[..], &framed[..]].concat());
        for (name, data) in [
            ("extra_1.bin", framed.clone()),
            ("extra_0.bin", twice),
            ("extra_0.bin", framed.slice(..framed.len() - 1)),
            ("extra_0.bin", Bytes::new()),
        ] {
            assert!(matches!(decode(name, &data), Err(BcpError::Corrupt(_))), "{name}");
        }
    }
}
