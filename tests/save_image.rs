//! A save captures each shard file into one pooled image and uploads that
//! image as is: on `MemoryBackend` the stored object *is* the capture
//! buffer, which goes back to the pool only once its last view — the stored
//! step, or a tensor restored by adopting a slice of it — is gone. The image
//! is its frames back to back, each sealed while capture copied it, with
//! payloads at every alignment the fused copy distinguishes. And a shard the
//! frame header cannot describe fails the save at planning.

mod common;

use bytecheckpoint::core::format::encode_frame;
use bytecheckpoint::core::metadata::COMPLETE_MARKER;
use bytecheckpoint::model::StateEntry;
use bytecheckpoint::prelude::*;
use bytes::Bytes;
use common::{assert_states_eq, reference_state};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

const FW: Framework = Framework::Ddp;

fn par() -> Parallelism {
    Parallelism::data_parallel(1).unwrap()
}

/// One rank's checkpointer over a fresh `MemoryBackend` (returned too).
fn checkpointer() -> (Checkpointer, DynBackend) {
    let mem: DynBackend = Arc::new(MemoryBackend::new());
    let mut registry = BackendRegistry::new();
    registry.register(Scheme::Memory, mem.clone());
    let ckpt = Checkpointer::builder(CommWorld::new(1, Backend::Flat).communicator(0).unwrap())
        .framework(FW)
        .parallelism(par())
        .registry(Arc::new(registry))
        .build()
        .unwrap();
    (ckpt, mem)
}

/// The job's state after `steps` training steps.
fn state(steps: u64) -> TrainState {
    reference_state(&zoo::tiny_gpt(), FW, par(), 0, steps)
}

fn save(ckpt: &Checkpointer, step: u64) {
    let state = state(step);
    let location = format!("mem://x/j/step_{step}");
    ckpt.save(&SaveRequest::new(&location, &state, step)).unwrap().wait().unwrap();
}

fn delete(mem: &DynBackend, step: u64) {
    CheckpointManager::new(mem.clone(), "j").delete(step).unwrap();
}

/// The stored shard files of a step, by name.
fn shard_files(mem: &DynBackend, step: u64) -> BTreeMap<String, Bytes> {
    let prefix = format!("j/step_{step}/");
    let files: BTreeMap<String, Bytes> = mem
        .list(&prefix)
        .unwrap()
        .into_iter()
        .filter_map(|key| {
            let name = key.strip_prefix(&prefix).unwrap().to_string();
            let shard = name.starts_with("model_") || name.starts_with("optim_");
            shard.then(|| (name, mem.read(&key).unwrap()))
        })
        .collect();
    assert_eq!(files.len(), 2, "a model and an optimizer file: {:?}", files.keys());
    files
}

/// Where a step's shard files live in memory, sorted.
fn addresses(mem: &DynBackend, step: u64) -> Vec<usize> {
    let mut at: Vec<usize> = shard_files(mem, step).values().map(|b| b.as_ptr() as usize).collect();
    at.sort_unstable();
    at
}

#[test]
fn a_stored_shard_object_is_the_capture_image_and_is_reused_once_its_step_is_deleted() {
    let (ckpt, mem) = checkpointer();
    save(&ckpt, 1);
    save(&ckpt, 2);
    let (first, second) = (addresses(&mem, 1), addresses(&mem, 2));
    assert!(first.iter().all(|a| !second.contains(a)), "step 1 still holds its images");
    delete(&mem, 1);
    save(&ckpt, 3);
    assert_eq!(addresses(&mem, 3), first, "step 3 captured into step 1's buffers");
    delete(&mem, 2);
    save(&ckpt, 4);
    assert_eq!(addresses(&mem, 4), second, "and step 4 into step 2's");
}

#[test]
fn a_restored_tensor_pins_its_image_until_it_drops() {
    let (ckpt, mem) = checkpointer();
    save(&ckpt, 1);
    save(&ckpt, 2);
    let (first, second) = (addresses(&mem, 1), addresses(&mem, 2));
    let mut restored = build_train_state(&zoo::tiny_gpt(), FW, par(), 0, true);
    ckpt.load(&mut LoadRequest::new("mem://x/j/step_1", &mut restored)).unwrap();
    let stored = shard_files(&mem, 1);
    let adopted =
        restored.model.entries.values().chain(restored.optimizer.entries.values()).all(|e| {
            let at = e.tensor.bytes().unwrap().as_ptr() as usize;
            stored
                .values()
                .any(|b| (b.as_ptr() as usize..b.as_ptr() as usize + b.len()).contains(&at))
        });
    assert!(adopted, "an unresharded load adopts slices of the stored images");
    drop(stored);

    // Step 1's images live on in `restored`; step 2's return to the pool.
    delete(&mem, 1);
    delete(&mem, 2);
    save(&ckpt, 3);
    delete(&mem, 3);
    save(&ckpt, 4);
    assert_eq!(addresses(&mem, 4), second, "two saves reused step 2's buffers, not step 1's");
    assert_states_eq(&restored, &state(1), 0);

    // Once the restored tensors drop, step 1's buffers are free to reuse.
    drop(restored);
    save(&ckpt, 5);
    assert_eq!(addresses(&mem, 5), first);
}

#[test]
fn every_shard_file_is_its_frames_back_to_back() {
    let (ckpt, mem) = checkpointer();
    save(&ckpt, 1);
    let saved = state(1);
    let meta = CheckpointManager::new(mem.clone(), "j").metadata(1).unwrap();
    let mut frames: BTreeMap<&str, Vec<(u64, Bytes)>> = BTreeMap::new();
    let mut payload_residues = BTreeSet::new();
    for (fqn, entries) in &meta.tensor_map {
        let entry = saved.model.get(fqn).or_else(|| saved.optimizer.get(fqn)).unwrap();
        for e in entries {
            let payload = entry.tensor.bytes().unwrap();
            let (frame, payload_at) = encode_frame(&e.shard, e.basic.dtype, payload).unwrap();
            assert_eq!(e.byte.length, payload.len() as u64, "{fqn}: replicated, saved whole");
            payload_residues.insert(e.byte.offset % 16);
            frames
                .entry(&*e.byte.file)
                .or_default()
                .push((e.byte.offset - payload_at, frame.freeze()));
        }
    }
    let files = shard_files(&mem, 1);
    assert_eq!(
        files.keys().map(String::as_str).collect::<Vec<_>>(),
        frames.keys().copied().collect::<Vec<_>>()
    );
    for (name, mut pieces) in frames {
        pieces.sort_by_key(|(at, _)| *at);
        let mut want = Vec::new();
        for (at, frame) in pieces {
            assert_eq!(at, want.len() as u64, "{name}: frames are back to back");
            want.extend_from_slice(&frame);
        }
        assert!(files[name] == want[..], "{name} differs from its encoded frames");
    }
    // Capture seals each payload as it copies it, with a head copied up to
    // the image's next 16-byte boundary: the comparison above covers that
    // head at many lengths.
    assert!(payload_residues.len() >= 8, "payload offsets mod 16: {payload_residues:?}");
}

#[test]
fn a_shard_the_frame_header_cannot_describe_fails_the_save_before_anything_is_written() {
    let wide = |fqn: String, dims: usize| StateEntry {
        fqn,
        global_shape: vec![1; dims],
        dtype: DType::F32,
        spec: ShardSpec::Replicated,
        tensor: Tensor::zeros(DType::F32, vec![1; dims]),
    };
    for (entry, what) in [
        (wide("w".repeat(u16::MAX as usize + 1), 1), "FQN of 65536 bytes"),
        (wide("deep".into(), u8::MAX as usize + 1), "256 dimensions"),
    ] {
        let (ckpt, mem) = checkpointer();
        let mut state = state(1);
        state.model.insert(entry);
        let err = ckpt
            .save(&SaveRequest::new("mem://x/j/step_1", &state, 1))
            .err()
            .expect("planning refuses the state");
        assert!(
            err.to_string().starts_with("planning error:") && err.to_string().contains(what),
            "{err}"
        );
        assert!(!mem.exists(&format!("j/step_1/{COMPLETE_MARKER}")).unwrap());
        assert_eq!(mem.list("j/").unwrap(), Vec::<String>::new(), "nothing was written");
    }
}
