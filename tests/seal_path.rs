//! The save tail seals each byte once: `save/serialize` computes the frame
//! CRCs and feeds the chunk index in one walk. These tests pin that the fused
//! walk writes exactly what the two separate passes used to — the manifest
//! equals an index derived from the files' own bytes, frames still carry
//! valid CRCs with indexing off — and that a manifest from before the hash
//! changed is refused without hurting the load path.

mod common;

use bytecheckpoint::core::chunks::{ChunkManifest, FileChunks, CHUNK_MANIFEST_FILE};
use bytecheckpoint::core::format::decode_frames;
use bytecheckpoint::core::metadata::METADATA_FILE;
use bytecheckpoint::prelude::*;
use common::{assert_states_eq, reference_state, run_ranks, run_ranks_with};
use std::sync::Arc;

const FW: Framework = Framework::Fsdp { zero3: true };

/// Big enough that payloads span several of the engine's 32 KiB seal blocks
/// and files span several 256 KiB chunks.
fn arch() -> bytecheckpoint::model::TransformerConfig {
    bytecheckpoint::model::TransformerConfig { hidden: 64, vocab: 512, ..zoo::tiny_gpt() }
}

fn memory_registry() -> (Arc<BackendRegistry>, DynBackend) {
    let mem: DynBackend = Arc::new(MemoryBackend::new());
    let mut reg = BackendRegistry::new();
    reg.register(Scheme::Memory, mem.clone());
    (Arc::new(reg), mem)
}

/// Two-rank save at `chunk_bytes`; returns the backend.
fn save_two_ranks(chunk_bytes: u64) -> DynBackend {
    let (registry, mem) = memory_registry();
    let par = Parallelism::data_parallel(2).unwrap();
    let mut workflow = WorkflowOptions::default();
    workflow.save.chunk_bytes = chunk_bytes;
    run_ranks_with(par, FW, registry, workflow, move |rank, ckpt| {
        let state = reference_state(&arch(), FW, par, rank, 1);
        ckpt.save(&SaveRequest::new("mem://seal/step_1", &state, 1)).unwrap().wait().unwrap();
    });
    mem
}

fn shard_files(backend: &DynBackend) -> Vec<String> {
    let files: Vec<String> = backend
        .list("step_1/")
        .unwrap()
        .into_iter()
        .filter(|f| f.ends_with(".bin") && !f.ends_with(METADATA_FILE))
        .collect();
    assert!(files.len() >= 4, "two ranks write a model and an optimizer file each: {files:?}");
    files
}

#[test]
fn fused_index_equals_an_index_of_the_written_bytes() {
    for chunk_bytes in [64, 4096, 256 * 1024] {
        let backend = save_two_ranks(chunk_bytes);
        let manifest = ChunkManifest::from_bytes(
            &backend.read(&format!("step_1/{CHUNK_MANIFEST_FILE}")).unwrap(),
        )
        .unwrap();
        assert_eq!(manifest.chunk_bytes, chunk_bytes);
        let files = shard_files(&backend);
        assert_eq!(manifest.files.len(), files.len(), "chunk_bytes {chunk_bytes}");
        for (path, indexed) in files.iter().zip(&manifest.files) {
            let name = path.strip_prefix("step_1/").unwrap();
            let bytes = backend.read(path).unwrap();
            // `from_segments` over the file as one segment: the reference the
            // streaming builder must agree with, whatever blocks it was fed.
            let want = FileChunks::from_segments(name, &[bytes], chunk_bytes);
            assert_eq!(indexed, &want, "{name} at chunk_bytes {chunk_bytes}");
        }
        assert!(manifest.files.iter().any(|f| f.chunks.len() > 1), "chunk_bytes {chunk_bytes}");
    }
}

#[test]
fn indexing_off_still_seals_every_frame() {
    let backend = save_two_ranks(0);
    assert!(!backend.exists(&format!("step_1/{CHUNK_MANIFEST_FILE}")).unwrap());
    for path in shard_files(&backend) {
        // `decode_frames` re-computes every payload CRC.
        let frames = decode_frames(&backend.read(&path).unwrap()).unwrap();
        assert!(!frames.is_empty(), "{path}");
    }
    let report = scrub_step(&backend, "step_1", 1).unwrap();
    assert!(report.is_clean(), "{:?}", report.issues);
}

#[test]
fn version_1_manifest_is_refused_but_the_step_still_loads() {
    let (registry, mem) = memory_registry();
    let par = Parallelism::data_parallel(2).unwrap();
    run_ranks(par, FW, registry.clone(), move |rank, ckpt| {
        let state = reference_state(&arch(), FW, par, rank, 1);
        ckpt.save(&SaveRequest::new("mem://seal/step_1", &state, 1)).unwrap().wait().unwrap();
    });
    // What a checkpoint written before the hash changed carries: the same
    // manifest shape at version 1 (its ids were 128-bit FNV-1a).
    let path = format!("step_1/{CHUNK_MANIFEST_FILE}");
    let mut old = ChunkManifest::from_bytes(&mem.read(&path).unwrap()).unwrap();
    old.version = 1;
    mem.write(&path, old.to_bytes().into()).unwrap();
    let err = ChunkManifest::from_bytes(&mem.read(&path).unwrap()).unwrap_err();
    assert!(err.contains("unsupported chunk manifest version 1"), "{err}");
    // The regular load path reads `ByteMeta` offsets, never the manifest.
    run_ranks(par, FW, registry, move |rank, ckpt| {
        let mut state = build_train_state(&arch(), FW, par, rank, true);
        ckpt.load(&mut LoadRequest::new("mem://seal/step_1", &mut state)).unwrap();
        assert_states_eq(&state, &reference_state(&arch(), FW, par, rank, 1), rank);
    });
}
