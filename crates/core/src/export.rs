//! Export to formats other tools read: safetensors (Appendix F) and a JSON
//! view of the global metadata.
//!
//! "To improve compatibility with the Hugging Face open-source ecosystem,
//! ByteCheckpoint incorporates functionality to export checkpoints in the
//! Safetensors format." This module consolidates a distributed checkpoint —
//! any source parallelism — into full tensors and writes a real safetensors
//! file: `u64` little-endian header length, JSON header with
//! `{"name": {"dtype", "shape", "data_offsets"}}`, then the raw payloads.

use crate::metadata::{GlobalMetadata, METADATA_FILE};
use crate::{BcpError, Result};
use bcp_storage::DynBackend;
use bcp_tensor::{DType, Tensor};
use bytes::{BufMut, Bytes, BytesMut};
use std::collections::BTreeMap;

fn safetensors_dtype(dt: DType) -> &'static str {
    match dt {
        DType::F64 => "F64",
        DType::F32 => "F32",
        DType::F16 => "F16",
        DType::BF16 => "BF16",
        DType::I64 => "I64",
        DType::I32 => "I32",
        DType::I16 => "I16",
        DType::U8 => "U8",
        DType::Bool => "BOOL",
    }
}

/// The decoded global metadata as pretty-printed JSON: the readable view of
/// the compact binary file (`bcpctl inspect --json`). One way only — nothing
/// parses it back.
pub fn metadata_json(meta: &GlobalMetadata) -> String {
    serde_json::to_string_pretty(meta).expect("metadata serializes")
}

/// Consolidate one logical tensor from a checkpoint into a full (unsharded)
/// tensor, reading every saved segment (load-time resharding to a single
/// replica).
pub fn consolidate_tensor(
    backend: &DynBackend,
    prefix: &str,
    meta: &GlobalMetadata,
    fqn: &str,
) -> Result<Tensor> {
    let entries = meta
        .tensor_map
        .get(fqn)
        .ok_or_else(|| BcpError::Missing(format!("{fqn} not in checkpoint")))?;
    let basic = &entries[0].basic;
    let mut full = Tensor::zeros(basic.dtype, basic.global_shape.clone());
    let mut covered = 0usize;
    for e in entries {
        let data = backend.read_range(
            &format!("{prefix}/{}", e.byte.file),
            e.byte.offset,
            e.byte.length,
        )?;
        let piece = Tensor::from_bytes(e.basic.dtype, e.shard.lengths.clone(), data)?;
        full = full.write_box(&e.shard.offsets, &piece)?;
        covered += e.shard.numel();
    }
    if covered < full.numel() {
        return Err(BcpError::Missing(format!(
            "{fqn}: checkpoint covers {covered}/{} elements",
            full.numel()
        )));
    }
    Ok(full)
}

/// Export a checkpoint's model tensors (optionally filtered) into one
/// safetensors blob, returned as bytes. FQNs prefixed `optim.` are excluded
/// unless `include_optimizer` is set.
pub fn export_safetensors(
    backend: &DynBackend,
    prefix: &str,
    include_optimizer: bool,
) -> Result<Bytes> {
    let meta_bytes = backend.read(&format!("{prefix}/{METADATA_FILE}"))?;
    let meta = GlobalMetadata::from_bytes(&meta_bytes).map_err(BcpError::Corrupt)?;
    let fqns: Vec<&String> =
        meta.tensor_map.keys().filter(|f| include_optimizer || !f.starts_with("optim.")).collect();

    // Header construction: offsets are relative to the data section.
    let mut header: BTreeMap<String, serde_json::Value> = BTreeMap::new();
    let mut payloads: Vec<Bytes> = Vec::with_capacity(fqns.len());
    let mut cursor = 0u64;
    for fqn in fqns {
        let t = consolidate_tensor(backend, prefix, &meta, fqn)?;
        let nbytes = t.nbytes() as u64;
        header.insert(
            fqn.clone(),
            serde_json::json!({
                "dtype": safetensors_dtype(t.dtype()),
                "shape": t.shape(),
                "data_offsets": [cursor, cursor + nbytes],
            }),
        );
        payloads.push(t.bytes()?.clone());
        cursor += nbytes;
    }
    header.insert(
        "__metadata__".to_string(),
        serde_json::json!({"format": "pt", "producer": "bytecheckpoint-rs", "step": meta.step.to_string()}),
    );
    let header_json = serde_json::to_vec(&header).expect("header serializes");
    let mut out = BytesMut::with_capacity(8 + header_json.len() + cursor as usize);
    out.put_u64_le(header_json.len() as u64);
    out.put_slice(&header_json);
    for p in payloads {
        out.put_slice(&p);
    }
    Ok(out.freeze())
}

/// Import a safetensors blob as a committed ByteCheckpoint checkpoint under
/// `prefix` — the reverse direction of [`export_safetensors`], used to seed
/// distributed training (any target parallelism) from Hugging Face weights.
///
/// Every tensor is stored as a single whole-tensor shard in `model_0.bin`;
/// load-time resharding then cuts it to whatever the target job needs.
pub fn import_safetensors(
    backend: &DynBackend,
    prefix: &str,
    blob: &Bytes,
    step: u64,
) -> Result<GlobalMetadata> {
    use crate::metadata::{BasicMeta, ByteMeta, ShardMeta, TensorShardEntry};
    let tensors = parse_safetensors(blob)?;
    let file = "model_0.bin".to_string();
    let mut meta = GlobalMetadata::new("import", step, "TP=1,DP=1,PP=1", 1);
    let mut buf = BytesMut::new();
    for (fqn, tensor) in &tensors {
        let shard = ShardMeta {
            fqn: fqn.clone(),
            offsets: vec![0; tensor.rank()],
            lengths: tensor.shape().to_vec(),
        };
        let payload = tensor.bytes()?;
        let (frame, payload_off) = {
            let base = buf.len() as u64;
            let (frame, off) = crate::format::encode_frame(&shard, tensor.dtype(), payload)?;
            (frame, base + off)
        };
        buf.extend_from_slice(&frame);
        meta.tensor_map.entry(fqn.clone()).or_default().push(TensorShardEntry {
            shard,
            basic: BasicMeta::contiguous(tensor.dtype(), tensor.shape().to_vec(), "import"),
            byte: ByteMeta {
                file: file.clone(),
                offset: payload_off,
                length: payload.len() as u64,
            },
        });
    }
    backend.write(&format!("{prefix}/{file}"), buf.freeze())?;
    backend.write(&format!("{prefix}/{METADATA_FILE}"), Bytes::from(meta.to_bytes()))?;
    crate::integrity::commit_checkpoint(backend, prefix)?;
    Ok(meta)
}

/// Parse a safetensors blob back into named tensors (round-trip validation
/// and the evaluation-task consumer side).
pub fn parse_safetensors(data: &Bytes) -> Result<BTreeMap<String, Tensor>> {
    if data.len() < 8 {
        return Err(BcpError::Corrupt("safetensors blob too short".into()));
    }
    let hlen = u64::from_le_bytes(data[..8].try_into().unwrap()) as usize;
    if 8 + hlen > data.len() {
        return Err(BcpError::Corrupt("safetensors header exceeds blob".into()));
    }
    let header: BTreeMap<String, serde_json::Value> = serde_json::from_slice(&data[8..8 + hlen])
        .map_err(|e| BcpError::Corrupt(format!("bad safetensors header: {e}")))?;
    let base = 8 + hlen;
    let mut out = BTreeMap::new();
    for (name, spec) in header {
        if name == "__metadata__" {
            continue;
        }
        let dtype_str = spec["dtype"].as_str().unwrap_or("");
        let dtype = match dtype_str {
            "F64" => DType::F64,
            "F32" => DType::F32,
            "F16" => DType::F16,
            "BF16" => DType::BF16,
            "I64" => DType::I64,
            "I32" => DType::I32,
            "I16" => DType::I16,
            "U8" => DType::U8,
            "BOOL" => DType::Bool,
            other => return Err(BcpError::Corrupt(format!("unknown dtype {other}"))),
        };
        let shape: Vec<usize> = spec["shape"]
            .as_array()
            .ok_or_else(|| BcpError::Corrupt("shape not an array".into()))?
            .iter()
            .map(|v| v.as_u64().unwrap_or(0) as usize)
            .collect();
        let offs = spec["data_offsets"]
            .as_array()
            .ok_or_else(|| BcpError::Corrupt("missing data_offsets".into()))?;
        let (s, e) = (offs[0].as_u64().unwrap() as usize, offs[1].as_u64().unwrap() as usize);
        if base + e > data.len() {
            return Err(BcpError::Corrupt(format!("{name}: payload out of bounds")));
        }
        out.insert(name, Tensor::from_bytes(dtype, shape, data.slice(base + s..base + e))?);
    }
    Ok(out)
}
