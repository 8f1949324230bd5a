//! The decoupled checkpoint representation (§3.2, Fig. 6).
//!
//! "For model and optimizer state representation, we separate each tensor
//! shard's metadata from its numerical values and consolidate all the
//! metadata into one global file." A tensor shard's metadata has three
//! parts: [`BasicMeta`] (runtime recovery info), [`ShardMeta`] (position in
//! the global tensor), and [`ByteMeta`] (location in a storage file). The
//! [`GlobalMetadata`] file carries the `TensorShardToBasicByteMap` and the
//! `LoaderShardToByteMap`.
//!
//! # File format (version 2)
//!
//! This module is the only code that knows the layout of
//! [`METADATA_FILE`]; everything else goes through
//! [`GlobalMetadata::to_bytes`], [`GlobalMetadata::from_bytes`] and
//! [`GlobalMetadata::restamp_step`]. Integers are LEB128 varints unless a
//! width is given; a *string* is a varint byte length followed by UTF-8.
//!
//! ```text
//! header    magic "BCPM" | version u32 LE | step u64 LE      (16 bytes, fixed)
//! source    framework str | parallelism str | world size
//! strings   count | str ...                 (storage files and devices, by id)
//! shapes    count | (rank | dim ...) ...    (global shapes, by id)
//! tensors   fqn count | per FQN, ascending: fqn str | entry count | entry ...
//! loader    has-replicated u8 [| file str] | shard count | (dp | worker | file str) ...
//! extras    count | per rank, ascending: rank | file str
//! trailer   CRC32 u32 LE over every byte before it
//! ```
//!
//! One entry is `dtype u8 | flags u8 | shape id | device id | [stride] | box |
//! [fqn str] | file id | byte offset | byte length`, where `box` is the
//! shard's offsets then lengths, one varint per axis of the global shape.
//! The flag byte holds `requires_grad` and keeps the common case short while
//! every [`GlobalMetadata`] value stays representable: the stride (`count |
//! dim ...`) is stored only when it is not the row-major one of the shape,
//! the box is preceded by its two axis counts only when they differ from the
//! shape's rank, and the entry's own FQN is stored only when it is not the
//! name it is filed under (such an entry fails [`GlobalMetadata::validate`]).
//!
//! The step is fixed-width so that it can be patched in place: within one
//! plan signature, the step and the trailer are the only bytes that differ
//! between two checkpoints, and a repeated save re-stamps the sealed image
//! instead of encoding again (§4.1). There is no reader for the version-1
//! JSON document: nothing written by this code base outlives its test run,
//! and a second decoder is a second parse surface to fuzz. `bcpctl inspect
//! --json` prints the decoded struct for people.

use crate::format::{dtype_code, dtype_from_code};
use bcp_tensor::checksum::crc32;
use bcp_tensor::layout::contiguous_strides;
use bcp_tensor::DType;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};

/// Position of a (regular) tensor shard in its global tensor: "an index
/// tuple (fqn, nD_offsets, nD_lengths)". Irregular shards are decomposed
/// into several of these (one [`TensorShardEntry`] each).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ShardMeta {
    /// Fully qualified tensor name.
    pub fqn: String,
    /// Offsets of the shard along each global axis.
    pub offsets: Vec<usize>,
    /// Lengths of the shard along each global axis.
    pub lengths: Vec<usize>,
}

impl ShardMeta {
    /// Number of elements in this shard.
    pub fn numel(&self) -> usize {
        self.lengths.iter().product()
    }

    /// Intersection with another box of the same tensor, as global offsets
    /// and lengths.
    pub fn intersect(&self, other: &ShardMeta) -> Option<(Vec<usize>, Vec<usize>)> {
        bcp_tensor::layout::intersect_boxes(
            &self.offsets,
            &self.lengths,
            &other.offsets,
            &other.lengths,
        )
    }
}

/// "Essential information of individual tensor shards such as stride and
/// device, critical for recovering the runtime state."
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BasicMeta {
    /// Element dtype.
    pub dtype: DType,
    /// Global tensor shape (the shard's parent).
    pub global_shape: Vec<usize>,
    /// Row-major strides of the global tensor, in elements.
    pub stride: Vec<usize>,
    /// Device string of the worker that saved the shard (e.g. `"cuda:3"`).
    pub device: String,
    /// Whether the tensor required gradients at save time.
    pub requires_grad: bool,
}

impl BasicMeta {
    /// Construct for a tensor with contiguous row-major layout.
    pub fn contiguous(
        dtype: DType,
        global_shape: Vec<usize>,
        device: impl Into<String>,
    ) -> BasicMeta {
        let stride = bcp_tensor::layout::contiguous_strides(&global_shape);
        BasicMeta { dtype, global_shape, stride, device: device.into(), requires_grad: true }
    }
}

/// "The byte start offset and length of each tensor shard within the
/// storage file."
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ByteMeta {
    /// Storage file (relative to the checkpoint prefix).
    pub file: String,
    /// Byte offset of the shard payload within the file.
    pub offset: u64,
    /// Payload length in bytes.
    pub length: u64,
}

/// One saved tensor shard: the triple the TensorShardToBasicByteMap stores.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TensorShardEntry {
    /// Position of the shard in the global tensor.
    pub shard: ShardMeta,
    /// Runtime recovery info.
    pub basic: BasicMeta,
    /// Storage location.
    pub byte: ByteMeta,
}

/// Entry of the LoaderShardToByteMap: which file holds which dataloader
/// shard's states.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LoaderShardFileEntry {
    /// DP rank whose reader states the file holds.
    pub dp_rank: usize,
    /// Read worker index within the rank.
    pub worker: usize,
    /// File path relative to the checkpoint prefix.
    pub file: String,
}

/// Dataloader section of the global metadata: replicated states saved once
/// (by global rank 0's loader), sharded states in individual files.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize)]
pub struct LoaderMap {
    /// File holding the replicated dataloader state, if a dataloader was
    /// checkpointed.
    pub replicated_file: Option<String>,
    /// Per-(dp, worker) sharded state files.
    pub shards: Vec<LoaderShardFileEntry>,
}

/// The global metadata file (Fig. 6): one per checkpoint, consolidating all
/// tensor metadata plus the dataloader and extra-state file indexes.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct GlobalMetadata {
    /// Format version for forward compatibility.
    pub version: u32,
    /// Framework that produced the checkpoint (informational — loading is
    /// framework-agnostic by design).
    pub framework: String,
    /// Global training step of the snapshot.
    pub step: u64,
    /// Source parallelism description (informational).
    pub source_parallelism: String,
    /// Number of ranks that participated in the save.
    pub source_world_size: usize,
    /// TensorShardToBasicByteMap: fqn → saved shard entries.
    pub tensor_map: BTreeMap<String, Vec<TensorShardEntry>>,
    /// LoaderShardToByteMap.
    pub loader_map: LoaderMap,
    /// Per-rank extra-state files (packed byte objects).
    pub extra_files: BTreeMap<usize, String>,
}

/// One overlap-query hit: the saved entry and the intersection box
/// `(offsets, lengths)` in global coordinates.
pub type OverlapHit<'a> = (&'a TensorShardEntry, (Vec<usize>, Vec<usize>));

/// Current metadata format version.
pub const METADATA_VERSION: u32 = 2;

/// File name of the global metadata within a checkpoint prefix.
pub const METADATA_FILE: &str = "global_metadata.bin";

/// File name of the commit marker written after the integrity barrier.
pub const COMPLETE_MARKER: &str = "COMPLETE";

const MAGIC: &[u8; 4] = b"BCPM";
/// `magic | version u32 | step u64`.
const HEADER_LEN: usize = 16;
const STEP_AT: std::ops::Range<usize> = 8..16;
const TRAILER_LEN: usize = 4;

const FLAG_REQUIRES_GRAD: u8 = 1;
/// The stride is the row-major one of the global shape and is not stored.
const FLAG_CONTIGUOUS: u8 = 1 << 1;
/// Offsets and lengths both have one value per global axis, so their counts
/// are not stored.
const FLAG_BOX_RANK: u8 = 1 << 2;
/// The entry's own FQN is the map key it is filed under and is not stored.
const FLAG_OWN_FQN: u8 = 1 << 3;
const FLAGS_ALL: u8 = FLAG_REQUIRES_GRAD | FLAG_CONTIGUOUS | FLAG_BOX_RANK | FLAG_OWN_FQN;

/// Fewest bytes one encoded entry can take (a rank-0 tensor): the bound
/// that keeps a forged entry count from sizing an allocation.
const MIN_ENTRY_BYTES: usize = 7;

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn put_dims(out: &mut Vec<u8>, dims: &[usize]) {
    for &d in dims {
        put_varint(out, d as u64);
    }
}

/// Ids in order of first use, for the string and shape tables.
struct Interner<'a, K: ?Sized> {
    ids: HashMap<&'a K, u64>,
    order: Vec<&'a K>,
}

impl<'a, K: std::hash::Hash + Eq + ?Sized> Interner<'a, K> {
    fn new() -> Self {
        Interner { ids: HashMap::new(), order: Vec::new() }
    }

    fn id(&mut self, key: &'a K) -> u64 {
        let next = self.order.len() as u64;
        *self.ids.entry(key).or_insert_with(|| {
            self.order.push(key);
            next
        })
    }
}

/// Whether `stride` is what [`contiguous_strides`] derives from `shape`.
fn is_contiguous(shape: &[usize], stride: &[usize]) -> bool {
    let mut acc = 1usize;
    stride.len() == shape.len()
        && shape.iter().zip(stride).rev().all(|(&dim, &s)| {
            let expect = acc;
            acc = acc.saturating_mul(dim);
            s == expect
        })
}

/// Bounds-checked cursor over an untrusted metadata body. Every error is a
/// `metadata parse error`; nothing is reserved before the bytes that would
/// fill it are known to exist.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn err<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("metadata parse error: {what} at byte {}", self.pos))
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if n > self.remaining() {
            return self.err("truncated");
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn varint(&mut self) -> Result<u64, String> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.u8()?;
            let bits = (b & 0x7f) as u64;
            if shift == 63 && bits > 1 {
                break;
            }
            v |= bits << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        self.err("varint overflows u64")
    }

    fn usize(&mut self) -> Result<usize, String> {
        usize::try_from(self.varint()?).or_else(|_| self.err("value overflows usize"))
    }

    /// An element count, refused unless `min_bytes` per element remain.
    fn count(&mut self, min_bytes: usize) -> Result<usize, String> {
        let n = self.varint()?;
        if n > (self.remaining() / min_bytes) as u64 {
            return self.err("count exceeds the bytes that remain");
        }
        Ok(n as usize)
    }

    fn str(&mut self) -> Result<&'a str, String> {
        let n = self.count(1)?;
        std::str::from_utf8(self.take(n)?).or_else(|_| self.err("string is not UTF-8"))
    }

    fn dims(&mut self, n: usize) -> Result<Vec<usize>, String> {
        if n > self.remaining() {
            return self.err("axis count exceeds the bytes that remain");
        }
        (0..n).map(|_| self.usize()).collect()
    }

    /// `count | dim ...`.
    fn counted_dims(&mut self) -> Result<Vec<usize>, String> {
        let n = self.usize()?;
        self.dims(n)
    }

    /// A table reference, range-checked.
    fn by_id<'t, T>(&mut self, table: &'t [T], what: &str) -> Result<&'t T, String> {
        let id = self.varint()?;
        match usize::try_from(id).ok().and_then(|i| table.get(i)) {
            Some(t) => Ok(t),
            None => self.err(&format!("{what} id {id} out of range")),
        }
    }
}

impl GlobalMetadata {
    /// Empty metadata for a new checkpoint.
    pub fn new(framework: &str, step: u64, parallelism: &str, world: usize) -> GlobalMetadata {
        GlobalMetadata {
            version: METADATA_VERSION,
            framework: framework.to_string(),
            step,
            source_parallelism: parallelism.to_string(),
            source_world_size: world,
            tensor_map: BTreeMap::new(),
            loader_map: LoaderMap::default(),
            extra_files: BTreeMap::new(),
        }
    }

    /// Seal into the storage representation (see the module docs): the
    /// complete file image, trailer included.
    pub fn to_bytes(&self) -> Vec<u8> {
        // Entries go to their own buffer while the tables they reference by
        // id fill up; the tables are written ahead of them.
        let mut strings: Interner<'_, str> = Interner::new();
        let mut shapes: Interner<'_, [usize]> = Interner::new();
        let mut tensors = Vec::new();
        put_varint(&mut tensors, self.tensor_map.len() as u64);
        for (fqn, entries) in &self.tensor_map {
            put_str(&mut tensors, fqn);
            put_varint(&mut tensors, entries.len() as u64);
            for e in entries {
                let rank = e.basic.global_shape.len();
                let contiguous = is_contiguous(&e.basic.global_shape, &e.basic.stride);
                let box_rank = e.shard.offsets.len() == rank && e.shard.lengths.len() == rank;
                let own_fqn = e.shard.fqn == *fqn;
                tensors.push(dtype_code(e.basic.dtype));
                tensors.push(
                    if e.basic.requires_grad { FLAG_REQUIRES_GRAD } else { 0 }
                        | if contiguous { FLAG_CONTIGUOUS } else { 0 }
                        | if box_rank { FLAG_BOX_RANK } else { 0 }
                        | if own_fqn { FLAG_OWN_FQN } else { 0 },
                );
                put_varint(&mut tensors, shapes.id(&e.basic.global_shape));
                put_varint(&mut tensors, strings.id(&e.basic.device));
                if !contiguous {
                    put_varint(&mut tensors, e.basic.stride.len() as u64);
                    put_dims(&mut tensors, &e.basic.stride);
                }
                if !box_rank {
                    put_varint(&mut tensors, e.shard.offsets.len() as u64);
                    put_varint(&mut tensors, e.shard.lengths.len() as u64);
                }
                put_dims(&mut tensors, &e.shard.offsets);
                put_dims(&mut tensors, &e.shard.lengths);
                if !own_fqn {
                    put_str(&mut tensors, &e.shard.fqn);
                }
                put_varint(&mut tensors, strings.id(&e.byte.file));
                put_varint(&mut tensors, e.byte.offset);
                put_varint(&mut tensors, e.byte.length);
            }
        }

        let mut out = Vec::with_capacity(tensors.len() + 256);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(&self.step.to_le_bytes());
        put_str(&mut out, &self.framework);
        put_str(&mut out, &self.source_parallelism);
        put_varint(&mut out, self.source_world_size as u64);
        put_varint(&mut out, strings.order.len() as u64);
        for s in &strings.order {
            put_str(&mut out, s);
        }
        put_varint(&mut out, shapes.order.len() as u64);
        for shape in &shapes.order {
            put_varint(&mut out, shape.len() as u64);
            put_dims(&mut out, shape);
        }
        out.extend_from_slice(&tensors);
        match &self.loader_map.replicated_file {
            Some(file) => {
                out.push(1);
                put_str(&mut out, file);
            }
            None => out.push(0),
        }
        put_varint(&mut out, self.loader_map.shards.len() as u64);
        for shard in &self.loader_map.shards {
            put_varint(&mut out, shard.dp_rank as u64);
            put_varint(&mut out, shard.worker as u64);
            put_str(&mut out, &shard.file);
        }
        put_varint(&mut out, self.extra_files.len() as u64);
        for (&rank, file) in &self.extra_files {
            put_varint(&mut out, rank as u64);
            put_str(&mut out, file);
        }
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// The sealed image of the same metadata at another step: a copy of
    /// `image` with the eight step bytes overwritten and the trailer
    /// recomputed. Byte for byte what [`GlobalMetadata::to_bytes`] returns
    /// after setting `step`, without walking the tensor map.
    ///
    /// # Panics
    /// If `image` is shorter than a header and a trailer, which no value
    /// returned by `to_bytes` is.
    pub fn restamp_step(image: &[u8], step: u64) -> Vec<u8> {
        assert!(image.len() >= HEADER_LEN + TRAILER_LEN, "not a sealed metadata image");
        let mut out = image.to_vec();
        out[STEP_AT].copy_from_slice(&step.to_le_bytes());
        let body = out.len() - TRAILER_LEN;
        let crc = crc32(&out[..body]);
        out[body..].copy_from_slice(&crc.to_le_bytes());
        out
    }

    /// Decode a metadata file: one eager pass that checks the trailer first,
    /// then bounds every count by the bytes that remain and range-checks
    /// every id. Callers on the load path follow up with
    /// [`GlobalMetadata::validate`].
    pub fn from_bytes(data: &[u8]) -> Result<GlobalMetadata, String> {
        if data.len() < HEADER_LEN + TRAILER_LEN || &data[..4] != MAGIC {
            return Err("metadata parse error: not a global metadata file".into());
        }
        let word = |at: usize| u32::from_le_bytes(data[at..at + 4].try_into().expect("4 bytes"));
        let version = word(4);
        if version != METADATA_VERSION {
            return Err(format!("unsupported metadata version {version}"));
        }
        let body = data.len() - TRAILER_LEN;
        if word(body) != crc32(&data[..body]) {
            return Err("metadata parse error: checksum mismatch".into());
        }
        let step = u64::from_le_bytes(data[STEP_AT].try_into().expect("8 bytes"));
        let mut r = Reader { buf: &data[..body], pos: HEADER_LEN };

        let framework = r.str()?.to_string();
        let source_parallelism = r.str()?.to_string();
        let source_world_size = r.usize()?;
        let strings: Vec<&str> = (0..r.count(1)?).map(|_| r.str()).collect::<Result<_, _>>()?;
        let shapes: Vec<Vec<usize>> =
            (0..r.count(1)?).map(|_| r.counted_dims()).collect::<Result<_, _>>()?;

        let mut tensor_map: BTreeMap<String, Vec<TensorShardEntry>> = BTreeMap::new();
        for _ in 0..r.count(2)? {
            let fqn = r.str()?;
            if tensor_map.last_key_value().is_some_and(|(last, _)| last.as_str() >= fqn) {
                return r.err("tensor names are not strictly ascending");
            }
            let n = r.count(MIN_ENTRY_BYTES)?;
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                let dtype = match dtype_from_code(r.u8()?) {
                    Some(dtype) => dtype,
                    None => return r.err("unknown dtype code"),
                };
                let flags = r.u8()?;
                if flags & !FLAGS_ALL != 0 {
                    return r.err("unknown entry flag");
                }
                let global_shape = r.by_id(&shapes, "shape")?.clone();
                let device = String::from(*r.by_id(&strings, "string")?);
                let stride = if flags & FLAG_CONTIGUOUS != 0 {
                    contiguous_strides(&global_shape)
                } else {
                    r.counted_dims()?
                };
                let (n_off, n_len) = if flags & FLAG_BOX_RANK != 0 {
                    (global_shape.len(), global_shape.len())
                } else {
                    (r.usize()?, r.usize()?)
                };
                let offsets = r.dims(n_off)?;
                let lengths = r.dims(n_len)?;
                let own = if flags & FLAG_OWN_FQN != 0 { fqn } else { r.str()? };
                let file = String::from(*r.by_id(&strings, "string")?);
                entries.push(TensorShardEntry {
                    shard: ShardMeta { fqn: own.to_string(), offsets, lengths },
                    basic: BasicMeta {
                        dtype,
                        global_shape,
                        stride,
                        device,
                        requires_grad: flags & FLAG_REQUIRES_GRAD != 0,
                    },
                    byte: ByteMeta { file, offset: r.varint()?, length: r.varint()? },
                });
            }
            tensor_map.insert(fqn.to_string(), entries);
        }

        let replicated_file = match r.u8()? {
            0 => None,
            1 => Some(r.str()?.to_string()),
            _ => return r.err("bad replicated-loader flag"),
        };
        let shards = (0..r.count(3)?)
            .map(|_| {
                Ok(LoaderShardFileEntry {
                    dp_rank: r.usize()?,
                    worker: r.usize()?,
                    file: r.str()?.to_string(),
                })
            })
            .collect::<Result<_, String>>()?;
        let mut extra_files = BTreeMap::new();
        for _ in 0..r.count(2)? {
            let rank = r.usize()?;
            if extra_files.last_key_value().is_some_and(|(&last, _)| last >= rank) {
                return r.err("extra-state ranks are not strictly ascending");
            }
            extra_files.insert(rank, r.str()?.to_string());
        }
        if r.remaining() != 0 {
            return r.err("trailing bytes");
        }
        Ok(GlobalMetadata {
            version,
            framework,
            step,
            source_parallelism,
            source_world_size,
            tensor_map,
            loader_map: LoaderMap { replicated_file, shards },
            extra_files,
        })
    }

    /// All saved shards of `fqn` that overlap the query box, with the
    /// intersection of each (Fig. 8 step 2: "identifying matching segments
    /// between the saved tensor shards and the sharding specification of new
    /// shards").
    pub fn overlapping_shards<'a>(
        &'a self,
        fqn: &str,
        offsets: &[usize],
        lengths: &[usize],
    ) -> Vec<OverlapHit<'a>> {
        let Some(entries) = self.tensor_map.get(fqn) else {
            return Vec::new();
        };
        let query = ShardMeta {
            fqn: fqn.to_string(),
            offsets: offsets.to_vec(),
            lengths: lengths.to_vec(),
        };
        entries.iter().filter_map(|e| e.shard.intersect(&query).map(|i| (e, i))).collect()
    }

    /// Total payload bytes across all tensor shards.
    pub fn total_tensor_bytes(&self) -> u64 {
        self.tensor_map.values().flatten().map(|e| e.byte.length).sum()
    }

    /// Sanity-check invariants: every entry's box fits its global shape,
    /// byte length matches the element count, and offset + length fits a
    /// `u64`. Returns the first violation.
    pub fn validate(&self) -> Result<(), String> {
        for (fqn, entries) in &self.tensor_map {
            for e in entries {
                if e.shard.fqn != *fqn {
                    return Err(format!("{fqn}: entry carries mismatched fqn {}", e.shard.fqn));
                }
                if !bcp_tensor::layout::box_in_bounds(
                    &e.basic.global_shape,
                    &e.shard.offsets,
                    &e.shard.lengths,
                ) {
                    return Err(format!("{fqn}: shard box out of bounds"));
                }
                // Checked: the lengths come from varints in an untrusted file.
                let expect = e
                    .shard
                    .lengths
                    .iter()
                    .try_fold(e.basic.dtype.size(), |acc, &l| acc.checked_mul(l))
                    .ok_or_else(|| format!("{fqn}: shard byte size overflows"))?
                    as u64;
                if e.byte.length != expect {
                    return Err(format!(
                        "{fqn}: byte length {} != expected {expect}",
                        e.byte.length
                    ));
                }
                // Every ranged read of the shard ends at or before this.
                if e.byte.offset.checked_add(e.byte.length).is_none() {
                    return Err(format!("{fqn}: byte offset {} overflows", e.byte.offset));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_meta() -> GlobalMetadata {
        let mut m = GlobalMetadata::new("megatron", 100, "TP=2,DP=1,PP=1", 2);
        for i in 0..2usize {
            m.tensor_map.entry("w".into()).or_default().push(TensorShardEntry {
                shard: ShardMeta { fqn: "w".into(), offsets: vec![2 * i, 0], lengths: vec![2, 4] },
                basic: BasicMeta::contiguous(DType::F32, vec![4, 4], format!("cuda:{i}")),
                byte: ByteMeta { file: format!("model_{i}.bin"), offset: 16, length: 32 },
            });
        }
        m
    }

    #[test]
    fn round_trip_through_bytes() {
        let m = sample_meta();
        let bytes = m.to_bytes();
        let back = GlobalMetadata::from_bytes(&bytes).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn version_mismatch_rejected() {
        let mut m = sample_meta();
        m.version = 99;
        let err = GlobalMetadata::from_bytes(&m.to_bytes()).unwrap_err();
        assert!(err.contains("version"));
        assert!(GlobalMetadata::from_bytes(b"{ \"version\": 1 }").is_err());
    }

    #[test]
    fn every_struct_value_round_trips_even_one_validate_rejects() {
        let mut m = sample_meta();
        let e = &mut m.tensor_map.get_mut("w").unwrap()[1];
        e.shard.fqn = "not.w".into();
        e.shard.offsets = vec![1];
        e.basic.stride = vec![1, 4];
        e.basic.requires_grad = false;
        m.loader_map.replicated_file = Some("loader/replicated.json".into());
        m.extra_files.insert(3, "extra_3.bin".into());
        let back = GlobalMetadata::from_bytes(&m.to_bytes()).unwrap();
        assert_eq!(back, m);
        assert!(back.validate().is_err());
    }

    #[test]
    fn restamp_equals_a_fresh_encode_at_the_new_step() {
        let mut m = sample_meta();
        let image = m.to_bytes();
        m.step = u64::MAX - 1;
        assert_eq!(GlobalMetadata::restamp_step(&image, m.step), m.to_bytes());
    }

    #[test]
    fn hostile_lengths_fail_validation_without_overflowing() {
        let mut m = sample_meta();
        let e = &mut m.tensor_map.get_mut("w").unwrap()[0];
        e.basic.global_shape = vec![usize::MAX, usize::MAX];
        e.shard.lengths = vec![usize::MAX, usize::MAX];
        let back = GlobalMetadata::from_bytes(&m.to_bytes()).unwrap();
        assert_eq!(back, m);
        assert!(back.validate().unwrap_err().contains("overflows"));
    }

    #[test]
    fn overlap_query_finds_matching_segments() {
        let m = sample_meta();
        // Query the middle two rows: overlaps both shards, one row each.
        let hits = m.overlapping_shards("w", &[1, 0], &[2, 4]);
        assert_eq!(hits.len(), 2);
        let (_, (off0, len0)) = &hits[0];
        assert_eq!((off0.as_slice(), len0.as_slice()), ([1, 0].as_slice(), [1, 4].as_slice()));
        // Query outside any shard: nothing. Unknown fqn: nothing.
        assert!(m.overlapping_shards("w", &[4, 0], &[0, 4]).is_empty());
        assert!(m.overlapping_shards("nope", &[0, 0], &[1, 1]).is_empty());
    }

    #[test]
    fn validation_catches_corruption() {
        let mut m = sample_meta();
        assert!(m.validate().is_ok());
        m.tensor_map.get_mut("w").unwrap()[0].byte.length = 31;
        assert!(m.validate().unwrap_err().contains("byte length"));
        let mut m2 = sample_meta();
        m2.tensor_map.get_mut("w").unwrap()[1].shard.offsets = vec![3, 0];
        assert!(m2.validate().unwrap_err().contains("out of bounds"));
    }

    #[test]
    fn total_bytes_sums_payloads() {
        assert_eq!(sample_meta().total_tensor_bytes(), 64);
    }
}
