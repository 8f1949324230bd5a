//! The decoupled checkpoint representation (§3.2, Fig. 6).
//!
//! "For model and optimizer state representation, we separate each tensor
//! shard's metadata from its numerical values and consolidate all the
//! metadata into one global file." A tensor shard's metadata has three
//! parts: [`BasicMeta`] (runtime recovery info), [`ShardMeta`] (position in
//! the global tensor), and [`ByteMeta`] (location in a storage file). The
//! [`GlobalMetadata`] file carries the `TensorShardToBasicByteMap` and the
//! names of the step's state files (the dataloader's LoaderShardToByteMap
//! and the extra state, see [`crate::state_files`]).
//!
//! # File format (version 3)
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
//! state     count | name str ...            (state files, ascending)
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
//! JSON document or the version-2 layout (which indexed dataloader and
//! extra-state files in two sections of their own): nothing written by this
//! code base outlives its test run, and a second decoder is a second parse
//! surface to fuzz. `bcpctl inspect
//! --json` prints the decoded struct for people.

use crate::format::{dtype_code, dtype_from_code};
use crate::plan::Sweep;
use bcp_tensor::checksum::crc32;
use bcp_tensor::layout::{contiguous_strides, Axes};
use bcp_tensor::DType;
use serde::Serialize;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Position of a (regular) tensor shard in its global tensor: "an index
/// tuple (fqn, nD_offsets, nD_lengths)". Irregular shards are decomposed
/// into several of these (one [`TensorShardEntry`] each).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize)]
pub struct ShardMeta {
    /// Fully qualified tensor name, shared by every shard of the tensor.
    pub fqn: Arc<str>,
    /// Offsets of the shard along each global axis.
    pub offsets: Axes,
    /// Lengths of the shard along each global axis.
    pub lengths: Axes,
}

impl ShardMeta {
    /// Number of elements in this shard.
    pub fn numel(&self) -> usize {
        self.lengths.iter().product()
    }
}

/// "Essential information of individual tensor shards such as stride and
/// device, critical for recovering the runtime state."
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct BasicMeta {
    /// Element dtype.
    pub dtype: DType,
    /// Global tensor shape (the shard's parent).
    pub global_shape: Axes,
    /// Row-major strides of the global tensor, in elements.
    pub stride: Axes,
    /// Device string of the worker that saved the shard (e.g. `"cuda:3"`).
    pub device: Arc<str>,
    /// Whether the tensor required gradients at save time.
    pub requires_grad: bool,
}

impl BasicMeta {
    /// Construct for a tensor with contiguous row-major layout.
    pub fn contiguous(
        dtype: DType,
        global_shape: impl Into<Axes>,
        device: impl Into<Arc<str>>,
    ) -> BasicMeta {
        let global_shape = global_shape.into();
        let stride = contiguous_strides(&global_shape);
        BasicMeta { dtype, global_shape, stride, device: device.into(), requires_grad: true }
    }
}

/// "The byte start offset and length of each tensor shard within the
/// storage file."
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ByteMeta {
    /// Storage file (relative to the checkpoint prefix), shared by every
    /// shard stored in it.
    pub file: Arc<str>,
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

/// The global metadata file (Fig. 6): one per checkpoint, consolidating all
/// tensor metadata plus the names of the step's state files.
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
    /// The step's state files (paths relative to the checkpoint prefix),
    /// ascending: each one sealed frame, named as its file.
    pub state_files: Vec<String>,
}

/// Current metadata format version.
pub const METADATA_VERSION: u32 = 3;

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

    fn dims(&mut self, n: usize) -> Result<Axes, String> {
        if n > self.remaining() {
            return self.err("axis count exceeds the bytes that remain");
        }
        (0..n).map(|_| self.usize()).collect()
    }

    /// `count | dim ...`.
    fn counted_dims(&mut self) -> Result<Axes, String> {
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
            state_files: Vec::new(),
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
                let own_fqn = *e.shard.fqn == **fqn;
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
        put_varint(&mut out, self.state_files.len() as u64);
        for name in &self.state_files {
            put_str(&mut out, name);
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
            return Err(format!(
                "metadata parse error: unsupported version {version} (this build reads \
                 {METADATA_VERSION})"
            ));
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
        // Every name and shape is made once, at its table entry (or FQN), and
        // shared by the entries that name it; an entry's own boxes are inline
        // axes, so an entry of up to `INLINE_AXES` axes allocates nothing.
        let strings: Vec<Arc<str>> =
            (0..r.count(1)?).map(|_| r.str().map(Arc::from)).collect::<Result<_, _>>()?;
        // Each shape with its row-major stride, what a contiguous entry holds.
        let shapes: Vec<(Axes, Axes)> = (0..r.count(1)?)
            .map(|_| {
                let shape = r.counted_dims()?;
                let stride = contiguous_strides(&shape);
                Ok((shape, stride))
            })
            .collect::<Result<_, String>>()?;

        // Names arrive strictly ascending, so the map is built in bulk.
        let n_fqns = r.count(2)?;
        let mut tensors: Vec<(String, Vec<TensorShardEntry>)> = Vec::with_capacity(n_fqns);
        let mut last: Option<&str> = None;
        for _ in 0..n_fqns {
            let fqn = r.str()?;
            if last.is_some_and(|last| last >= fqn) {
                return r.err("tensor names are not strictly ascending");
            }
            last = Some(fqn);
            let shared_fqn: Arc<str> = Arc::from(fqn);
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
                let (global_shape, row_major) = r.by_id(&shapes, "shape")?;
                let device = r.by_id(&strings, "string")?.clone();
                let stride = if flags & FLAG_CONTIGUOUS != 0 {
                    row_major.clone()
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
                let own = if flags & FLAG_OWN_FQN != 0 {
                    shared_fqn.clone()
                } else {
                    Arc::from(r.str()?)
                };
                let file = r.by_id(&strings, "string")?.clone();
                entries.push(TensorShardEntry {
                    shard: ShardMeta { fqn: own, offsets, lengths },
                    basic: BasicMeta {
                        dtype,
                        global_shape: global_shape.clone(),
                        stride,
                        device,
                        requires_grad: flags & FLAG_REQUIRES_GRAD != 0,
                    },
                    byte: ByteMeta { file, offset: r.varint()?, length: r.varint()? },
                });
            }
            tensors.push((fqn.to_string(), entries));
        }
        let tensor_map = BTreeMap::from_iter(tensors);

        let state_files =
            (0..r.count(1)?).map(|_| r.str().map(str::to_string)).collect::<Result<_, _>>()?;
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
            state_files,
        })
    }

    /// Total payload bytes across all tensor shards.
    pub fn total_tensor_bytes(&self) -> u64 {
        self.tensor_map.values().flatten().map(|e| e.byte.length).sum()
    }

    /// Sanity-check invariants: every entry's box fits its global shape,
    /// byte length matches the element count, offset + length fits a `u64`,
    /// and the boxes of one tensor share its global shape and are disjoint
    /// or identical (replicas); the state files are named, ascending, listed
    /// once each, and none is a shard file. Returns the first violation.
    pub fn validate(&self) -> Result<(), String> {
        let mut sweep = Sweep::default();
        for (fqn, entries) in &self.tensor_map {
            for e in entries {
                if *e.shard.fqn != **fqn {
                    return Err(format!("{fqn}: entry carries mismatched fqn {}", e.shard.fqn));
                }
                if !bcp_tensor::layout::box_in_bounds(
                    &e.basic.global_shape,
                    &e.shard.offsets,
                    &e.shard.lengths,
                ) {
                    return Err(format!("{fqn}: shard box out of bounds"));
                }
                if e.basic.global_shape != entries[0].basic.global_shape {
                    return Err(format!("{fqn}: entries disagree on the global shape"));
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
            sweep.check_saved(entries, fqn)?;
        }
        for pair in self.state_files.windows(2) {
            if pair[0] >= pair[1] {
                let how = if pair[0] == pair[1] { "twice" } else { "out of order" };
                return Err(format!("state file {} is listed {how}", pair[1]));
            }
        }
        for name in &self.state_files {
            if name.is_empty() {
                return Err("a state file has an empty name".into());
            }
            if self.tensor_map.values().flatten().any(|e| *e.byte.file == **name) {
                return Err(format!("state file {name} is also a shard file"));
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
                shard: ShardMeta {
                    fqn: "w".into(),
                    offsets: [2 * i, 0].into(),
                    lengths: [2, 4].into(),
                },
                basic: BasicMeta::contiguous(DType::F32, vec![4, 4], format!("cuda:{i}")),
                byte: ByteMeta { file: format!("model_{i}.bin").into(), offset: 16, length: 32 },
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
        e.shard.offsets = [1].into();
        e.basic.stride = [1, 4].into();
        e.basic.requires_grad = false;
        m.state_files = vec!["extra_3.bin".into(), "extra_3.bin".into(), String::new()];
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
        e.basic.global_shape = [usize::MAX, usize::MAX].into();
        e.shard.lengths = [usize::MAX, usize::MAX].into();
        let back = GlobalMetadata::from_bytes(&m.to_bytes()).unwrap();
        assert_eq!(back, m);
        assert!(back.validate().unwrap_err().contains("overflows"));
    }

    #[test]
    fn validation_catches_corruption() {
        let mut m = sample_meta();
        assert!(m.validate().is_ok());
        m.tensor_map.get_mut("w").unwrap()[0].byte.length = 31;
        assert!(m.validate().unwrap_err().contains("byte length"));
        let mut m2 = sample_meta();
        m2.tensor_map.get_mut("w").unwrap()[1].shard.offsets = [3, 0].into();
        assert!(m2.validate().unwrap_err().contains("out of bounds"));
    }

    #[test]
    fn state_files_must_be_named_listed_once_and_apart_from_the_shards() {
        for (names, why) in [
            (vec!["", "extra_0.bin"], "empty name"),
            (vec!["extra_0.bin", "extra_0.bin"], "listed twice"),
            (vec!["extra_1.bin", "extra_0.bin"], "out of order"),
            (vec!["extra_0.bin", "model_1.bin"], "also a shard file"),
        ] {
            let mut m = sample_meta();
            m.state_files = names.into_iter().map(String::from).collect();
            assert!(m.validate().unwrap_err().contains(why), "{why}");
        }
        let mut m = sample_meta();
        m.state_files = vec!["extra_0.bin".into(), "loader/replicated.bin".into()];
        m.validate().unwrap();
        assert_eq!(GlobalMetadata::from_bytes(&m.to_bytes()).unwrap(), m);
    }

    #[test]
    fn a_version_2_file_is_refused_by_version() {
        let mut image = sample_meta().to_bytes();
        image[4..8].copy_from_slice(&2u32.to_le_bytes());
        let err = GlobalMetadata::from_bytes(&image).unwrap_err();
        assert!(err.starts_with("metadata parse error: unsupported version 2"), "{err}");
    }

    #[test]
    fn total_bytes_sums_payloads() {
        assert_eq!(sample_meta().total_tensor_bytes(), 64);
    }
}
