//! Content-addressed chunk index: a library module nothing in production
//! calls.
//!
//! A [`ChunkManifest`] records each shard file's fixed-size chunks as
//! `(content hash, byte offset, length)` ([`FileChunksBuilder`] takes the
//! bytes in pieces of any size, and [`FileChunks::from_segments`] walks
//! chunk windows across segment boundaries). No save derives one: a save
//! seals each frame with its CRC alone, because nothing reads a manifest
//! back (the load path addresses bytes through `ByteMeta` offsets). A
//! [`CHUNK_MANIFEST_FILE`] an older build left in a step is an orphan to
//! scrub and goes when the step is deleted.
//!
//! The module stays only because the perf harness's `core.chunks.*` layer
//! probes import it. ROADMAP 1 (d) drops those probes; then this module,
//! `SaveConfig::chunk_bytes` and `SaveStats::chunks` go too.
//!
//! The hash is MurmurHash3-x64-128 (Austin Appleby, public domain), seed 0,
//! written as `h1` then `h2` in hex: sixteen input bytes per step through
//! two 64-bit multiply-rotate lanes, so it runs at memory-word speed where
//! the 128-bit FNV-1a of manifest version 1 paid one dependent `u128`
//! multiply per byte (0.75 GB/s — a fifth of a save's CPU time). It is
//! deliberately not cryptographic: chunk ids address a job's own training
//! state, not adversarial input, and every frame still carries its CRC32,
//! so the hash only has to be well mixed and collision-safe at checkpoint
//! scale (2^64 chunks for a birthday collision) — a SHA-class hash would
//! cost more than the upload. Ids of the two versions are not comparable,
//! hence [`CHUNK_MANIFEST_VERSION`] 2; a version-1 manifest is rejected.
//! Parsing re-verifies lengths and offsets, so a corrupted manifest fails
//! closed.

use bytes::Bytes;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Manifest file name within a step prefix.
pub const CHUNK_MANIFEST_FILE: &str = "chunk_manifest.json";

/// Current manifest schema version (2: chunk ids are MurmurHash3-x64-128).
pub const CHUNK_MANIFEST_VERSION: u32 = 2;

/// Default chunk size for manifest derivation (256 KiB): large enough that
/// per-chunk overhead is negligible, small enough that dedup across ranks
/// (replicated optimizer shards, padding frames) actually lands.
pub const DEFAULT_CHUNK_BYTES: u64 = 256 * 1024;

const C1: u64 = 0x87c3_7b91_1142_53d5;
const C2: u64 = 0x4cf5_ad43_2745_937f;

/// Bytes absorbed per step.
const BLOCK: usize = 16;

#[inline]
fn mix_k1(k: u64) -> u64 {
    k.wrapping_mul(C1).rotate_left(31).wrapping_mul(C2)
}

#[inline]
fn mix_k2(k: u64) -> u64 {
    k.wrapping_mul(C2).rotate_left(33).wrapping_mul(C1)
}

#[inline]
fn fmix64(mut k: u64) -> u64 {
    k ^= k >> 33;
    k = k.wrapping_mul(0xff51_afd7_ed55_8ccd);
    k ^= k >> 33;
    k = k.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    k ^ (k >> 33)
}

/// Incremental MurmurHash3-x64-128 (streams across segment boundaries: the
/// result depends only on the bytes, never on how `update` calls split them).
#[derive(Debug, Clone, Copy, Default)]
pub struct ChunkHasher {
    h1: u64,
    h2: u64,
    /// The `pending` bytes (fewer than a block) carried to the next update.
    tail: [u8; BLOCK],
    pending: usize,
    len: u64,
}

impl ChunkHasher {
    /// Fresh hasher.
    pub fn new() -> ChunkHasher {
        ChunkHasher::default()
    }

    #[inline]
    fn absorb(&mut self, block: &[u8; BLOCK]) {
        let word = u128::from_le_bytes(*block);
        self.h1 ^= mix_k1(word as u64);
        self.h1 =
            self.h1.rotate_left(27).wrapping_add(self.h2).wrapping_mul(5).wrapping_add(0x52dc_e729);
        self.h2 ^= mix_k2((word >> 64) as u64);
        self.h2 =
            self.h2.rotate_left(31).wrapping_add(self.h1).wrapping_mul(5).wrapping_add(0x3849_5ab5);
    }

    /// Absorb `data`.
    pub fn update(&mut self, mut data: &[u8]) {
        self.len += data.len() as u64;
        if self.pending > 0 {
            let take = data.len().min(BLOCK - self.pending);
            self.tail[self.pending..self.pending + take].copy_from_slice(&data[..take]);
            self.pending += take;
            data = &data[take..];
            if self.pending < BLOCK {
                return;
            }
            let block = self.tail;
            self.absorb(&block);
            self.pending = 0;
        }
        let (blocks, rest) = data.as_chunks::<BLOCK>();
        for block in blocks {
            self.absorb(block);
        }
        self.tail[..rest.len()].copy_from_slice(rest);
        self.pending = rest.len();
    }

    /// Finish into the canonical 32-hex-digit chunk id.
    pub fn finish(self) -> String {
        let mut last = [0u8; BLOCK];
        last[..self.pending].copy_from_slice(&self.tail[..self.pending]);
        let word = u128::from_le_bytes(last);
        // Zero words mix to zero, so the short-tail cases need no branches.
        let mut h1 = self.h1 ^ mix_k1(word as u64) ^ self.len;
        let mut h2 = self.h2 ^ mix_k2((word >> 64) as u64) ^ self.len;
        h1 = h1.wrapping_add(h2);
        h2 = h2.wrapping_add(h1);
        h1 = fmix64(h1);
        h2 = fmix64(h2);
        h1 = h1.wrapping_add(h2);
        h2 = h2.wrapping_add(h1);
        format!("{h1:016x}{h2:016x}")
    }
}

/// Hash one complete chunk.
pub fn chunk_hash(data: &[u8]) -> String {
    let mut h = ChunkHasher::new();
    h.update(data);
    h.finish()
}

/// One fixed-size (final chunk: remainder) window of a shard file.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChunkRef {
    /// 128-bit content hash ([`chunk_hash`]), 32 hex digits.
    pub hash: String,
    /// Byte offset within the file.
    pub offset: u64,
    /// Window length in bytes.
    pub len: u64,
}

/// The chunk index of one shard file.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FileChunks {
    /// File name relative to the step prefix (e.g. `model_3.bin`).
    pub file: String,
    /// Total file size in bytes (must equal the sum of chunk lengths).
    pub size: u64,
    /// Chunks in offset order, covering the file exactly.
    pub chunks: Vec<ChunkRef>,
}

/// Streaming derivation of one file's [`FileChunks`]: feed the file's bytes
/// in order, in pieces of any size; chunk windows are hashed across piece
/// boundaries in place.
#[derive(Debug)]
pub struct FileChunksBuilder {
    file: String,
    chunk_bytes: u64,
    /// The current window so far (`hasher.len` bytes of it).
    hasher: ChunkHasher,
    /// Start offset of the current window.
    offset: u64,
    chunks: Vec<ChunkRef>,
}

impl FileChunksBuilder {
    /// Start indexing `file` at `chunk_bytes` granularity (`0` is taken as 1).
    pub fn new(file: impl Into<String>, chunk_bytes: u64) -> FileChunksBuilder {
        FileChunksBuilder {
            file: file.into(),
            chunk_bytes: chunk_bytes.max(1),
            hasher: ChunkHasher::new(),
            offset: 0,
            chunks: Vec::new(),
        }
    }

    fn close_chunk(&mut self) {
        let hasher = std::mem::take(&mut self.hasher);
        let len = hasher.len;
        self.chunks.push(ChunkRef { hash: hasher.finish(), offset: self.offset, len });
        self.offset += len;
    }

    /// Absorb the file's next bytes.
    pub fn update(&mut self, mut data: &[u8]) {
        while !data.is_empty() {
            let room = self.chunk_bytes - self.hasher.len;
            let take = data.len().min(usize::try_from(room).unwrap_or(usize::MAX));
            self.hasher.update(&data[..take]);
            data = &data[take..];
            if self.hasher.len == self.chunk_bytes {
                self.close_chunk();
            }
        }
    }

    /// Close the final (remainder) window and return the index.
    pub fn finish(mut self) -> FileChunks {
        if self.hasher.len > 0 {
            self.close_chunk();
        }
        FileChunks { file: self.file, size: self.offset, chunks: self.chunks }
    }
}

impl FileChunks {
    /// Derive the index from a file's gather segments without materializing
    /// the file. `chunk_bytes` must be non-zero.
    pub fn from_segments(
        file: impl Into<String>,
        segments: &[Bytes],
        chunk_bytes: u64,
    ) -> FileChunks {
        let mut b = FileChunksBuilder::new(file, chunk_bytes);
        for seg in segments {
            b.update(seg);
        }
        b.finish()
    }

    /// Derive the index from contiguous bytes (tests, re-verification).
    pub fn from_bytes(file: impl Into<String>, data: &[u8], chunk_bytes: u64) -> FileChunks {
        let mut b = FileChunksBuilder::new(file, chunk_bytes);
        b.update(data);
        b.finish()
    }
}

/// The per-step chunk manifest: every shard file's content-addressed index.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct ChunkManifest {
    /// Schema version ([`CHUNK_MANIFEST_VERSION`]).
    pub version: u32,
    /// The step this manifest indexes.
    pub step: u64,
    /// Chunking granularity the files were indexed at.
    pub chunk_bytes: u64,
    /// Per-file indexes, file-name ascending (deterministic serialization).
    pub files: Vec<FileChunks>,
}

impl ChunkManifest {
    /// Assemble from per-rank contributions, sorting by file name and
    /// dropping duplicate files (ranks re-uploading shared small files).
    pub fn assemble(
        step: u64,
        chunk_bytes: u64,
        contributions: Vec<Vec<FileChunks>>,
    ) -> ChunkManifest {
        let mut by_file: BTreeMap<String, FileChunks> = BTreeMap::new();
        for fc in contributions.into_iter().flatten() {
            by_file.entry(fc.file.clone()).or_insert(fc);
        }
        ChunkManifest {
            version: CHUNK_MANIFEST_VERSION,
            step,
            chunk_bytes,
            files: by_file.into_values().collect(),
        }
    }

    /// Serialize (pretty JSON, like the global metadata).
    pub fn to_bytes(&self) -> Vec<u8> {
        serde_json::to_vec_pretty(self).expect("manifest serializes")
    }

    /// Parse and validate.
    pub fn from_bytes(data: &[u8]) -> std::result::Result<ChunkManifest, String> {
        let m: ChunkManifest =
            serde_json::from_slice(data).map_err(|e| format!("chunk manifest unreadable: {e}"))?;
        m.validate()?;
        Ok(m)
    }

    /// Structural checks: chunks cover each file exactly, in order.
    pub fn validate(&self) -> std::result::Result<(), String> {
        if self.version != CHUNK_MANIFEST_VERSION {
            return Err(format!("unsupported chunk manifest version {}", self.version));
        }
        for f in &self.files {
            let mut cursor = 0u64;
            for c in &f.chunks {
                if c.offset != cursor {
                    return Err(format!(
                        "{}: chunk at offset {} expected {} (gap or overlap)",
                        f.file, c.offset, cursor
                    ));
                }
                if c.len == 0 {
                    return Err(format!("{}: zero-length chunk at {}", f.file, c.offset));
                }
                cursor += c.len;
            }
            if cursor != f.size {
                return Err(format!("{}: chunks cover {cursor} of {} bytes", f.file, f.size));
            }
        }
        Ok(())
    }

    /// Total indexed bytes (sum of file sizes).
    pub fn total_bytes(&self) -> u64 {
        self.files.iter().map(|f| f.size).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn segs(parts: &[&[u8]]) -> Vec<Bytes> {
        parts.iter().map(|p| Bytes::copy_from_slice(p)).collect()
    }

    #[test]
    fn segment_chunking_matches_contiguous_chunking() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 7 % 251) as u8).collect();
        let contiguous = FileChunks::from_bytes("f", &data, 64);
        // Same bytes, awkward segment boundaries.
        let segmented = FileChunks::from_segments(
            "f",
            &segs(&[&data[..1], &data[1..63], &data[63..64], &data[64..700], &data[700..]]),
            64,
        );
        assert_eq!(contiguous, segmented);
        assert_eq!(contiguous.size, 1000);
        assert_eq!(contiguous.chunks.len(), 16); // 15 full + remainder
        assert_eq!(contiguous.chunks.last().unwrap().len, 1000 % 64);
    }

    #[test]
    fn identical_content_shares_hashes_across_files() {
        let a = FileChunks::from_bytes("a", &[5u8; 256], 64);
        let b = FileChunks::from_bytes("b", &[5u8; 256], 64);
        assert_eq!(a.chunks[0].hash, b.chunks[0].hash);
        // All four chunks of the constant file are identical.
        assert!(a.chunks.iter().all(|c| c.hash == a.chunks[0].hash));
    }

    #[test]
    fn manifest_round_trips_and_validates() {
        let fc = FileChunks::from_bytes("model_0.bin", &[1u8; 300], 128);
        let m = ChunkManifest::assemble(42, 128, vec![vec![fc]]);
        let back = ChunkManifest::from_bytes(&m.to_bytes()).unwrap();
        assert_eq!(back, m);

        let mut torn = m.clone();
        torn.files[0].chunks[1].offset += 1;
        assert!(torn.validate().is_err());
        let mut short = m.clone();
        short.files[0].chunks.pop();
        assert!(short.validate().is_err());
        // Version-1 ids are 128-bit FNV-1a: same shape, different function,
        // so a v1 manifest must not be read as if its ids were comparable.
        let mut v1 = m;
        v1.version = 1;
        let err = ChunkManifest::from_bytes(&v1.to_bytes()).unwrap_err();
        assert_eq!(err, "unsupported chunk manifest version 1");
    }

    /// `(i * 7 % 251) as u8`: the pattern the pinned ids below were computed
    /// over by an independent implementation of the published algorithm.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 7 % 251) as u8).collect()
    }

    #[test]
    fn golden_vectors() {
        // Published MurmurHash3_x64_128 vectors (seed 0), `h1` then `h2`.
        for (input, id) in [
            (&b""[..], "00000000000000000000000000000000"),
            (b"hello", "cbd8a7b341bd9b025b1e906a48ae1d19"),
            (b"hello, world", "342fac623a5ebc8e4cdcbc079642414d"),
            (b"19 Jan 2038 at 3:14:07 AM", "b89e5988b737affc664fc2950231b2cb"),
            (b"The quick brown fox jumps over the lazy dog", "e34bbc7bbc071b6c7a433ca9c49a9347"),
            (b"The quick brown fox jumps over the lazy dog.", "cd99481f9ee902c9695da1a38987b6e7"),
        ] {
            assert_eq!(chunk_hash(input), id, "{:?}", String::from_utf8_lossy(input));
        }
        // The ids are persisted content addresses: pin them at the block
        // edges and at the default chunk size, so a change to the kernel
        // that alters any stored id fails here and bumps the version.
        let data = pattern(DEFAULT_CHUNK_BYTES as usize);
        for (len, id) in [
            (15, "6dff7b6366908cbeedce87c967aec028"),
            (16, "2150af92b9a026f9091c41732c59245e"),
            (17, "7e24fc0f16383443a0eefdd691787346"),
            (255, "0a88da470fb4fddc2e3f2db4eda50efe"),
            (DEFAULT_CHUNK_BYTES as usize, "2207d5678bd42ce7bec16cde73beab2a"),
        ] {
            assert_eq!(chunk_hash(&data[..len]), id, "pattern[..{len}]");
        }
        assert_eq!(chunk_hash(&[0u8; 4096]), "6ac4fe9480b3fb7afb7003051ad6b21c");
    }

    /// xorshift64*: cheap deterministic test bytes with no repeated words.
    fn noise(len: usize, mut x: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            out.extend_from_slice(&x.wrapping_mul(0x2545_f491_4f6c_dd1d).to_le_bytes());
        }
        out.truncate(len);
        out
    }

    #[test]
    fn no_collisions_over_structured_inputs() {
        // The inputs a weak word hash confuses: one-bit neighbours, zero runs
        // that differ only in length, and the same words in another order.
        // Every input below is distinct by construction.
        let mut seen: HashMap<String, String> = HashMap::new();
        let mut add = |what: String, data: &[u8]| {
            if let Some(prev) = seen.insert(chunk_hash(data), what.clone()) {
                panic!("chunk id collision: {what} vs {prev}");
            }
        };
        let base = noise(4096, 0x9e37_79b9_7f4a_7c15);
        add("base".into(), &base);
        for (name, origin) in [("noise", base.clone()), ("zeros", vec![0u8; 4096])] {
            let mut buf = origin;
            for bit in 0..buf.len() * 8 {
                buf[bit / 8] ^= 1 << (bit % 8);
                add(format!("{name} with bit {bit} flipped"), &buf);
                buf[bit / 8] ^= 1 << (bit % 8);
            }
        }
        let zeros = vec![0u8; 16 * 1024];
        for len in 1..=zeros.len() {
            add(format!("{len} zero bytes"), &zeros[..len]);
        }
        for (unit, reach) in [(8usize, 40usize), (32, usize::MAX)] {
            let n = base.len() / unit;
            let mut buf = base.clone();
            for i in 0..n {
                for j in i + 1..n.min(i.saturating_add(reach)) {
                    for k in 0..unit {
                        buf.swap(i * unit + k, j * unit + k);
                    }
                    add(format!("{unit}-byte units {i} and {j} swapped"), &buf);
                    for k in 0..unit {
                        buf.swap(i * unit + k, j * unit + k);
                    }
                }
            }
        }
        assert!(seen.len() >= 100_000, "only {} inputs", seen.len());
    }

    #[test]
    fn one_input_bit_moves_about_half_the_output_bits() {
        // Loose avalanche check: over 64-byte messages, flipping any one
        // input bit flips 64 of the 128 id bits on average; a lane that
        // failed to mix would show as a bit position far from that.
        let id = |data: &[u8]| u128::from_str_radix(&chunk_hash(data), 16).unwrap();
        let trials = 32u32;
        let mut flipped = vec![0u32; 64 * 8];
        for t in 0..trials {
            let mut msg = noise(64, 0xdead_beef + t as u64);
            let before = id(&msg);
            for (bit, count) in flipped.iter_mut().enumerate() {
                msg[bit / 8] ^= 1 << (bit % 8);
                *count += (before ^ id(&msg)).count_ones();
                msg[bit / 8] ^= 1 << (bit % 8);
            }
        }
        for (bit, &count) in flipped.iter().enumerate() {
            let mean = count as f64 / trials as f64;
            assert!((48.0..=80.0).contains(&mean), "input bit {bit}: {mean} of 128 bits flip");
        }
        let overall = flipped.iter().sum::<u32>() as f64 / (trials as f64 * flipped.len() as f64);
        assert!((62.0..=66.0).contains(&overall), "mean {overall} of 128 bits flip");
    }
}
