//! Property-style fuzzing of the two untrusted parse surfaces a corrupt or
//! hostile checkpoint reaches first: the frame decoder
//! (`format::decode_frames`) and the global-metadata decoder
//! (`GlobalMetadata::from_bytes`). The property under test is totality:
//! arbitrary mutation — bit flips, truncation, random bytes — must yield
//! either a successful parse or a typed error (`BcpError::Corrupt` /
//! `Err(String)`), never a panic, abort, or attacker-sized allocation.

use bcp_core::format::{decode_frames, encode_frame};
use bcp_core::metadata::{BasicMeta, ByteMeta, GlobalMetadata, ShardMeta, TensorShardEntry};
use bcp_core::BcpError;
use bcp_tensor::checksum::crc32;
use bcp_tensor::DType;
use bytes::Bytes;
use proptest::prelude::*;

/// A valid multi-frame storage file to mutate.
fn valid_frame_file() -> Vec<u8> {
    let mut file = Vec::new();
    for i in 0..3usize {
        let shard = ShardMeta {
            fqn: format!("layers.{i}.weight"),
            offsets: vec![i * 2, 0],
            lengths: vec![2, 4],
        };
        let payload: Vec<u8> = (0..32u8).map(|b| b.wrapping_add(i as u8)).collect();
        let (frame, _) = encode_frame(&shard, DType::F32, &payload);
        file.extend_from_slice(&frame);
    }
    file
}

/// A valid global-metadata file to mutate: tensor entries on both the short
/// and the explicit-stride path, a loader map and an extra file.
fn valid_metadata_bytes() -> Vec<u8> {
    let mut meta = GlobalMetadata::new("ddp", 42, "TP=1,DP=2,PP=1", 2);
    for i in 0..3usize {
        let fqn = format!("layers.{i}.weight");
        let mut basic = BasicMeta::contiguous(DType::F32, vec![6, 4], format!("cuda:{}", i % 2));
        if i == 2 {
            basic.stride = vec![1, 6];
        }
        meta.tensor_map.entry(fqn.clone()).or_default().push(TensorShardEntry {
            shard: ShardMeta { fqn, offsets: vec![2 * i, 0], lengths: vec![2, 4] },
            basic,
            byte: ByteMeta {
                file: format!("model_{}.bin", i % 2),
                offset: 64 * i as u64,
                length: 32,
            },
        });
    }
    meta.loader_map.replicated_file = Some("loader/replicated.json".to_string());
    meta.extra_files.insert(0, "extra_0.bin".to_string());
    meta.validate().expect("the document to mutate is valid");
    meta.to_bytes()
}

/// Give `doc` the trailer its (mutated) body calls for, so the decoder's
/// checksum gate passes and the mutation reaches the parser behind it.
fn reseal(doc: &mut [u8]) {
    if let Some(body) = doc.len().checked_sub(4) {
        let crc = crc32(&doc[..body]);
        doc[body..].copy_from_slice(&crc.to_le_bytes());
    }
}

/// Accept only the documented outcomes of a frame decode.
fn assert_total(
    result: bcp_core::Result<Vec<bcp_core::format::Frame>>,
) -> Result<(), TestCaseError> {
    match result {
        Ok(_) => Ok(()),
        Err(BcpError::Corrupt(_)) => Ok(()),
        Err(e) => Err(TestCaseError::fail(format!("non-Corrupt error from decode: {e}"))),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Fully random input: the decoder is a total function.
    #[test]
    fn decode_frames_is_total_on_random_bytes(data in proptest::collection::vec(any::<u8>(), 0..1024)) {
        assert_total(decode_frames(&Bytes::from(data)))?;
    }

    /// Single-bit flips of a valid file: either still decodable (a flip in
    /// header bytes not covered by the payload CRC can parse differently)
    /// or a typed Corrupt error — never a panic.
    #[test]
    fn decode_frames_survives_bit_flips(byte in any::<prop::sample::Index>(), bit in 0u8..8) {
        let mut file = valid_frame_file();
        let at = byte.index(file.len());
        file[at] ^= 1 << bit;
        assert_total(decode_frames(&Bytes::from(file)))?;
    }

    /// Truncation at every possible length: a prefix of a valid file is
    /// either empty-valid or Corrupt.
    #[test]
    fn decode_frames_survives_truncation(len in any::<prop::sample::Index>()) {
        let mut file = valid_frame_file();
        let keep = len.index(file.len() + 1);
        file.truncate(keep);
        assert_total(decode_frames(&Bytes::from(file)))?;
    }

    /// Forged length fields must not drive allocation: overwrite each
    /// 8-byte window with a huge little-endian value and decode. The
    /// decoder bounds-checks against the real file size before sizing
    /// anything, so this must stay a cheap typed error.
    #[test]
    fn decode_frames_rejects_forged_lengths_without_allocating(
        window in any::<prop::sample::Index>(),
        forged in (u32::MAX as u64)..u64::MAX,
    ) {
        let mut file = valid_frame_file();
        let at = window.index(file.len().saturating_sub(8));
        file[at..at + 8].copy_from_slice(&forged.to_le_bytes());
        assert_total(decode_frames(&Bytes::from(file)))?;
    }

    /// Fully random metadata input: parse never panics.
    #[test]
    fn metadata_decode_is_total_on_random_bytes(data in proptest::collection::vec(any::<u8>(), 0..1024)) {
        let _ = GlobalMetadata::from_bytes(&data);
    }

    /// Mutated valid metadata: parse and validation both stay total.
    #[test]
    fn metadata_decode_survives_mutation(
        byte in any::<prop::sample::Index>(),
        bit in 0u8..8,
        len in any::<prop::sample::Index>(),
    ) {
        let mut doc = valid_metadata_bytes();
        let at = byte.index(doc.len());
        doc[at] ^= 1 << bit;
        doc.truncate(len.index(doc.len() + 1));
        if let Ok(meta) = GlobalMetadata::from_bytes(&doc) {
            let _ = meta.validate();
        }
    }

    /// The whole-file CRC refuses every mutation above before the parser
    /// sees it. An attacker (or a bug upstream of the seal) produces a
    /// *valid* trailer: mutate, reseal, decode. Still total — a typed error,
    /// or a value `validate()` accepts or rejects without panicking.
    #[test]
    fn metadata_decode_survives_mutation_under_a_valid_trailer(
        byte in any::<prop::sample::Index>(),
        value in any::<u8>(),
        cut in prop_oneof![Just(None), any::<prop::sample::Index>().prop_map(Some)],
    ) {
        let mut doc = valid_metadata_bytes();
        let at = byte.index(doc.len());
        doc[at] = value;
        if let Some(len) = cut {
            doc.truncate(len.index(doc.len() + 1));
        }
        reseal(&mut doc);
        if let Ok(meta) = GlobalMetadata::from_bytes(&doc) {
            let _ = meta.validate();
        }
    }

    /// A forged count must not drive allocation: splice a `u64::MAX` varint
    /// over each position of the body, reseal, decode. Counts are bounded by
    /// the bytes that remain before anything is reserved, so this stays a
    /// cheap typed error (or parses, where the position held no count).
    #[test]
    fn metadata_decode_rejects_forged_counts_without_allocating(at in any::<prop::sample::Index>()) {
        const MAX_VARINT: [u8; 10] = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01];
        let mut doc = valid_metadata_bytes();
        let at = 16 + at.index(doc.len() - 20);
        doc.splice(at..at + 1, MAX_VARINT);
        reseal(&mut doc);
        if let Ok(meta) = GlobalMetadata::from_bytes(&doc) {
            let _ = meta.validate();
        }
    }
}
