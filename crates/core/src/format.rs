//! Storage-file wire format.
//!
//! Each rank's storage file is a sequence of self-describing *frames*, one
//! per saved `ShardMeta`. The global metadata's [`crate::ByteMeta`] points
//! directly at frame *payloads*, so loading never parses frame headers on
//! the fast path — but the headers plus per-frame CRC32 make every file
//! independently verifiable and recoverable (integrity, Appendix B).
//!
//! Frame layout (little-endian):
//!
//! ```text
//! magic   u32   0xB1C7_0001 ("BCP frame v1")
//! fqn_len u16   | fqn bytes (UTF-8)
//! dtype   u8    (DType::name index)
//! rank    u8    number of dims
//! offsets u64 × rank
//! lengths u64 × rank
//! paylen  u64
//! payload ...   raw little-endian element bytes
//! crc32   u32   over the payload
//! ```

use crate::metadata::ShardMeta;
use crate::{BcpError, Result};
use bcp_tensor::checksum::crc32;
use bcp_tensor::DType;
use bytes::{BufMut, Bytes, BytesMut};

/// Frame magic number.
pub const FRAME_MAGIC: u32 = 0xB1C7_0001;

const DTYPE_CODES: [DType; 9] = [
    DType::F64,
    DType::F32,
    DType::F16,
    DType::BF16,
    DType::I64,
    DType::I32,
    DType::I16,
    DType::U8,
    DType::Bool,
];

pub(crate) fn dtype_code(dt: DType) -> u8 {
    DTYPE_CODES.iter().position(|&d| d == dt).expect("all dtypes listed") as u8
}

pub(crate) fn dtype_from_code(c: u8) -> Option<DType> {
    DTYPE_CODES.get(c as usize).copied()
}

/// Byte length of a frame header for `shard` (everything before the
/// payload). Planning uses this to precompute [`crate::ByteMeta`] offsets
/// without serializing anything.
pub fn header_len(shard: &ShardMeta) -> usize {
    4 + 2 + shard.fqn.len() + 1 + 1 + 16 * shard.offsets.len() + 8
}

/// Total byte length of a frame with the given payload size.
pub fn frame_len(shard: &ShardMeta, payload_len: usize) -> usize {
    header_len(shard) + payload_len + 4
}

/// A parsed frame (borrowing nothing; payload is a cheap `Bytes` slice).
#[derive(Debug, Clone)]
pub struct Frame {
    /// Which shard the payload belongs to.
    pub shard: ShardMeta,
    /// Element dtype of the payload.
    pub dtype: DType,
    /// Raw little-endian element bytes.
    pub payload: Bytes,
}

/// Refuse a shard whose frame header cannot describe it: the header stores
/// the FQN's byte length as a `u16` and the number of dimensions as a `u8`,
/// so a longer FQN or a higher-rank shard would be written with a wrapped
/// length field — a file every reader rejects. Planning calls this before
/// anything is written.
pub fn check_frame_fields(shard: &ShardMeta) -> Result<()> {
    if shard.fqn.len() > u16::MAX as usize {
        return Err(BcpError::Plan(format!(
            "{}…: FQN of {} bytes exceeds the frame header's {}",
            shard.fqn.chars().take(64).collect::<String>(),
            shard.fqn.len(),
            u16::MAX
        )));
    }
    if shard.offsets.len() > u8::MAX as usize {
        return Err(BcpError::Plan(format!(
            "{}: {} dimensions exceed the frame header's {}",
            shard.fqn,
            shard.offsets.len(),
            u8::MAX
        )));
    }
    Ok(())
}

/// Append a frame *header* (everything before the payload) for a payload of
/// `payload_len` bytes to `buf`: [`header_len`] bytes. The save path writes
/// it straight into the shard file's capture image, followed by the payload
/// and the CRC slot.
pub fn put_frame_header(
    buf: &mut impl BufMut,
    shard: &ShardMeta,
    dtype: DType,
    payload_len: usize,
) -> Result<()> {
    check_frame_fields(shard)?;
    buf.put_u32_le(FRAME_MAGIC);
    buf.put_u16_le(shard.fqn.len() as u16);
    buf.put_slice(shard.fqn.as_bytes());
    buf.put_u8(dtype_code(dtype));
    buf.put_u8(shard.offsets.len() as u8);
    for &o in &shard.offsets {
        buf.put_u64_le(o as u64);
    }
    for &l in &shard.lengths {
        buf.put_u64_le(l as u64);
    }
    buf.put_u64_le(payload_len as u64);
    Ok(())
}

/// Serialize one frame; returns the byte offset of the payload *within the
/// returned buffer* (the engine adds the file-level base offset to build the
/// [`crate::ByteMeta`]). Fails as [`put_frame_header`] does.
pub fn encode_frame(shard: &ShardMeta, dtype: DType, payload: &[u8]) -> Result<(BytesMut, u64)> {
    let mut buf = BytesMut::with_capacity(frame_len(shard, payload.len()));
    put_frame_header(&mut buf, shard, dtype, payload.len())?;
    let payload_offset = buf.len() as u64;
    buf.put_slice(payload);
    buf.put_u32_le(crc32(payload));
    Ok((buf, payload_offset))
}

/// Parse all frames in a storage file, verifying CRCs. This is the recovery
/// path (and what the conformance/corruption tests exercise); normal loads
/// use `ByteMeta` offsets.
pub fn decode_frames(data: &Bytes) -> Result<Vec<Frame>> {
    let mut frames = Vec::new();
    let mut pos = 0usize;
    let err = |m: String| BcpError::Corrupt(m);
    let need = |pos: usize, n: usize, len: usize| -> Result<()> {
        if pos + n > len {
            Err(BcpError::Corrupt(format!("truncated frame at byte {pos}")))
        } else {
            Ok(())
        }
    };
    while pos < data.len() {
        need(pos, 8, data.len())?;
        let magic = u32::from_le_bytes(data[pos..pos + 4].try_into().unwrap());
        if magic != FRAME_MAGIC {
            return Err(err(format!("bad frame magic {magic:#x} at byte {pos}")));
        }
        pos += 4;
        let fqn_len = u16::from_le_bytes(data[pos..pos + 2].try_into().unwrap()) as usize;
        pos += 2;
        need(pos, fqn_len + 2, data.len())?;
        let fqn = std::str::from_utf8(&data[pos..pos + fqn_len])
            .map_err(|_| err("frame fqn is not UTF-8".into()))?
            .to_string();
        pos += fqn_len;
        let dtype = dtype_from_code(data[pos]).ok_or_else(|| err("bad dtype code".into()))?;
        let rank = data[pos + 1] as usize;
        pos += 2;
        need(pos, 16 * rank + 8, data.len())?;
        let mut offsets = Vec::with_capacity(rank);
        let mut lengths = Vec::with_capacity(rank);
        for _ in 0..rank {
            offsets.push(u64::from_le_bytes(data[pos..pos + 8].try_into().unwrap()) as usize);
            pos += 8;
        }
        for _ in 0..rank {
            lengths.push(u64::from_le_bytes(data[pos..pos + 8].try_into().unwrap()) as usize);
            pos += 8;
        }
        let paylen64 = u64::from_le_bytes(data[pos..pos + 8].try_into().unwrap());
        pos += 8;
        // A forged paylen near u64::MAX would wrap `paylen + 4` and sail
        // past the bounds check; reject anything larger than the bytes
        // actually present before converting to usize.
        if paylen64 > (data.len() - pos) as u64 {
            return Err(err(format!("frame payload length {paylen64} exceeds file at byte {pos}")));
        }
        let paylen = paylen64 as usize;
        need(pos, paylen + 4, data.len())?;
        let payload = data.slice(pos..pos + paylen);
        pos += paylen;
        let stored_crc = u32::from_le_bytes(data[pos..pos + 4].try_into().unwrap());
        pos += 4;
        if crc32(&payload) != stored_crc {
            return Err(err(format!("CRC mismatch for {fqn}")));
        }
        frames.push(Frame { shard: ShardMeta { fqn, offsets, lengths }, dtype, payload });
    }
    Ok(frames)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(fqn: &str) -> ShardMeta {
        ShardMeta { fqn: fqn.into(), offsets: vec![2, 0], lengths: vec![1, 4] }
    }

    #[test]
    fn frame_round_trip() {
        let payload: Vec<u8> = (0..16).collect();
        let (buf, off) = encode_frame(&meta("layers.0.w"), DType::F32, &payload).unwrap();
        assert_eq!(&buf[off as usize..off as usize + 16], &payload[..]);
        let frames = decode_frames(&buf.freeze()).unwrap();
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].shard, meta("layers.0.w"));
        assert_eq!(frames[0].dtype, DType::F32);
        assert_eq!(&frames[0].payload[..], &payload[..]);
    }

    #[test]
    fn a_fixed_shard_encodes_to_the_bytes_it_always_has() {
        // Captured at 64753fe, before the CRC had a second kernel: 402
        // payload bytes put the first 64 and five 64-byte steps through the
        // carry-less body, one more 16-byte block through its single lane
        // and the last two bytes through the tables.
        let shard = ShardMeta {
            fqn: "layers.0.attn.qkv.weight".into(),
            offsets: vec![2, 0],
            lengths: vec![3, 67],
        };
        let payload: Vec<u8> =
            (0..402u32).map(|i| (i.wrapping_mul(2654435761) >> 24) as u8).collect();
        let (buf, off) = encode_frame(&shard, DType::BF16, &payload).unwrap();
        let mut want = vec![0x01, 0x00, 0xc7, 0xb1, 24, 0];
        want.extend_from_slice(b"layers.0.attn.qkv.weight");
        want.extend([3, 2]);
        for dim in [2u64, 0, 3, 67, 402] {
            want.extend(dim.to_le_bytes());
        }
        assert_eq!(off as usize, want.len());
        want.extend_from_slice(&payload);
        want.extend([0x82, 0xc9, 0x01, 0xe0]);
        assert_eq!(&buf[..], &want[..]);
    }

    #[test]
    fn multiple_frames_concatenate() {
        let mut file = BytesMut::new();
        for i in 0..3 {
            let payload = vec![i as u8; 8];
            let (buf, _) = encode_frame(&meta(&format!("t{i}")), DType::I64, &payload).unwrap();
            file.extend_from_slice(&buf);
        }
        let frames = decode_frames(&file.freeze()).unwrap();
        assert_eq!(frames.len(), 3);
        assert_eq!(frames[2].shard.fqn, "t2");
    }

    #[test]
    fn corruption_detected() {
        let (buf, off) = encode_frame(&meta("x"), DType::U8, &[1, 2, 3, 4]).unwrap();
        let mut corrupted = buf.to_vec();
        corrupted[off as usize + 1] ^= 0xFF;
        let err = decode_frames(&Bytes::from(corrupted)).unwrap_err();
        assert!(matches!(err, BcpError::Corrupt(m) if m.contains("CRC")));
    }

    #[test]
    fn truncation_detected() {
        let (buf, _) = encode_frame(&meta("x"), DType::U8, &[1, 2, 3, 4]).unwrap();
        let truncated = Bytes::copy_from_slice(&buf[..buf.len() - 6]);
        assert!(matches!(decode_frames(&truncated), Err(BcpError::Corrupt(_))));
    }

    #[test]
    fn forged_huge_paylen_is_corrupt_not_panic() {
        // Craft a valid header, then overwrite paylen with u64::MAX: the
        // old `paylen + 4` bounds check wrapped and the slice panicked.
        let m = meta("x");
        let (buf, _) = encode_frame(&m, DType::U8, &[1, 2, 3, 4]).unwrap();
        let mut forged = buf.to_vec();
        let paylen_at = header_len(&m) - 8;
        forged[paylen_at..paylen_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = decode_frames(&Bytes::from(forged)).unwrap_err();
        assert!(matches!(err, BcpError::Corrupt(m) if m.contains("payload length")));
    }

    #[test]
    fn bad_magic_detected() {
        let data = Bytes::from_static(&[0u8; 32]);
        assert!(matches!(decode_frames(&data), Err(BcpError::Corrupt(m)) if m.contains("magic")));
    }

    #[test]
    fn header_len_matches_encoder() {
        let payload = vec![9u8; 12];
        let m = meta("layers.17.mlp.down.weight");
        let (buf, off) = encode_frame(&m, DType::BF16, &payload).unwrap();
        assert_eq!(off as usize, header_len(&m));
        assert_eq!(buf.len(), frame_len(&m, payload.len()));
    }

    #[test]
    fn fields_wider_than_the_header_are_refused_and_the_widest_that_fit_round_trip() {
        let scalar = |fqn: String, rank: usize| ShardMeta {
            fqn,
            offsets: vec![0; rank],
            lengths: vec![1; rank],
        };
        for (shard, what) in [
            (scalar("w".repeat(u16::MAX as usize + 1), 0), "FQN of 65536 bytes"),
            (scalar("w".into(), u8::MAX as usize + 1), "256 dimensions"),
        ] {
            let err = encode_frame(&shard, DType::U8, &[1]).unwrap_err();
            assert!(matches!(&err, BcpError::Plan(m) if m.contains(what)), "{err}");
        }
        for shard in [scalar("w".repeat(u16::MAX as usize), 0), scalar("w".into(), 255)] {
            let (buf, _) = encode_frame(&shard, DType::U8, &[1]).unwrap();
            assert_eq!(decode_frames(&buf.freeze()).unwrap()[0].shard, shard);
        }
    }

    #[test]
    fn all_dtypes_round_trip_codes() {
        for dt in DTYPE_CODES {
            assert_eq!(dtype_from_code(dtype_code(dt)), Some(dt));
        }
        assert_eq!(dtype_from_code(100), None);
    }
}
