//! The save path's fused copy-and-CRC (`tensor::checksum::extend_crc32`,
//! what capture seals each payload with): whatever the destination's
//! alignment and the payload's length, it appends exactly the payload,
//! leaves the bytes the destination already held alone, and returns the
//! payload's `crc32`.

use bytecheckpoint::tensor::checksum::{crc32, extend_crc32};
use std::collections::BTreeSet;

/// Bytes with no short period a 16-byte kernel could hide an off-by-one in.
fn source(len: usize) -> Vec<u8> {
    (0..len as u64).map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8).collect()
}

#[test]
fn the_fused_copy_returns_the_standard_value() {
    let mut dst = b"frame header".to_vec();
    assert_eq!(extend_crc32(&mut dst, b"123456789"), 0xCBF4_3926);
    assert_eq!(dst, b"frame header123456789");
}

#[test]
fn the_fused_copy_appends_the_payload_and_returns_its_crc_at_every_alignment() {
    // Every length through five 64-byte steps of the carry-less kernel, the
    // page and 64 KiB boundaries, and one payload above 8 MiB.
    let big = (8 << 20) + 13;
    let lens: Vec<usize> =
        (0..=300).chain([4095, 4096, 4097, 65_535, 65_536, 65_537, big]).collect();
    let src = source(9 + big);
    let mut misalignments = BTreeSet::new();
    for start in [0, 1, 9] {
        for &len in &lens {
            let payload = &src[start..start + len];
            let want = crc32(payload);
            // A destination already holding 0..=15 bytes: the fused kernel's
            // head (the bytes before the destination's 16-byte boundary)
            // takes every length from 0 to 15.
            for prefix in 0..16 {
                let held: Vec<u8> = (0..prefix as u8).map(|b| !b).collect();
                let mut dst = Vec::with_capacity(prefix + len);
                dst.extend_from_slice(&held);
                misalignments.insert((dst.as_ptr() as usize + prefix) % 16);
                let crc = extend_crc32(&mut dst, payload);
                let at = format!("prefix {prefix}, source offset {start}, length {len}");
                assert_eq!(crc, want, "{at}");
                assert_eq!(dst.len(), prefix + len, "{at}");
                assert_eq!(dst[..prefix], held[..], "{at}: the bytes already held");
                if dst[prefix..] != *payload {
                    let i = dst[prefix..].iter().zip(payload).position(|(a, b)| a != b).unwrap();
                    panic!(
                        "{at}: copied byte {i} is {:#04x}, not {:#04x}",
                        dst[prefix + i],
                        payload[i]
                    );
                }
            }
        }
    }
    assert_eq!(misalignments.len(), 16, "every destination misalignment: {misalignments:?}");
}
