//! CRC32 (IEEE 802.3 polynomial) for checkpoint file integrity.
//!
//! Storage files carry a per-frame CRC so that torn or corrupted writes are
//! detected at load time instead of silently corrupting training state
//! (paper Appendix B: integrity guarantee). Every saved payload byte passes
//! through here once, and scrub, `decode_frames` and the hot tier re-verify
//! through the same function, so the kernel's speed is the save tail's.
//!
//! One surface ([`Crc32`], [`crc32`]), two kernels, same polynomial and same
//! values as zlib / `crc32fast`, hand-rolled to stay within the approved
//! dependency set:
//!
//! * **Carry-less multiply** (`mod clmul`, `x86_64` only): Intel's "Fast CRC
//!   Computation Using PCLMULQDQ" scheme as zlib-ng and `crc32fast` ship it.
//!   Taken when the CPU reports `pclmulqdq` and `sse4.1` at run time and the
//!   slice holds at least 64 bytes; memory-bound on the benchmark host
//!   (≈ 4 GB/s out of cache against ≈ 1.5 for the tables).
//! * **Slicing-by-16** (`update_portable`): sixteen compile-time 256-entry
//!   tables, where `TABLES[k][b]` is the CRC of byte `b` followed by `k` zero
//!   bytes, let one step fold sixteen input bytes with sixteen independent
//!   lookups instead of sixteen dependent ones. Safe Rust.
//!
//! An [`Crc32::update`] therefore walks up to three regions of its slice:
//! the SIMD body (four 128-bit lanes, 64 bytes per step), the whole 16-byte
//! blocks left after it (one lane, folded by 128 bits), and a tail shorter
//! than 16 bytes. The carry-less kernel reduces its lane to the plain 32-bit
//! running state and hands that and the tail to the table loop, so the state
//! between `update`s is the same word whichever kernel produced it and the
//! cut points of a stream never matter. The tables stay because they are the
//! tail handler of every `update`, the whole kernel for short slices and on
//! every other architecture, and the oracle the SIMD kernel is tested against.

/// Reflected CRC32 polynomial (same as zlib / `crc32fast`).
const POLY: u32 = 0xEDB8_8320;

/// Input bytes folded per step.
const SLICES: usize = 16;

static TABLES: [[u32; 256]; SLICES] = {
    let mut t = [[0u32; 256]; SLICES];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < SLICES {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    t
};

/// Streaming CRC32 hasher.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Start a new checksum.
    pub fn new() -> Crc32 {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feed bytes into the checksum.
    pub fn update(&mut self, mut data: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        if clmul::available() {
            // SAFETY: `available` just saw `pclmulqdq` and `sse4.1` on the
            // running CPU, the only two features `fold` is compiled with
            // beyond the `x86_64` baseline.
            (self.state, data) = unsafe { clmul::fold(self.state, data) };
        }
        self.state = update_portable(self.state, data);
    }

    /// Finish and return the checksum value.
    pub fn finalize(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC32 of a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(data);
    h.finalize()
}

/// Slicing-by-16 over `data`, from running state `crc` to the next one.
fn update_portable(mut crc: u32, data: &[u8]) -> u32 {
    let (blocks, rest) = data.as_chunks::<SLICES>();
    for b in blocks {
        // The running CRC only mixes into the first four bytes; the byte
        // at position `i` is followed by `15 - i` more bytes of the block.
        let lo = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        crc = TABLES[15][(lo & 0xFF) as usize]
            ^ TABLES[14][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[13][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[12][(lo >> 24) as usize]
            ^ TABLES[11][b[4] as usize]
            ^ TABLES[10][b[5] as usize]
            ^ TABLES[9][b[6] as usize]
            ^ TABLES[8][b[7] as usize]
            ^ TABLES[7][b[8] as usize]
            ^ TABLES[6][b[9] as usize]
            ^ TABLES[5][b[10] as usize]
            ^ TABLES[4][b[11] as usize]
            ^ TABLES[3][b[12] as usize]
            ^ TABLES[2][b[13] as usize]
            ^ TABLES[1][b[14] as usize]
            ^ TABLES[0][b[15] as usize];
    }
    for &b in rest {
        crc = TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// The carry-less-multiply kernel. A 128-bit lane holds sixteen message
/// bytes as a bit-reflected polynomial over GF(2), like the CRC itself: the
/// low quadword is the high-degree half. Folding a lane forward by `D` bits
/// replaces it by something congruent mod `P` that lines up with the lane
/// `D` bits further on, so four lanes can run ahead independently and be
/// merged at the end; only the final 128 bits are actually reduced.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use super::POLY;
    use std::arch::x86_64::*;

    /// `x^n mod P`, bit-reflected (bit 31 is the coefficient of `x^0`).
    pub const fn x_pow_mod_p(n: u32) -> u32 {
        let mut r = 0x8000_0000u32;
        let mut i = 0;
        while i < n {
            r = if r & 1 != 0 { POLY ^ (r >> 1) } else { r >> 1 };
            i += 1;
        }
        r
    }

    /// `x^n mod P` as a PCLMULQDQ operand. The carry-less product of two
    /// reflected operands comes out one bit short of reflected, which the
    /// constant absorbs by being stored shifted left once; the product of a
    /// 64-bit half `a` and this is then `a · x^n · x^32` in a 128-bit lane.
    const fn key(n: u32) -> i64 {
        ((x_pow_mod_p(n) as u64) << 1) as i64
    }

    /// Keys that fold a lane forward by `D` bits: `x^(D+32)` for its low
    /// quadword (the high-degree half, 64 bits further from the target) and
    /// `x^(D-32)` for its high one.
    const fn fold_by(d: u32) -> [i64; 2] {
        [key(d + 32), key(d - 32)]
    }

    pub const BY_512: [i64; 2] = fold_by(512);
    pub const BY_128: [i64; 2] = fold_by(128);
    /// The 64 -> 32 bit step folds one doubleword, the high-degree one, by
    /// its own width.
    pub const BY_32: i64 = key(32 + 32);

    /// `P` itself, all 33 coefficients, reflected.
    pub const P: i64 = ((POLY as u64) << 1 | 1) as i64;

    /// Barrett's `μ = ⌊x^64 / P⌋`, 33 coefficients, reflected.
    pub const MU: i64 = {
        let p = (POLY.reverse_bits() as u128) | 1 << 32;
        let (mut rem, mut quot, mut i) = (1u128 << 64, 0u64, 32);
        loop {
            if rem >> (i + 32) & 1 != 0 {
                rem ^= p << i;
                quot |= 1 << i;
            }
            if i == 0 {
                break;
            }
            i -= 1;
        }
        (quot.reverse_bits() >> 31) as i64
    };

    pub fn available() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    /// Sixteen message bytes as a lane (compiles to one unaligned load).
    #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
    fn load(block: &[u8; 16]) -> __m128i {
        let v = u128::from_le_bytes(*block);
        _mm_set_epi64x((v >> 64) as i64, v as i64)
    }

    /// Fold `lane` forward onto `next`, which lies as many bits further on
    /// as `keys` (a [`fold_by`] pair) says.
    #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
    fn fold_onto(lane: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(lane, keys, 0x00);
        let hi = _mm_clmulepi64_si128(lane, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    /// Run every whole 16-byte block of `data` through the running state
    /// `state`; returns the new state and the tail of fewer than 16 bytes.
    /// A slice shorter than 64 bytes comes back untouched: four lanes must be
    /// loaded before anything can be folded.
    #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
    pub fn fold(state: u32, data: &[u8]) -> (u32, &[u8]) {
        let (blocks, tail) = data.as_chunks::<16>();
        let Some((first, blocks)) = blocks.split_first_chunk::<4>() else {
            return (state, data);
        };
        // The running state mixes into the first four message bytes, exactly
        // as in the table loop.
        let mut x = [
            _mm_xor_si128(load(&first[0]), _mm_cvtsi32_si128(state as i32)),
            load(&first[1]),
            load(&first[2]),
            load(&first[3]),
        ];
        let by_512 = _mm_set_epi64x(BY_512[1], BY_512[0]);
        let (quads, singles) = blocks.as_chunks::<4>();
        for q in quads {
            x = [
                fold_onto(x[0], load(&q[0]), by_512),
                fold_onto(x[1], load(&q[1]), by_512),
                fold_onto(x[2], load(&q[2]), by_512),
                fold_onto(x[3], load(&q[3]), by_512),
            ];
        }
        // Four lanes to one, then the blocks that did not fill a quad.
        let by_128 = _mm_set_epi64x(BY_128[1], BY_128[0]);
        let mut lane = x[0];
        for &next in &x[1..] {
            lane = fold_onto(lane, next, by_128);
        }
        for block in singles {
            lane = fold_onto(lane, load(block), by_128);
        }
        // 128 -> 64 bits: fold the high-degree quadword 64 bits forward onto
        // the other one (`x^(64+32)` is `by_128`'s high key); 64 -> 32: fold
        // the top 32 coefficients of what is left once more.
        let low_32 = _mm_set_epi32(0, 0, 0, !0);
        let lane = _mm_xor_si128(_mm_clmulepi64_si128(lane, by_128, 0x10), _mm_srli_si128(lane, 8));
        let lane = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(lane, low_32), _mm_set_epi64x(0, BY_32), 0x00),
            _mm_srli_si128(lane, 4),
        );
        // Barrett: with R the 64 bits left, T1 = (R mod x^32) · μ,
        // T2 = (T1 mod x^32) · P, and the remainder is (R + T2) div x^32 —
        // reflected, "mod x^32" is the low dword and "div" the next one.
        let p_mu = _mm_set_epi64x(MU, P);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(lane, low_32), p_mu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low_32), p_mu, 0x00);
        (_mm_extract_epi32(_mm_xor_si128(lane, t2), 1) as u32, tail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The textbook bit-at-a-time CRC-32/ISO-HDLC: shares no table and no
    /// loop with the kernel above, so agreement pins the frame format's
    /// values to what every earlier checkpoint was written with.
    fn crc32_reference(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { POLY ^ (crc >> 1) } else { crc >> 1 };
            }
        }
        crc ^ 0xFFFF_FFFF
    }

    #[test]
    fn known_vectors() {
        // Standard test vectors for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data = b"hello world, this is a checkpoint frame";
        let mut h = Crc32::new();
        h.update(&data[..10]);
        h.update(&data[10..]);
        assert_eq!(h.finalize(), crc32(data));
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = vec![0u8; 1024];
        data[512] = 0xAA;
        let base = crc32(&data);
        data[512] ^= 0x01;
        assert_ne!(crc32(&data), base);
    }

    /// One-shot value from the table loop alone, whatever the host.
    fn crc32_portable(data: &[u8]) -> u32 {
        update_portable(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
    }

    #[test]
    fn every_short_length_matches_the_reference() {
        // Each length around the 16-byte block size, around the carry-less
        // kernel's own boundaries (64 bytes before it starts, 64 per step,
        // 16 per leftover block) and at 16·k ± 1 up to 4 KiB, at each start
        // offset within a block, so every body/block/tail combination is hit.
        let buf: Vec<u8> =
            (0..4097u32 + 16).map(|i| (i.wrapping_mul(2654435761) >> 24) as u8).collect();
        let lens: Vec<usize> = (0..=144)
            .chain((160..=4096).step_by(16).flat_map(|k| [k - 1, k, k + 1]))
            .chain([255, 257])
            .collect();
        for start in 0..16 {
            for &len in &lens {
                let data = &buf[start..start + len];
                let want = crc32_reference(data);
                assert_eq!(crc32(data), want, "dispatching kernel, start {start} len {len}");
                assert_eq!(crc32_portable(data), want, "table kernel, start {start} len {len}");
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn folding_constants_are_the_published_ones() {
        // Derived above from POLY alone; these are the values Intel's paper,
        // zlib-ng and crc32fast print for the reflected IEEE polynomial.
        assert_eq!(clmul::BY_512, [0x1_5444_2bd4, 0x1_c6e4_1596]);
        assert_eq!(clmul::BY_128, [0x1_7519_97d0, 0x0_ccaa_009e]);
        assert_eq!(clmul::BY_32, 0x1_63cd_6124);
        assert_eq!(clmul::P, 0x1_DB71_0641);
        assert_eq!(clmul::MU, 0x1_F701_1641);
        // x^32 mod P is P without its leading term, and a lone 0x01 byte
        // (reflected: x^7) takes a zero state to x^7 · x^32 mod P, both of
        // which the table kernel knows without `x_pow_mod_p`.
        assert_eq!(clmul::x_pow_mod_p(32), POLY);
        assert_eq!(clmul::x_pow_mod_p(39), update_portable(0, &[0x01]));
        // μ is the quotient: μ · P = x^64 + (something below x^32).
        let (p, mu) = (clmul::P as u64 as u128, clmul::MU as u64 as u128);
        let reflect33 = |v: u128| (0..33).fold(0u128, |r, i| r | (v >> i & 1) << (32 - i));
        let (p, mu) = (reflect33(p), reflect33(mu));
        let product = (0..33).filter(|i| mu >> i & 1 != 0).fold(0u128, |r, i| r ^ p << i);
        assert_eq!(product >> 32, 1 << 32);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn carry_less_kernel_hands_over_the_table_kernels_state() {
        if !clmul::available() {
            println!("skipped: no pclmulqdq + sse4.1 on this host");
            return;
        }
        let buf: Vec<u8> = (0..1u32 << 16).map(|i| (i.wrapping_mul(40503) >> 8) as u8).collect();
        for (state, len) in [(0xFFFF_FFFF, 64), (0, 79), (0x1234_5678, 4096 + 21), (7, 1 << 16)] {
            let data = &buf[..len];
            // SAFETY: `available` saw both features.
            let (folded, tail) = unsafe { clmul::fold(state, data) };
            assert_eq!(tail.len(), len % 16);
            assert_eq!(folded, update_portable(state, &data[..len - tail.len()]), "len {len}");
        }
        // Below its minimum it touches nothing.
        // SAFETY: as above.
        let (state, tail) = unsafe { clmul::fold(9, &buf[..63]) };
        assert_eq!((state, tail.len()), (9, 63));
    }

    proptest! {
        #[test]
        fn both_kernels_equal_the_bytewise_reference(
            buf in proptest::collection::vec(any::<u8>(), 0..=4096 + 15),
            start in 0usize..16,
            cuts in proptest::collection::vec(any::<u16>(), 0..6),
        ) {
            let data = &buf[start.min(buf.len())..];
            let want = crc32_reference(data);
            prop_assert_eq!(crc32(data), want);
            prop_assert_eq!(crc32_portable(data), want);
            // Arbitrary `update` split points give the same value: the state
            // passes between SIMD body, 16-byte blocks and table tail in
            // whatever order the cuts produce.
            let mut points: Vec<usize> =
                cuts.iter().map(|&c| c as usize % (data.len() + 1)).collect();
            points.sort_unstable();
            let mut h = Crc32::new();
            let mut at = 0;
            for p in points {
                h.update(&data[at..p]);
                at = p;
            }
            h.update(&data[at..]);
            prop_assert_eq!(h.finalize(), want);
        }
    }
}
