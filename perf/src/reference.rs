//! The speed reference: a fixed piece of work the harness owns, timed once
//! per round on two threads, so every time-valued metric can be reported at
//! one machine speed (`measured × NOMINAL_S ÷ this run's reference time`).
//!
//! It calls nothing from the repository — an optimisation there must not
//! move the yardstick — and mixes the three things a checkpoint does to a
//! CPU: integer work over a buffer, block copies, and dependent loads.

use std::hint::black_box;
use std::time::Instant;

/// Reference time this box measured in the middle of its range; metrics are
/// reported as if the reference always took this long.
pub const NOMINAL_S: f64 = 0.028;

const HASH_WORDS: usize = 4 * 1024 * 1024 / 8; // 4 MiB of u64
const HASH_PASSES: usize = 4;
const COPY_BYTES: usize = 8 * 1024 * 1024;
const COPY_ROUND_TRIPS: usize = 2;
const CHAIN_SLOTS: usize = 1024 * 1024; // 4 MiB of u32
const CHAIN_STEPS: usize = 150_000;

fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One thread's buffers, allocated and touched once so a sample never pays
/// for page faults.
struct Lane {
    words: Vec<u64>,
    a: Vec<u8>,
    b: Vec<u8>,
    chain: Vec<u32>,
}

impl Lane {
    fn new(seed: u64) -> Lane {
        let words = (0..HASH_WORDS as u64).map(|i| mix(i ^ seed)).collect();
        // One cycle through every slot (Sattolo's shuffle), so each load
        // depends on the one before and the prefetcher cannot follow.
        let mut chain: Vec<u32> = (0..CHAIN_SLOTS as u32).collect();
        let mut r = seed | 1;
        for i in (1..CHAIN_SLOTS).rev() {
            r = mix(r);
            chain.swap(i, (r % i as u64) as usize);
        }
        Lane { words, a: vec![0x5A; COPY_BYTES], b: vec![0xA5; COPY_BYTES], chain }
    }

    fn work(&mut self) -> u64 {
        let mut acc = 0u64;
        for pass in 0..HASH_PASSES as u64 {
            for w in &self.words {
                acc = mix(acc ^ *w ^ pass);
            }
        }
        for _ in 0..COPY_ROUND_TRIPS {
            self.b.copy_from_slice(black_box(&self.a));
            self.a.copy_from_slice(black_box(&self.b));
        }
        let mut at = (acc % CHAIN_SLOTS as u64) as u32;
        for _ in 0..CHAIN_STEPS {
            at = self.chain[at as usize];
        }
        acc ^ at as u64
    }
}

/// The two lanes, one per rank thread.
pub struct Reference {
    lanes: Vec<Lane>,
}

impl Reference {
    pub fn new() -> Reference {
        let mut r = Reference { lanes: (0..crate::RANKS as u64).map(Lane::new).collect() };
        r.sample(); // warm the buffers and the branch predictors
        r
    }

    /// Seconds until both threads finished their lane.
    pub fn sample(&mut self) -> f64 {
        crate::on_ranks(self.lanes.iter_mut(), |_, lane| {
            let t0 = Instant::now();
            black_box(lane.work());
            t0.elapsed().as_secs_f64()
        })
        .into_iter()
        .fold(0.0, f64::max)
    }
}

impl Default for Reference {
    fn default() -> Self {
        Self::new()
    }
}
