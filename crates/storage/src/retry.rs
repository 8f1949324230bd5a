//! Retry policy primitives shared by the engine's retry loops and the
//! [`crate::resilient::ResilientBackend`] wrapper: exponential backoff with
//! deterministic jitter, an attempt cap, an optional overall deadline, and
//! the clock abstraction that makes every sleep virtual-clock testable.
//!
//! These types started life in `bcp-core::integrity` (which still re-exports
//! them); they live here so storage-layer wrappers can pace and retry without
//! depending on the engine crate.

use parking_lot::Mutex;
use std::time::{Duration, Instant};

/// Retry policy for storage operations: exponential backoff with
/// deterministic jitter, capped attempts, and an optional overall deadline.
///
/// The wait before retry `k` (1-based) is
/// `min(base * multiplier^(k-1), max_backoff)`, scaled down by up to
/// `jitter` (a fraction in `[0, 1]`) using a hash of `(rank, stage, path,
/// attempt)` — deterministic per call site, de-correlated across ranks so a
/// thundering herd of retries spreads out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Maximum attempts (1 = no retry).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base: Duration,
    /// Growth factor applied per retry (1.0 = fixed delay).
    pub multiplier: f64,
    /// Upper bound on any single backoff.
    pub max_backoff: Duration,
    /// Fraction of each backoff randomized away (0.0 = fully deterministic).
    pub jitter: f64,
    /// Overall budget: give up early if the next backoff would exceed it.
    pub deadline: Option<Duration>,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            base: Duration::from_millis(10),
            multiplier: 2.0,
            max_backoff: Duration::from_secs(1),
            jitter: 0.25,
            deadline: None,
        }
    }
}

impl RetryPolicy {
    /// No retries: fail on the first error.
    pub fn none() -> RetryPolicy {
        RetryPolicy { max_attempts: 1, ..RetryPolicy::default() }
    }

    /// Fixed delay between attempts (the seed's original behaviour).
    pub fn fixed(max_attempts: u32, delay: Duration) -> RetryPolicy {
        RetryPolicy {
            max_attempts,
            base: delay,
            multiplier: 1.0,
            max_backoff: delay,
            jitter: 0.0,
            deadline: None,
        }
    }

    /// Exponential backoff doubling from `base`, default cap and jitter.
    pub fn exponential(max_attempts: u32, base: Duration) -> RetryPolicy {
        RetryPolicy { max_attempts, base, ..RetryPolicy::default() }
    }

    /// Same policy with an overall deadline.
    pub fn with_deadline(self, deadline: Duration) -> RetryPolicy {
        RetryPolicy { deadline: Some(deadline), ..self }
    }

    /// Same policy with a different jitter fraction (clamped to `[0, 1]`).
    pub fn with_jitter(self, jitter: f64) -> RetryPolicy {
        RetryPolicy { jitter: jitter.clamp(0.0, 1.0), ..self }
    }

    /// Same policy with a different per-backoff cap.
    pub fn with_max_backoff(self, max_backoff: Duration) -> RetryPolicy {
        RetryPolicy { max_backoff, ..self }
    }

    /// The wait before retrying after failed attempt `attempt` (1-based).
    /// Deterministic in `(self, attempt, seed)`.
    pub fn backoff_for(&self, attempt: u32, seed: u64) -> Duration {
        let exp = self.base.as_secs_f64() * self.multiplier.powi(attempt.saturating_sub(1) as i32);
        let capped = exp.min(self.max_backoff.as_secs_f64());
        let scale = if self.jitter > 0.0 {
            let u = splitmix64(seed.wrapping_add(attempt as u64)) as f64 / (u64::MAX as f64 + 1.0);
            1.0 - self.jitter.clamp(0.0, 1.0) * u
        } else {
            1.0
        };
        Duration::from_secs_f64((capped * scale).max(0.0))
    }
}

pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// FNV-1a offset basis: the `h` to start [`fnv1a`] from.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold `bytes` into the FNV-1a state `h`.
pub(crate) fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// FNV-1a over the retry call site, the jitter seed: deterministic per
/// `(rank, stage, path)`, de-correlated across ranks.
pub fn site_seed(rank: usize, stage: &str, path: Option<&str>) -> u64 {
    let h = fnv1a(FNV_OFFSET, &rank.to_le_bytes());
    let h = fnv1a(h, stage.as_bytes());
    fnv1a(h, path.unwrap_or("").as_bytes())
}

/// Clock abstraction for retry/pacing loops, so tests can verify the exact
/// backoff schedule without real sleeping.
pub trait RetryClock: Send + Sync {
    /// Monotonic elapsed time since some fixed origin.
    fn now(&self) -> Duration;
    /// Wait for `d`.
    fn sleep(&self, d: Duration);
}

/// The real clock: `Instant` + `thread::sleep`.
#[derive(Debug)]
pub struct SystemClock {
    origin: Instant,
}

impl Default for SystemClock {
    fn default() -> SystemClock {
        SystemClock { origin: Instant::now() }
    }
}

impl RetryClock for SystemClock {
    fn now(&self) -> Duration {
        self.origin.elapsed()
    }

    fn sleep(&self, d: Duration) {
        std::thread::sleep(d);
    }
}

/// A virtual clock: `sleep` advances `now` instantly and records the
/// requested duration, so tests assert the exact backoff schedule and
/// multi-virtual-second soaks finish in real milliseconds.
#[derive(Debug, Default)]
pub struct TestClock {
    now: Mutex<Duration>,
    sleeps: Mutex<Vec<Duration>>,
}

impl TestClock {
    /// A virtual clock at t = 0 with no sleeps recorded.
    pub fn new() -> TestClock {
        TestClock::default()
    }

    /// Advance virtual time without recording a sleep (models work taking
    /// time between attempts).
    pub fn advance(&self, d: Duration) {
        *self.now.lock() += d;
    }

    /// Every sleep requested so far, in order.
    pub fn sleeps(&self) -> Vec<Duration> {
        self.sleeps.lock().clone()
    }
}

impl RetryClock for TestClock {
    fn now(&self) -> Duration {
        *self.now.lock()
    }

    fn sleep(&self, d: Duration) {
        *self.now.lock() += d;
        self.sleeps.lock().push(d);
    }
}
