//! The retry loop, written once: [`RetryPolicy`] (exponential backoff with
//! deterministic jitter, an attempt cap, an optional overall deadline),
//! [`RetryPolicy::run`] — the only code in the workspace that sleeps between
//! attempts, counts them against the cap or measures the deadline — and the
//! clock abstraction that makes every wait virtual-clock testable.
//!
//! `run` knows nothing about storage. Its caller is `bcp-core`'s
//! `integrity::with_retries` (every storage operation of both pipelines,
//! where the stage is known).
//! No storage layer repeats an attempt, so an operation is attempted at most
//! `max_attempts` times however the stack is assembled.

use bcp_monitor::sync::lock;
use std::sync::Mutex;
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

    /// Run `attempt` until it succeeds, `classify` says [`Verdict::Stop`],
    /// the cap is reached, or the next wait would overrun the deadline
    /// (measured on `clock` from entry). The wait after failed attempt `k` is
    /// [`Self::backoff_for`]`(k, seed)`, raised to a [`Verdict::RetryAfter`]
    /// hint. `observe` hears of every failed attempt: its 1-based number, the
    /// error, and `Some(wait)` exactly when a retry follows.
    pub fn run<T, E>(
        &self,
        clock: &dyn RetryClock,
        seed: u64,
        mut attempt: impl FnMut() -> Result<T, E>,
        classify: impl Fn(&E) -> Verdict,
        mut observe: impl FnMut(u32, &E, Option<Duration>),
    ) -> Result<T, E> {
        let start = clock.now();
        let mut n = 0;
        loop {
            n += 1;
            let e = match attempt() {
                Ok(v) => return Ok(v),
                Err(e) => e,
            };
            let floor = match classify(&e) {
                Verdict::Stop => None,
                Verdict::Retry => Some(Duration::ZERO),
                Verdict::RetryAfter(hint) => Some(hint),
            };
            let wait = floor.map(|f| self.backoff_for(n, seed).max(f)).filter(|w| {
                n < self.max_attempts
                    && self.deadline.is_none_or(|d| clock.now().saturating_sub(start) + *w <= d)
            });
            observe(n, &e, wait);
            match wait {
                Some(w) => clock.sleep(w),
                None => return Err(e),
            }
        }
    }
}

/// What [`RetryPolicy::run`] does with a failed attempt, as classified by
/// its caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Retrying cannot help: return the error now, no backoff burned.
    Stop,
    /// Retry on the policy's schedule.
    Retry,
    /// Retry, but not before this hint (a server's `retry-after`).
    RetryAfter(Duration),
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

/// Clock abstraction for the retry loop and injected delays, so tests can
/// verify the exact backoff schedule without real sleeping.
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
        *lock(&self.now) += d;
    }

    /// Every sleep requested so far, in order.
    pub fn sleeps(&self) -> Vec<Duration> {
        lock(&self.sleeps).clone()
    }
}

impl RetryClock for TestClock {
    fn now(&self) -> Duration {
        *lock(&self.now)
    }

    fn sleep(&self, d: Duration) {
        *lock(&self.now) += d;
        lock(&self.sleeps).push(d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doubling(max_attempts: u32) -> RetryPolicy {
        RetryPolicy { jitter: 0.0, ..RetryPolicy::exponential(max_attempts, ms(10)) }
    }

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    /// Run an always-failing attempt under `policy`; returns the number of
    /// attempts, the sleeps the clock saw and what the observer was told.
    #[allow(clippy::type_complexity)]
    fn fail_under(
        policy: RetryPolicy,
        verdict: Verdict,
    ) -> (u32, Vec<Duration>, Vec<(u32, Option<Duration>)>) {
        let clock = TestClock::new();
        let (mut calls, mut seen) = (0, Vec::new());
        let result: Result<(), &str> = policy.run(
            &clock,
            0,
            || {
                calls += 1;
                Err("down")
            },
            |_| verdict,
            |n, e, wait| {
                assert_eq!(*e, "down");
                seen.push((n, wait));
            },
        );
        assert_eq!(result, Err("down"), "the last error is returned as is");
        assert_eq!(clock.now(), clock.sleeps().iter().sum(), "the only time spent is slept");
        (calls, clock.sleeps(), seen)
    }

    #[test]
    fn run_reproduces_the_backoff_schedules_exactly() {
        // Doubling backoff: 3 sleeps between 4 attempts; the observer hears
        // of every failure, with the wait exactly when a retry follows.
        let (calls, sleeps, seen) = fail_under(doubling(4), Verdict::Retry);
        assert_eq!((calls, &sleeps), (4, &vec![ms(10), ms(20), ms(40)]));
        assert_eq!(seen, vec![(1, Some(ms(10))), (2, Some(ms(20))), (3, Some(ms(40))), (4, None)]);

        // Deadline: 10 + 20 fit a 35 ms budget, the third backoff (40 ms)
        // would overrun it, so the loop gives up after 3 of 10 attempts.
        let (calls, sleeps, seen) = fail_under(doubling(10).with_deadline(ms(35)), Verdict::Retry);
        assert_eq!((calls, &sleeps), (3, &vec![ms(10), ms(20)]));
        assert_eq!(seen.last(), Some(&(3, None)));

        // A hint is a floor on the wait, not a replacement for the backoff.
        let (calls, sleeps, _) =
            fail_under(RetryPolicy::fixed(2, ms(1)), Verdict::RetryAfter(ms(250)));
        assert_eq!((calls, sleeps), (2, vec![ms(250)]));
        let (_, sleeps, _) = fail_under(doubling(3), Verdict::RetryAfter(ms(15)));
        assert_eq!(sleeps, vec![ms(15), ms(20)]);

        // Stop: one attempt, no backoff burned, whatever the cap.
        let (calls, sleeps, seen) = fail_under(RetryPolicy::fixed(5, ms(10)), Verdict::Stop);
        assert_eq!((calls, sleeps, seen), (1, vec![], vec![(1, None)]));
    }

    #[test]
    fn run_returns_the_first_success_and_stops_observing() {
        let clock = TestClock::new();
        let (mut calls, mut failures) = (0, 0);
        let result: Result<u32, &str> = RetryPolicy::fixed(5, ms(3)).run(
            &clock,
            0,
            || {
                calls += 1;
                if calls < 3 {
                    Err("flaky")
                } else {
                    Ok(calls)
                }
            },
            |_| Verdict::Retry,
            |_, _, _| failures += 1,
        );
        assert_eq!((result, failures), (Ok(3), 2));
        assert_eq!(clock.sleeps(), vec![ms(3), ms(3)]);
    }

    #[test]
    fn the_deadline_is_measured_on_the_given_clock() {
        // Time the attempts themselves take (advanced virtually) counts
        // against the budget: 30 ms of work + a 10 ms backoff overruns 35 ms.
        let clock = TestClock::new();
        let mut calls = 0;
        let result: Result<(), &str> = doubling(10).with_deadline(ms(35)).run(
            &clock,
            0,
            || {
                calls += 1;
                clock.advance(ms(30));
                Err("slow and down")
            },
            |_| Verdict::Retry,
            |_, _, _| {},
        );
        assert!(result.is_err());
        assert_eq!((calls, clock.sleeps()), (1, vec![]));
    }
}
