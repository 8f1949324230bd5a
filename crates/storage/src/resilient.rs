//! The adaptive resilience layer: a wrapper usable over *any* backend that
//! shapes each attempt against a hostile storage service. It guards an
//! attempt — breaker check → pace → **one** call → feed breaker / pacer /
//! brownout — and never repeats one: the retry loop is the engine's
//! (`bcp-core`'s `integrity::with_retries` over
//! [`crate::retry::RetryPolicy::run`]), and what that loop needs from here
//! reaches it as a typed error ([`StorageError::verdict`]). Four mechanisms:
//!
//! * **AIMD pacing** — a client rate cap (installed on the first throttle,
//!   multiplicative decrease on each further one, additive increase on
//!   success, released after a calm period) makes every attempt wait its
//!   turn, keeping the request rate at what the backend will actually serve.
//!   The wait *between* attempts — backoff raised to the server's hint — is
//!   the retry loop's.
//! * **Hedged reads** — when a read has waited past the rolling p99 of
//!   recent read latencies, a speculative duplicate is issued and the first
//!   successful result wins; the loser is discarded and never double-counted
//!   in op stats. A hedge budget bounds read amplification.
//! * **Circuit breaker** — closed → open on a windowed error rate over
//!   attempts (throttles don't count: a throttling server is *alive*), open
//!   → fail fast with typed [`StorageError::CircuitOpen`] carrying the
//!   remaining cooldown as its hint (no backend call, no time burned, so
//!   [`crate::FallbackBackend`] and recovery-ladder paths take over at
//!   once), then half-open probes → closed on success.
//! * **Brownout shedding** — sustained throttling (or an open circuit)
//!   raises [`StorageBackend::shed_optional_work`], and the engine skips
//!   telemetry artifacts, hot-tier replication and chunk-manifest writes so
//!   committed saves keep landing.
//!
//! With a sink ([`ResilientBackend::with_sink`]) every hedge, breaker
//! transition or rejection and brownout transition is also a `resil/*` point
//! span under the operation that caused it (`resil/retry` and
//! `resil/throttled` are the retry loop's). Everything timing-related runs
//! on a [`RetryClock`] — the engine's loop should wait on the same one — so
//! storms and outages are testable without real sleeping (hedge *arming*
//! uses the real clock: on a virtual one the primary returns instantly in
//! real time, so hedges simply never fire).

use crate::layer::{self, Op, Reply};
use crate::retry::{RetryClock, SystemClock};
use crate::{DynBackend, Result, StorageBackend, StorageError, StorageErrorKind};
use bcp_monitor::MetricsSink;
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

/// Hedged-read configuration.
#[derive(Debug, Clone)]
pub struct HedgeConfig {
    /// Master switch.
    pub enabled: bool,
    /// Fixed hedge delay override (None = derive from the rolling p99).
    pub delay: Option<Duration>,
    /// Multiplier on the rolling p99 when deriving the delay.
    pub factor: f64,
    /// Floor on the hedge delay.
    pub min_delay: Duration,
    /// Hedge budget: hedges may be at most this fraction of logical reads
    /// (0.05 bounds read amplification at 1.05x).
    pub budget: f64,
    /// Rolling latency window size.
    pub window: usize,
    /// Minimum window samples before p99-derived hedging arms.
    pub min_samples: usize,
}

impl Default for HedgeConfig {
    fn default() -> HedgeConfig {
        HedgeConfig {
            enabled: true,
            delay: None,
            factor: 2.0,
            min_delay: Duration::from_millis(5),
            budget: 0.05,
            window: 64,
            min_samples: 16,
        }
    }
}

/// Circuit-breaker configuration.
#[derive(Debug, Clone)]
pub struct BreakerConfig {
    /// Sliding outcome window size.
    pub window: usize,
    /// Minimum outcomes in the window before the breaker may trip.
    pub min_samples: usize,
    /// Error-rate threshold (fraction of the window) that opens the circuit.
    pub error_rate: f64,
    /// How long the circuit stays open before half-open probing.
    pub cooldown: Duration,
    /// Concurrent probe calls admitted while half-open.
    pub probes: u32,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig {
            window: 16,
            min_samples: 8,
            error_rate: 0.5,
            cooldown: Duration::from_secs(2),
            probes: 2,
        }
    }
}

/// Brownout (optional-work shedding) configuration.
#[derive(Debug, Clone)]
pub struct BrownoutConfig {
    /// Sliding time window over which throttle events are counted.
    pub window: Duration,
    /// Throttle events in the window that enter brownout.
    pub enter: u32,
    /// Throttle events in the window at or below which brownout exits.
    pub exit: u32,
}

impl Default for BrownoutConfig {
    fn default() -> BrownoutConfig {
        BrownoutConfig { window: Duration::from_secs(10), enter: 8, exit: 1 }
    }
}

/// AIMD client-rate pacing configuration.
#[derive(Debug, Clone)]
pub struct PacingConfig {
    /// Rate cap installed on the first throttle (requests/second).
    pub start_rate: f64,
    /// Multiplicative decrease per subsequent throttle.
    pub decrease: f64,
    /// Additive increase per successful request (requests/second).
    pub increase: f64,
    /// Lower bound on the paced rate.
    pub floor_rate: f64,
    /// Upper bound on the paced rate (reaching calm releases the cap).
    pub ceil_rate: f64,
    /// Release the cap entirely after this long without a throttle.
    pub release_after: Duration,
}

impl Default for PacingConfig {
    fn default() -> PacingConfig {
        PacingConfig {
            start_rate: 256.0,
            decrease: 0.5,
            increase: 2.0,
            floor_rate: 2.0,
            ceil_rate: 4096.0,
            release_after: Duration::from_secs(10),
        }
    }
}

/// Full configuration of the resilience layer.
#[derive(Debug, Clone, Default)]
pub struct ResilienceConfig {
    /// Hedged reads.
    pub hedge: HedgeConfig,
    /// Circuit breaker.
    pub breaker: BreakerConfig,
    /// Brownout shedding.
    pub brownout: BrownoutConfig,
    /// AIMD pacing.
    pub pacing: PacingConfig,
}

/// Observable breaker state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CircuitState {
    /// Normal operation.
    #[default]
    Closed,
    /// Failing fast; no calls reach the backend.
    Open,
    /// Cooldown elapsed; limited probes are admitted.
    HalfOpen,
}

/// Counter snapshot for tests, benches and metric export.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ResilienceSnapshot {
    /// Throttled responses observed.
    pub throttled: u64,
    /// Hedged reads issued.
    pub hedges: u64,
    /// Hedges whose result won.
    pub hedge_wins: u64,
    /// Logical read operations.
    pub reads_logical: u64,
    /// Backend read calls actually issued (primary + hedges).
    pub backend_reads: u64,
    /// Calls rejected while the circuit was open.
    pub circuit_rejections: u64,
    /// Times the circuit opened.
    pub circuit_opened: u64,
    /// Times the circuit closed from half-open.
    pub circuit_closed: u64,
    /// Brownout entries.
    pub brownout_entered: u64,
    /// Brownout exits.
    pub brownout_exited: u64,
    /// Total time spent in pacing waits.
    pub paced_wait: Duration,
    /// Whether brownout is currently active.
    pub brownout_active: bool,
    /// Current breaker state.
    pub circuit: CircuitState,
    /// Current AIMD rate cap (None = uncapped).
    pub client_rate: Option<f64>,
}

#[derive(Debug)]
enum BState {
    Closed,
    Open { until: Duration },
    HalfOpen { in_flight: u32 },
}

#[derive(Debug)]
struct BreakerState {
    state: BState,
    window: VecDeque<bool>,
}

#[derive(Debug)]
struct PacerState {
    rate: f64,
    tokens: f64,
    last: Duration,
    last_throttle: Duration,
}

#[derive(Debug, Default)]
struct BrownoutState {
    times: VecDeque<Duration>,
    active: bool,
}

#[derive(Default)]
struct Counters {
    throttled: AtomicU64,
    hedges: AtomicU64,
    hedge_wins: AtomicU64,
    reads_logical: AtomicU64,
    backend_reads: AtomicU64,
    circuit_rejections: AtomicU64,
    circuit_opened: AtomicU64,
    circuit_closed: AtomicU64,
    brownout_entered: AtomicU64,
    brownout_exited: AtomicU64,
    paced_wait_us: AtomicU64,
}

/// The resilience wrapper. See the module docs for the mechanisms.
pub struct ResilientBackend {
    inner: DynBackend,
    cfg: ResilienceConfig,
    clock: Arc<dyn RetryClock>,
    breaker: Mutex<BreakerState>,
    pacer: Mutex<Option<PacerState>>,
    brownout: Mutex<BrownoutState>,
    latency_window: Mutex<VecDeque<Duration>>,
    counters: Counters,
    sink: MetricsSink,
    rank: usize,
}

impl ResilientBackend {
    /// Wrap `inner` with the default config on the real clock.
    pub fn new(inner: DynBackend) -> ResilientBackend {
        let clock = Arc::new(SystemClock::default());
        ResilientBackend::with_clock(inner, ResilienceConfig::default(), clock)
    }

    /// Wrap `inner` with `cfg`, running all waits/cooldowns on `clock`.
    pub fn with_clock(
        inner: DynBackend,
        cfg: ResilienceConfig,
        clock: Arc<dyn RetryClock>,
    ) -> ResilientBackend {
        ResilientBackend {
            inner,
            cfg,
            clock,
            breaker: Mutex::new(BreakerState { state: BState::Closed, window: VecDeque::new() }),
            pacer: Mutex::new(None),
            brownout: Mutex::new(BrownoutState::default()),
            latency_window: Mutex::new(VecDeque::new()),
            counters: Counters::default(),
            sink: MetricsSink::disabled(),
            rank: 0,
        }
    }

    /// Emit the `resil/{hedge,hedge_win,circuit_open,circuit_close,
    /// circuit_reject,brownout_enter,brownout_exit}` point spans into `sink`
    /// (`rank` stamps those outside any entered workflow span).
    pub fn with_sink(mut self, sink: MetricsSink, rank: usize) -> ResilientBackend {
        self.sink = sink;
        self.rank = rank;
        self
    }

    /// Current breaker state.
    pub fn circuit_state(&self) -> CircuitState {
        match self.breaker.lock().state {
            BState::Closed => CircuitState::Closed,
            BState::Open { .. } => CircuitState::Open,
            BState::HalfOpen { .. } => CircuitState::HalfOpen,
        }
    }

    /// Whether brownout shedding is active.
    pub fn brownout_active(&self) -> bool {
        self.brownout.lock().active
    }

    /// The AIMD rate cap currently in force (None = uncapped).
    pub fn client_rate(&self) -> Option<f64> {
        self.pacer.lock().as_ref().map(|p| p.rate)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ResilienceSnapshot {
        let c = &self.counters;
        ResilienceSnapshot {
            throttled: c.throttled.load(Ordering::Relaxed),
            hedges: c.hedges.load(Ordering::Relaxed),
            hedge_wins: c.hedge_wins.load(Ordering::Relaxed),
            reads_logical: c.reads_logical.load(Ordering::Relaxed),
            backend_reads: c.backend_reads.load(Ordering::Relaxed),
            circuit_rejections: c.circuit_rejections.load(Ordering::Relaxed),
            circuit_opened: c.circuit_opened.load(Ordering::Relaxed),
            circuit_closed: c.circuit_closed.load(Ordering::Relaxed),
            brownout_entered: c.brownout_entered.load(Ordering::Relaxed),
            brownout_exited: c.brownout_exited.load(Ordering::Relaxed),
            paced_wait: Duration::from_micros(c.paced_wait_us.load(Ordering::Relaxed)),
            brownout_active: self.brownout_active(),
            circuit: self.circuit_state(),
            client_rate: self.client_rate(),
        }
    }

    /// One `resil/<event>` point span, under whichever operation is running.
    fn point(&self, name: &'static str) {
        drop(self.sink.span_in_context(name, self.rank).uncounted());
    }

    /// Admit this call through the breaker, or fail fast with
    /// [`StorageError::CircuitOpen`].
    fn check_breaker(&self) -> Result<()> {
        let now = self.clock.now();
        let retry_after = {
            let mut b = self.breaker.lock();
            match &mut b.state {
                BState::Closed => return Ok(()),
                BState::Open { until } if now >= *until => {
                    b.state = BState::HalfOpen { in_flight: 1 };
                    return Ok(());
                }
                BState::Open { until } => until.saturating_sub(now),
                BState::HalfOpen { in_flight } if *in_flight < self.cfg.breaker.probes => {
                    *in_flight += 1;
                    return Ok(());
                }
                BState::HalfOpen { .. } => self.cfg.breaker.cooldown,
            }
        };
        self.counters.circuit_rejections.fetch_add(1, Ordering::Relaxed);
        self.point("resil/circuit_reject");
        Err(StorageError::CircuitOpen {
            backend: self.inner.name().to_string(),
            retry_after_ms: (retry_after.as_millis() as u64).max(1),
        })
    }

    /// Feed one attempt outcome into the breaker (throttles and terminal
    /// errors count as *alive*, i.e. non-error).
    fn breaker_outcome(&self, errored: bool) {
        let now = self.clock.now();
        let mut transition = None;
        {
            let mut b = self.breaker.lock();
            match &mut b.state {
                BState::Closed => {
                    b.window.push_back(errored);
                    while b.window.len() > self.cfg.breaker.window {
                        b.window.pop_front();
                    }
                    let errs = b.window.iter().filter(|e| **e).count();
                    if b.window.len() >= self.cfg.breaker.min_samples
                        && errs as f64 >= self.cfg.breaker.error_rate * b.window.len() as f64
                    {
                        b.state = BState::Open { until: now + self.cfg.breaker.cooldown };
                        b.window.clear();
                        self.counters.circuit_opened.fetch_add(1, Ordering::Relaxed);
                        transition = Some("resil/circuit_open");
                    }
                }
                BState::HalfOpen { in_flight } => {
                    *in_flight = in_flight.saturating_sub(1);
                    if errored {
                        b.state = BState::Open { until: now + self.cfg.breaker.cooldown };
                        self.counters.circuit_opened.fetch_add(1, Ordering::Relaxed);
                        transition = Some("resil/circuit_open");
                    } else {
                        b.state = BState::Closed;
                        b.window.clear();
                        self.counters.circuit_closed.fetch_add(1, Ordering::Relaxed);
                        transition = Some("resil/circuit_close");
                    }
                }
                BState::Open { .. } => {}
            }
        }
        if let Some(name) = transition {
            self.point(name);
        }
    }

    /// AIMD pacing gate: wait out the client rate cap, if one is in force.
    fn pace(&self) {
        let wait = {
            let now = self.clock.now();
            let mut p = self.pacer.lock();
            match p.as_mut() {
                None => None,
                Some(st) => {
                    if now.saturating_sub(st.last_throttle) >= self.cfg.pacing.release_after {
                        *p = None;
                        None
                    } else {
                        let dt = now.saturating_sub(st.last).as_secs_f64();
                        st.last = now;
                        st.tokens = (st.tokens + dt * st.rate).min(1.0);
                        st.tokens -= 1.0;
                        if st.tokens < 0.0 {
                            Some(Duration::from_secs_f64(-st.tokens / st.rate))
                        } else {
                            None
                        }
                    }
                }
            }
        };
        if let Some(w) = wait {
            self.counters.paced_wait_us.fetch_add(w.as_micros() as u64, Ordering::Relaxed);
            self.clock.sleep(w);
        }
    }

    /// Multiplicative-decrease (or cap installation) on a throttle; also
    /// feeds the brownout window.
    fn on_throttle(&self) {
        self.counters.throttled.fetch_add(1, Ordering::Relaxed);
        let now = self.clock.now();
        {
            let mut p = self.pacer.lock();
            match p.as_mut() {
                None => {
                    *p = Some(PacerState {
                        rate: self.cfg.pacing.start_rate,
                        tokens: 0.0,
                        last: now,
                        last_throttle: now,
                    });
                }
                Some(st) => {
                    st.rate = (st.rate * self.cfg.pacing.decrease).max(self.cfg.pacing.floor_rate);
                    st.last_throttle = now;
                }
            }
        }
        if self.brownout_window(now, true) {
            self.counters.brownout_entered.fetch_add(1, Ordering::Relaxed);
            self.point("resil/brownout_enter");
        }
    }

    /// Additive-increase on success; may exit brownout.
    fn on_success(&self) {
        {
            let mut p = self.pacer.lock();
            if let Some(st) = p.as_mut() {
                st.rate = (st.rate + self.cfg.pacing.increase).min(self.cfg.pacing.ceil_rate);
            }
        }
        if self.brownout_window(self.clock.now(), false) {
            self.counters.brownout_exited.fetch_add(1, Ordering::Relaxed);
            self.point("resil/brownout_exit");
        }
    }

    /// Slide the brownout window to `now`, counting this outcome in it when
    /// `throttled`; whether that flipped the state (a throttle can only
    /// enter brownout, a success only exit it).
    fn brownout_window(&self, now: Duration, throttled: bool) -> bool {
        let mut b = self.brownout.lock();
        if throttled {
            b.times.push_back(now);
        }
        let horizon = now.saturating_sub(self.cfg.brownout.window);
        while b.times.front().is_some_and(|t| *t < horizon) {
            b.times.pop_front();
        }
        let n = b.times.len() as u32;
        let flip = if throttled {
            !b.active && n >= self.cfg.brownout.enter
        } else {
            b.active && n <= self.cfg.brownout.exit
        };
        b.active ^= flip;
        flip
    }

    /// Guard one attempt: admit it through the breaker (or fail fast), wait
    /// its turn under the pacer, run it once, and feed the outcome to the
    /// breaker, the pacer and the brownout window. Whatever the attempt
    /// returns is returned as is — repeating it is the caller's decision.
    fn guarded<T>(&self, attempt: &mut dyn FnMut() -> Result<T>) -> Result<T> {
        self.check_breaker()?;
        self.pace();
        let result = attempt();
        match result.as_ref().map_err(StorageError::kind) {
            Ok(_) => {
                self.breaker_outcome(false);
                self.on_success();
            }
            // Semantic failure or push-back: the backend is alive.
            Err(StorageErrorKind::Terminal) => self.breaker_outcome(false),
            Err(StorageErrorKind::Throttled { .. }) => {
                self.breaker_outcome(false);
                self.on_throttle();
            }
            Err(StorageErrorKind::Retryable) => self.breaker_outcome(true),
        }
        result
    }

    /// The hedge delay to arm for the next read, or None (disabled, cold
    /// window, or budget exhausted).
    fn hedge_delay(&self) -> Option<Duration> {
        let h = &self.cfg.hedge;
        if !h.enabled {
            return None;
        }
        let logical = self.counters.reads_logical.load(Ordering::Relaxed);
        let hedges = self.counters.hedges.load(Ordering::Relaxed);
        if (hedges + 1) as f64 > (h.budget * logical.max(1) as f64).max(1.0) {
            return None;
        }
        if let Some(d) = h.delay {
            return Some(d.max(h.min_delay));
        }
        let w = self.latency_window.lock();
        if w.len() < h.min_samples.max(1) {
            return None;
        }
        let mut v: Vec<Duration> = w.iter().copied().collect();
        v.sort_unstable();
        let idx = ((v.len() as f64 * 0.99).ceil() as usize).clamp(1, v.len()) - 1;
        Some(v[idx].mul_f64(h.factor.max(1.0)).max(h.min_delay))
    }

    fn record_read_latency(&self, d: Duration) {
        let mut w = self.latency_window.lock();
        w.push_back(d);
        while w.len() > self.cfg.hedge.window.max(1) {
            w.pop_front();
        }
    }

    /// One read attempt, possibly hedged: issue the primary, and if it has
    /// not completed within the hedge delay (real time), issue a duplicate;
    /// the first successful result wins and the loser is discarded without
    /// touching the latency window or win counters.
    fn attempt_read(&self, f: &Arc<dyn Fn() -> Result<Bytes> + Send + Sync>) -> Result<Bytes> {
        let t0 = self.clock.now();
        let delay = self.hedge_delay();
        self.counters.backend_reads.fetch_add(1, Ordering::Relaxed);
        let res = match delay {
            None => f(),
            Some(d) => {
                let (tx, rx) = mpsc::channel::<(u8, Result<Bytes>)>();
                let primary = f.clone();
                let tx1 = tx.clone();
                std::thread::spawn(move || {
                    let _ = tx1.send((0, primary()));
                });
                match rx.recv_timeout(d) {
                    Ok((_, r)) => r,
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        self.counters.hedges.fetch_add(1, Ordering::Relaxed);
                        self.counters.backend_reads.fetch_add(1, Ordering::Relaxed);
                        self.point("resil/hedge");
                        let hedge = f.clone();
                        std::thread::spawn(move || {
                            let _ = tx.send((1, hedge()));
                        });
                        // First Ok wins; a loser's result is dropped with
                        // the channel, never recorded anywhere.
                        let won = |who: u8, v: Bytes| {
                            if who == 1 {
                                self.counters.hedge_wins.fetch_add(1, Ordering::Relaxed);
                                self.point("resil/hedge_win");
                            }
                            Ok(v)
                        };
                        match rx.recv() {
                            Ok((who, Ok(v))) => won(who, v),
                            Ok((_, Err(first_err))) => match rx.recv() {
                                Ok((who, Ok(v))) => won(who, v),
                                _ => Err(first_err),
                            },
                            Err(_) => f(),
                        }
                    }
                    Err(mpsc::RecvTimeoutError::Disconnected) => f(),
                }
            }
        };
        if res.is_ok() {
            self.record_read_latency(self.clock.now().saturating_sub(t0));
        }
        res
    }

    fn guarded_read(&self, f: Arc<dyn Fn() -> Result<Bytes> + Send + Sync>) -> Result<Bytes> {
        self.counters.reads_logical.fetch_add(1, Ordering::Relaxed);
        self.guarded(&mut || self.attempt_read(&f))
    }
}

impl layer::Layer for ResilientBackend {
    fn inner(&self) -> &dyn StorageBackend {
        self.inner.as_ref()
    }

    fn name(&self) -> &str {
        "resilient"
    }

    fn op_attrs(&self) -> Vec<(&'static str, String)> {
        let mut attrs = self.inner.op_attrs();
        attrs.push(("resil_circuit", format!("{:?}", self.circuit_state())));
        attrs.push(("resil_brownout", format!("{}", self.brownout_active())));
        attrs.push((
            "resil_client_rate",
            self.client_rate().map_or("uncapped".into(), |r| format!("{r:.1}")),
        ));
        attrs
    }

    fn shed_optional_work(&self) -> bool {
        self.brownout_active()
            || self.circuit_state() != CircuitState::Closed
            || self.inner.shed_optional_work()
    }

    fn around<T: Reply>(&self, _op: &Op<'_>, call: &mut dyn FnMut() -> Result<T>) -> Result<T> {
        self.guarded(call)
    }

    // The two reads may hedge onto another thread, so each attempt owns its
    // backend handle and path instead of borrowing the caller's.
    fn read(&self, path: &str) -> Result<Bytes> {
        let inner = self.inner.clone();
        let p = path.to_string();
        self.guarded_read(Arc::new(move || inner.read(&p)))
    }

    fn read_range(&self, path: &str, offset: u64, len: u64) -> Result<Bytes> {
        let inner = self.inner.clone();
        let p = path.to_string();
        self.guarded_read(Arc::new(move || inner.read_range(&p, offset, len)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::{ObjectStoreBackend, ObjectStoreConfig};
    use crate::retry::{site_seed, RetryClock, RetryPolicy, TestClock};
    use crate::{Fault, FaultLayer, FaultRule, MemoryBackend, OpCountingBackend, OpSet};

    /// The engine's loop in miniature: `policy` over one guarded operation,
    /// waiting on the clock the guard computes its hints on.
    fn retried<T>(
        policy: RetryPolicy,
        clock: &TestClock,
        path: &str,
        op: impl FnMut() -> Result<T>,
    ) -> Result<T> {
        let seed = site_seed(0, "write", Some(path));
        policy.run(clock, seed, op, StorageError::verdict, |_, _, _| {})
    }

    #[test]
    fn a_failed_attempt_reaches_the_backend_once_and_is_returned_as_is() {
        let fail_twice = vec![FaultRule::new(OpSet::Writes, Fault::Fail { times: 2 })];
        let flaky = Arc::new(FaultLayer::new(Arc::new(MemoryBackend::new()), 0, fail_twice));
        let b = ResilientBackend::new(flaky.clone());
        for attempt in 1..=2 {
            let err = b.write("k", Bytes::from_static(b"v")).unwrap_err();
            assert!(matches!(err, StorageError::Injected { .. }), "{err}");
            assert_eq!(flaky.injected(), attempt, "the guard never repeats an attempt");
        }
        b.write("k", Bytes::from_static(b"v")).unwrap();
        assert_eq!(b.stats().circuit, CircuitState::Closed, "two transients are not an outage");
        assert_eq!(&b.read("k").unwrap()[..], b"v");
    }

    #[test]
    fn terminal_errors_never_count_against_the_breaker() {
        let b = ResilientBackend::new(Arc::new(MemoryBackend::new()));
        for _ in 0..2 * BreakerConfig::default().window {
            assert!(matches!(b.read("missing"), Err(StorageError::NotFound(_))));
        }
        assert_eq!(b.stats().circuit, CircuitState::Closed, "NotFound: the backend is alive");
    }

    #[test]
    fn throttles_surface_their_hint_and_install_aimd_pacing() {
        let clock = Arc::new(TestClock::new());
        let store = Arc::new(ObjectStoreBackend::with_clock(
            ObjectStoreConfig {
                qps_limit: Some(20.0),
                capacity: 1.0,
                ..ObjectStoreConfig::default()
            },
            clock.clone(),
        ));
        let b =
            ResilientBackend::with_clock(store.clone(), ResilienceConfig::default(), clock.clone());
        // A burst of writes all lands (the loop above waits out each hint,
        // the pacer spreads the attempts) and the pacer installs a rate cap.
        let policy = RetryPolicy::fixed(8, Duration::from_millis(1));
        for i in 0..10 {
            let path = format!("k/{i}");
            retried(policy, &clock, &path, || b.write(&path, Bytes::from_static(b"x"))).unwrap();
        }
        let s = b.stats();
        assert!(s.throttled > 0, "the store throttled: {s:?}");
        assert!(s.client_rate.is_some(), "AIMD cap installed");
        assert_eq!(s.circuit, CircuitState::Closed, "throttling never opens the circuit");
        // The throttle reached the loop as a typed hint and was slept on the
        // shared virtual clock (the hint at 20 qps is >= 50ms).
        assert!(clock.sleeps().iter().any(|d| *d >= Duration::from_millis(50)));
    }

    /// The goodput gate: under a throttling storm the paced client (server
    /// hints honored by the loop, AIMD rate cap in the guard) moves the same seeded workload at least
    /// twice as fast as a tight-retry client that ignores `retry-after` and
    /// burns `reject_cost` of a token on every rejection. Virtual time.
    #[test]
    fn paced_goodput_is_at_least_twice_naive_tight_retry_under_a_storm() {
        const OBJECTS: usize = 50;
        let storm = |clock: &Arc<TestClock>| {
            Arc::new(ObjectStoreBackend::with_clock(
                ObjectStoreConfig {
                    request_latency: Duration::from_millis(2),
                    per_mib_latency: Duration::from_millis(4),
                    qps_limit: Some(10.0),
                    capacity: 8.0,
                    reject_cost: 0.25,
                    seed: 0x0B1EC7,
                    ..ObjectStoreConfig::default()
                },
                clock.clone(),
            ))
        };
        let payload = Bytes::from(vec![0xAB; 256 * 1024]);

        // Naive: fixed-schedule exponential backoff from 5 ms, capped at
        // 100 ms, blind to the server's hint.
        let clock = Arc::new(TestClock::new());
        let store = storm(&clock);
        for i in 0..OBJECTS {
            let mut backoff = Duration::from_millis(5);
            while store.write(&format!("naive/{i}"), payload.clone()).is_err() {
                clock.sleep(backoff);
                backoff = (backoff * 2).min(Duration::from_millis(100));
            }
        }
        let (naive_wall, naive_throttled) = (clock.now(), store.stats().throttled);

        let clock = Arc::new(TestClock::new());
        let store = storm(&clock);
        let paced =
            ResilientBackend::with_clock(store.clone(), ResilienceConfig::default(), clock.clone());
        let policy = RetryPolicy::exponential(8, Duration::from_millis(5));
        for i in 0..OBJECTS {
            let path = format!("paced/{i}");
            retried(policy, &clock, &path, || paced.write(&path, payload.clone()))
                .expect("paced write lands");
        }
        let (paced_wall, paced_throttled) = (clock.now(), store.stats().throttled);

        assert!(naive_throttled > 0 && paced_throttled > 0, "the storm must throttle both clients");
        // Same bytes on both sides, so goodput is the inverse of wall time.
        let improvement = naive_wall.as_secs_f64() / paced_wall.as_secs_f64();
        assert!(
            improvement >= 2.0,
            "paced {paced_wall:?} vs naive {naive_wall:?}: only {improvement:.2}x"
        );
    }

    #[test]
    fn breaker_opens_fails_fast_and_recovers_through_half_open() {
        let clock = Arc::new(TestClock::new());
        let store =
            Arc::new(ObjectStoreBackend::with_clock(ObjectStoreConfig::default(), clock.clone()));
        let cfg = ResilienceConfig {
            breaker: BreakerConfig {
                window: 8,
                min_samples: 4,
                error_rate: 0.5,
                cooldown: Duration::from_secs(2),
                probes: 1,
            },
            ..ResilienceConfig::default()
        };
        let b = ResilientBackend::with_clock(store.clone(), cfg, clock.clone());
        b.write("pre", Bytes::from_static(b"ok")).unwrap();
        store.outage_now(Duration::from_secs(30));
        // Failed attempts accumulate (one sample each) until the circuit
        // opens: 3 errors in a window of 4...
        for _ in 0..3 {
            assert_eq!(b.circuit_state(), CircuitState::Closed);
            assert!(b.write("w", Bytes::from_static(b"x")).is_err());
        }
        assert_eq!(b.circuit_state(), CircuitState::Open);
        // ...and open-circuit calls fail fast with the typed error, carrying
        // the remaining cooldown as the hint and burning no time.
        let (t0, requests) = (clock.now(), store.stats().requests);
        let err = b.write("w", Bytes::from_static(b"x")).unwrap_err();
        assert_eq!(
            err,
            StorageError::CircuitOpen { backend: "object".into(), retry_after_ms: 2000 }
        );
        assert_eq!((clock.now(), store.stats().requests), (t0, requests), "fail-fast");
        assert!(b.stats().circuit_rejections >= 1);
        assert!(b.shed_optional_work(), "open circuit sheds optional work");
        // After the outage and cooldown, a probe closes the circuit.
        clock.advance(Duration::from_secs(31));
        b.write("w4", Bytes::from_static(b"x")).unwrap();
        assert_eq!(b.circuit_state(), CircuitState::Closed);
        assert!(b.stats().circuit_closed >= 1);
        assert!(!b.shed_optional_work());
    }

    #[test]
    fn brownout_enters_under_sustained_throttling_and_exits_when_calm() {
        let clock = Arc::new(TestClock::new());
        let store = Arc::new(ObjectStoreBackend::with_clock(
            ObjectStoreConfig {
                qps_limit: Some(5.0),
                capacity: 1.0,
                ..ObjectStoreConfig::default()
            },
            clock.clone(),
        ));
        let b = ResilientBackend::with_clock(
            store.clone(),
            ResilienceConfig {
                brownout: BrownoutConfig { window: Duration::from_secs(5), enter: 3, exit: 0 },
                ..ResilienceConfig::default()
            },
            clock.clone(),
        );
        let policy = RetryPolicy::fixed(10, Duration::from_millis(1));
        for i in 0..6 {
            let path = format!("k/{i}");
            retried(policy, &clock, &path, || b.write(&path, Bytes::from_static(b"x"))).unwrap();
        }
        assert!(b.stats().brownout_entered >= 1, "{:?}", b.stats());
        // Calm period: lift the limit, advance past the window, succeed.
        store.set_rate_limit(None);
        clock.advance(Duration::from_secs(6));
        b.write("calm", Bytes::from_static(b"x")).unwrap();
        assert!(!b.brownout_active());
        assert!(b.stats().brownout_exited >= 1);
    }

    #[test]
    fn hedged_read_first_wins_and_loser_is_discarded() {
        // Reads block for a scripted duration — in real time: hedge arming
        // uses the real clock.
        let counting = Arc::new(OpCountingBackend::new(Arc::new(MemoryBackend::new())));
        counting.write("k", Bytes::from_static(b"payload")).unwrap();
        let script = Fault::Script(vec![Duration::from_millis(300), Duration::ZERO]);
        let slow: DynBackend = Arc::new(FaultLayer::new(
            counting.clone(),
            0,
            vec![FaultRule::new(OpSet::Reads, script)],
        ));
        let b = ResilientBackend::with_clock(
            slow,
            ResilienceConfig {
                hedge: HedgeConfig {
                    enabled: true,
                    delay: Some(Duration::from_millis(20)),
                    budget: 1.0,
                    min_delay: Duration::from_millis(1),
                    ..HedgeConfig::default()
                },
                ..ResilienceConfig::default()
            },
            Arc::new(SystemClock::default()),
        );
        let t0 = std::time::Instant::now();
        assert_eq!(&b.read("k").unwrap()[..], b"payload");
        assert!(
            t0.elapsed() < Duration::from_millis(250),
            "the fast hedge won, not the 300ms primary: {:?}",
            t0.elapsed()
        );
        let s = b.stats();
        assert_eq!(s.reads_logical, 1, "one logical read");
        assert_eq!(s.hedges, 1, "one hedge issued");
        assert_eq!(s.hedge_wins, 1, "the hedge won");
        assert_eq!(s.backend_reads, 2, "primary + hedge, loser never re-counted");
        // The slow loser eventually finishes on its thread; its result is
        // discarded and stats don't change.
        std::thread::sleep(Duration::from_millis(350));
        let s2 = b.stats();
        assert_eq!(s2.backend_reads, 2);
        assert_eq!(s2.hedge_wins, 1);
        assert_eq!(counting.reads(), 2);
    }

    #[test]
    fn hedge_budget_bounds_read_amplification() {
        let mem: DynBackend = Arc::new(MemoryBackend::new());
        mem.write("k", Bytes::from_static(b"v")).unwrap();
        let b = ResilientBackend::with_clock(
            mem,
            ResilienceConfig {
                hedge: HedgeConfig {
                    enabled: true,
                    delay: Some(Duration::from_nanos(1)), // hedge as aggressively as allowed
                    budget: 0.1,
                    min_delay: Duration::from_nanos(1),
                    ..HedgeConfig::default()
                },
                ..ResilienceConfig::default()
            },
            Arc::new(SystemClock::default()),
        );
        for _ in 0..200 {
            b.read("k").unwrap();
        }
        let s = b.stats();
        assert!(
            s.backend_reads as f64 <= 1.1 * s.reads_logical as f64 + 1.0,
            "amplification bounded by the budget: {s:?}"
        );
    }
}
