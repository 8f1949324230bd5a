//! Integrity guarantee: retry policies, failure logging, failover
//! accounting, and the commit protocol (Appendix B).
//!
//! "A complete checkpoint consists of multiple files stored by different
//! workers. The failure of any single worker can corrupt the entire
//! checkpoint." The protections:
//!
//! * Upload/download **retries** under a configurable [`RetryPolicy`] —
//!   exponential backoff with deterministic jitter, an attempt cap, and an
//!   optional overall deadline — with failure logging "which records the
//!   exact stage of failure within the checkpoint saving/loading
//!   pipelines". Retries sleep through a [`RetryClock`] so tests can verify
//!   the exact backoff schedule on a virtual clock ([`TestClock`]).
//! * **Failover accounting**: when a [`FallbackBackend`] trips over to its
//!   secondary tier after retry exhaustion, [`record_failovers`] routes the
//!   downgrade into the [`FailureLog`] and the `MetricsSink` so operators
//!   see the degradation, not just the eventual success.
//! * An **asynchronous tree-based barrier** (provided by
//!   `bcp-collectives`' tree backend) after which the coordinator commits
//!   the checkpoint by writing the global metadata file and a `COMPLETE`
//!   marker. Loads refuse checkpoints without the marker, so a torn save is
//!   never observed as a valid checkpoint; `CheckpointManager::gc_torn`
//!   reclaims the partial files on restart.

use crate::metadata::COMPLETE_MARKER;
use crate::{BcpError, Result};
use bcp_monitor::MetricsSink;
use bcp_storage::fallback::FallbackBackend;
use bcp_storage::{DynBackend, ResilienceEvent, ResilientBackend, StorageError};
use parking_lot::Mutex;
use std::sync::Arc;

pub use bcp_monitor::FailureRecord;

/// Collects [`FailureRecord`]s across engine threads.
#[derive(Debug, Default)]
pub struct FailureLog {
    records: Mutex<Vec<FailureRecord>>,
}

impl FailureLog {
    /// Empty log.
    pub fn new() -> FailureLog {
        FailureLog::default()
    }

    /// Append a record.
    pub fn log(&self, rec: FailureRecord) {
        self.records.lock().push(rec);
    }

    /// Snapshot of everything logged.
    pub fn records(&self) -> Vec<FailureRecord> {
        self.records.lock().clone()
    }

    /// Number of failures logged.
    pub fn len(&self) -> usize {
        self.records.lock().len()
    }

    /// Whether nothing failed.
    pub fn is_empty(&self) -> bool {
        self.records.lock().is_empty()
    }
}

// The retry primitives (policy, clocks, jitter seeding) now live in
// `bcp-storage`'s `retry` module so the storage-level resilience wrapper
// ([`bcp_storage::ResilientBackend`]) can share them; re-exported here so
// every existing `bcp_core::integrity::{RetryPolicy, TestClock, ...}` caller
// keeps compiling unchanged.
pub use bcp_storage::retry::{RetryClock, RetryPolicy, SystemClock, TestClock};

use bcp_storage::retry::site_seed;

/// Run a storage operation under the retry policy on the real clock.
pub fn with_retries<T>(
    policy: RetryPolicy,
    log: &FailureLog,
    rank: usize,
    stage: &str,
    path: Option<&str>,
    op: impl FnMut() -> std::result::Result<T, StorageError>,
) -> Result<T> {
    with_retries_on(&SystemClock::default(), policy, log, rank, stage, path, op)
}

/// Run a storage operation under the retry policy, logging every failure
/// with its pipeline stage. Gives up when the attempt cap is reached or
/// when the next backoff would overrun the policy's deadline (measured on
/// `clock` from entry to this function).
///
/// The loop branches on [`bcp_storage::StorageErrorKind`], not error text:
///
/// * `Terminal` errors (`NotFound`, `AlreadyExists`, ...) are semantic —
///   retrying cannot fix them — so they surface immediately with no backoff
///   burned, regardless of attempts remaining.
/// * `Throttled` errors carry a server `retry-after` hint; the wait before
///   the next attempt is the *larger* of the policy backoff and the hint,
///   so a polite client never hammers a backend that asked for room.
/// * `Retryable` errors follow the plain policy schedule.
pub fn with_retries_on<T>(
    clock: &dyn RetryClock,
    policy: RetryPolicy,
    log: &FailureLog,
    rank: usize,
    stage: &str,
    path: Option<&str>,
    mut op: impl FnMut() -> std::result::Result<T, StorageError>,
) -> Result<T> {
    let seed = site_seed(rank, stage, path);
    let start = clock.now();
    let mut attempt = 0;
    loop {
        attempt += 1;
        match op() {
            Ok(v) => return Ok(v),
            Err(e) => {
                let terminal = e.kind() == bcp_storage::StorageErrorKind::Terminal;
                let mut backoff = policy.backoff_for(attempt, seed);
                if let Some(hint) = e.retry_after() {
                    backoff = backoff.max(hint);
                }
                let within_deadline = policy
                    .deadline
                    .is_none_or(|d| clock.now().saturating_sub(start) + backoff <= d);
                let retried = !terminal && attempt < policy.max_attempts && within_deadline;
                log.log(FailureRecord {
                    rank,
                    stage: stage.to_string(),
                    path: path.map(str::to_string),
                    attempt,
                    error: e.to_string(),
                    retried,
                });
                if !retried {
                    return Err(BcpError::Storage(e));
                }
                clock.sleep(backoff);
            }
        }
    }
}

/// Stage name under which primary→secondary failovers are logged.
pub const FAILOVER_STAGE: &str = "storage/failover";

/// Wire a [`FallbackBackend`]'s trip event into the failure log and the
/// metrics stream: the downgrade shows up as a [`FailureRecord`] with stage
/// [`FAILOVER_STAGE`] and as a point span of the same name (under whichever
/// operation tripped it), so both the post-mortem log and live dashboards
/// see the degradation.
pub fn record_failovers(
    backend: &FallbackBackend,
    log: Arc<FailureLog>,
    sink: MetricsSink,
    rank: usize,
) {
    backend.set_observer(Arc::new(move |event| {
        log.log(FailureRecord {
            rank,
            stage: FAILOVER_STAGE.to_string(),
            path: Some(event.path.clone()),
            attempt: event.failures,
            error: format!(
                "primary backend degraded after {} failures; writes now target the fallback tier",
                event.failures
            ),
            retried: true,
        });
        drop(sink.span_in_context(FAILOVER_STAGE, rank).uncounted().path(event.path.clone()));
    }));
}

/// Stage-name prefix under which resilience events are streamed as point
/// spans. `bcp-monitor` folds `resil/*` spans into the
/// `storage_{retries,hedges,hedge_wins,throttled,circuit_open}_total`
/// counter series and the `storage_brownout` gauge.
pub const RESILIENCE_STAGE_PREFIX: &str = "resil/";

/// Span name for a [`ResilienceEvent`].
fn resilience_record_name(event: &ResilienceEvent) -> &'static str {
    match event {
        ResilienceEvent::Retry { .. } => "resil/retry",
        ResilienceEvent::Throttled { .. } => "resil/throttled",
        ResilienceEvent::Hedge => "resil/hedge",
        ResilienceEvent::HedgeWin => "resil/hedge_win",
        ResilienceEvent::CircuitOpened => "resil/circuit_open",
        ResilienceEvent::CircuitClosed => "resil/circuit_close",
        ResilienceEvent::CircuitRejected => "resil/circuit_reject",
        ResilienceEvent::BrownoutEntered => "resil/brownout_enter",
        ResilienceEvent::BrownoutExited => "resil/brownout_exit",
    }
}

/// Wire a [`ResilientBackend`]'s event stream into the failure log and the
/// metrics stream, the resilience analogue of [`record_failovers`]. Every
/// event becomes a point span named `resil/<event>` (a throttle carries the
/// server's hint as its `retry_after_ms` attribute); the two
/// *state-degrading* transitions (circuit opened, brownout entered) are
/// additionally logged as [`FailureRecord`]s so post-mortems see when the
/// backend went dark or the client started shedding optional work.
pub fn record_resilience(
    backend: &ResilientBackend,
    log: Arc<FailureLog>,
    sink: MetricsSink,
    rank: usize,
) {
    backend.set_observer(Arc::new(move |event| {
        let name = resilience_record_name(event);
        match event {
            ResilienceEvent::CircuitOpened => log.log(FailureRecord {
                rank,
                stage: name.to_string(),
                path: None,
                attempt: 0,
                error: "circuit opened: backend failing, calls now fail fast".to_string(),
                retried: true,
            }),
            ResilienceEvent::BrownoutEntered => log.log(FailureRecord {
                rank,
                stage: name.to_string(),
                path: None,
                attempt: 0,
                error: "brownout entered: sustained throttling, shedding optional work".to_string(),
                retried: true,
            }),
            _ => {}
        }
        let mut point = sink.span_in_context(name, rank).uncounted();
        if let ResilienceEvent::Throttled { retry_after_ms } = event {
            point.set_attr("retry_after_ms", retry_after_ms.to_string());
        }
    }));
}

/// Commit a checkpoint: write the `COMPLETE` marker under `prefix`.
/// Called by the coordinator after the integrity barrier has confirmed that
/// every rank finished its uploads.
pub fn commit_checkpoint(backend: &DynBackend, prefix: &str) -> Result<()> {
    backend
        .write(&format!("{prefix}/{COMPLETE_MARKER}"), bytes::Bytes::from_static(b"ok"))
        .map_err(BcpError::Storage)
}

/// Whether a checkpoint at `prefix` was committed.
pub fn is_committed(backend: &DynBackend, prefix: &str) -> Result<bool> {
    backend.exists(&format!("{prefix}/{COMPLETE_MARKER}")).map_err(BcpError::Storage)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcp_storage::{Fault, FaultLayer, FaultRule, MemoryBackend, OpSet, StorageBackend};
    use std::sync::Arc;
    use std::time::Duration;

    /// A memory backend whose first `times` writes to each path fail.
    fn failing_writes(times: u32) -> FaultLayer {
        let rules = vec![FaultRule::new(OpSet::Writes, Fault::Fail { times })];
        FaultLayer::new(Arc::new(MemoryBackend::new()), 0, rules)
    }

    #[test]
    fn retries_absorb_transient_failures_and_log_them() {
        let flaky = failing_writes(2);
        let log = FailureLog::new();
        let data = bytes::Bytes::from_static(b"payload");
        let result = with_retries(
            RetryPolicy::fixed(3, Duration::from_millis(1)),
            &log,
            5,
            "save/upload",
            Some("f.bin"),
            || flaky.write("f.bin", data.clone()),
        );
        assert!(result.is_ok());
        assert_eq!(log.len(), 2);
        let recs = log.records();
        assert_eq!(recs[0].stage, "save/upload");
        assert_eq!(recs[0].rank, 5);
        assert!(recs[0].retried);
        assert_eq!(recs[1].attempt, 2);
    }

    #[test]
    fn exhausted_retries_surface_the_error() {
        let flaky = failing_writes(10);
        let log = FailureLog::new();
        let result = with_retries(
            RetryPolicy::fixed(2, Duration::from_millis(1)),
            &log,
            0,
            "save/upload",
            None,
            || flaky.write("g.bin", bytes::Bytes::new()),
        );
        assert!(matches!(result, Err(BcpError::Storage(_))));
        let recs = log.records();
        assert_eq!(recs.len(), 2);
        assert!(!recs[1].retried);
    }

    #[test]
    fn exponential_backoff_schedule_is_exact_on_a_test_clock() {
        let clock = TestClock::new();
        let policy = RetryPolicy {
            max_attempts: 4,
            base: Duration::from_millis(10),
            multiplier: 2.0,
            max_backoff: Duration::from_secs(1),
            jitter: 0.0,
            deadline: None,
        };
        let log = FailureLog::new();
        let result: Result<()> = with_retries_on(&clock, policy, &log, 0, "s", None, || {
            Err(StorageError::Io("down".into()))
        });
        assert!(result.is_err());
        assert_eq!(
            clock.sleeps(),
            vec![Duration::from_millis(10), Duration::from_millis(20), Duration::from_millis(40),],
            "3 sleeps between 4 attempts, doubling from the base"
        );
        assert_eq!(clock.now(), Duration::from_millis(70));
        assert_eq!(log.len(), 4);
    }

    #[test]
    fn max_backoff_caps_the_schedule() {
        let policy = RetryPolicy {
            max_attempts: 10,
            base: Duration::from_millis(10),
            multiplier: 2.0,
            max_backoff: Duration::from_millis(25),
            jitter: 0.0,
            deadline: None,
        };
        assert_eq!(policy.backoff_for(1, 0), Duration::from_millis(10));
        assert_eq!(policy.backoff_for(2, 0), Duration::from_millis(20));
        assert_eq!(policy.backoff_for(3, 0), Duration::from_millis(25));
        assert_eq!(policy.backoff_for(9, 0), Duration::from_millis(25));
    }

    #[test]
    fn jitter_is_deterministic_per_site_and_varies_across_sites() {
        let policy = RetryPolicy::default().with_jitter(0.5);
        let a1 = policy.backoff_for(1, site_seed(0, "save/upload", Some("f.bin")));
        let a2 = policy.backoff_for(1, site_seed(0, "save/upload", Some("f.bin")));
        let b = policy.backoff_for(1, site_seed(1, "save/upload", Some("f.bin")));
        assert_eq!(a1, a2, "same site, same attempt: identical backoff");
        assert_ne!(a1, b, "different rank: de-correlated backoff");
        // Jitter only shrinks the backoff, never grows it.
        assert!(a1 <= policy.base && b <= policy.base);
        assert!(a1 >= Duration::from_secs_f64(policy.base.as_secs_f64() * 0.5));
    }

    #[test]
    fn deadline_cuts_retries_short() {
        let clock = TestClock::new();
        let policy = RetryPolicy {
            max_attempts: 10,
            base: Duration::from_millis(10),
            multiplier: 2.0,
            max_backoff: Duration::from_secs(1),
            jitter: 0.0,
            deadline: Some(Duration::from_millis(35)),
        };
        let log = FailureLog::new();
        let result: Result<()> = with_retries_on(&clock, policy, &log, 0, "s", None, || {
            Err(StorageError::Io("down".into()))
        });
        assert!(result.is_err());
        // 10ms + 20ms fit in the 35ms budget; the third backoff (40ms)
        // would overrun it, so the loop gives up after 3 attempts.
        assert_eq!(clock.sleeps(), vec![Duration::from_millis(10), Duration::from_millis(20)]);
        let recs = log.records();
        assert_eq!(recs.len(), 3);
        assert!(!recs[2].retried);
    }

    #[test]
    fn failover_is_recorded_in_log_and_metrics() {
        let hub = bcp_monitor::MetricsHub::new();
        let primary: DynBackend = Arc::new(failing_writes(u32::MAX));
        let secondary: DynBackend = Arc::new(MemoryBackend::new());
        let fb = FallbackBackend::with_threshold(primary, secondary, 2);
        let log = Arc::new(FailureLog::new());
        record_failovers(&fb, log.clone(), hub.sink(), 7);

        let backend: DynBackend = Arc::new(fb);
        let data = bytes::Bytes::from_static(b"x");
        with_retries(
            RetryPolicy::fixed(3, Duration::from_millis(1)),
            &log,
            7,
            "save/upload",
            Some("f.bin"),
            || backend.write("f.bin", data.clone()),
        )
        .expect("failover absorbs the dead primary");

        let recs = log.records();
        assert!(recs.iter().any(|r| r.stage == FAILOVER_STAGE && r.rank == 7));
        let failover = hub.spans().into_iter().find(|s| s.name == FAILOVER_STAGE).unwrap();
        assert_eq!((failover.rank, failover.counted), (7, false));
        assert_eq!(failover.path.as_deref(), Some("f.bin"));
    }

    #[test]
    fn terminal_errors_are_not_retried() {
        let clock = TestClock::new();
        let log = FailureLog::new();
        let mut calls = 0;
        let result: Result<()> = with_retries_on(
            &clock,
            RetryPolicy::fixed(5, Duration::from_millis(10)),
            &log,
            0,
            "load/read",
            Some("missing.bin"),
            || {
                calls += 1;
                Err(StorageError::NotFound("missing.bin".into()))
            },
        );
        assert!(result.is_err());
        assert_eq!(calls, 1, "semantic errors fail on the first attempt");
        assert!(clock.sleeps().is_empty(), "no backoff burned on a terminal error");
        let recs = log.records();
        assert_eq!(recs.len(), 1);
        assert!(!recs[0].retried);
    }

    #[test]
    fn throttle_hints_stretch_the_backoff() {
        let clock = TestClock::new();
        let log = FailureLog::new();
        let mut calls = 0;
        // Policy backoff is 1ms; the server asks for 250ms. The loop must
        // honor the larger hint.
        let result: Result<()> = with_retries_on(
            &clock,
            RetryPolicy::fixed(2, Duration::from_millis(1)),
            &log,
            0,
            "save/upload",
            Some("f.bin"),
            || {
                calls += 1;
                Err(StorageError::SlowDown { path: "f.bin".into(), retry_after_ms: 250 })
            },
        );
        assert!(result.is_err());
        assert_eq!(calls, 2);
        assert_eq!(clock.sleeps(), vec![Duration::from_millis(250)]);
    }

    #[test]
    fn resilience_events_reach_log_and_metrics() {
        use bcp_storage::ObjectStoreConfig;

        let hub = bcp_monitor::MetricsHub::new();
        let clock = Arc::new(TestClock::new());
        // A tiny token bucket: the second immediate request throttles.
        let store = Arc::new(bcp_storage::ObjectStoreBackend::with_clock(
            ObjectStoreConfig {
                qps_limit: Some(10.0),
                capacity: 1.0,
                ..ObjectStoreConfig::default()
            },
            clock.clone(),
        ));
        let resilient =
            ResilientBackend::with_clock(store, bcp_storage::ResilienceConfig::default(), clock);
        let log = Arc::new(FailureLog::new());
        record_resilience(&resilient, log.clone(), hub.sink(), 3);

        let data = bytes::Bytes::from_static(b"x");
        resilient.write("a", data.clone()).unwrap();
        resilient.write("b", data).unwrap();
        assert!(resilient.stats().throttled > 0, "second write must have throttled");

        let spans = hub.spans();
        let throttled: Vec<_> =
            spans.iter().filter(|s| s.name == "resil/throttled" && s.rank == 3).collect();
        assert!(!throttled.is_empty());
        // The server's retry-after hint rides along as an attribute.
        assert!(throttled.iter().any(|s| s.attr_num("retry_after_ms") > 0.0));
    }

    #[test]
    fn commit_marker_round_trip() {
        let backend: DynBackend = Arc::new(MemoryBackend::new());
        assert!(!is_committed(&backend, "ckpt/step_5").unwrap());
        commit_checkpoint(&backend, "ckpt/step_5").unwrap();
        assert!(is_committed(&backend, "ckpt/step_5").unwrap());
    }
}
