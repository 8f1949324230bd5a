//! Integrity guarantee: the retry loop's one storage-path owner, failure
//! logging, and the commit protocol (Appendix B).
//!
//! "A complete checkpoint consists of multiple files stored by different
//! workers. The failure of any single worker can corrupt the entire
//! checkpoint." The protections:
//!
//! * Upload/download **retries**: every storage operation of both
//!   pipelines goes through [`with_retries`], which runs it under
//!   [`RetryPolicy::run`] — the one retry loop in the workspace — and turns
//!   every failed attempt into one [`FailureRecord`] "which records the
//!   exact stage of failure within the checkpoint saving/loading pipelines"
//!   plus, when a retry follows, one `resil/retry` point span (a throttle
//!   adds `resil/throttled` with its `retry_after_ms`), each carrying the
//!   `stage`. The loop is owned here rather than in the storage stack
//!   because the stage is: the layers below shape an attempt and never
//!   repeat one, and what the loop needs from them arrives as a typed error
//!   ([`StorageError::verdict`]) — so attempts per logical operation never
//!   exceed the policy cap, however the stack is assembled.
//! * The [`FailureLog`] carries what the loop needs besides the policy: the
//!   `MetricsSink` its point spans go to and the [`RetryClock`] it waits on
//!   (given the clock the stack runs on, a test's virtual time covers the
//!   backoffs and the injected delays alike).
//! * An **asynchronous tree-based barrier** (provided by
//!   `bcp-collectives`' tree backend) after which the coordinator commits
//!   the checkpoint by writing the global metadata file and a `COMPLETE`
//!   marker. Loads refuse checkpoints without the marker, so a torn save is
//!   never observed as a valid checkpoint; `CheckpointManager::gc_torn`
//!   reclaims the partial files on restart.

use crate::metadata::COMPLETE_MARKER;
use crate::{BcpError, Result};
use bcp_monitor::MetricsSink;
use bcp_storage::retry::site_seed;
use bcp_storage::{DynBackend, StorageError};
use parking_lot::Mutex;
use std::sync::Arc;

pub use bcp_monitor::FailureRecord;
pub use bcp_storage::retry::{RetryClock, RetryPolicy, SystemClock, TestClock, Verdict};

/// Collects [`FailureRecord`]s across engine threads, and carries the clock
/// and the sink [`with_retries`] waits on and reports to.
pub struct FailureLog {
    records: Mutex<Vec<FailureRecord>>,
    clock: Arc<dyn RetryClock>,
    sink: MetricsSink,
}

impl Default for FailureLog {
    fn default() -> FailureLog {
        FailureLog::new()
    }
}

impl FailureLog {
    /// Empty log on the real clock, its point spans going nowhere.
    pub fn new() -> FailureLog {
        FailureLog {
            records: Mutex::new(Vec::new()),
            clock: Arc::new(SystemClock::default()),
            sink: MetricsSink::disabled(),
        }
    }

    /// Wait between attempts on `clock`.
    pub fn with_clock(mut self, clock: Arc<dyn RetryClock>) -> FailureLog {
        self.clock = clock;
        self
    }

    /// Emit the `resil/retry` / `resil/throttled` point spans into `sink`.
    pub fn with_sink(mut self, sink: MetricsSink) -> FailureLog {
        self.sink = sink;
        self
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

/// Run a storage operation under the retry policy — [`RetryPolicy::run`] on
/// the log's clock, classified by [`StorageError::verdict`] (`Terminal`
/// surfaces at once, `Throttled` waits the larger of backoff and hint,
/// `Retryable` follows the schedule) — logging every failed attempt with its
/// pipeline stage. A success adds no allocation, lock or span.
pub fn with_retries<T>(
    policy: RetryPolicy,
    log: &FailureLog,
    rank: usize,
    stage: &str,
    path: Option<&str>,
    op: impl FnMut() -> std::result::Result<T, StorageError>,
) -> Result<T> {
    let observe = |attempt: u32, e: &StorageError, wait: Option<std::time::Duration>| {
        log.log(FailureRecord {
            rank,
            stage: stage.to_string(),
            path: path.map(str::to_string),
            attempt,
            error: e.to_string(),
            retried: wait.is_some(),
        });
        let point = |name| log.sink.span_in_context(name, rank).uncounted().attr("stage", stage);
        if wait.is_some() {
            drop(point("resil/retry"));
        }
        if let Verdict::RetryAfter(hint) = e.verdict() {
            drop(point("resil/throttled").attr("retry_after_ms", hint.as_millis().to_string()));
        }
    };
    policy
        .run(log.clock.as_ref(), site_seed(rank, stage, path), op, StorageError::verdict, observe)
        .map_err(BcpError::Storage)
}

/// Commit a checkpoint: write the `COMPLETE` marker under `prefix`.
/// Called by the coordinator after the integrity barrier has confirmed that
/// every rank finished its uploads.
pub fn commit_checkpoint(backend: &DynBackend, prefix: &str) -> Result<()> {
    backend
        .write(&format!("{prefix}/{COMPLETE_MARKER}"), bytes::Bytes::from_static(b"ok"))
        .map_err(BcpError::Storage)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcp_monitor::MetricsHub;
    use bcp_storage::{Fault, FaultLayer, FaultRule, MemoryBackend, OpSet, StorageBackend};
    use std::time::Duration;

    /// A memory backend whose first `times` writes to each path fail.
    fn failing_writes(times: u32) -> FaultLayer {
        let rules = vec![FaultRule::new(OpSet::Writes, Fault::Fail { times })];
        FaultLayer::new(Arc::new(MemoryBackend::new()), 0, rules)
    }

    /// A log waiting on a virtual clock: no test below sleeps for real.
    fn virtual_log() -> (Arc<TestClock>, FailureLog) {
        let clock = Arc::new(TestClock::new());
        (clock.clone(), FailureLog::new().with_clock(clock))
    }

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    fn doubling(max_attempts: u32) -> RetryPolicy {
        RetryPolicy::exponential(max_attempts, ms(10)).with_jitter(0.0)
    }

    #[test]
    fn retries_absorb_transient_failures_and_log_them() {
        let flaky = failing_writes(2);
        let (clock, log) = virtual_log();
        let data = bytes::Bytes::from_static(b"payload");
        let result = with_retries(
            RetryPolicy::fixed(3, ms(1)),
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
        assert_eq!(clock.sleeps(), vec![ms(1), ms(1)]);
    }

    #[test]
    fn exhausted_retries_surface_the_error() {
        let flaky = failing_writes(10);
        let (_, log) = virtual_log();
        let result =
            with_retries(RetryPolicy::fixed(2, ms(1)), &log, 0, "save/upload", None, || {
                flaky.write("g.bin", bytes::Bytes::new())
            });
        assert!(matches!(result, Err(BcpError::Storage(_))));
        assert_eq!(flaky.injected(), 2, "the cap bounds the backend attempts");
        let recs = log.records();
        assert_eq!(recs.len(), 2);
        assert!(!recs[1].retried);
    }

    #[test]
    fn exponential_backoff_schedule_is_exact_on_a_test_clock() {
        let (clock, log) = virtual_log();
        let result: Result<()> =
            with_retries(doubling(4), &log, 0, "s", None, || Err(StorageError::Io("down".into())));
        assert!(result.is_err());
        assert_eq!(
            clock.sleeps(),
            vec![ms(10), ms(20), ms(40)],
            "3 sleeps between 4 attempts, doubling from the base"
        );
        assert_eq!(clock.now(), ms(70));
        assert_eq!(log.len(), 4);
    }

    #[test]
    fn max_backoff_caps_the_schedule() {
        let policy = RetryPolicy { max_backoff: ms(25), ..doubling(10) };
        assert_eq!(policy.backoff_for(1, 0), ms(10));
        assert_eq!(policy.backoff_for(2, 0), ms(20));
        assert_eq!(policy.backoff_for(3, 0), ms(25));
        assert_eq!(policy.backoff_for(9, 0), ms(25));
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
        let (clock, log) = virtual_log();
        let result: Result<()> =
            with_retries(doubling(10).with_deadline(ms(35)), &log, 0, "s", None, || {
                Err(StorageError::Io("down".into()))
            });
        assert!(result.is_err());
        // 10ms + 20ms fit in the 35ms budget; the third backoff (40ms)
        // would overrun it, so the loop gives up after 3 attempts.
        assert_eq!(clock.sleeps(), vec![ms(10), ms(20)]);
        let recs = log.records();
        assert_eq!(recs.len(), 3);
        assert!(!recs[2].retried);
    }

    #[test]
    fn terminal_errors_are_not_retried() {
        let (clock, log) = virtual_log();
        let mut calls = 0;
        let result: Result<()> = with_retries(
            RetryPolicy::fixed(5, ms(10)),
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
    fn throttle_hints_stretch_the_backoff_and_reach_the_sink_with_their_stage() {
        let hub = MetricsHub::new();
        let (clock, log) = virtual_log();
        let log = log.with_sink(hub.sink());
        let mut calls = 0;
        // Policy backoff is 1ms; the server asks for 250ms. The loop must
        // honor the larger hint.
        let result: Result<()> = with_retries(
            RetryPolicy::fixed(2, ms(1)),
            &log,
            3,
            "save/upload",
            Some("f.bin"),
            || {
                calls += 1;
                Err(StorageError::SlowDown { path: "f.bin".into(), retry_after_ms: 250 })
            },
        );
        assert!(result.is_err());
        assert_eq!(calls, 2);
        assert_eq!(clock.sleeps(), vec![ms(250)]);
        // One `resil/retry` per retry that followed, one `resil/throttled`
        // per throttled attempt carrying the hint; all uncounted points.
        let spans = hub.spans();
        let named = |n: &str| spans.iter().filter(|s| s.name == n).collect::<Vec<_>>();
        assert_eq!((named("resil/retry").len(), named("resil/throttled").len()), (1, 2));
        assert!(named("resil/throttled").iter().all(|s| s.attr_num("retry_after_ms") == 250.0));
        assert!(spans.iter().all(|s| s.attrs["stage"] == "save/upload" && s.rank == 3));
        assert!(spans.iter().all(|s| !s.counted));
    }

    #[test]
    fn a_success_logs_nothing_and_emits_nothing() {
        let hub = MetricsHub::new();
        let log = FailureLog::new().with_sink(hub.sink());
        let v = with_retries(RetryPolicy::default(), &log, 0, "load/read", None, || Ok(7)).unwrap();
        assert_eq!((v, log.len(), hub.spans().len()), (7, 0, 0));
    }

    #[test]
    fn commit_marker_round_trip() {
        let backend: DynBackend = Arc::new(MemoryBackend::new());
        assert!(!backend.exists("ckpt/step_5/COMPLETE").unwrap());
        commit_checkpoint(&backend, "ckpt/step_5").unwrap();
        assert!(backend.exists("ckpt/step_5/COMPLETE").unwrap());
    }
}
