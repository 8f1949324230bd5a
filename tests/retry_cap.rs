//! ROADMAP item 4's gate: in the assembled storage stack, one logical
//! operation is attempted at most as often as the engine's retry policy
//! allows. The loop is written once (`RetryPolicy::run`) and owned by the
//! engine (`integrity::with_retries`); the layers below shape an attempt and
//! never repeat it, so the cap cannot multiply through the stack and every
//! failed attempt is logged exactly once with its stage.

use bytecheckpoint::core::integrity::{with_retries, FailureLog, RetryClock, TestClock};
use bytecheckpoint::prelude::*;
use bytecheckpoint::storage::{
    assemble, Fault, FaultRule, ObjectStoreBackend, ObjectStoreConfig, OpSet, Stack, StackConfig,
};
use std::sync::Arc;
use std::time::Duration;

/// The engine's policy cap.
const K: u64 = 3;

/// The assembled stack and what the engine brings to it.
struct Rig {
    stack: Stack,
    log: FailureLog,
    hub: MetricsHub,
}

/// instrument → [fault →] base on `clock`, and a failure log waiting on the
/// same clock, reporting to the same hub.
fn full_stack(clock: &Arc<TestClock>, base: DynBackend, fault: Option<Vec<FaultRule>>) -> Rig {
    let hub = MetricsHub::new();
    let stack = assemble(
        base,
        StackConfig {
            instrument: Some(hub.sink()),
            fault: fault.map(|rules| (0, rules)),
            clock: Some(clock.clone()),
            ..StackConfig::default()
        },
    );
    let log = FailureLog::new().with_clock(clock.clone()).with_sink(hub.sink());
    Rig { stack, log, hub }
}

/// One logical write of `path` under the engine's loop; returns how often the
/// loop called into the stack.
fn write_under_the_cap(
    stack: &Stack,
    log: &FailureLog,
    path: &str,
) -> (u64, bytecheckpoint::core::Result<()>) {
    let policy = RetryPolicy::fixed(K as u32, Duration::from_millis(1));
    let mut attempts = 0;
    let result = with_retries(policy, log, 0, "save/upload", Some(path), || {
        attempts += 1;
        stack.top.write(path, bytes::Bytes::from_static(b"payload"))
    });
    (attempts, result)
}

/// Spans of `hub` named `name`.
fn named(hub: &MetricsHub, name: &str) -> Vec<bytecheckpoint::monitor::SpanRecord> {
    hub.spans().into_iter().filter(|s| s.name == name).collect()
}

#[test]
fn a_dead_primary_costs_at_most_k_backend_attempts_per_logical_write() {
    let dead = vec![FaultRule::new(OpSet::Writes, Fault::Fail { times: 1000 })];
    let clock = Arc::new(TestClock::new());
    let Rig { stack, log, hub } = full_stack(&clock, Arc::new(MemoryBackend::new()), Some(dead));
    let fault = stack.fault.as_ref().unwrap();

    let (attempts, result) = write_under_the_cap(&stack, &log, "step_1/model_0.bin");

    // One attempt of the loop is one attempt at the backend: the cap holds,
    // and the last error surfaces.
    assert_eq!(attempts, K);
    assert_eq!(fault.injected(), K, "backend attempts for a cap of {K}");
    assert!(result.is_err());
    // Every failed attempt is one record — as many as the instrument layer
    // (outermost) saw fail — and every retry one `resil/retry` point span,
    // each carrying the stage.
    let outermost: Vec<_> =
        hub.spans().into_iter().filter(|s| s.name.ends_with("/write")).collect();
    assert_eq!(outermost.len() as u64, K, "one storage span per attempt");
    let failed = outermost.iter().filter(|s| s.attrs.contains_key("error")).count();
    assert_eq!((log.len() as u64, failed as u64), (K, K));
    assert!(log.records().iter().all(|r| r.stage == "save/upload"));
    assert_eq!(log.records().iter().filter(|r| r.retried).count() as u64, K - 1);
    let retries = named(&hub, "resil/retry");
    assert_eq!(retries.len() as u64, K - 1);
    assert!(retries.iter().all(|s| s.attrs["stage"] == "save/upload" && !s.counted));
    assert_eq!(clock.sleeps(), vec![Duration::from_millis(1); 2], "k - 1 backoffs, virtual");

    // Nothing below the loop remembers the outage: the next logical write
    // costs the same K attempts, no more.
    let (attempts, result) = write_under_the_cap(&stack, &log, "step_1/optimizer_0.bin");
    assert!(result.is_err());
    assert_eq!((attempts, fault.injected()), (K, 2 * K));
}

#[test]
fn a_throttle_storm_costs_at_most_k_requests_per_logical_write() {
    // One token, minted every 4 s: the write after the first is throttled.
    let clock = Arc::new(TestClock::new());
    let store = Arc::new(ObjectStoreBackend::with_clock(
        ObjectStoreConfig { qps_limit: Some(0.25), capacity: 1.0, ..ObjectStoreConfig::default() },
        clock.clone(),
    ));
    let Rig { stack, log, hub } = full_stack(&clock, store.clone(), None);
    let (attempts, result) = write_under_the_cap(&stack, &log, "step_1/a.bin");
    result.unwrap();
    assert_eq!((attempts, store.stats().requests, log.len()), (1, 1, 0), "the calm write");

    let t0 = clock.now();
    let (attempts, result) = write_under_the_cap(&stack, &log, "step_1/b.bin");
    result.expect("the loop waits the hint out; the retry lands on the primary");
    let requests = store.stats().requests - 1;
    assert!(attempts <= K && requests == attempts, "{requests} requests, cap {K}");
    // The throttled attempt is logged once, by the engine, with its stage;
    // its hint is slept on the clock the store computed it on.
    assert_eq!((store.stats().throttled, log.len()), (1, 1));
    assert_eq!(log.len() as u64, attempts - 1, "every failed attempt, nothing else");
    assert_eq!(named(&hub, "resil/retry").len(), log.len());
    let throttled = named(&hub, "resil/throttled");
    assert_eq!(throttled.len(), 1);
    assert_eq!(throttled[0].attrs["stage"], "save/upload");
    let hint = Duration::from_millis(throttled[0].attr_num("retry_after_ms") as u64);
    assert!(hint >= Duration::from_secs(4), "{hint:?}");
    assert_eq!(clock.now() - t0, hint, "one wait: the server's hint");
}
