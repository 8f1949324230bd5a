//! Graceful degradation: a backend wrapper that fails writes over to a
//! secondary tier once the primary has proven itself broken.
//!
//! The paper's Appendix B keeps saves alive with retries; production
//! deployments additionally keep a *hot tier* (e.g. Gemini-style in-memory
//! storage) to absorb durable-tier outages. [`FallbackBackend`] composes the
//! two: write-class operations go to the primary until `threshold` attempts
//! in a row fail (a success in between resets the count), after which the
//! wrapper *trips* — one way — and routes all subsequent writes to the
//! secondary. A failure is one attempt: nothing below this router repeats
//! one (the retry loop is the engine's). The downgrade is recorded as a
//! [`FailoverEvent`] and, given a sink ([`FallbackBackend::with_sink`]),
//! emitted as a `storage/failover` point span under the tripping operation.
//!
//! Reads consult both tiers (the tripped tier first), so a checkpoint whose
//! files straddle the failover boundary still loads.

use crate::{DynBackend, Result, StorageBackend, StorageError, StorageErrorKind};
use bcp_monitor::MetricsSink;
use bytes::Bytes;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

/// A recorded primary→secondary downgrade.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailoverEvent {
    /// Path whose write tripped the failover.
    pub path: String,
    /// Primary-backend failures accumulated before tripping.
    pub failures: u32,
}

/// A write-path failover wrapper: primary until `threshold` write failures
/// in a row, secondary afterwards. See the module docs for the full contract.
pub struct FallbackBackend {
    primary: DynBackend,
    secondary: DynBackend,
    threshold: u32,
    failures: AtomicU32,
    tripped: AtomicBool,
    events: Mutex<Vec<FailoverEvent>>,
    sink: MetricsSink,
    rank: usize,
}

impl FallbackBackend {
    /// Wrap `primary` with `secondary` as the degraded tier, tripping after
    /// 3 failed write attempts in a row (one default retry policy's worth).
    pub fn new(primary: DynBackend, secondary: DynBackend) -> FallbackBackend {
        FallbackBackend::with_threshold(primary, secondary, 3)
    }

    /// Wrap with an explicit failure threshold (must be ≥ 1).
    pub fn with_threshold(
        primary: DynBackend,
        secondary: DynBackend,
        threshold: u32,
    ) -> FallbackBackend {
        FallbackBackend {
            primary,
            secondary,
            threshold: threshold.max(1),
            failures: AtomicU32::new(0),
            tripped: AtomicBool::new(false),
            events: Mutex::new(Vec::new()),
            sink: MetricsSink::disabled(),
            rank: 0,
        }
    }

    /// Emit the trip as a `storage/failover` point span (carrying the path
    /// that tripped it) into `sink`; `rank` stamps it when the write ran
    /// outside any entered workflow span.
    pub fn with_sink(mut self, sink: MetricsSink, rank: usize) -> FallbackBackend {
        self.sink = sink;
        self.rank = rank;
        self
    }

    /// Whether writes are currently routed to the secondary tier.
    pub fn is_degraded(&self) -> bool {
        self.tripped.load(Ordering::Acquire)
    }

    /// Primary-backend write failures in a row (a primary write success
    /// resets the count).
    pub fn failures(&self) -> u32 {
        self.failures.load(Ordering::Relaxed)
    }

    /// The tier writes currently target.
    fn active(&self) -> &DynBackend {
        if self.is_degraded() {
            &self.secondary
        } else {
            &self.primary
        }
    }

    /// All downgrade events recorded (at most one per trip).
    pub fn events(&self) -> Vec<FailoverEvent> {
        self.events.lock().clone()
    }

    /// Run a write-class operation with failover. Before the trip, a failed
    /// primary attempt either returns the error (letting the caller's retry
    /// loop drive the next attempt) or — when this failure reaches the
    /// threshold — trips the wrapper and completes the operation on the
    /// secondary.
    ///
    /// Only a failure that says the tier is *down* counts toward the trip
    /// ([`is_outage_signal`]). Terminal semantic errors like `NotFound`
    /// surface directly (failing over cannot make a missing object appear);
    /// so does a `SlowDown`: the retry loop waits its hint out rather than a
    /// storm's first burst costing the job its durable tier.
    fn write_op<T>(&self, path: &str, op: impl Fn(&dyn StorageBackend) -> Result<T>) -> Result<T> {
        if self.is_degraded() {
            return op(self.secondary.as_ref());
        }
        match op(self.primary.as_ref()) {
            Ok(v) => {
                // The run of failures is over: transients a retry absorbed
                // must not add up, over a job's life, to a trip.
                self.failures.store(0, Ordering::Release);
                Ok(v)
            }
            Err(e) if !is_outage_signal(&e) => Err(e),
            Err(e) => {
                let seen = self.failures.fetch_add(1, Ordering::AcqRel) + 1;
                if seen >= self.threshold && !self.tripped.swap(true, Ordering::AcqRel) {
                    self.events
                        .lock()
                        .push(FailoverEvent { path: path.to_string(), failures: seen });
                    drop(
                        self.sink
                            .span_in_context("storage/failover", self.rank)
                            .uncounted()
                            .path(path),
                    );
                }
                if self.is_degraded() {
                    op(self.secondary.as_ref())
                } else {
                    Err(e)
                }
            }
        }
    }

    /// Run a read-class operation: ask the tier writes currently target
    /// first, then fall back to the other tier so pre-trip files remain
    /// readable after a failover.
    fn read_op<T>(&self, op: impl Fn(&dyn StorageBackend) -> Result<T>) -> Result<T> {
        let (first, second) = if self.is_degraded() {
            (&self.secondary, &self.primary)
        } else {
            (&self.primary, &self.secondary)
        };
        // When both fail, the tier that holds the object has the telling
        // error; the other one only knows it is not there.
        op(first.as_ref()).or_else(|e1| {
            op(second.as_ref()).map_err(|e2| match e1 {
                StorageError::NotFound(_) => e2,
                _ => e1,
            })
        })
    }
}

/// A retryable failure or a breaker's fail-fast rejection: the tier is down,
/// not busy (`SlowDown`) and not asked for something impossible (terminal).
fn is_outage_signal(e: &StorageError) -> bool {
    e.kind() == StorageErrorKind::Retryable || matches!(e, StorageError::CircuitOpen { .. })
}

impl StorageBackend for FallbackBackend {
    fn name(&self) -> &str {
        self.active().name()
    }

    fn op_attrs(&self) -> Vec<(&'static str, String)> {
        let mut attrs = vec![
            ("degraded", self.is_degraded().to_string()),
            ("primary_failures", self.failures().to_string()),
        ];
        attrs.extend(self.active().op_attrs());
        attrs
    }

    fn shed_optional_work(&self) -> bool {
        // Brownout is a property of the tier writes currently land on.
        self.active().shed_optional_work()
    }

    fn write(&self, path: &str, data: Bytes) -> Result<()> {
        self.write_op(path, |b| b.write(path, data.clone()))
    }

    fn write_segments(&self, path: &str, segments: &[Bytes]) -> Result<()> {
        self.write_op(path, |b| b.write_segments(path, segments))
    }

    fn zero_copy_reads(&self) -> bool {
        // Every read of one object is served by one tier (the first that has
        // it), so views stitch exactly when both tiers' views do.
        self.primary.zero_copy_reads() && self.secondary.zero_copy_reads()
    }

    fn concat_is_metadata_op(&self) -> bool {
        // A save's parts may land on either tier, so splitting pays only
        // when merging is free on both.
        self.primary.concat_is_metadata_op() && self.secondary.concat_is_metadata_op()
    }

    fn append(&self, path: &str, data: &[u8]) -> Result<()> {
        self.write_op(path, |b| b.append(path, data))
    }

    fn read(&self, path: &str) -> Result<Bytes> {
        self.read_op(|b| b.read(path))
    }

    fn read_range(&self, path: &str, offset: u64, len: u64) -> Result<Bytes> {
        self.read_op(|b| b.read_range(path, offset, len))
    }

    fn size(&self, path: &str) -> Result<u64> {
        self.read_op(|b| b.size(path))
    }

    // A probe one tier failed to answer is not an answer: a transient
    // failure must reach the caller's retry loop, not read as "absent" (a
    // committed step without its marker, a root without its newest step).
    fn exists(&self, path: &str) -> Result<bool> {
        match (self.primary.exists(path), self.secondary.exists(path)) {
            (Ok(true), _) | (_, Ok(true)) => Ok(true),
            (Err(e), _) | (_, Err(e)) => Err(e),
            _ => Ok(false),
        }
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        let mut all = self.primary.list(prefix)?;
        all.extend(self.secondary.list(prefix)?);
        all.sort();
        all.dedup();
        Ok(all)
    }

    fn delete(&self, path: &str) -> Result<()> {
        // Remove from both tiers; succeed if either held the object.
        let p = self.primary.delete(path);
        let s = self.secondary.delete(path);
        match (p, s) {
            (Err(e), Err(_)) => Err(e),
            _ => Ok(()),
        }
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        self.write_op(from, |b| b.rename(from, to))
    }

    fn concat(&self, target: &str, parts: &[String]) -> Result<()> {
        self.write_op(target, |b| b.concat(target, parts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::MemoryBackend;
    use crate::{Fault, FaultLayer, FaultRule, OpSet};
    use std::sync::Arc;

    fn dead_primary(times: u32) -> DynBackend {
        let rules = vec![FaultRule::new(OpSet::Writes, Fault::Fail { times })];
        Arc::new(FaultLayer::new(Arc::new(MemoryBackend::new()), 0, rules))
    }

    #[test]
    fn trips_after_threshold_and_routes_to_secondary() {
        let secondary: DynBackend = Arc::new(MemoryBackend::new());
        let fb = FallbackBackend::with_threshold(dead_primary(u32::MAX), secondary.clone(), 2);
        let data = Bytes::from_static(b"x");

        // First failure: surfaced so the caller's retry loop sees it.
        assert!(matches!(fb.write("a", data.clone()), Err(StorageError::Injected { .. })));
        assert!(!fb.is_degraded());
        // Second failure reaches the threshold: trip + complete on secondary.
        fb.write("a", data.clone()).unwrap();
        assert!(fb.is_degraded());
        assert!(secondary.exists("a").unwrap());
        assert_eq!(fb.events(), vec![FailoverEvent { path: "a".into(), failures: 2 }]);

        // Subsequent writes go straight to the secondary.
        fb.write("b", data).unwrap();
        assert!(secondary.exists("b").unwrap());
        assert_eq!(fb.events().len(), 1, "trip recorded once");
    }

    #[test]
    fn spaced_out_transients_never_trip_but_a_run_of_failures_does() {
        // Every path's first write fails once (a retry absorbs it); writes
        // under `dead/` never succeed.
        let rules = vec![
            FaultRule::new(OpSet::Writes, Fault::Fail { times: u32::MAX }).on("dead/"),
            FaultRule::new(OpSet::Writes, Fault::Fail { times: 1 }),
        ];
        let primary: DynBackend =
            Arc::new(FaultLayer::new(Arc::new(MemoryBackend::new()), 0, rules));
        let secondary: DynBackend = Arc::new(MemoryBackend::new());
        let fb = FallbackBackend::new(primary.clone(), secondary.clone());
        let data = Bytes::from_static(b"x");
        for i in 0..8 {
            let path = format!("ok/{i}");
            assert!(matches!(fb.write(&path, data.clone()), Err(StorageError::Injected { .. })));
            fb.write(&path, data.clone()).unwrap();
            assert_eq!(fb.failures(), 0, "a primary success ends the run of failures");
            assert!(primary.exists(&path).unwrap());
        }
        assert!(!fb.is_degraded(), "eight absorbed transients are not an outage");
        // Three failures in a row (the default threshold) still trip, one way.
        assert!(fb.write("dead/a", data.clone()).is_err());
        assert!(fb.write("dead/a", data.clone()).is_err());
        fb.write("dead/a", data.clone()).unwrap();
        assert!(fb.is_degraded());
        assert!(secondary.exists("dead/a").unwrap());
        assert_eq!(fb.events(), vec![FailoverEvent { path: "dead/a".into(), failures: 3 }]);
        fb.write("ok/late", data).unwrap();
        assert!(secondary.exists("ok/late").unwrap(), "the trip does not reset");
    }

    #[test]
    fn reads_straddle_the_failover_boundary() {
        let primary: DynBackend = Arc::new(MemoryBackend::new());
        let secondary: DynBackend = Arc::new(MemoryBackend::new());
        let fb = FallbackBackend::with_threshold(primary.clone(), secondary.clone(), 1);
        fb.write("pre", Bytes::from_static(b"old")).unwrap();
        assert!(!fb.is_degraded());

        // Force the trip via a secondary-only write.
        primary.write("sentinel", Bytes::from_static(b"s")).unwrap();
        fb.tripped.store(true, Ordering::Release);
        fb.write("post", Bytes::from_static(b"new")).unwrap();

        assert_eq!(&fb.read("pre").unwrap()[..], b"old");
        assert_eq!(&fb.read("post").unwrap()[..], b"new");
        assert!(fb.exists("pre").unwrap() && fb.exists("post").unwrap());
        let listed = fb.list("p").unwrap();
        assert!(listed.contains(&"pre".to_string()) && listed.contains(&"post".to_string()));
    }

    #[test]
    fn a_probe_one_tier_failed_to_answer_is_an_error_not_an_absence() {
        let once = vec![FaultRule::new(OpSet::Meta, Fault::Fail { times: 1 })];
        let primary: DynBackend = Arc::new(MemoryBackend::new());
        primary.write("step_2/COMPLETE", Bytes::from_static(b"ok")).unwrap();
        let flaky: DynBackend = Arc::new(FaultLayer::new(primary, 0, once));
        let fb = FallbackBackend::new(flaky, Arc::new(MemoryBackend::new()));
        // The first probe of each path fails on the primary; the secondary
        // never held the object, so nothing can vouch for it.
        assert!(matches!(fb.exists("step_2/COMPLETE"), Err(StorageError::Injected { .. })));
        assert!(fb.exists("step_2/COMPLETE").unwrap(), "the retry gets the real answer");
        assert!(matches!(fb.list("step_"), Err(StorageError::Injected { .. })));
        assert_eq!(fb.list("step_").unwrap(), vec!["step_2/COMPLETE".to_string()]);
        assert_eq!(fb.failures(), 0, "probes never count toward the write-path trip");
    }

    #[test]
    fn throttles_and_terminal_errors_do_not_count_toward_the_trip() {
        // A missing source is a semantic error, not an availability signal:
        // failing over cannot make the object appear, so the wrapper must
        // not burn its failure budget on it.
        let fb = FallbackBackend::with_threshold(
            Arc::new(MemoryBackend::new()),
            Arc::new(MemoryBackend::new()),
            1,
        );
        assert!(matches!(fb.rename("missing", "x"), Err(StorageError::NotFound(_))));
        assert!(matches!(fb.rename("missing", "x"), Err(StorageError::NotFound(_))));
        assert!(!fb.is_degraded());
        assert_eq!(fb.failures(), 0);

        // A throttling primary is alive: its hint is the retry loop's to wait
        // out, while a breaker's fail-fast rejection is an outage signal.
        let clock = Arc::new(crate::TestClock::new());
        let cfg =
            crate::ObjectStoreConfig { qps_limit: Some(1.0), capacity: 1.0, ..Default::default() };
        let store: DynBackend = Arc::new(crate::ObjectStoreBackend::with_clock(cfg, clock));
        let fb = FallbackBackend::with_threshold(store, Arc::new(MemoryBackend::new()), 1);
        fb.write("a", Bytes::from_static(b"x")).unwrap();
        for _ in 0..3 {
            assert!(matches!(
                fb.write("b", Bytes::from_static(b"x")),
                Err(StorageError::SlowDown { .. })
            ));
        }
        assert!(!fb.is_degraded() && fb.failures() == 0, "a storm is not an outage");
    }

    #[test]
    fn the_trip_is_one_failover_span_carrying_the_path() {
        let hub = bcp_monitor::MetricsHub::new();
        let fb = FallbackBackend::with_threshold(
            dead_primary(u32::MAX),
            Arc::new(MemoryBackend::new()),
            1,
        )
        .with_sink(hub.sink(), 7);
        fb.write("a", Bytes::from_static(b"1")).unwrap();
        fb.write("b", Bytes::from_static(b"2")).unwrap();
        let spans = hub.spans();
        assert_eq!(spans.len(), 1, "emitted once, at the trip: {spans:?}");
        let s = &spans[0];
        assert_eq!((s.name.as_str(), s.rank, s.counted), ("storage/failover", 7, false));
        assert_eq!(s.path.as_deref(), Some("a"));
    }
}
