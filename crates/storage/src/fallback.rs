//! Graceful degradation: a backend wrapper that fails writes over to a
//! secondary tier once the primary has proven itself broken.
//!
//! The paper's Appendix B keeps saves alive with retries; production
//! deployments additionally keep a *hot tier* (e.g. Gemini-style in-memory
//! storage) to absorb durable-tier outages. [`FallbackBackend`] composes the
//! two: write-class operations go to the primary until `threshold` attempts
//! in a row fail (a success in between resets the count), after which the
//! wrapper *trips* — one way — and routes all subsequent writes to the
//! secondary. The downgrade is recorded as a [`FailoverEvent`] and reported
//! to an optional observer so the engine can log it into its `FailureLog`
//! and `MetricsSink`.
//!
//! Reads consult both tiers (the tripped tier first), so a checkpoint whose
//! files straddle the failover boundary still loads.

use crate::{DynBackend, Result, StorageBackend};
use bytes::Bytes;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;

/// A recorded primary→secondary downgrade.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailoverEvent {
    /// Path whose write tripped the failover.
    pub path: String,
    /// Primary-backend failures accumulated before tripping.
    pub failures: u32,
}

/// Callback invoked when the wrapper trips over to the secondary.
pub type FailoverObserver = Arc<dyn Fn(&FailoverEvent) + Send + Sync>;

/// A write-path failover wrapper: primary until `threshold` write failures
/// in a row, secondary afterwards. See the module docs for the full contract.
pub struct FallbackBackend {
    primary: DynBackend,
    secondary: DynBackend,
    threshold: u32,
    failures: AtomicU32,
    tripped: AtomicBool,
    observer: Mutex<Option<FailoverObserver>>,
    events: Mutex<Vec<FailoverEvent>>,
}

impl FallbackBackend {
    /// Wrap `primary` with `secondary` as the degraded tier, tripping after
    /// 3 write failures in a row (one default retry policy's worth of
    /// attempts).
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
            observer: Mutex::new(None),
            events: Mutex::new(Vec::new()),
        }
    }

    /// Install a callback fired (once) at the moment the wrapper trips.
    pub fn set_observer(&self, observer: FailoverObserver) {
        *self.observer.lock() = Some(observer);
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

    /// Run a write-class operation with failover. Before the trip, a primary
    /// failure either returns the error (letting the caller's retry policy
    /// drive the next attempt) or — when this failure reaches the threshold
    /// — trips the wrapper and completes the operation on the secondary.
    ///
    /// Only *availability* failures (retryable or throttled
    /// [`crate::StorageErrorKind`]s — including a resilience wrapper's
    /// fail-fast `CircuitOpen`) count toward the trip; terminal semantic
    /// errors like `NotFound` surface directly, since failing over cannot
    /// make a missing object appear.
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
            Err(e) if e.kind() == crate::StorageErrorKind::Terminal => Err(e),
            Err(e) => {
                let seen = self.failures.fetch_add(1, Ordering::AcqRel) + 1;
                if seen >= self.threshold && !self.tripped.swap(true, Ordering::AcqRel) {
                    let event = FailoverEvent { path: path.to_string(), failures: seen };
                    self.events.lock().push(event.clone());
                    if let Some(obs) = self.observer.lock().clone() {
                        obs(&event);
                    }
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
                crate::StorageError::NotFound(_) => e2,
                _ => e1,
            })
        })
    }
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

    fn exists(&self, path: &str) -> Result<bool> {
        Ok(self.primary.exists(path).unwrap_or(false)
            || self.secondary.exists(path).unwrap_or(false))
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        let mut all = self.primary.list(prefix).unwrap_or_default();
        all.extend(self.secondary.list(prefix).unwrap_or_default());
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
    use crate::{Fault, FaultLayer, FaultRule, OpSet, StorageError};

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
    fn terminal_errors_do_not_count_toward_the_trip() {
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
    }

    #[test]
    fn observer_fires_exactly_once() {
        let fired = Arc::new(AtomicU32::new(0));
        let fb = FallbackBackend::with_threshold(
            dead_primary(u32::MAX),
            Arc::new(MemoryBackend::new()),
            1,
        );
        let counter = fired.clone();
        fb.set_observer(Arc::new(move |_| {
            counter.fetch_add(1, Ordering::Relaxed);
        }));
        fb.write("a", Bytes::from_static(b"1")).unwrap();
        fb.write("b", Bytes::from_static(b"2")).unwrap();
        assert_eq!(fired.load(Ordering::Relaxed), 1);
    }
}
