//! Cross-job storage-bandwidth governance.
//!
//! A [`BandwidthGovernor`] is the admission point every governed I/O byte
//! passes through before touching the backend: [`GovernedBackend`] wraps
//! any [`StorageBackend`] and calls [`BandwidthGovernor::throttle`] with
//! the job name, operation class and byte count of each transfer. The
//! governor blocks the calling thread until the transfer may proceed.
//!
//! The trait lives here (not in the coordinator crate) so the storage
//! layer stays the single choke point: the coordinator's weighted-fair
//! scheduler, a test's recording stub, and [`NoopGovernor`] are all just
//! implementations.

use crate::layer::{self, Op, Reply};
use crate::{DynBackend, Result, StorageBackend};
use bcp_monitor::MetricsSink;
use std::sync::Arc;

/// Which side of storage a governed transfer moves bytes on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Data flowing into storage (write, append, upload).
    Write,
    /// Data flowing out of storage (read, ranged read).
    Read,
}

/// Admission point for storage bandwidth: blocks until `bytes` of I/O by
/// `job` may proceed.
///
/// Implementations must be starvation-free: a transfer that waits must
/// eventually be released regardless of competing load (the coordinator's
/// scheduler guarantees this via weighted fair queuing).
pub trait BandwidthGovernor: Send + Sync {
    /// Block the calling thread until `job` may move `bytes` of `op` I/O.
    /// Zero-byte transfers should return immediately.
    fn throttle(&self, job: &str, op: OpClass, bytes: u64);

    /// Name reported in instrumentation attributes.
    fn name(&self) -> &str {
        "governor"
    }
}

/// Shared governor handle.
pub type DynGovernor = Arc<dyn BandwidthGovernor>;

/// A governor that admits everything immediately (the ungoverned default).
pub struct NoopGovernor;

impl BandwidthGovernor for NoopGovernor {
    fn throttle(&self, _job: &str, _op: OpClass, _bytes: u64) {}

    fn name(&self) -> &str {
        "noop"
    }
}

/// A [`StorageBackend`] whose transfers pass through a
/// [`BandwidthGovernor`] tagged with a job name. Metadata operations
/// (list, exists, rename, ...) are not governed — only byte movement.
pub struct GovernedBackend {
    inner: DynBackend,
    governor: DynGovernor,
    job: String,
    sink: MetricsSink,
    rank: usize,
}

impl GovernedBackend {
    /// Wrap `inner` so every transfer by `job` is admitted by `governor`.
    pub fn new(
        inner: DynBackend,
        governor: DynGovernor,
        job: impl Into<String>,
    ) -> GovernedBackend {
        GovernedBackend { inner, governor, job: job.into(), sink: MetricsSink::disabled(), rank: 0 }
    }

    /// Emit a `storage/governed/wait` span into `sink` for every throttle,
    /// timing the token-bucket wait — so scheduler-induced latency shows up
    /// distinctly from backend latency in reports and the live plane.
    /// `rank` is the fallback when a wait happens outside any entered
    /// workflow span.
    pub fn with_sink(mut self, sink: MetricsSink, rank: usize) -> GovernedBackend {
        self.sink = sink;
        self.rank = rank;
        self
    }

    /// The job this backend's transfers are accounted to.
    pub fn job(&self) -> &str {
        &self.job
    }

    /// Admit `bytes` of `op` through the governor, timing the wait.
    fn admit(&self, op: OpClass, bytes: u64) {
        let mut span =
            self.sink.span_in_context("storage/governed/wait", self.rank).uncounted().bytes(bytes);
        span.set_attr("job", self.job.clone());
        span.set_attr("governor", self.governor.name().to_string());
        span.set_attr("class", if op == OpClass::Write { "write" } else { "read" }.to_string());
        self.governor.throttle(&self.job, op, bytes);
    }
}

impl layer::Layer for GovernedBackend {
    fn inner(&self) -> &dyn StorageBackend {
        self.inner.as_ref()
    }

    fn op_attrs(&self) -> Vec<(&'static str, String)> {
        let mut attrs = vec![("governor", self.governor.name().to_string())];
        attrs.extend(self.inner.op_attrs());
        attrs
    }

    fn around<T: Reply>(&self, op: &Op<'_>, call: &mut dyn FnMut() -> Result<T>) -> Result<T> {
        match *op {
            Op::Write { .. } | Op::WriteSegments { .. } | Op::Append { .. } => {
                self.admit(OpClass::Write, op.bytes())
            }
            // Admission before the transfer: governed reads account the size
            // first so a large read cannot overshoot its grant.
            Op::Read { path } => self.admit(OpClass::Read, self.inner.size(path).unwrap_or(0)),
            Op::ReadRange { len, .. } => self.admit(OpClass::Read, len),
            _ => {}
        }
        call()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::MemoryBackend;
    use bytes::Bytes;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Records total throttled bytes per class.
    struct Recording {
        writes: AtomicU64,
        reads: AtomicU64,
    }

    impl BandwidthGovernor for Recording {
        fn throttle(&self, job: &str, op: OpClass, bytes: u64) {
            assert_eq!(job, "j1");
            match op {
                OpClass::Write => self.writes.fetch_add(bytes, Ordering::SeqCst),
                OpClass::Read => self.reads.fetch_add(bytes, Ordering::SeqCst),
            };
        }
    }

    #[test]
    fn throttle_waits_emit_timed_spans_with_job_attr() {
        use bcp_monitor::MetricsHub;

        /// Sleeps a fixed time per admission, standing in for a token bucket.
        struct Sleepy;
        impl BandwidthGovernor for Sleepy {
            fn throttle(&self, _job: &str, _op: OpClass, _bytes: u64) {
                std::thread::sleep(std::time::Duration::from_millis(8));
            }
            fn name(&self) -> &str {
                "sleepy"
            }
        }

        let hub = MetricsHub::new();
        let b = GovernedBackend::new(Arc::new(MemoryBackend::new()), Arc::new(Sleepy), "j9")
            .with_sink(hub.sink(), 3);
        b.write("a", Bytes::from(vec![0u8; 64])).unwrap();
        b.read("a").unwrap();
        let spans = hub.spans();
        let waits: Vec<_> = spans.iter().filter(|s| s.name == "storage/governed/wait").collect();
        assert_eq!(waits.len(), 2);
        for w in &waits {
            assert!(!w.counted, "wait spans are detail, not phase totals");
            assert_eq!(w.attrs["job"], "j9");
            assert_eq!(w.attrs["governor"], "sleepy");
            assert_eq!(w.rank, 3);
            assert!(
                w.duration >= std::time::Duration::from_millis(7),
                "span times the wait: {:?}",
                w.duration
            );
        }
        assert_eq!(waits[0].attrs["class"], "write");
        assert_eq!(waits[1].attrs["class"], "read");
        assert_eq!(waits[0].io_bytes, 64);
    }

    #[test]
    fn transfers_are_accounted_to_the_job() {
        let gov = Arc::new(Recording { writes: AtomicU64::new(0), reads: AtomicU64::new(0) });
        let b = GovernedBackend::new(Arc::new(MemoryBackend::new()), gov.clone(), "j1");
        b.write("a", Bytes::from(vec![0u8; 100])).unwrap();
        b.append("a", &[1u8; 20]).unwrap();
        b.write_segments("b", &[Bytes::from(vec![0u8; 30]), Bytes::from(vec![0u8; 10])]).unwrap();
        assert_eq!(gov.writes.load(Ordering::SeqCst), 160);
        b.read("a").unwrap();
        b.read_range("a", 0, 50).unwrap();
        assert_eq!(gov.reads.load(Ordering::SeqCst), 120 + 50);
        // Metadata ops are ungoverned: nothing further accumulates.
        b.list("").unwrap();
        b.exists("a").unwrap();
        assert_eq!(gov.writes.load(Ordering::SeqCst), 160);
        assert_eq!(gov.reads.load(Ordering::SeqCst), 170);
    }
}
