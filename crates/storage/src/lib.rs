//! # bcp-storage — storage backends for checkpoint persistence
//!
//! The paper's Storage I/O layer "encapsulates different storage backends
//! and manages backend-specific read/write operations and optimizations",
//! with a unified interface toward the execution engine (Fig. 4). This crate
//! provides that interface, [`StorageBackend`], and three kinds of
//! implementation.
//!
//! **Base backends** hold the bytes and implement the trait directly:
//!
//! * [`MemoryBackend`] — in-memory object store. Doubles as the engine's
//!   shared-memory staging area (the paper's `/dev/shm` dump target) and as
//!   Gemini-style in-memory checkpoint storage.
//! * [`DiskBackend`] — real files under a root directory.
//! * [`hdfs::HdfsBackend`] — a simulated HDFS: append-only files, a
//!   NameNode with per-metadata-op latency, QPS throttling and
//!   (configurable) serial vs. parallel concat, an NNProxy metadata cache,
//!   sub-file concatenation (§4.3), and SSD→HDD cool-down tiering (§5.1).
//! * [`object::ObjectStoreBackend`] — a simulated S3-style object store:
//!   multipart uploads, list lag, seeded throttling and outages.
//!
//! **Routers** choose between children: [`fallback::FallbackBackend`] sends
//! writes to a secondary tier once the primary has proven itself broken,
//! the downgrade a `storage/failover` point span in the stack's sink.
//!
//! **Layers** wrap one backend and contain only what they intercept; the
//! forwarding of everything else is written once, in [`layer`]:
//!
//! * [`instrument::InstrumentedBackend`] — one span per data-plane
//!   operation (`storage/<backend>/<op>`).
//! * [`governor::GovernedBackend`] — admits every transfer through a
//!   [`governor::BandwidthGovernor`] tagged with a job name (the
//!   coordinator's cross-job bandwidth scheduling choke point).
//! * [`readcache::ReadCache`] — single-flight coalescing read cache, and
//!   [`readcache::OpCountingBackend`], the read counter its tests measure
//!   with.
//! * [`resilient::ResilientBackend`] — guards each attempt with AIMD
//!   pacing, hedged reads, a circuit breaker and brownout shedding; it
//!   never repeats one (the one retry loop is [`retry::RetryPolicy::run`],
//!   owned by the engine).
//! * [`fault::FaultLayer`] — the one fault injector: seeded failures,
//!   bandwidth/latency profiles (NAS), jitter, scripted stragglers and read
//!   or at-rest corruption, from a declarative schedule.
//! * [`journal::JournalBackend`] — mutation journal that materializes
//!   arbitrary post-crash storage states for the crash-consistency explorer.
//! * [`hot::TieredReadBackend`] — the per-load read-through overlay of the
//!   in-process hot tier ([`hot::HotTier`]) over the cold backend.
//!
//! [`stack::assemble`] is the one place layers are composed, always in the
//! order instrument → govern → cache → fallback → resilient → fault → base
//! (see [`stack`] for why).
//!
//! Paths are slash-separated keys (`checkpoints/step_100/model_3.bin`).
//! URIs (`hdfs://...`, `file://...`, `mem://...`) are parsed by [`uri`] and
//! resolved to a backend by the engine, mirroring "the Engine analyzes the
//! given checkpoint path to determine the appropriate storage backend".

pub mod disk;
pub mod fallback;
pub mod fault;
pub mod governor;
pub mod hdfs;
pub mod hot;
pub mod instrument;
pub mod journal;
pub mod layer;
pub mod memory;
pub mod object;
pub mod readcache;
pub mod resilient;
pub mod retry;
pub mod stack;
pub mod uri;

pub use disk::DiskBackend;
pub use fallback::{FailoverEvent, FallbackBackend};
pub use fault::{Damage, Fault, FaultLayer, FaultRule, OpSet};
pub use governor::{BandwidthGovernor, DynGovernor, GovernedBackend, NoopGovernor, OpClass};
pub use hdfs::{HdfsBackend, HdfsConfig, NameNodeStats};
pub use hot::{HotTier, TierHit, TieredReadBackend};
pub use instrument::InstrumentedBackend;
pub use journal::{JournalBackend, JournalOp};
pub use layer::{Layer, Op, Reply};
pub use memory::MemoryBackend;
pub use object::{ObjectStoreBackend, ObjectStoreConfig, ObjectStoreStats};
pub use readcache::{OpCountingBackend, ReadCache, ReadCacheStats};
pub use resilient::{CircuitState, ResilienceConfig, ResilienceSnapshot, ResilientBackend};
pub use retry::{RetryClock, RetryPolicy, SystemClock, TestClock, Verdict};
pub use stack::{assemble, Stack, StackConfig};
pub use uri::{CheckpointLocation, StorageUri};

use bytes::Bytes;
use std::sync::Arc;

/// Errors produced by storage operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// The object does not exist.
    NotFound(String),
    /// The object already exists and the operation requires it not to.
    AlreadyExists(String),
    /// A read range exceeded the object size.
    RangeOutOfBounds { path: String, size: u64, offset: u64, len: u64 },
    /// Backend-specific I/O failure (message carries detail).
    Io(String),
    /// The operation is not supported by this backend (e.g. random-offset
    /// writes on append-only HDFS).
    Unsupported(&'static str),
    /// Injected failure (failure-injection wrapper).
    Injected { path: String, remaining: u32 },
    /// The backend rejected the request to shed load (S3 `503 SlowDown`):
    /// retry, but not before the server's hint.
    SlowDown { path: String, retry_after_ms: u64 },
    /// The connection dropped mid-request (transient network failure).
    ConnectionReset { path: String },
    /// A resilience circuit breaker is open: the call failed fast without
    /// touching the backend; retry after the cooldown hint.
    CircuitOpen { backend: String, retry_after_ms: u64 },
}

/// Coarse failure classification retry/failover machinery branches on,
/// instead of string-matching error messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageErrorKind {
    /// Transient: retrying the identical call may succeed.
    Retryable,
    /// The server pushed back: retry, but not before `retry_after_ms`.
    Throttled {
        /// Server (or breaker) hint for the earliest useful retry.
        retry_after_ms: u64,
    },
    /// Semantic: retrying the identical call can never succeed.
    Terminal,
}

impl StorageError {
    /// Classify this failure for retry/failover decisions.
    pub fn kind(&self) -> StorageErrorKind {
        match self {
            StorageError::NotFound(_)
            | StorageError::AlreadyExists(_)
            | StorageError::RangeOutOfBounds { .. }
            | StorageError::Unsupported(_) => StorageErrorKind::Terminal,
            StorageError::Io(_)
            | StorageError::Injected { .. }
            | StorageError::ConnectionReset { .. } => StorageErrorKind::Retryable,
            StorageError::SlowDown { retry_after_ms, .. }
            | StorageError::CircuitOpen { retry_after_ms, .. } => {
                StorageErrorKind::Throttled { retry_after_ms: *retry_after_ms }
            }
        }
    }

    /// The classifier [`RetryPolicy::run`] takes for storage operations:
    /// `Terminal` stops at once, `Throttled` retries no earlier than the
    /// server's (or breaker's) hint, `Retryable` follows the schedule.
    pub fn verdict(&self) -> Verdict {
        match self.kind() {
            StorageErrorKind::Terminal => Verdict::Stop,
            StorageErrorKind::Retryable => Verdict::Retry,
            StorageErrorKind::Throttled { retry_after_ms } => {
                Verdict::RetryAfter(std::time::Duration::from_millis(retry_after_ms))
            }
        }
    }
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::NotFound(p) => write!(f, "object not found: {p}"),
            StorageError::AlreadyExists(p) => write!(f, "object already exists: {p}"),
            StorageError::RangeOutOfBounds { path, size, offset, len } => write!(
                f,
                "range [{offset}, {}) out of bounds for {path} (size {size})",
                u128::from(*offset) + u128::from(*len)
            ),
            StorageError::Io(m) => write!(f, "storage I/O error: {m}"),
            StorageError::Unsupported(op) => write!(f, "operation not supported: {op}"),
            StorageError::Injected { path, remaining } => {
                write!(f, "injected failure on {path} ({remaining} more to come)")
            }
            StorageError::SlowDown { path, retry_after_ms } => {
                write!(f, "slow down: {path} throttled, retry after {retry_after_ms}ms")
            }
            StorageError::ConnectionReset { path } => {
                write!(f, "connection reset while transferring {path}")
            }
            StorageError::CircuitOpen { backend, retry_after_ms } => {
                write!(f, "circuit open for backend {backend}, retry after {retry_after_ms}ms")
            }
        }
    }
}

impl std::error::Error for StorageError {}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, StorageError>;

/// The bytes `[offset, offset + len)` of the `size`-byte object at `path`,
/// or `RangeOutOfBounds` when they do not fit. Checked: the offsets come
/// from metadata files, and one near `u64::MAX` must not wrap past `size`.
pub(crate) fn checked_range(
    path: &str,
    size: u64,
    offset: u64,
    len: u64,
) -> Result<std::ops::Range<usize>> {
    match offset.checked_add(len) {
        Some(end) if end <= size => Ok(offset as usize..end as usize),
        _ => Err(StorageError::RangeOutOfBounds { path: path.to_string(), size, offset, len }),
    }
}

/// The unified storage interface between the execution engine and backends.
///
/// Semantics contract:
/// * `write` atomically creates-or-replaces a whole object.
/// * `append` extends an existing object (creating it when absent) — the
///   only mutation HDFS-like backends allow besides whole-object `write`.
/// * `read_range` must be cheap and thread-safe: the engine issues many
///   concurrent ranged reads of one file (§4.3 multi-threaded download).
/// * `concat` merges `parts` (in order) into `target` and removes the
///   parts. Every backend implements it, but only where it is a
///   *metadata-level* operation (HDFS, §4.3 upload path) does it come free:
///   elsewhere it copies the bytes a second time (memory, object store) or
///   reads, rewrites and fsyncs them again (disk). A backend says which it
///   is through `concat_is_metadata_op`, and the engine uploads a file as
///   parts to merge only where that answers `true`.
/// * `rename` is atomic; the engine uses it to commit checkpoints.
pub trait StorageBackend: Send + Sync {
    /// Backend name for monitoring output ("memory", "disk", "hdfs", "nas").
    fn name(&self) -> &str;

    /// Backend-specific attributes attached to every traced operation span
    /// by [`InstrumentedBackend`] (configuration and health a trace reader
    /// needs to interpret timings — tier state, throttle profile, ...).
    fn op_attrs(&self) -> Vec<(&'static str, String)> {
        Vec::new()
    }

    /// Whether this backend (or a resilience wrapper around it) is asking
    /// callers to shed optional work — telemetry artifacts, hot-tier
    /// replication, chunk manifests — so committed saves keep landing under
    /// sustained throttling or outage (brownout mode). Layers forward this
    /// to their inner backend; plain backends never shed.
    fn shed_optional_work(&self) -> bool {
        false
    }

    /// Create or replace the whole object at `path`.
    fn write(&self, path: &str, data: Bytes) -> Result<()>;

    /// Gather-write: create or replace the object at `path` from `segments`
    /// concatenated in order. The engine's single-copy save path hands the
    /// serialized frame headers and the pooled tensor payloads over as
    /// separate segments so backends can write them without the engine ever
    /// concatenating them into one allocation. The default implementation
    /// concatenates once and delegates to [`StorageBackend::write`]; memory
    /// and disk provide native implementations that avoid even that copy.
    fn write_segments(&self, path: &str, segments: &[Bytes]) -> Result<()> {
        let total: usize = segments.iter().map(Bytes::len).sum();
        let mut buf = bytes::BytesMut::with_capacity(total);
        for seg in segments {
            buf.extend_from_slice(seg);
        }
        self.write(path, buf.freeze())
    }

    /// Whether `read_range` returns zero-copy views over one stable parent
    /// allocation per object (true for memory-backed stores). Only when this
    /// contract holds may callers stitch adjacent ranged reads back together
    /// without copying; the default is conservatively `false`.
    fn zero_copy_reads(&self) -> bool {
        false
    }

    /// Whether [`StorageBackend::concat`] relinks blocks instead of moving
    /// bytes (a NameNode metadata operation). Only then does uploading a
    /// large file as concurrently written parts and merging them (§4.3)
    /// beat one gather-write; the default is conservatively `false`.
    fn concat_is_metadata_op(&self) -> bool {
        false
    }

    /// Append to the object at `path`, creating it if absent.
    fn append(&self, path: &str, data: &[u8]) -> Result<()>;

    /// Read the whole object.
    fn read(&self, path: &str) -> Result<Bytes>;

    /// Read `len` bytes starting at `offset`.
    fn read_range(&self, path: &str, offset: u64, len: u64) -> Result<Bytes>;

    /// Object size in bytes.
    fn size(&self, path: &str) -> Result<u64>;

    /// Whether the object exists.
    fn exists(&self, path: &str) -> Result<bool>;

    /// All object paths with the given prefix, sorted.
    fn list(&self, prefix: &str) -> Result<Vec<String>>;

    /// Remove the object.
    fn delete(&self, path: &str) -> Result<()>;

    /// Atomically rename an object.
    fn rename(&self, from: &str, to: &str) -> Result<()>;

    /// Merge `parts` in order into `target`, removing the parts. Cheap only
    /// where [`StorageBackend::concat_is_metadata_op`] says so.
    fn concat(&self, target: &str, parts: &[String]) -> Result<()>;
}

/// Shared, dynamically-dispatched backend handle used across engine threads.
pub type DynBackend = Arc<dyn StorageBackend>;

#[cfg(test)]
pub(crate) mod conformance {
    //! A conformance suite every backend must pass; each backend's tests
    //! call into this with a fresh instance.
    use super::*;

    pub fn run_all(b: &dyn StorageBackend) {
        whole_object_round_trip(b);
        append_semantics(b);
        ranged_reads(b);
        listing_and_delete(b);
        rename_moves(b);
        concat_merges_and_removes_parts(b);
        gather_writes(b);
        concurrent_part_writes_then_concat(b);
        error_cases(b);
    }

    /// The split-upload shape (§4.3): a file's parts are written at the same
    /// moment by different threads, then merged. The parts' names differ only
    /// after the last dot, so a backend that stages writes under a name
    /// derived from the path must derive a distinct one for each.
    fn concurrent_part_writes_then_concat(b: &dyn StorageBackend) {
        let part = |i: usize| -> Vec<Bytes> {
            let body: Vec<u8> = (0..40_000).map(|j| (j * 31 + i * 7) as u8).collect();
            vec![
                Bytes::from(vec![i as u8; 13]),
                Bytes::from(body),
                Bytes::from(vec![0xC0 | i as u8; 4]),
            ]
        };
        let names: Vec<String> = (0..4).map(|i| format!("d/x.bin.part{i}")).collect();
        let gate = std::sync::Barrier::new(names.len());
        std::thread::scope(|s| {
            for (i, name) in names.iter().enumerate() {
                let gate = &gate;
                s.spawn(move || {
                    gate.wait();
                    b.write_segments(name, &part(i)).unwrap();
                });
            }
        });
        b.concat("d/x.bin", &names).unwrap();
        let want: Vec<u8> = (0..4).flat_map(|i| part(i).concat()).collect();
        assert_eq!(&b.read("d/x.bin").unwrap()[..], &want[..]);
        assert_eq!(b.list("d/").unwrap(), vec!["d/x.bin".to_string()]);
    }

    fn gather_writes(b: &dyn StorageBackend) {
        // Multi-segment (including an empty segment) concatenates in order.
        let segs = [Bytes::from_static(b"head"), Bytes::new(), Bytes::from_static(b"payload")];
        b.write_segments("g/multi", &segs).unwrap();
        assert_eq!(&b.read("g/multi").unwrap()[..], b"headpayload");
        // Single segment replaces an existing object.
        b.write_segments("g/multi", &[Bytes::from_static(b"x")]).unwrap();
        assert_eq!(&b.read("g/multi").unwrap()[..], b"x");
        // Empty segment list produces an empty object.
        b.write_segments("g/empty", &[]).unwrap();
        assert!(b.exists("g/empty").unwrap());
        assert_eq!(b.size("g/empty").unwrap(), 0);
    }

    fn whole_object_round_trip(b: &dyn StorageBackend) {
        b.write("a/b/file1", Bytes::from_static(b"hello")).unwrap();
        assert_eq!(&b.read("a/b/file1").unwrap()[..], b"hello");
        assert_eq!(b.size("a/b/file1").unwrap(), 5);
        assert!(b.exists("a/b/file1").unwrap());
        // Overwrite replaces.
        b.write("a/b/file1", Bytes::from_static(b"x")).unwrap();
        assert_eq!(b.size("a/b/file1").unwrap(), 1);
    }

    fn append_semantics(b: &dyn StorageBackend) {
        b.append("app/log", b"one").unwrap();
        b.append("app/log", b"two").unwrap();
        assert_eq!(&b.read("app/log").unwrap()[..], b"onetwo");
    }

    fn ranged_reads(b: &dyn StorageBackend) {
        b.write("r/data", Bytes::from_static(b"0123456789")).unwrap();
        assert_eq!(&b.read_range("r/data", 2, 3).unwrap()[..], b"234");
        assert_eq!(&b.read_range("r/data", 0, 10).unwrap()[..], b"0123456789");
        assert_eq!(&b.read_range("r/data", 9, 1).unwrap()[..], b"9");
        assert!(matches!(b.read_range("r/data", 8, 5), Err(StorageError::RangeOutOfBounds { .. })));
        // An offset whose end overflows u64 is out of bounds too, not a
        // wrapped range and not a panic.
        let wrapped = b.read_range("r/data", u64::MAX, 2).unwrap_err();
        assert!(matches!(wrapped, StorageError::RangeOutOfBounds { .. }), "{wrapped}");
        assert!(wrapped.to_string().contains(&format!("{})", u128::from(u64::MAX) + 2)));
    }

    fn listing_and_delete(b: &dyn StorageBackend) {
        b.write("l/x/1", Bytes::from_static(b"a")).unwrap();
        b.write("l/x/2", Bytes::from_static(b"b")).unwrap();
        b.write("l/y/3", Bytes::from_static(b"c")).unwrap();
        assert_eq!(b.list("l/x/").unwrap(), vec!["l/x/1".to_string(), "l/x/2".to_string()]);
        assert_eq!(b.list("l/").unwrap().len(), 3);
        b.delete("l/x/1").unwrap();
        assert!(!b.exists("l/x/1").unwrap());
        assert!(matches!(b.delete("l/x/1"), Err(StorageError::NotFound(_))));
    }

    fn rename_moves(b: &dyn StorageBackend) {
        b.write("mv/src", Bytes::from_static(b"payload")).unwrap();
        b.rename("mv/src", "mv/dst").unwrap();
        assert!(!b.exists("mv/src").unwrap());
        assert_eq!(&b.read("mv/dst").unwrap()[..], b"payload");
    }

    fn concat_merges_and_removes_parts(b: &dyn StorageBackend) {
        b.write("c/part0", Bytes::from_static(b"AA")).unwrap();
        b.write("c/part1", Bytes::from_static(b"BB")).unwrap();
        b.write("c/part2", Bytes::from_static(b"CC")).unwrap();
        b.concat("c/merged", &["c/part0".into(), "c/part1".into(), "c/part2".into()]).unwrap();
        assert_eq!(&b.read("c/merged").unwrap()[..], b"AABBCC");
        assert!(!b.exists("c/part0").unwrap());
        assert!(!b.exists("c/part2").unwrap());
    }

    fn error_cases(b: &dyn StorageBackend) {
        assert!(matches!(b.read("missing"), Err(StorageError::NotFound(_))));
        assert!(matches!(b.size("missing"), Err(StorageError::NotFound(_))));
        assert!(matches!(b.rename("missing", "x"), Err(StorageError::NotFound(_))));
    }
}
