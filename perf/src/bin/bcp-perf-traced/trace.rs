//! Harness-side tracing: in-memory spans around the calls into each layer,
//! and a `StorageBackend` wrapper for the calls the engine makes itself.
//! Nothing here is inside the program; spans there are a later change.

use bytecheckpoint::storage::{DynBackend, Result as StorageResult, StorageBackend};
use bytes::Bytes;
use serde_json::json;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Files as the engine hands them to storage: (name, gather segments).
pub type SegmentLists = Vec<(String, Vec<Bytes>)>;

/// Span id; `NO_PARENT` marks a root.
pub type SpanId = u64;
pub const NO_PARENT: SpanId = 0;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    /// The layer entry timed, e.g. `core.plan.local_save_plan`.
    pub op: String,
    /// What it ran on, e.g. a file name or `rank0`.
    pub name: String,
    /// Seconds since the trace began.
    pub start: f64,
    pub end: f64,
    pub rank: usize,
    pub bytes: u64,
    /// Work items: plan items, calls folded into this span, ...
    pub items: u64,
}

pub struct Tracer {
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        })
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("no panic while tracing").push(span);
    }

    /// Time `f` as one span under `parent`. `f` gets the new span's id (to
    /// parent its own children) and returns its output with the bytes and
    /// items it worked on. Returns the output and the span's seconds.
    pub fn span<T>(
        &self,
        parent: SpanId,
        op: &str,
        name: &str,
        rank: usize,
        f: impl FnOnce(SpanId) -> (T, u64, u64),
    ) -> (T, f64) {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = self.now();
        let (out, bytes, items) = f(id);
        let end = self.now();
        self.push(Span {
            id,
            parent,
            op: op.into(),
            name: name.into(),
            start,
            end,
            rank,
            bytes,
            items,
        });
        (out, end - start)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("no panic while tracing").clone()
    }

    /// Seconds of `root` that its children cover (union of their intervals,
    /// clipped to the root): `duration − covered` is the root's self time.
    pub fn covered_s(&self, root: SpanId) -> (f64, f64) {
        let spans = self.spans();
        let r = spans.iter().find(|s| s.id == root).expect("root span recorded");
        let mut kids: Vec<(f64, f64)> = spans
            .iter()
            .filter(|s| s.parent == root)
            .map(|s| (s.start.max(r.start), s.end.min(r.end)))
            .filter(|(a, b)| b > a)
            .collect();
        kids.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
        let (mut covered, mut edge) = (0.0, r.start);
        for (a, b) in kids {
            if b > edge {
                covered += b - a.max(edge);
                edge = b;
            }
        }
        (covered, r.end - r.start)
    }

    /// Write every span as JSON; returns the file's size.
    pub fn write(&self, path: &Path, workload: &str) -> std::io::Result<u64> {
        let spans: Vec<_> = self
            .spans()
            .iter()
            .map(|s| {
                json!({
                    "id": s.id, "parent": s.parent, "op": s.op, "name": s.name,
                    "start": s.start, "end": s.end, "rank": s.rank,
                    "bytes": s.bytes, "items": s.items,
                })
            })
            .collect();
        let text =
            format!("{:#}\n", json!({"workload": workload, "time_unit": "s", "spans": spans}));
        std::fs::write(path, &text)?;
        Ok(text.len() as u64)
    }
}

/// Calls of one storage op on one object, folded: recording each
/// `read_range` of a many-tensor load as its own span is what made this
/// benchmark's predecessor write 2.95 M spans.
struct Folded {
    first_start: f64,
    last_end: f64,
    calls: u64,
    bytes: u64,
}

/// A `StorageBackend` that records what passes through it. Calls are folded
/// per (op, object) until [`TracingBackend::flush`] turns them into one span
/// each, with the call count in `items`.
pub struct TracingBackend {
    inner: DynBackend,
    tracer: Arc<Tracer>,
    rank: usize,
    folded: Mutex<BTreeMap<(&'static str, String), Folded>>,
    /// When on, `write_segments` keeps (views of) what it was handed.
    tap: Mutex<Option<SegmentLists>>,
}

impl TracingBackend {
    pub fn new(inner: DynBackend, tracer: Arc<Tracer>, rank: usize) -> Arc<TracingBackend> {
        Arc::new(TracingBackend {
            inner,
            tracer,
            rank,
            folded: Mutex::new(BTreeMap::new()),
            tap: Mutex::new(None),
        })
    }

    /// Start keeping the segment lists handed to `write_segments`.
    pub fn tap_segments(&self) {
        *self.tap.lock().expect("no panic while tracing") = Some(Vec::new());
    }

    /// Stop, and return what was kept, by object path.
    pub fn take_segments(&self) -> SegmentLists {
        let mut taken = self.tap.lock().expect("no panic while tracing").take().unwrap_or_default();
        taken.sort_by(|a, b| a.0.cmp(&b.0));
        taken
    }

    /// Emit the folded calls as spans under `parent`; returns how many calls
    /// they stand for.
    pub fn flush(&self, parent: SpanId) -> u64 {
        let folded = std::mem::take(&mut *self.folded.lock().expect("no panic while tracing"));
        let mut calls = 0;
        for ((op, path), f) in folded {
            calls += f.calls;
            self.tracer.push(Span {
                id: self.tracer.next.fetch_add(1, Ordering::Relaxed),
                parent,
                op: format!("storage.{}.{op}", self.inner.name()),
                name: path,
                start: f.first_start,
                end: f.last_end,
                rank: self.rank,
                bytes: f.bytes,
                items: f.calls,
            });
        }
        calls
    }

    /// Run one storage call and fold it; `bytes` reads the payload size
    /// off the call's result.
    fn record<T>(
        &self,
        op: &'static str,
        path: &str,
        call: impl FnOnce() -> StorageResult<T>,
        bytes: impl FnOnce(&T) -> u64,
    ) -> StorageResult<T> {
        let start = self.tracer.now();
        let out = call();
        let end = self.tracer.now();
        let mut folded = self.folded.lock().expect("no panic while tracing");
        let e = folded.entry((op, path.to_string())).or_insert(Folded {
            first_start: start,
            last_end: end,
            calls: 0,
            bytes: 0,
        });
        e.first_start = e.first_start.min(start);
        e.last_end = e.last_end.max(end);
        e.calls += 1;
        e.bytes += out.as_ref().map(bytes).unwrap_or(0);
        out
    }
}

impl StorageBackend for TracingBackend {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn op_attrs(&self) -> Vec<(&'static str, String)> {
        self.inner.op_attrs()
    }

    fn shed_optional_work(&self) -> bool {
        self.inner.shed_optional_work()
    }

    fn zero_copy_reads(&self) -> bool {
        self.inner.zero_copy_reads()
    }

    fn write(&self, path: &str, data: Bytes) -> StorageResult<()> {
        let n = data.len() as u64;
        self.record("write", path, || self.inner.write(path, data), |_| n)
    }

    fn write_segments(&self, path: &str, segments: &[Bytes]) -> StorageResult<()> {
        if let Some(tap) = self.tap.lock().expect("no panic while tracing").as_mut() {
            tap.push((path.to_string(), segments.to_vec()));
        }
        let n = segments.iter().map(|s| s.len() as u64).sum();
        self.record("write_segments", path, || self.inner.write_segments(path, segments), |_| n)
    }

    fn append(&self, path: &str, data: &[u8]) -> StorageResult<()> {
        self.record("append", path, || self.inner.append(path, data), |_| data.len() as u64)
    }

    fn read(&self, path: &str) -> StorageResult<Bytes> {
        self.record("read", path, || self.inner.read(path), |b| b.len() as u64)
    }

    fn read_range(&self, path: &str, offset: u64, len: u64) -> StorageResult<Bytes> {
        self.record("read_range", path, || self.inner.read_range(path, offset, len), |_| len)
    }

    fn size(&self, path: &str) -> StorageResult<u64> {
        self.record("size", path, || self.inner.size(path), |_| 0)
    }

    fn exists(&self, path: &str) -> StorageResult<bool> {
        self.record("exists", path, || self.inner.exists(path), |_| 0)
    }

    fn list(&self, prefix: &str) -> StorageResult<Vec<String>> {
        self.record("list", prefix, || self.inner.list(prefix), |_| 0)
    }

    fn delete(&self, path: &str) -> StorageResult<()> {
        self.record("delete", path, || self.inner.delete(path), |_| 0)
    }

    fn rename(&self, from: &str, to: &str) -> StorageResult<()> {
        self.record("rename", from, || self.inner.rename(from, to), |_| 0)
    }

    fn concat(&self, target: &str, parts: &[String]) -> StorageResult<()> {
        self.record("concat", target, || self.inner.concat(target, parts), |_| 0)
    }
}
