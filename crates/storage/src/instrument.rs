//! Span instrumentation for storage backends.
//!
//! [`InstrumentedBackend`] wraps any [`StorageBackend`] and emits one
//! uncounted span per data-plane operation (`storage/<backend>/<op>`),
//! carrying the object path, bytes moved, the backend's [`op_attrs`]
//! (tier state, throttle profile, ...), and the error text on failure.
//! Spans parent themselves under whatever workflow/engine span the calling
//! thread has entered (see `bcp_monitor::span`), so a trace shows exactly
//! which upload issued which write — the paper's §5.3 storage-side view.
//!
//! Metadata-only operations (`exists`, `size`, `list`) are deliberately
//! not traced: the engine issues them in tight loops and the spans would be
//! noise; backends that care (HDFS) meter them in their own stats.
//!
//! [`op_attrs`]: StorageBackend::op_attrs

use crate::layer::{self, Op, Reply};
use crate::{DynBackend, Result, StorageBackend};
use bcp_monitor::MetricsSink;

/// A [`StorageBackend`] layer that traces every data-plane operation.
pub struct InstrumentedBackend {
    inner: DynBackend,
    sink: MetricsSink,
    rank: usize,
}

impl InstrumentedBackend {
    /// Wrap `inner`, emitting spans into `sink`. `rank` is used when an
    /// operation happens outside any entered workflow span.
    pub fn new(inner: DynBackend, sink: MetricsSink, rank: usize) -> InstrumentedBackend {
        InstrumentedBackend { inner, sink, rank }
    }
}

impl layer::Layer for InstrumentedBackend {
    fn inner(&self) -> &dyn StorageBackend {
        self.inner.as_ref()
    }

    fn around<T: Reply>(&self, op: &Op<'_>, call: &mut dyn FnMut() -> Result<T>) -> Result<T> {
        if op.is_probe() {
            return call();
        }
        let mut span = self
            .sink
            .span_in_context(format!("storage/{}/{}", self.inner.name(), op.name()), self.rank)
            .uncounted()
            .path(op.path());
        for (key, value) in self.inner.op_attrs() {
            span.set_attr(key, value);
        }
        match *op {
            Op::WriteSegments { segments, .. } => {
                span.set_attr("segments", segments.len().to_string())
            }
            Op::ReadRange { offset, .. } => span.set_attr("offset", offset.to_string()),
            Op::Rename { to, .. } => span.set_attr("to", to),
            Op::Concat { parts, .. } => span.set_attr("parts", parts.len().to_string()),
            _ => {}
        }
        span.add_bytes(op.bytes());
        let mut result = call();
        match &mut result {
            Ok(reply) => span.add_bytes(reply.payload().map_or(0, |data| data.len() as u64)),
            Err(e) => span.set_attr("error", e.to_string()),
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::MemoryBackend;
    use bcp_monitor::MetricsHub;
    use bytes::Bytes;
    use std::sync::Arc;

    #[test]
    fn ops_emit_uncounted_spans_with_bytes_path_and_parent() {
        let hub = MetricsHub::new();
        let sink = hub.sink();
        let b = InstrumentedBackend::new(Arc::new(MemoryBackend::new()), sink.clone(), 4);
        {
            let phase = sink.span("save/upload", 4, 9);
            let _e = phase.enter();
            b.write("ckpt/f.bin", Bytes::from_static(b"abcdef")).unwrap();
        }
        let err = b.read("ckpt/missing").unwrap_err();
        let spans = hub.spans();
        let write = spans.iter().find(|s| s.name == "storage/memory/write").unwrap();
        assert!(!write.counted);
        assert_eq!(write.io_bytes, 6);
        assert_eq!(write.path.as_deref(), Some("ckpt/f.bin"));
        assert_eq!((write.rank, write.step), (4, 9));
        assert!(write.parent.is_some(), "parented under the entered phase span");
        let read = spans.iter().find(|s| s.name == "storage/memory/read").unwrap();
        assert_eq!(read.parent, None, "no entered context: falls back to a root");
        assert_eq!(read.rank, 4);
        assert_eq!(read.attrs["error"], err.to_string());
    }
}
