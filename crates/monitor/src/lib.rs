//! # bcp-monitor — performance monitoring and visualization (paper §5.3)
//!
//! "ByteCheckpoint continuously collects critical performance measurements
//! and visualizes them for real-time performance monitoring and analysis."
//!
//! There is one event type, the [`SpanRecord`]: the duration and I/O size of
//! an operation with its rank, path and step, placed in a trace tree. Every
//! other view — counters, heat maps, percentiles, alerts — is derived from
//! spans.
//!
//! * [`span`] — the event: span id + parent id, attributes, point-in-time
//!   events; one save step becomes a navigable trace tree. [`SpanGuard`]s
//!   (the Rust analogue of the paper's context-manager/decorator metrics
//!   syntax) time a scope and emit on drop.
//! * [`MetricsSink`] — a cheap, cloneable handle training/engine threads
//!   start spans from. Spans flow over a background channel (the paper's
//!   message queue) to the [`MetricsHub`].
//! * [`MetricsHub`] — collects spans until they are taken (per step, per
//!   pushed frame). Has a bounded-capacity mode ([`MetricsHub::bounded`])
//!   with a dropped-spans counter for runs that never drain.
//! * [`telemetry`] — the persisted per-step artifact (`_telemetry.jsonl`):
//!   span tree + failure log + drop count per rank, written next to each
//!   committed checkpoint so analysis works offline.
//! * [`analysis`] — the queries: per-rank totals, per-phase breakdowns,
//!   slow I/Os, p50/p95/p99, cross-rank critical-path detection, regression
//!   checks against a rolling baseline.
//! * [`registry`] — the *live* half: a labeled time-series registry
//!   (counters, gauges, bounded-window histograms) that spans fold into
//!   incrementally, rendered as Prometheus exposition text.
//! * [`rules`] — declarative SLO rules over registry series
//!   (`p99:save_stall_ms > 120000`), evaluated on ingest, firing typed
//!   [`AlertEvent`]s.
//! * [`push`] — batched telemetry push: a bounded, drop-not-block
//!   [`TelemetryPump`] turning a rank's span stream into
//!   [`TelemetryFrame`]s for a [`FrameSink`] (the coordinator).
//! * [`report`] — the `bcpctl report` document, text and `--json`.
//! * [`export`] — Chrome trace-event JSON (Perfetto-loadable) and CSV.
//! * [`heatmap`] — the Fig. 11 visualization: a rank-topology heat map of
//!   end-to-end saving time, rendered as ASCII + CSV.
//! * [`breakdown`] — the Fig. 12 visualization: per-phase duration bars for
//!   one rank.

pub mod analysis;
pub mod breakdown;
pub mod export;
pub mod heatmap;
pub mod metrics;
pub mod push;
pub mod registry;
pub mod report;
pub mod rules;
pub mod span;
pub mod stats;
pub mod telemetry;

pub use breakdown::render_breakdown;
pub use heatmap::{render_heatmap, HeatmapSpec};
pub use metrics::{MetricsHub, MetricsSink};
pub use push::{
    CollectingFrameSink, DynFrameSink, FrameSink, PumpConfig, TelemetryFrame, TelemetryPump,
};
pub use registry::{labels, Labels, MetricsRegistry, SeriesSample, SeriesValue};
pub use report::JsonReport;
pub use rules::{AlertEngine, AlertEvent, AlertRule};
pub use span::{enter_context, EnterGuard, SpanContext, SpanEvent, SpanGuard, SpanRecord};
pub use stats::{LatencyAccumulator, LatencySnapshot};
pub use telemetry::{
    FailureRecord, RankTelemetry, StepTelemetry, TELEMETRY_LOAD_FILE, TELEMETRY_SAVE_FILE,
};
