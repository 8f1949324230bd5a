//! # bcp-coordinator — the checkpoint control plane
//!
//! A long-running service arbitrating checkpoint traffic across many
//! concurrent training jobs sharing one storage domain, after
//! ByteCheckpoint's production deployment (NSDI '25 §3): checkpointing is
//! a *fleet* workload, and the storage bottleneck is shared.
//!
//! Pieces, composable without the daemon:
//!
//! * [`JobRegistry`] — which jobs exist, their [`bcp_core::spec::JobSpec`]s,
//!   and per-job commit telemetry ([`registry::JobSummary`]).
//! * [`AdmissionPolicy`] → [`AdmissionOutcome`] — typed admit / backpressure
//!   / reject decisions instead of silent queueing.
//! * [`FairShareScheduler`] — a global token bucket paced by a weighted
//!   start-time fair queue; implements [`bcp_storage::BandwidthGovernor`],
//!   so any job's backend is governed by wrapping it in
//!   [`bcp_storage::GovernedBackend`].
//! * [`CoordinatorService`] — the three above behind one
//!   `handle(Request) -> Response` entry point.
//! * [`CoordinatorServer`] / [`CoordinatorClient`] — JSON-lines-over-TCP
//!   front end (`bcpctl serve` / `bcpctl jobs` / `bcpctl status`), with an
//!   HTTP `GET /metrics` fast path and a streaming subscription mode.
//! * [`TelemetryPlane`] — the live observability half: pushed
//!   [`bcp_monitor::TelemetryFrame`]s and commit reports fold into one
//!   labeled time-series registry, SLO rules fire typed alerts, a bounded
//!   ring feeds `bcpctl top` and subscribers.
//! * [`ControlJournal`] — write-ahead durability for the control plane: the
//!   service journals registry mutations (with periodic snapshot +
//!   compaction) and [`CoordinatorService::recover`] rebuilds jobs, shares,
//!   and alert history after a crash. Jobs hold heartbeat-renewed leases;
//!   re-registration bumps a generation that fences zombie clients, and
//!   [`ReconnectingClient`] self-heals the other side of the wire.
//! * [`simjob::run_sim_job`] — full multi-rank [`bcp_core::spec::Session`]
//!   jobs driven through the governed path, for the contention tests
//!   (`tests/fairness.rs`: the fairness gate).

pub mod admission;
pub mod client;
pub mod durability;
pub mod plane;
pub mod reconnect;
pub mod registry;
pub mod scheduler;
pub mod server;
pub mod service;
pub mod simjob;
pub mod top;
pub mod wire;

pub use admission::{AdmissionOutcome, AdmissionPolicy};
pub use client::{CoordinatorClient, Subscription, WireFrameSink};
pub use durability::{ControlJournal, ControlRecord, ControlSnapshot};
pub use plane::{default_rules, PlaneConfig, PlaneEvent, TelemetryPlane};
pub use reconnect::{is_fenced, ReconnectingClient, ReconnectingFrameSink};
pub use registry::{JobRegistry, JobSnapshot, JobState, JobSummary};
pub use scheduler::{FairShareScheduler, SchedulerConfig};
pub use server::CoordinatorServer;
pub use service::{CoordinatorService, ServiceOptions};
pub use simjob::{run_remote_sim_job, run_sim_job, SimJobReport};
pub use top::{render_top, JobTopRow, TopSnapshot};
pub use wire::{Request, Response};
