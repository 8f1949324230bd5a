//! The coordinator service: admission + registry + scheduler + telemetry
//! plane behind one transport-agnostic `handle(Request) -> Response` entry
//! point — with durable state (write-ahead journal + snapshots), job
//! leases, and generation fencing so the control plane survives its own
//! crashes and its clients' zombies.

use crate::admission::{AdmissionOutcome, AdmissionPolicy};
use crate::durability::{ControlJournal, ControlRecord, ControlSnapshot, DEFAULT_COMPACT_EVERY};
use crate::plane::{PlaneConfig, TelemetryPlane};
use crate::registry::{GenCheck, HeartbeatOutcome, JobRegistry, JobState};
use crate::scheduler::{FairShareScheduler, SchedulerConfig};
use crate::top::{JobTopRow, TopSnapshot};
use crate::wire::{Request, Response};
use bcp_core::integrity::{RetryClock, SystemClock};
use bcp_monitor::{labels, AlertEvent, FrameSink, Labels, MetricsSink, TelemetryFrame};
use bcp_storage::{assemble, DiskBackend, DynBackend, DynGovernor, StackConfig};
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// How the control plane is wired: admission, scheduling envelope, plane
/// rules, liveness, and durability knobs.
pub struct ServiceOptions {
    /// Admission limits.
    pub policy: AdmissionPolicy,
    /// Scheduler envelope (shared bandwidth, burst, chunking).
    pub scheduler: SchedulerConfig,
    /// Telemetry-plane configuration (SLO rules, ring bounds).
    pub plane: PlaneConfig,
    /// A job whose lease is not renewed (heartbeat, commit, or telemetry)
    /// for this long is marked [`JobState::Lost`] and its scheduler share
    /// is released.
    pub lease_ttl: Duration,
    /// Compact the journal after this many appended records.
    pub compact_every: u64,
    /// The clock leases are measured on (virtual in tests).
    pub clock: Arc<dyn RetryClock>,
}

impl Default for ServiceOptions {
    fn default() -> ServiceOptions {
        ServiceOptions {
            policy: AdmissionPolicy::default(),
            scheduler: SchedulerConfig::default(),
            plane: PlaneConfig::default(),
            lease_ttl: Duration::from_secs(30),
            compact_every: DEFAULT_COMPACT_EVERY,
            clock: Arc::new(SystemClock::default()),
        }
    }
}

/// The checkpoint control plane for one storage domain: decides which jobs
/// may run, tracks their checkpoint traffic, arbitrates the shared storage
/// bandwidth between them, and folds their telemetry into one live plane.
/// With a journal attached ([`CoordinatorService::recover`]) every
/// registration, commit, alert, and lease transition is durably logged
/// before it is acknowledged, so a crashed coordinator restarts into the
/// same `bcpctl jobs` output it died with.
pub struct CoordinatorService {
    policy: AdmissionPolicy,
    registry: JobRegistry,
    scheduler: Arc<FairShareScheduler>,
    plane: TelemetryPlane,
    lease_ttl: Duration,
    journal: Option<ControlJournal>,
    restarts: u64,
}

impl CoordinatorService {
    /// A service enforcing `policy` over a scheduler with envelope `cfg`,
    /// with the default telemetry plane (standing SLO rules).
    pub fn new(policy: AdmissionPolicy, cfg: SchedulerConfig) -> Arc<CoordinatorService> {
        CoordinatorService::with_options(ServiceOptions {
            policy,
            scheduler: cfg,
            ..Default::default()
        })
    }

    /// A service with an explicit telemetry-plane configuration (custom
    /// rules, ring/subscriber bounds).
    pub fn with_plane(
        policy: AdmissionPolicy,
        cfg: SchedulerConfig,
        plane: PlaneConfig,
    ) -> Arc<CoordinatorService> {
        CoordinatorService::with_options(ServiceOptions {
            policy,
            scheduler: cfg,
            plane,
            ..Default::default()
        })
    }

    /// A service with default policy and scheduler envelope.
    pub fn with_defaults() -> Arc<CoordinatorService> {
        CoordinatorService::with_options(ServiceOptions::default())
    }

    /// An in-memory (non-durable) service from explicit options.
    pub fn with_options(opts: ServiceOptions) -> Arc<CoordinatorService> {
        Arc::new(CoordinatorService::build(opts, None, 0))
    }

    /// A durable service journaling onto `backend`. Recovers whatever
    /// state the journal holds (snapshot + WAL replay, tolerating a torn
    /// final line), restores scheduler shares for `Active` jobs, bumps the
    /// restart counter when the journal pre-existed, and compacts so the
    /// recovered state is itself durable.
    pub fn with_journal(
        opts: ServiceOptions,
        backend: DynBackend,
    ) -> io::Result<Arc<CoordinatorService>> {
        let existed = backend
            .exists(crate::durability::SNAPSHOT_FILE)
            .map_err(|e| io::Error::other(e.to_string()))?
            || backend
                .exists(crate::durability::WAL_FILE)
                .map_err(|e| io::Error::other(e.to_string()))?;
        let (journal, snapshot, replay) = ControlJournal::open(backend, opts.compact_every)?;
        let restarts = if existed { snapshot.restarts + 1 } else { 0 };
        let svc = CoordinatorService::build(opts, Some(journal), restarts);
        for snap in snapshot.jobs {
            if snap.state == JobState::Active {
                svc.scheduler.set_weight(&snap.spec.job_id, snap.spec.quota.weight.max(1) as u64);
            }
            svc.registry.restore_job(snap);
        }
        for rec in replay {
            svc.apply_record(rec);
        }
        // Fold the recovered state into a fresh snapshot: the restart
        // count becomes durable and the WAL restarts empty.
        svc.journal.as_ref().expect("journal attached above").compact(svc.snapshot_state())?;
        svc.publish_survivability_series();
        Ok(Arc::new(svc))
    }

    /// A durable service journaling under `path` on disk (the crash-atomic
    /// [`DiskBackend`] discipline). This is what `bcpctl serve --journal`
    /// uses: the first call initialises the directory, later calls recover.
    pub fn recover(
        path: impl AsRef<Path>,
        opts: ServiceOptions,
    ) -> io::Result<Arc<CoordinatorService>> {
        let backend: DynBackend =
            Arc::new(DiskBackend::new(path.as_ref()).map_err(|e| io::Error::other(e.to_string()))?);
        CoordinatorService::with_journal(opts, backend)
    }

    fn build(
        opts: ServiceOptions,
        journal: Option<ControlJournal>,
        restarts: u64,
    ) -> CoordinatorService {
        let svc = CoordinatorService {
            policy: opts.policy,
            registry: JobRegistry::with_clock(opts.clock),
            scheduler: Arc::new(FairShareScheduler::new(opts.scheduler)),
            plane: TelemetryPlane::new(opts.plane),
            lease_ttl: opts.lease_ttl,
            journal,
            restarts,
        };
        svc.publish_survivability_series();
        svc
    }

    /// Initialise (or refresh) the survivability counters so they are
    /// present in `/metrics` from the first scrape, events or not.
    fn publish_survivability_series(&self) {
        let reg = self.plane.registry();
        reg.set("coordinator_restarts_total", Labels::new(), self.restarts as f64);
        let journaled = self.journal.as_ref().map_or(0, |j| j.last_seq());
        reg.set("coordinator_journal_records_total", Labels::new(), journaled as f64);
        for name in [
            "coordinator_lease_expired_total",
            "coordinator_fenced_requests_total",
            "client_reconnects_total",
        ] {
            reg.add(name, Labels::new(), 0.0);
        }
    }

    /// Replay one journal record onto the in-memory state. Replay mutates
    /// the registry and scheduler only — the telemetry plane's live series
    /// are process-local and restart empty; the durable per-job history
    /// (commits, latency window, alert history) is what recovery restores.
    fn apply_record(&self, rec: ControlRecord) {
        match rec {
            ControlRecord::Register { spec, generation, .. } => {
                self.scheduler.set_weight(&spec.job_id, spec.quota.weight.max(1) as u64);
                self.registry.apply_register(spec, generation);
            }
            ControlRecord::Deregister { job_id, .. } => {
                self.scheduler.remove_job(&job_id);
                self.registry.deregister(&job_id);
            }
            ControlRecord::Commit { job_id, step, bytes, wall_ms, commit_seq, .. } => {
                self.registry.record_commit_seq(
                    &job_id,
                    step,
                    bytes,
                    Duration::from_millis(wall_ms),
                    commit_seq,
                );
            }
            ControlRecord::Alert { job_id, alert, .. } => {
                self.registry.record_alert(&job_id, alert);
            }
            ControlRecord::LeaseExpired { job_id, .. } => {
                self.registry.set_state(&job_id, JobState::Lost);
                self.scheduler.remove_job(&job_id);
            }
            ControlRecord::Revived { job_id, .. } => {
                if self.registry.set_state(&job_id, JobState::Active) {
                    if let Some(spec) = self.registry.spec(&job_id) {
                        self.scheduler.set_weight(&job_id, spec.quota.weight.max(1) as u64);
                    }
                }
            }
        }
    }

    /// Durably log `rec` (no-op without a journal). Journal failures are
    /// counted, not fatal: the coordinator keeps serving from memory —
    /// availability over durability, surfaced via
    /// `coordinator_journal_errors_total`.
    fn journal_append(&self, rec: ControlRecord) {
        let Some(j) = &self.journal else { return };
        match j.append(rec) {
            Ok((_seq, wants_compact)) => {
                self.plane.registry().set(
                    "coordinator_journal_records_total",
                    Labels::new(),
                    j.last_seq() as f64,
                );
                if wants_compact && j.compact(self.snapshot_state()).is_err() {
                    self.plane.registry().add(
                        "coordinator_journal_errors_total",
                        Labels::new(),
                        1.0,
                    );
                }
            }
            Err(_) => {
                self.plane.registry().add("coordinator_journal_errors_total", Labels::new(), 1.0);
            }
        }
    }

    /// The current durable-state dump (journal `last_seq` filled at
    /// compaction time).
    fn snapshot_state(&self) -> ControlSnapshot {
        ControlSnapshot { last_seq: 0, restarts: self.restarts, jobs: self.registry.export_jobs() }
    }

    /// Coordinator restarts recovered from the journal lineage.
    pub fn restarts(&self) -> u64 {
        self.restarts
    }

    /// The registry (read-mostly introspection).
    pub fn registry(&self) -> &JobRegistry {
        &self.registry
    }

    /// The bandwidth scheduler, shared with governed backends.
    pub fn scheduler(&self) -> &Arc<FairShareScheduler> {
        &self.scheduler
    }

    /// The live telemetry plane.
    pub fn plane(&self) -> &TelemetryPlane {
        &self.plane
    }

    /// The scheduler as a type-erased governor.
    pub fn governor(&self) -> DynGovernor {
        self.scheduler.clone()
    }

    /// Wrap `inner` so every byte `job` moves through it is paced by this
    /// service's fair-share scheduler. Governed waits are folded straight
    /// into the plane (`governor_wait_seconds{job}`).
    pub fn governed_backend(&self, job: &str, inner: DynBackend) -> DynBackend {
        let govern = Some((self.governor(), job.to_string(), self.fold_sink(job)));
        assemble(inner, StackConfig { govern, ..StackConfig::default() }).top
    }

    /// A [`MetricsSink`] folding directly into the plane's registry under
    /// `{job}` — the zero-copy path for in-process jobs.
    pub fn fold_sink(&self, job: &str) -> MetricsSink {
        self.plane.fold_sink(labels([("job", job)]))
    }

    /// Prometheus exposition of the plane's series plus the scheduler
    /// ledgers (`scheduler_granted_bytes{job}`, `scheduler_wait_seconds{job}`).
    pub fn metrics_text(&self) -> String {
        self.sweep_leases();
        self.publish_scheduler_gauges();
        self.plane.render_prometheus()
    }

    /// The `bcpctl top` snapshot: registry summaries joined with the
    /// scheduler ledgers and the plane's wait series / active alerts.
    pub fn top_snapshot(&self) -> TopSnapshot {
        self.sweep_leases();
        let granted = self.scheduler.granted_bytes();
        let waited = self.scheduler.waited_seconds();
        let summaries = self.registry.summaries();
        let total_granted: u64 = granted.values().sum();
        // Jobs paced by a *local* governor (remote sims) never touch this
        // service's scheduler; their share falls back to committed bytes.
        let total_committed: u64 = summaries.iter().map(|s| s.bytes_committed).sum();
        let jobs = summaries
            .into_iter()
            .map(|summary| {
                let g = granted.get(&summary.job_id).copied().unwrap_or(0);
                let job_labels = labels([("job", summary.job_id.as_str())]);
                let per_job =
                    |name: &str| self.plane.registry().value(name, &job_labels).unwrap_or(0.0);
                let governor_wait_s = per_job("governor_wait_seconds");
                let read_cache_hit_rate = per_job("read_cache_hit_rate");
                let fanout_peer_bytes = per_job("fanout_peer_bytes_total") as u64;
                let storage_retries = per_job("storage_retries_total") as u64;
                let storage_throttled = per_job("storage_throttled_total") as u64;
                let storage_hedges = per_job("storage_hedges_total") as u64;
                let storage_circuit_open = per_job("storage_circuit_open_total") as u64;
                let storage_brownout = per_job("storage_brownout") > 0.0;
                let bandwidth_share = if total_granted > 0 {
                    g as f64 / total_granted as f64
                } else if total_committed > 0 {
                    summary.bytes_committed as f64 / total_committed as f64
                } else {
                    0.0
                };
                JobTopRow {
                    granted_bytes: g,
                    bandwidth_share,
                    sched_wait_s: waited.get(&summary.job_id).copied().unwrap_or(0.0),
                    governor_wait_s,
                    read_cache_hit_rate,
                    fanout_peer_bytes,
                    storage_retries,
                    storage_throttled,
                    storage_hedges,
                    storage_circuit_open,
                    storage_brownout,
                    summary,
                }
            })
            .collect();
        let sum = |name: &str| self.plane.registry().sum(name) as u64;
        TopSnapshot {
            jobs,
            active_alerts: self.plane.active_alerts(),
            series: self.plane.registry().len(),
            subscriber_dropped: self.plane.subscriber_dropped(),
            restarts: self.restarts,
            journal_records: sum("coordinator_journal_records_total"),
            lease_expired: sum("coordinator_lease_expired_total"),
            fenced_requests: sum("coordinator_fenced_requests_total"),
            client_reconnects: sum("client_reconnects_total"),
        }
    }

    /// Mirror the scheduler's ledgers into the registry as gauges. Kept
    /// separate from the span-derived `governor_wait_seconds` so the two
    /// views (scheduler-side, job-side) stay independently auditable.
    fn publish_scheduler_gauges(&self) {
        for (job, bytes) in self.scheduler.granted_bytes() {
            self.plane.registry().set(
                "scheduler_granted_bytes",
                labels([("job", job.as_str())]),
                bytes as f64,
            );
        }
        for (job, secs) in self.scheduler.waited_seconds() {
            self.plane.registry().set(
                "scheduler_wait_seconds",
                labels([("job", job.as_str())]),
                secs,
            );
        }
    }

    /// Route alerts the plane just fired into the per-job history of every
    /// job named in their labels, journaling each so alert history
    /// survives a restart.
    fn route_alerts(&self, fired: Vec<AlertEvent>) {
        for alert in fired {
            if let Some(job) = alert.labels.get("job").cloned() {
                if self.registry.record_alert(&job, alert.clone()) {
                    self.journal_append(ControlRecord::Alert { seq: 0, job_id: job, alert });
                }
            }
        }
    }

    /// Expire lapsed leases: flip `Active` → `Lost`, release scheduler
    /// shares, journal the transitions, and fire the `lease_expired` rule.
    fn sweep_leases(&self) {
        let expired = self.registry.expire_leases(self.lease_ttl);
        if expired.is_empty() {
            return;
        }
        for job in expired {
            self.scheduler.remove_job(&job);
            self.plane.registry().add(
                "coordinator_lease_expired_total",
                labels([("job", job.as_str())]),
                1.0,
            );
            self.journal_append(ControlRecord::LeaseExpired { seq: 0, job_id: job });
        }
        let fired = self.plane.evaluate();
        self.route_alerts(fired);
    }

    /// Count one fenced request and build the typed rejection.
    fn fenced(&self, job_id: String, stale: u64, current: u64) -> Response {
        self.plane.registry().add(
            "coordinator_fenced_requests_total",
            labels([("job", job_id.as_str())]),
            1.0,
        );
        Response::Fenced { job_id, stale, current }
    }

    /// Serve one request. Infallible by construction: every failure mode
    /// maps onto a typed [`Response`] variant. Every call also sweeps
    /// lapsed leases first, so liveness does not depend on a background
    /// thread.
    pub fn handle(&self, req: Request) -> Response {
        self.sweep_leases();
        match req {
            Request::Register { spec } => {
                let mut outcome = self.policy.decide(
                    &spec,
                    self.registry.len_except(&spec.job_id),
                    self.registry.total_step_bytes_except(&spec.job_id),
                );
                let label = match &outcome {
                    AdmissionOutcome::Admitted { .. } => "admitted",
                    AdmissionOutcome::Backpressure { .. } => "backpressure",
                    AdmissionOutcome::Rejected { .. } => "rejected",
                };
                let fired = self.plane.note_admission(&spec.job_id, label);
                self.route_alerts(fired);
                if let AdmissionOutcome::Admitted { job_id, weight, generation } = &mut outcome {
                    self.scheduler.set_weight(job_id, *weight);
                    *generation = self.registry.register(spec.clone());
                    self.journal_append(ControlRecord::Register {
                        seq: 0,
                        spec,
                        generation: *generation,
                    });
                }
                Response::Admission { outcome }
            }
            Request::Deregister { job_id, generation } => {
                match self.registry.check_generation(&job_id, generation) {
                    GenCheck::Fenced { current } => self.fenced(job_id, generation, current),
                    GenCheck::Unknown => {
                        Response::Error { message: format!("unknown job {job_id:?}") }
                    }
                    GenCheck::Ok => {
                        self.scheduler.remove_job(&job_id);
                        self.registry.deregister(&job_id);
                        self.journal_append(ControlRecord::Deregister { seq: 0, job_id });
                        Response::Ok
                    }
                }
            }
            Request::Heartbeat { job_id, generation, reconnects } => {
                match self.registry.heartbeat(&job_id, generation) {
                    HeartbeatOutcome::Renewed { revived, .. } => {
                        if revived {
                            if let Some(spec) = self.registry.spec(&job_id) {
                                self.scheduler.set_weight(&job_id, spec.quota.weight.max(1) as u64);
                            }
                            self.journal_append(ControlRecord::Revived {
                                seq: 0,
                                job_id: job_id.clone(),
                            });
                        }
                        if reconnects > 0 {
                            self.plane.registry().add(
                                "client_reconnects_total",
                                labels([("job", job_id.as_str())]),
                                reconnects as f64,
                            );
                        }
                        Response::Ok
                    }
                    HeartbeatOutcome::Fenced { current } => {
                        self.fenced(job_id, generation, current)
                    }
                    HeartbeatOutcome::Unknown => {
                        Response::Error { message: format!("unknown job {job_id:?}") }
                    }
                }
            }
            Request::ReportCommit { job_id, step, bytes, wall_ms, generation, seq } => {
                if let GenCheck::Fenced { current } =
                    self.registry.check_generation(&job_id, generation)
                {
                    return self.fenced(job_id, generation, current);
                }
                match self.registry.record_commit_seq(
                    &job_id,
                    step,
                    bytes,
                    Duration::from_millis(wall_ms),
                    seq,
                ) {
                    None => Response::Error { message: format!("unknown job {job_id:?}") },
                    // Replay of a commit already counted: acknowledge
                    // without folding it twice.
                    Some(false) => Response::Ok,
                    Some(true) => {
                        self.journal_append(ControlRecord::Commit {
                            seq: 0,
                            job_id: job_id.clone(),
                            step,
                            bytes,
                            wall_ms,
                            commit_seq: seq,
                        });
                        let fired = self.plane.ingest_commit(&job_id, step, bytes, wall_ms);
                        self.route_alerts(fired);
                        Response::Ok
                    }
                }
            }
            Request::PushTelemetry { frame, generation } => {
                if self.registry.spec(&frame.job).is_none() {
                    return Response::Error { message: format!("unknown job {:?}", frame.job) };
                }
                if let GenCheck::Fenced { current } =
                    self.registry.check_generation(&frame.job, generation)
                {
                    return self.fenced(frame.job, generation, current);
                }
                let max = self.plane.config().max_frame_events;
                if frame.spans.len() > max {
                    return Response::Error {
                        message: format!(
                            "oversized frame: {} events exceeds the {max}-event limit",
                            frame.spans.len()
                        ),
                    };
                }
                if generation != 0 {
                    // Generation-carrying clients number frames per rank;
                    // a reconnect replay folds exactly once.
                    if self.registry.note_frame(&frame.job, frame.rank, frame.seq) == Some(false) {
                        return Response::Ok;
                    }
                } else {
                    // Legacy frames still renew the lease.
                    self.registry.touch(&frame.job);
                }
                let fired = self.plane.ingest_frame(&frame);
                self.route_alerts(fired);
                Response::Ok
            }
            Request::Metrics => Response::Metrics { text: self.metrics_text() },
            Request::Top => Response::Top { top: self.top_snapshot() },
            // Streaming needs a connection to stream onto; the server layer
            // intercepts Subscribe before it ever reaches handle().
            Request::Subscribe { .. } => {
                Response::Error { message: "Subscribe requires a streaming connection".into() }
            }
            Request::Jobs => Response::Jobs { jobs: self.registry.summaries() },
            Request::Status { job_id } => match self.registry.summary(&job_id) {
                Some(job) => Response::Status { job },
                None => Response::Error { message: format!("unknown job {job_id:?}") },
            },
            Request::Ping => Response::Ok,
        }
    }
}

/// In-process frame delivery: sim jobs and embedded sessions push straight
/// into the service without a socket.
impl FrameSink for CoordinatorService {
    fn push_frame(&self, frame: TelemetryFrame) -> bool {
        matches!(self.handle(Request::PushTelemetry { frame, generation: 0 }), Response::Ok)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcp_core::integrity::TestClock;
    use bcp_core::spec::JobSpec;
    use bcp_monitor::SpanRecord;
    use bcp_storage::MemoryBackend;

    fn svc(max_jobs: usize) -> Arc<CoordinatorService> {
        CoordinatorService::new(
            AdmissionPolicy { max_jobs, ..AdmissionPolicy::default() },
            SchedulerConfig::default(),
        )
    }

    fn report(job: &str, step: u64, bytes: u64, wall_ms: u64) -> Request {
        Request::ReportCommit { job_id: job.into(), step, bytes, wall_ms, generation: 0, seq: 0 }
    }

    #[test]
    fn register_report_status_deregister() {
        let s = svc(8);
        let resp = s.handle(Request::Register { spec: JobSpec::new("a", "mem://jobs/a") });
        let Response::Admission { outcome } = resp else { panic!("want Admission, got {resp:?}") };
        assert!(outcome.is_admitted());
        let AdmissionOutcome::Admitted { generation, .. } = outcome else { unreachable!() };
        assert_eq!(generation, 1, "the service stamps the real generation");

        assert_eq!(s.handle(report("a", 9, 128, 3)), Response::Ok);
        let Response::Status { job } = s.handle(Request::Status { job_id: "a".into() }) else {
            panic!("want Status")
        };
        assert_eq!(job.commits, 1);
        assert_eq!(job.last_step, Some(9));

        assert_eq!(
            s.handle(Request::Deregister { job_id: "a".into(), generation: 0 }),
            Response::Ok
        );
        assert!(matches!(s.handle(Request::Status { job_id: "a".into() }), Response::Error { .. }));
    }

    #[test]
    fn admission_backpressure_surfaces_on_the_wire_type() {
        let s = svc(1);
        assert!(matches!(
            s.handle(Request::Register { spec: JobSpec::new("a", "mem://jobs/a") }),
            Response::Admission { outcome: AdmissionOutcome::Admitted { .. } }
        ));
        assert!(matches!(
            s.handle(Request::Register { spec: JobSpec::new("b", "mem://jobs/b") }),
            Response::Admission { outcome: AdmissionOutcome::Backpressure { .. } }
        ));
        // Re-registration of an existing id is not a new slot.
        assert!(matches!(
            s.handle(Request::Register { spec: JobSpec::new("a", "mem://jobs/a") }),
            Response::Admission { outcome: AdmissionOutcome::Admitted { .. } }
        ));
        let Response::Status { job } = s.handle(Request::Status { job_id: "a".into() }) else {
            panic!("want Status")
        };
        assert_eq!(job.generation, 2, "re-registration bumps the generation");
        // Admission outcomes are accounted in the plane.
        let mut l = labels([("job", "b")]);
        l.insert("outcome".into(), "backpressure".into());
        assert_eq!(s.plane().registry().value("admission_total", &l), Some(1.0));
    }

    #[test]
    fn unknown_jobs_are_typed_errors() {
        let s = svc(8);
        assert!(matches!(s.handle(report("nope", 0, 0, 0)), Response::Error { .. }));
        assert!(matches!(
            s.handle(Request::Deregister { job_id: "nope".into(), generation: 0 }),
            Response::Error { .. }
        ));
        assert!(matches!(
            s.handle(Request::Heartbeat { job_id: "nope".into(), generation: 0, reconnects: 0 }),
            Response::Error { .. }
        ));
        assert_eq!(s.handle(Request::Ping), Response::Ok);
    }

    fn frame(job: &str, events: usize) -> TelemetryFrame {
        TelemetryFrame {
            job: job.into(),
            rank: 0,
            seq: 0,
            spans: (0..events)
                .map(|i| SpanRecord {
                    name: "save/upload".into(),
                    step: i as u64,
                    duration: Duration::from_millis(1),
                    io_bytes: 10,
                    counted: true,
                    ..SpanRecord::default()
                })
                .collect(),
            dropped: 0,
        }
    }

    #[test]
    fn telemetry_push_validates_job_and_size() {
        let s = svc(8);
        // Unknown job: typed error, nothing folded.
        assert!(matches!(
            s.handle(Request::PushTelemetry { frame: frame("ghost", 1), generation: 0 }),
            Response::Error { .. }
        ));
        s.handle(Request::Register { spec: JobSpec::new("a", "mem://jobs/a") });
        assert_eq!(
            s.handle(Request::PushTelemetry { frame: frame("a", 3), generation: 0 }),
            Response::Ok
        );
        let base = labels([("job", "a")]);
        assert_eq!(s.plane().registry().value("telemetry_frames_total", &base), Some(1.0));
        // Legacy (generation 0) frames are never seq-deduplicated.
        assert_eq!(
            s.handle(Request::PushTelemetry { frame: frame("a", 3), generation: 0 }),
            Response::Ok
        );
        assert_eq!(s.plane().registry().value("telemetry_frames_total", &base), Some(2.0));
        // Oversized frame: typed error.
        let oversized = s.plane().config().max_frame_events + 1;
        let Response::Error { message } =
            s.handle(Request::PushTelemetry { frame: frame("a", oversized), generation: 0 })
        else {
            panic!("oversized frame must be refused")
        };
        assert!(message.contains("oversized"), "{message}");
    }

    #[test]
    fn generation_carrying_frames_dedup_replays() {
        let s = svc(8);
        s.handle(Request::Register { spec: JobSpec::new("a", "mem://jobs/a") });
        let base = labels([("job", "a")]);
        assert_eq!(
            s.handle(Request::PushTelemetry { frame: frame("a", 2), generation: 1 }),
            Response::Ok
        );
        // Same (rank, seq) again: a reconnect replay, folded once.
        assert_eq!(
            s.handle(Request::PushTelemetry { frame: frame("a", 2), generation: 1 }),
            Response::Ok
        );
        assert_eq!(s.plane().registry().value("telemetry_frames_total", &base), Some(1.0));
    }

    #[test]
    fn commit_alerts_land_in_job_history() {
        let s = svc(8);
        s.handle(Request::Register { spec: JobSpec::new("a", "mem://jobs/a") });
        // Way past the standing save_stall p99 threshold (2 minutes).
        s.handle(report("a", 1, 64, 600_000));
        let Response::Status { job } = s.handle(Request::Status { job_id: "a".into() }) else {
            panic!("want Status")
        };
        assert!(job.alerts_fired >= 1, "{job:?}");
        assert!(job.recent_alerts.iter().any(|a| a.rule == "save_stall"), "{job:?}");
        let top = s.top_snapshot();
        assert!(top.active_alerts.iter().any(|a| a.rule == "save_stall"));
        assert_eq!(top.jobs.len(), 1);
    }

    #[test]
    fn subscribe_via_handle_is_a_typed_error() {
        let s = svc(8);
        assert!(matches!(s.handle(Request::Subscribe { replay: 0 }), Response::Error { .. }));
    }

    #[test]
    fn metrics_text_includes_scheduler_ledgers() {
        let s = svc(8);
        s.handle(Request::Register { spec: JobSpec::new("a", "mem://jobs/a") });
        s.scheduler().set_weight("a", 1);
        s.governor().throttle("a", bcp_storage::OpClass::Write, 1024);
        let text = s.metrics_text();
        assert!(text.contains("scheduler_granted_bytes{job=\"a\"}"), "{text}");
        assert!(text.contains("scheduler_wait_seconds{job=\"a\"}"), "{text}");
        assert!(text.contains("telemetry_dropped_total"), "{text}");
        assert!(text.contains("coordinator_restarts_total"), "{text}");
        assert!(text.contains("coordinator_journal_records_total"), "{text}");
        assert!(text.contains("coordinator_lease_expired_total"), "{text}");
        assert!(text.contains("coordinator_fenced_requests_total"), "{text}");
        assert!(text.contains("client_reconnects_total"), "{text}");
    }

    #[test]
    fn fenced_zombie_commits_are_rejected_and_counted() {
        let s = svc(8);
        s.handle(Request::Register { spec: JobSpec::new("a", "mem://jobs/a") });
        s.handle(Request::Register { spec: JobSpec::new("a", "mem://jobs/a") });
        let resp = s.handle(Request::ReportCommit {
            job_id: "a".into(),
            step: 1,
            bytes: 64,
            wall_ms: 5,
            generation: 1,
            seq: 1,
        });
        assert_eq!(resp, Response::Fenced { job_id: "a".into(), stale: 1, current: 2 });
        let Response::Status { job } = s.handle(Request::Status { job_id: "a".into() }) else {
            panic!("want Status")
        };
        assert_eq!(job.commits, 0, "a fenced commit must never land");
        assert!(s.plane().registry().sum("coordinator_fenced_requests_total") >= 1.0);
        // The current generation proceeds.
        assert_eq!(
            s.handle(Request::ReportCommit {
                job_id: "a".into(),
                step: 1,
                bytes: 64,
                wall_ms: 5,
                generation: 2,
                seq: 1,
            }),
            Response::Ok
        );
    }

    #[test]
    fn commit_seq_replay_is_acknowledged_once() {
        let s = svc(8);
        s.handle(Request::Register { spec: JobSpec::new("a", "mem://jobs/a") });
        let commit = Request::ReportCommit {
            job_id: "a".into(),
            step: 5,
            bytes: 256,
            wall_ms: 7,
            generation: 1,
            seq: 1,
        };
        assert_eq!(s.handle(commit.clone()), Response::Ok);
        assert_eq!(s.handle(commit), Response::Ok, "replay is acknowledged");
        let Response::Status { job } = s.handle(Request::Status { job_id: "a".into() }) else {
            panic!("want Status")
        };
        assert_eq!(job.commits, 1, "but counted exactly once");
        let base = labels([("job", "a")]);
        assert_eq!(s.plane().registry().value("commit_total", &base), Some(1.0));
    }

    #[test]
    fn journaled_service_recovers_registry_and_counters() {
        let backend: DynBackend = Arc::new(MemoryBackend::new());
        let s =
            CoordinatorService::with_journal(ServiceOptions::default(), backend.clone()).unwrap();
        assert_eq!(s.restarts(), 0, "first boot is not a restart");
        s.handle(Request::Register { spec: JobSpec::new("a", "mem://jobs/a").step_bytes(64) });
        s.handle(Request::Register { spec: JobSpec::new("b", "mem://jobs/b") });
        for step in 1..=3 {
            s.handle(Request::ReportCommit {
                job_id: "a".into(),
                step,
                bytes: 100,
                wall_ms: step,
                generation: 1,
                seq: step,
            });
        }
        s.handle(Request::Deregister { job_id: "b".into(), generation: 1 });
        let before = s.registry().summaries();
        drop(s);

        let s2 = CoordinatorService::with_journal(ServiceOptions::default(), backend).unwrap();
        assert_eq!(s2.restarts(), 1);
        let after = s2.registry().summaries();
        assert_eq!(after.len(), 1);
        assert_eq!(after[0].job_id, before[0].job_id);
        assert_eq!(after[0].commits, 3);
        assert_eq!(after[0].last_step, Some(3));
        assert_eq!(after[0].latency, before[0].latency, "exact percentiles survive");
        // The recovered job keeps its scheduler share (weight restored, no
        // grants yet) and traffic flows under it immediately.
        assert_eq!(s2.scheduler().jobs(), vec!["a".to_string()]);
        assert_eq!(s2.scheduler().granted_bytes().get("a"), Some(&0));
        s2.governor().throttle("a", bcp_storage::OpClass::Write, 1024);
        assert_eq!(s2.scheduler().granted_bytes().get("a"), Some(&1024));
        // An in-flight replay from before the crash stays deduplicated.
        assert_eq!(
            s2.handle(Request::ReportCommit {
                job_id: "a".into(),
                step: 3,
                bytes: 100,
                wall_ms: 3,
                generation: 1,
                seq: 3,
            }),
            Response::Ok
        );
        assert_eq!(s2.registry().summary("a").unwrap().commits, 3);
        assert!(s2.metrics_text().contains("coordinator_restarts_total 1"));
    }

    #[test]
    fn lease_expiry_releases_scheduler_share_and_fires_rule() {
        let clock = Arc::new(TestClock::new());
        let opts = ServiceOptions {
            lease_ttl: Duration::from_secs(10),
            clock: clock.clone(),
            ..Default::default()
        };
        let s = CoordinatorService::with_options(opts);
        s.handle(Request::Register { spec: JobSpec::new("a", "mem://jobs/a") });
        clock.advance(Duration::from_secs(11));
        assert_eq!(s.handle(Request::Ping), Response::Ok, "any request sweeps leases");
        assert_eq!(s.registry().state_of("a"), Some(JobState::Lost));
        assert!(!s.scheduler().jobs().contains(&"a".to_string()), "share released");
        assert!(s.plane().registry().sum("coordinator_lease_expired_total") >= 1.0);
        assert!(s.plane().active_alerts().iter().any(|a| a.rule == "lease_expired"));
        // A heartbeat from the (still-current) generation revives it.
        assert_eq!(
            s.handle(Request::Heartbeat { job_id: "a".into(), generation: 1, reconnects: 2 }),
            Response::Ok
        );
        assert_eq!(s.registry().state_of("a"), Some(JobState::Active));
        assert!(s.scheduler().jobs().contains(&"a".to_string()));
        assert_eq!(s.plane().registry().sum("client_reconnects_total"), 2.0);
    }
}
