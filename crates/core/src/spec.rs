//! The service-consumable job surface: a serializable [`JobSpec`] naming
//! everything a control plane must know to admit and schedule a training
//! job's checkpoint traffic, and the per-rank [`Session`] that turns an
//! admitted spec into a live [`Checkpointer`].
//!
//! Library callers keep using [`Checkpointer::builder`] directly; the
//! `bcp-coordinator` daemon, its simulated jobs, and the wire protocol all
//! speak `JobSpec` — the spec *is* the redesigned construction path, not a
//! parallel one: [`Session::open`] routes through the same builder.

use crate::api::{Checkpointer, LoadOutcome, LoadRequest, LoaderTarget, SaveRequest};
use crate::hottier::HotTierConfig;
use crate::registry::BackendRegistry;
use crate::workflow::SaveTicket;
use crate::{BcpError, Result};
use bcp_collectives::Communicator;
use bcp_model::{Framework, TrainState};
use bcp_monitor::{DynFrameSink, MetricsSink, PumpConfig, TelemetryPump};
use bcp_storage::CheckpointLocation;
use bcp_topology::Parallelism;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Checkpoint-traffic quotas a control plane enforces per job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobQuota {
    /// Fair-share weight for storage bandwidth scheduling (≥ 1). A job
    /// with weight 2 is entitled to twice the bandwidth of a job with
    /// weight 1 under contention.
    pub weight: u32,
    /// Committed steps the job may keep on storage (retention).
    pub max_retained_steps: usize,
    /// Upper bound on one step's checkpoint size in bytes; `0` = unlimited.
    /// Admission rejects specs that declare more than this.
    pub max_step_bytes: u64,
}

impl Default for JobQuota {
    fn default() -> JobQuota {
        JobQuota { weight: 1, max_retained_steps: 4, max_step_bytes: 0 }
    }
}

/// Everything the control plane needs to know about one training job's
/// checkpointing: identity, shape, storage root, tiering, and quotas.
///
/// Serializable — this is the unit that crosses the coordinator wire and
/// the argument [`Session::open`] consumes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Unique job identifier (registry key; reused on re-registration
    /// after a crash).
    pub job_id: String,
    /// Training framework whose planner interprets the state dicts.
    pub framework: Framework,
    /// Parallelism configuration of the job.
    pub parallelism: Parallelism,
    /// Checkpoint root URI (steps live under `<root>/step_<N>`).
    pub root: String,
    /// Declared per-step checkpoint footprint in bytes (what admission
    /// checks against [`JobQuota::max_step_bytes`] and capacity planning).
    pub step_bytes: u64,
    /// Hot-tier (peer-replicated recovery) configuration.
    pub hot_tier: HotTierConfig,
    /// Dataloader resharding target for resumes, when the job drives one.
    pub loader_target: Option<LoaderTarget>,
    /// Bandwidth/retention quotas.
    pub quota: JobQuota,
    /// Persist per-step telemetry artifacts next to each checkpoint.
    pub telemetry: bool,
}

impl JobSpec {
    /// A minimal spec: DDP, everything else default.
    pub fn new(job_id: impl Into<String>, root: impl Into<String>) -> JobSpec {
        JobSpec {
            job_id: job_id.into(),
            framework: Framework::Ddp,
            parallelism: Parallelism { tp: 1, dp: 1, pp: 1 },
            root: root.into(),
            step_bytes: 0,
            hot_tier: HotTierConfig::default(),
            loader_target: None,
            quota: JobQuota::default(),
            telemetry: false,
        }
    }

    /// Set the framework.
    pub fn framework(mut self, framework: Framework) -> JobSpec {
        self.framework = framework;
        self
    }

    /// Set the parallelism.
    pub fn parallelism(mut self, parallelism: Parallelism) -> JobSpec {
        self.parallelism = parallelism;
        self
    }

    /// Declare the per-step checkpoint footprint.
    pub fn step_bytes(mut self, bytes: u64) -> JobSpec {
        self.step_bytes = bytes;
        self
    }

    /// Set the hot-tier configuration.
    pub fn hot_tier(mut self, config: impl Into<HotTierConfig>) -> JobSpec {
        self.hot_tier = config.into();
        self
    }

    /// Set the quotas.
    pub fn quota(mut self, quota: JobQuota) -> JobSpec {
        self.quota = quota;
        self
    }

    /// Static validation a control plane runs before admitting the spec.
    pub fn validate(&self) -> Result<()> {
        if self.job_id.is_empty() {
            return Err(BcpError::Plan("JobSpec: job_id must be non-empty".into()));
        }
        if self.job_id.contains(|c: char| c.is_whitespace() || c == '/') {
            return Err(BcpError::Plan(format!(
                "JobSpec: job_id {:?} may not contain whitespace or '/'",
                self.job_id
            )));
        }
        if self.quota.weight == 0 {
            return Err(BcpError::Plan("JobSpec: quota.weight must be ≥ 1".into()));
        }
        if self.quota.max_retained_steps == 0 {
            return Err(BcpError::Plan("JobSpec: quota.max_retained_steps must be ≥ 1".into()));
        }
        // A malformed root should fail registration, not the first save.
        let location: CheckpointLocation = self.root.clone().into();
        if location.uri().key.is_empty() && self.root.is_empty() {
            return Err(BcpError::Plan("JobSpec: root must be non-empty".into()));
        }
        Ok(())
    }

    /// The world size this spec's parallelism implies.
    pub fn world_size(&self) -> usize {
        self.parallelism.world_size()
    }

    /// The checkpoint location of `step` under this spec's root.
    pub fn step_location(&self, step: u64) -> CheckpointLocation {
        let root: CheckpointLocation = self.root.clone().into();
        root.join(&format!("step_{step}"))
    }
}

/// One rank's live checkpointing session for an admitted [`JobSpec`]:
/// a [`Checkpointer`] built from the spec plus the step-naming convention,
/// so service-driven jobs save/resume without hand-assembling locations.
pub struct Session {
    spec: JobSpec,
    ckpt: Checkpointer,
    /// Present when the session streams telemetry ([`Session::open_pushing`]):
    /// dropping the session stops the pump after a final flush.
    pump: Option<TelemetryPump>,
}

impl Session {
    /// Open a session: validate the spec and build this rank's
    /// [`Checkpointer`] from it (same construction path as
    /// [`Checkpointer::builder`]).
    pub fn open(
        spec: JobSpec,
        comm: Communicator,
        registry: Arc<BackendRegistry>,
    ) -> Result<Session> {
        Session::open_with_sink(spec, comm, registry, MetricsSink::disabled())
    }

    /// [`Session::open`] with a caller-provided metrics sink.
    pub fn open_with_sink(
        spec: JobSpec,
        comm: Communicator,
        registry: Arc<BackendRegistry>,
        sink: MetricsSink,
    ) -> Result<Session> {
        spec.validate()?;
        if comm.size() != spec.world_size() {
            return Err(BcpError::Plan(format!(
                "Session::open: spec world size {} != communicator size {}",
                spec.world_size(),
                comm.size()
            )));
        }
        let ckpt = Checkpointer::builder(comm)
            .framework(spec.framework)
            .parallelism(spec.parallelism)
            .registry(registry)
            .hot_tier(spec.hot_tier)
            .telemetry(spec.telemetry)
            .sink(sink)
            .build()?;
        Ok(Session { spec, ckpt, pump: None })
    }

    /// Open a session that streams its telemetry: a background
    /// [`TelemetryPump`] batches this rank's metrics/spans into
    /// [`bcp_monitor::TelemetryFrame`]s delivered to `frames` (an
    /// in-process coordinator service or a wire client). Bounded and
    /// drop-not-block end to end — a slow or dead frame sink never stalls
    /// a save.
    pub fn open_pushing(
        spec: JobSpec,
        comm: Communicator,
        registry: Arc<BackendRegistry>,
        frames: DynFrameSink,
    ) -> Result<Session> {
        let pump =
            TelemetryPump::new(spec.job_id.clone(), comm.rank(), frames, PumpConfig::default());
        let sink = pump.sink();
        let mut session = Session::open_with_sink(spec, comm, registry, sink)?;
        session.pump = Some(pump);
        Ok(session)
    }

    /// Synchronously flush pending telemetry frames (no-op for sessions
    /// opened without a pump).
    pub fn flush_telemetry(&self) {
        if let Some(p) = &self.pump {
            p.flush();
        }
    }

    /// Telemetry frames the sink refused or lost so far (0 for sessions
    /// opened without a pump). A growing count means the session is
    /// operating library-only — the control plane is unreachable — while
    /// saves continue unaffected; the contract is drop-not-block.
    pub fn telemetry_push_failures(&self) -> u64 {
        self.pump.as_ref().map_or(0, |p| p.push_failures())
    }

    /// Whether any telemetry frame has failed to reach the sink — the
    /// session-side signal that the run saw control-plane degradation
    /// (saves never block on it; the library path is fully functional
    /// without a coordinator).
    pub fn telemetry_degraded(&self) -> bool {
        self.telemetry_push_failures() > 0
    }

    /// The spec this session was opened with.
    pub fn spec(&self) -> &JobSpec {
        &self.spec
    }

    /// The underlying checkpointer, for operations the session does not
    /// wrap.
    pub fn checkpointer(&self) -> &Checkpointer {
        &self.ckpt
    }

    /// Save `state` as `step` under the spec's root
    /// (`<root>/step_<step>`).
    pub fn save_step(&self, state: &TrainState, step: u64) -> Result<SaveTicket> {
        self.ckpt.save(&SaveRequest::new(self.spec.step_location(step), state, step))
    }

    /// Load a specific committed step into `state`.
    pub fn load_step(&self, state: &mut TrainState, step: u64) -> Result<LoadOutcome> {
        let mut req = LoadRequest::new(self.spec.step_location(step), state);
        if let Some(t) = self.spec.loader_target {
            req = req.with_loader_target(t);
        }
        self.ckpt.load(&mut req)
    }

    /// Resume: GC torn steps under the spec's root and load the newest
    /// committed one (verified fallback applies). `Ok(None)` = fresh start.
    pub fn load_latest(&self, state: &mut TrainState) -> Result<Option<LoadOutcome>> {
        self.ckpt.load_latest(self.spec.root.clone(), state, self.spec.loader_target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> JobSpec {
        JobSpec::new("llm-7b", "mem://jobs/llm-7b")
            .framework(Framework::Fsdp { zero3: true })
            .parallelism(Parallelism { tp: 2, dp: 2, pp: 1 })
            .step_bytes(1 << 20)
            .hot_tier(HotTierConfig::enabled().replicas(2).gpus_per_host(4))
            .quota(JobQuota { weight: 3, max_retained_steps: 2, max_step_bytes: 1 << 30 })
    }

    #[test]
    fn job_spec_serde_round_trip() {
        let s = spec();
        let json = serde_json::to_string(&s).unwrap();
        let back: JobSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn hot_tier_config_serde_round_trip() {
        let cfg = HotTierConfig::enabled().replicas(2).capacity_steps(5).gpus_per_host(8);
        let json = serde_json::to_string(&cfg).unwrap();
        let back: HotTierConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cfg);
    }

    #[test]
    fn loader_target_serde_round_trip() {
        let t = LoaderTarget::new(6, 2, 3);
        let json = serde_json::to_string(&t).unwrap();
        let back: LoaderTarget = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn validation_rejects_malformed_specs() {
        assert!(spec().validate().is_ok());
        let mut s = spec();
        s.job_id = String::new();
        assert!(s.validate().is_err());
        let mut s = spec();
        s.job_id = "has space".into();
        assert!(s.validate().is_err());
        let mut s = spec();
        s.quota.weight = 0;
        assert!(s.validate().is_err());
        let mut s = spec();
        s.quota.max_retained_steps = 0;
        assert!(s.validate().is_err());
    }

    #[test]
    fn step_location_names_steps_under_the_root() {
        let s = spec();
        assert_eq!(s.step_location(12).uri().to_string(), "mem://jobs/llm-7b/step_12");
    }
}
