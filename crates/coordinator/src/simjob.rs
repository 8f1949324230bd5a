//! Simulated training jobs driven through the control plane: each job is a
//! full multi-rank [`Session`] world whose storage traffic flows through
//! the coordinator's fair-share governor. Used by the contention tests
//! (`tests/fairness.rs`: the fairness gate) and, remotely, by `bcpctl sim`.

use crate::reconnect::{is_fenced, ReconnectingClient, ReconnectingFrameSink};
use crate::service::CoordinatorService;
use crate::wire::{Request, Response};
use bcp_collectives::{Backend, CommWorld};
use bcp_core::integrity::RetryPolicy;
use bcp_core::registry::BackendRegistry;
use bcp_core::spec::{JobSpec, Session};
use bcp_core::{BcpError, Result};
use bcp_model::states::build_train_state;
use bcp_model::{TrainerConfig, TransformerConfig};
use bcp_monitor::{DynFrameSink, PumpConfig, TelemetryPump};
use bcp_storage::uri::Scheme;
use bcp_storage::{assemble, DynBackend, DynGovernor, MemoryBackend, StackConfig};
use parking_lot::Mutex;
use std::net::ToSocketAddrs;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What one simulated job observed end to end.
#[derive(Debug, Clone)]
pub struct SimJobReport {
    /// The job id the report describes.
    pub job_id: String,
    /// Steps committed (each one a full save → commit round).
    pub steps: u64,
    /// Bytes the engine reported persisted across all steps.
    pub bytes: u64,
    /// Per-step commit wall times in milliseconds, in step order.
    pub commit_ms: Vec<f64>,
    /// Commit reports dropped because the coordinator stayed unreachable
    /// past the retry deadline (the job kept training — degraded mode).
    pub skipped_reports: u64,
    /// Control-connection reconnects performed during the run.
    pub reconnects: u64,
}

/// Drive `steps` train → save rounds of `spec`'s world against `service`,
/// with every byte paced by the service's scheduler. The caller must have
/// registered the job (admission is the caller's story); commits are
/// reported back to the service so `bcpctl status` sees the traffic.
///
/// Each job gets its own private in-memory store wrapped in the service's
/// [`bcp_storage::GovernedBackend`] — jobs contend on bandwidth, not data.
pub fn run_sim_job(
    service: &Arc<CoordinatorService>,
    spec: &JobSpec,
    model: &TransformerConfig,
    steps: u64,
) -> Result<SimJobReport> {
    let inner: DynBackend = Arc::new(MemoryBackend::new());
    let governed = service.governed_backend(&spec.job_id, inner);
    let mut reg = BackendRegistry::new();
    reg.register(Scheme::Memory, governed);
    let registry = Arc::new(reg);

    let world_size = spec.world_size();
    let world = CommWorld::new(world_size, Backend::Flat);
    let handles: Vec<_> = (0..world_size)
        .map(|rank| {
            let world = world.clone();
            let registry = registry.clone();
            let spec = spec.clone();
            let model = model.clone();
            let service = service.clone();
            std::thread::spawn(move || -> Result<(u64, Vec<f64>)> {
                let comm = world.communicator(rank)?;
                // Telemetry streams straight into the service's plane: the
                // service is itself a FrameSink, so the pushed frames take
                // the same validated path wire clients use.
                let frames: DynFrameSink = service.clone();
                let session = Session::open_pushing(spec.clone(), comm, registry, frames)?;
                let mut state =
                    build_train_state(&model, spec.framework, spec.parallelism, rank, true);
                let trainer = TrainerConfig::default();
                let mut bytes = 0u64;
                let mut commit_ms = Vec::with_capacity(steps as usize);
                for step in 1..=steps {
                    trainer.run(&mut state, step - 1, 1);
                    let begin = Instant::now();
                    let stats = session.save_step(&state, step)?.wait()?;
                    let wall = begin.elapsed();
                    bytes += stats.bytes;
                    commit_ms.push(wall.as_secs_f64() * 1e3);
                    if rank == 0 {
                        let resp = service.handle(Request::ReportCommit {
                            job_id: spec.job_id.clone(),
                            step,
                            bytes: stats.bytes,
                            wall_ms: wall.as_millis() as u64,
                            generation: 0,
                            seq: 0,
                        });
                        if let Response::Error { message } = resp {
                            return Err(BcpError::Plan(format!(
                                "commit report refused: {message}"
                            )));
                        }
                    }
                }
                session.flush_telemetry();
                Ok((bytes, commit_ms))
            })
        })
        .collect();

    let mut total_bytes = 0u64;
    let mut commit_ms = Vec::new();
    for h in handles {
        let (bytes, ms) =
            h.join().map_err(|_| BcpError::Plan("sim job rank panicked".into()))??;
        total_bytes += bytes;
        // Rank threads see the same commits; keep the slowest observation
        // per step (the commit is not done until every rank is done).
        if commit_ms.is_empty() {
            commit_ms = ms;
        } else {
            for (slot, v) in commit_ms.iter_mut().zip(ms) {
                *slot = slot.max(v);
            }
        }
    }
    Ok(SimJobReport {
        job_id: spec.job_id.clone(),
        steps,
        bytes: total_bytes,
        commit_ms,
        skipped_reports: 0,
        reconnects: 0,
    })
}

fn wire_err(what: &str, e: std::io::Error) -> BcpError {
    BcpError::Plan(format!("{what}: {e}"))
}

/// Retry budget for a sim job's control traffic: a coordinator blip is
/// ridden out with backoff, but a coordinator that stays dead past the
/// deadline flips the client into degraded mode and the job keeps going.
fn sim_control_policy() -> RetryPolicy {
    RetryPolicy::exponential(8, Duration::from_millis(25)).with_deadline(Duration::from_secs(5))
}

/// [`run_sim_job`] against a *remote* coordinator at `addr`: registration,
/// commit reports, and telemetry frames all travel the wire, carried by a
/// self-healing [`ReconnectingClient`] — a coordinator crash mid-run is
/// ridden out by reconnecting and replaying idempotently, and a
/// coordinator that stays dead only costs the job its commit *reports*
/// (counted in [`SimJobReport::skipped_reports`]), never the save path.
/// Storage stays local (each job gets its own in-memory store), optionally
/// paced by `governor` — bandwidth arbitration over TCP would put the
/// coordinator on the save critical path, which the design forbids. When
/// `final_load` is set, every rank reloads the newest step at the end so
/// recovery-tier telemetry (`hot_hit_rate`) flows too.
pub fn run_remote_sim_job(
    addr: impl ToSocketAddrs,
    spec: &JobSpec,
    model: &TransformerConfig,
    steps: u64,
    governor: Option<DynGovernor>,
    final_load: bool,
) -> Result<SimJobReport> {
    let addr = addr
        .to_socket_addrs()
        .map_err(|e| wire_err("resolve coordinator address", e))?
        .next()
        .ok_or_else(|| BcpError::Plan("coordinator address resolved to nothing".into()))?;
    let mut control = ReconnectingClient::new(addr, sim_control_policy())
        .map_err(|e| wire_err("resolve coordinator address", e))?;
    let outcome =
        control.register(spec.clone()).map_err(|e| wire_err("register with coordinator", e))?;
    if !outcome.is_admitted() {
        return Err(BcpError::Plan(format!("job {:?} not admitted: {outcome:?}", spec.job_id)));
    }
    let control = Arc::new(Mutex::new(control));
    let skipped = Arc::new(AtomicU64::new(0));
    // One shared self-healing sink: every rank's pump and the storage
    // layer's governed-wait pump batch into it (it serializes internally).
    let frames: DynFrameSink = Arc::new(
        ReconnectingFrameSink::connect(addr)
            .map_err(|e| wire_err("resolve coordinator address", e))?,
    );
    let storage_pump =
        TelemetryPump::new(spec.job_id.clone(), 0, frames.clone(), PumpConfig::default());

    let inner: DynBackend = Arc::new(MemoryBackend::new());
    let govern = governor.map(|gov| (gov, spec.job_id.clone(), storage_pump.sink()));
    let backend = assemble(inner, StackConfig { govern, ..StackConfig::default() }).top;
    let mut reg = BackendRegistry::new();
    reg.register(Scheme::Memory, backend);
    let registry = Arc::new(reg);

    let world_size = spec.world_size();
    let world = CommWorld::new(world_size, Backend::Flat);
    let handles: Vec<_> = (0..world_size)
        .map(|rank| {
            let world = world.clone();
            let registry = registry.clone();
            let spec = spec.clone();
            let model = model.clone();
            let frames = frames.clone();
            let control = control.clone();
            let skipped = skipped.clone();
            std::thread::spawn(move || -> Result<(u64, Vec<f64>)> {
                let comm = world.communicator(rank)?;
                let session = Session::open_pushing(spec.clone(), comm, registry, frames)?;
                let mut state =
                    build_train_state(&model, spec.framework, spec.parallelism, rank, true);
                let trainer = TrainerConfig::default();
                let mut bytes = 0u64;
                let mut commit_ms = Vec::with_capacity(steps as usize);
                for step in 1..=steps {
                    trainer.run(&mut state, step - 1, 1);
                    let begin = Instant::now();
                    let stats = session.save_step(&state, step)?.wait()?;
                    let wall = begin.elapsed();
                    bytes += stats.bytes;
                    commit_ms.push(wall.as_secs_f64() * 1e3);
                    if rank == 0 {
                        // A commit report must never fail the job: fencing
                        // (a newer incarnation took over) is the one fatal
                        // answer; an unreachable coordinator just means the
                        // report is skipped and training continues.
                        match control.lock().report_commit(
                            step,
                            stats.bytes,
                            wall.as_millis() as u64,
                        ) {
                            Ok(()) => {}
                            Err(e) if is_fenced(&e) => {
                                return Err(wire_err("report commit", e));
                            }
                            Err(_) => {
                                skipped.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                }
                if final_load {
                    session.load_latest(&mut state)?;
                }
                session.flush_telemetry();
                Ok((bytes, commit_ms))
            })
        })
        .collect();

    let mut total_bytes = 0u64;
    let mut commit_ms = Vec::new();
    for h in handles {
        let (bytes, ms) =
            h.join().map_err(|_| BcpError::Plan("sim job rank panicked".into()))??;
        total_bytes += bytes;
        if commit_ms.is_empty() {
            commit_ms = ms;
        } else {
            for (slot, v) in commit_ms.iter_mut().zip(ms) {
                *slot = slot.max(v);
            }
        }
    }
    drop(storage_pump); // final governed-wait flush before the report
    let reconnects = control.lock().reconnects();
    Ok(SimJobReport {
        job_id: spec.job_id.clone(),
        steps,
        bytes: total_bytes,
        commit_ms,
        skipped_reports: skipped.load(Ordering::Relaxed),
        reconnects,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::AdmissionPolicy;
    use crate::scheduler::SchedulerConfig;
    use bcp_model::zoo;

    #[test]
    fn sim_job_commits_and_reports() {
        let service = CoordinatorService::new(
            AdmissionPolicy::default(),
            // Wide-open envelope: this test checks plumbing, not pacing.
            SchedulerConfig { rate_bps: u64::MAX / 4, ..SchedulerConfig::default() },
        );
        let spec = JobSpec::new("sim", "mem://jobs/sim");
        let Response::Admission { outcome } =
            service.handle(Request::Register { spec: spec.clone() })
        else {
            panic!("want Admission")
        };
        assert!(outcome.is_admitted());

        let report = run_sim_job(&service, &spec, &zoo::tiny_gpt(), 2).unwrap();
        assert_eq!(report.steps, 2);
        assert!(report.bytes > 0);
        assert_eq!(report.commit_ms.len(), 2);

        let summary = service.registry().summary("sim").unwrap();
        assert_eq!(summary.commits, 2);
        assert_eq!(summary.last_step, Some(2));
        assert!(service.scheduler().granted_bytes()["sim"] > 0, "traffic was governed");

        // The ranks' pushed telemetry folded into the plane's registry.
        let base = bcp_monitor::labels([("job", "sim")]);
        let frames = service.plane().registry().value("telemetry_frames_total", &base);
        assert!(frames.unwrap_or(0.0) >= 1.0, "pushed frames reached the plane: {frames:?}");
        assert!(
            service.plane().registry().value("governor_wait_seconds", &base).is_some(),
            "governed waits folded into the plane"
        );
        assert_eq!(service.plane().registry().value("commit_total", &base), Some(2.0));
    }
}
