//! Self-healing coordinator client: [`ReconnectingClient`] wraps
//! [`CoordinatorClient`] with automatic reconnection driven by
//! [`RetryPolicy::run`] — the same loop the engine's storage path runs
//! (backoff, jitter, overall deadline, all testable on a virtual clock) —
//! and idempotent replay of in-flight requests.
//!
//! The replay story: every commit report carries a client-assigned
//! sequence number, assigned *before* the first send attempt, so a report
//! replayed after a reconnect lands with the same seq and the coordinator
//! counts it exactly once. Telemetry frames already carry `(rank, seq)`
//! lineage from the pump, so a generation-carrying replay folds once too.
//!
//! Fencing is terminal: a [`Response::Fenced`] answer means a newer
//! incarnation of the job registered, and this client refuses to retry —
//! the caller gets a typed `PermissionDenied` error.
//!
//! When the retry budget is exhausted the client enters *degraded mode*:
//! each subsequent call runs the policy with `max_attempts: 1` — exactly
//! one quick attempt instead of a full backoff cycle — so a training loop
//! whose coordinator died keeps stepping at full speed (saves never block
//! on control-plane availability). The first successful exchange heals the
//! client back to normal operation.

use crate::admission::AdmissionOutcome;
use crate::client::CoordinatorClient;
use crate::wire::{Request, Response};
use bcp_core::integrity::{RetryClock, RetryPolicy, SystemClock, Verdict};
use bcp_core::spec::JobSpec;
use bcp_monitor::{FrameSink, TelemetryFrame};
use parking_lot::Mutex;
use std::cell::RefCell;
use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn proto_err(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

fn fenced_err(job_id: &str, stale: u64, current: u64) -> io::Error {
    io::Error::new(
        io::ErrorKind::PermissionDenied,
        format!(
            "fenced: job {job_id:?} generation {stale} superseded by {current}; \
             this incarnation must stop talking to the coordinator"
        ),
    )
}

/// True when `err` is the terminal fencing error (the caller should stop,
/// not retry or degrade).
pub fn is_fenced(err: &io::Error) -> bool {
    err.kind() == io::ErrorKind::PermissionDenied && err.to_string().starts_with("fenced:")
}

/// The job identity a [`ReconnectingClient`] re-asserts after a reconnect.
#[derive(Debug, Clone)]
struct JobBinding {
    job_id: String,
    /// Registration generation the coordinator assigned us (0 until the
    /// first successful [`ReconnectingClient::register`]).
    generation: u64,
    /// Kept so an "unknown job" after a journal-less coordinator restart
    /// can be healed by re-registering (adopting the new generation).
    spec: Option<JobSpec>,
}

/// A coordinator client that survives connection loss and coordinator
/// restarts. See the module docs for the replay / fencing / degraded-mode
/// contract.
pub struct ReconnectingClient {
    addr: SocketAddr,
    policy: RetryPolicy,
    clock: Arc<dyn RetryClock>,
    conn: Option<CoordinatorClient>,
    binding: Option<JobBinding>,
    /// Idempotency seq for commit reports; assigned pre-send, monotonic
    /// per client.
    next_seq: u64,
    ever_connected: bool,
    reconnects: u64,
    /// Reconnects not yet folded into the coordinator's
    /// `client_reconnects_total` (carried on the next heartbeat).
    unreported_reconnects: u64,
    degraded: bool,
}

impl ReconnectingClient {
    /// A client for the coordinator at `addr` on the real clock. No I/O
    /// happens until the first call.
    pub fn new(addr: impl ToSocketAddrs, policy: RetryPolicy) -> io::Result<ReconnectingClient> {
        ReconnectingClient::with_clock(addr, policy, Arc::new(SystemClock::default()))
    }

    /// Same, on an injected clock (tests drive the backoff schedule
    /// virtually).
    pub fn with_clock(
        addr: impl ToSocketAddrs,
        policy: RetryPolicy,
        clock: Arc<dyn RetryClock>,
    ) -> io::Result<ReconnectingClient> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| proto_err("coordinator address resolved to nothing".into()))?;
        Ok(ReconnectingClient {
            addr,
            policy,
            clock,
            conn: None,
            binding: None,
            next_seq: 0,
            ever_connected: false,
            reconnects: 0,
            unreported_reconnects: 0,
            degraded: false,
        })
    }

    /// Reconnects performed so far.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Whether the last call exhausted its retry budget (subsequent calls
    /// fast-fail with a single attempt until one succeeds).
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// The registration generation the coordinator currently knows us by
    /// (0 before [`ReconnectingClient::register`]).
    pub fn generation(&self) -> u64 {
        self.binding.as_ref().map_or(0, |b| b.generation)
    }

    /// Register (or re-register) `spec` and bind this client to the job:
    /// the assigned generation rides every subsequent request, and the
    /// spec is kept for self-healing re-registration after a coordinator
    /// that lost its state.
    pub fn register(&mut self, spec: JobSpec) -> io::Result<AdmissionOutcome> {
        let req_spec = spec.clone();
        let resp = self.call(move |_gen| Request::Register { spec: req_spec.clone() })?;
        match resp {
            Response::Admission { outcome } => {
                if let AdmissionOutcome::Admitted { generation, .. } = &outcome {
                    self.binding = Some(JobBinding {
                        job_id: spec.job_id.clone(),
                        generation: *generation,
                        spec: Some(spec),
                    });
                }
                Ok(outcome)
            }
            other => Err(proto_err(format!("unexpected response {other:?}"))),
        }
    }

    /// Renew the lease, folding any unreported reconnects into the
    /// coordinator's `client_reconnects_total`.
    pub fn heartbeat(&mut self) -> io::Result<()> {
        let job_id = self.bound_job()?;
        let delta = self.unreported_reconnects;
        let resp = self.call(move |generation| Request::Heartbeat {
            job_id: job_id.clone(),
            generation,
            reconnects: delta,
        })?;
        match resp {
            Response::Ok => {
                self.unreported_reconnects = self.unreported_reconnects.saturating_sub(delta);
                Ok(())
            }
            Response::Fenced { job_id, stale, current } => Err(fenced_err(&job_id, stale, current)),
            Response::Error { message } => Err(proto_err(message)),
            other => Err(proto_err(format!("unexpected response {other:?}"))),
        }
    }

    /// Report one committed step, replay-safe: the idempotency seq is
    /// assigned before the first attempt, so a retry after a reconnect
    /// cannot double-count. Returns `Ok(())` whether the report was
    /// counted or recognized as a duplicate.
    pub fn report_commit(&mut self, step: u64, bytes: u64, wall_ms: u64) -> io::Result<()> {
        let job_id = self.bound_job()?;
        self.next_seq += 1;
        let seq = self.next_seq;
        let resp = self.call(move |generation| Request::ReportCommit {
            job_id: job_id.clone(),
            step,
            bytes,
            wall_ms,
            generation,
            seq,
        })?;
        match resp {
            Response::Ok => Ok(()),
            Response::Fenced { job_id, stale, current } => Err(fenced_err(&job_id, stale, current)),
            Response::Error { message } => Err(proto_err(message)),
            other => Err(proto_err(format!("unexpected response {other:?}"))),
        }
    }

    /// Push one telemetry frame with this client's generation riding it,
    /// so the coordinator deduplicates reconnect replays by `(rank, seq)`.
    pub fn push_telemetry(&mut self, frame: TelemetryFrame) -> io::Result<()> {
        let resp = self
            .call(move |generation| Request::PushTelemetry { frame: frame.clone(), generation })?;
        match resp {
            Response::Ok => Ok(()),
            Response::Fenced { job_id, stale, current } => Err(fenced_err(&job_id, stale, current)),
            Response::Error { message } => Err(proto_err(message)),
            other => Err(proto_err(format!("unexpected response {other:?}"))),
        }
    }

    /// Deregister the bound job and drop the binding.
    pub fn deregister(&mut self) -> io::Result<()> {
        let job_id = self.bound_job()?;
        let resp = self
            .call(move |generation| Request::Deregister { job_id: job_id.clone(), generation })?;
        match resp {
            Response::Ok => {
                self.binding = None;
                Ok(())
            }
            Response::Fenced { job_id, stale, current } => Err(fenced_err(&job_id, stale, current)),
            Response::Error { message } => Err(proto_err(message)),
            other => Err(proto_err(format!("unexpected response {other:?}"))),
        }
    }

    /// Liveness probe through the retry loop (useful to heal a degraded
    /// client explicitly).
    pub fn ping(&mut self) -> io::Result<()> {
        match self.call(|_gen| Request::Ping)? {
            Response::Ok => Ok(()),
            other => Err(proto_err(format!("unexpected response {other:?}"))),
        }
    }

    fn bound_job(&self) -> io::Result<String> {
        self.binding
            .as_ref()
            .map(|b| b.job_id.clone())
            .ok_or_else(|| proto_err("client is not bound to a job; call register first".into()))
    }

    /// One request under [`RetryPolicy::run`] on the injected clock: build
    /// it against the *current* generation each attempt (a mid-loop
    /// re-registration may have bumped it), send, and on wire failure drop
    /// the poisoned connection so the next attempt reconnects. A fencing
    /// error stops the loop at once (terminal). Exhausting the budget flips
    /// degraded mode on; any success flips it off.
    fn call<F>(&mut self, build: F) -> io::Result<Response>
    where
        F: Fn(u64) -> Request,
    {
        let budget = if self.degraded { 1 } else { self.policy.max_attempts };
        let policy = RetryPolicy { max_attempts: budget, ..self.policy };
        let (clock, seed) = (self.clock.clone(), self.addr.port() as u64);
        let this = RefCell::new(&mut *self);
        let result = policy.run(
            clock.as_ref(),
            seed,
            || this.borrow_mut().attempt_once(&build),
            |e| if is_fenced(e) { Verdict::Stop } else { Verdict::Retry },
            |_, e, wait| {
                if !is_fenced(e) {
                    let mut this = this.borrow_mut();
                    this.conn = None; // poisoned or never established
                    this.degraded = wait.is_none(); // no retry follows: budget spent
                }
            },
        );
        if result.is_ok() {
            self.degraded = false;
        }
        result
    }

    /// One attempt: (re)establish the connection if needed — re-asserting
    /// the job binding over it — then exchange the request.
    fn attempt_once<F>(&mut self, build: &F) -> io::Result<Response>
    where
        F: Fn(u64) -> Request,
    {
        if self.conn.is_none() {
            let conn = CoordinatorClient::connect(self.addr)?;
            if self.ever_connected {
                self.reconnects += 1;
                self.unreported_reconnects += 1;
            }
            self.ever_connected = true;
            self.conn = Some(conn);
            self.reassert_binding()?;
        }
        let generation = self.generation();
        let conn = self.conn.as_mut().expect("connection just established");
        conn.request(&build(generation))
    }

    /// After a reconnect, tell the coordinator we are alive (folding the
    /// reconnect delta) and heal an "unknown job" — a coordinator that
    /// restarted without its journal — by re-registering with the kept
    /// spec, adopting the freshly assigned generation.
    fn reassert_binding(&mut self) -> io::Result<()> {
        let Some(binding) = self.binding.clone() else { return Ok(()) };
        let delta = self.unreported_reconnects;
        let conn = self.conn.as_mut().expect("caller established the connection");
        let resp = conn.request(&Request::Heartbeat {
            job_id: binding.job_id.clone(),
            generation: binding.generation,
            reconnects: delta,
        })?;
        match resp {
            Response::Ok => {
                self.unreported_reconnects = self.unreported_reconnects.saturating_sub(delta);
                Ok(())
            }
            Response::Fenced { job_id, stale, current } => Err(fenced_err(&job_id, stale, current)),
            Response::Error { .. } => {
                // Unknown job: the coordinator lost us. Re-register if we
                // kept the spec; otherwise let the real request surface the
                // typed error.
                let Some(spec) = binding.spec.clone() else { return Ok(()) };
                match conn.request(&Request::Register { spec })? {
                    Response::Admission { outcome } => {
                        if let AdmissionOutcome::Admitted { generation, .. } = outcome {
                            if let Some(b) = self.binding.as_mut() {
                                b.generation = generation;
                            }
                            self.unreported_reconnects =
                                self.unreported_reconnects.saturating_sub(delta);
                        }
                        Ok(())
                    }
                    other => Err(proto_err(format!("unexpected response {other:?}"))),
                }
            }
            other => Err(proto_err(format!("unexpected response {other:?}"))),
        }
    }
}

/// A [`FrameSink`] over a [`ReconnectingClient`]: the delivery half of a
/// remote telemetry pump that survives coordinator restarts. Push failures
/// are counted, never propagated — telemetry loss must not fail a job.
pub struct ReconnectingFrameSink {
    client: Mutex<ReconnectingClient>,
    failures: AtomicU64,
}

impl ReconnectingFrameSink {
    /// Wrap a client (typically one that already registered the job, so
    /// frames carry its generation).
    pub fn new(client: ReconnectingClient) -> ReconnectingFrameSink {
        ReconnectingFrameSink { client: Mutex::new(client), failures: AtomicU64::new(0) }
    }

    /// A sink for `addr` with a small fixed retry budget suitable for a
    /// background pump (telemetry is lossy by contract).
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<ReconnectingFrameSink> {
        let policy = RetryPolicy::fixed(2, Duration::from_millis(50));
        Ok(ReconnectingFrameSink::new(ReconnectingClient::new(addr, policy)?))
    }

    /// Frames the coordinator refused or the connection lost.
    pub fn failures(&self) -> u64 {
        self.failures.load(Ordering::Relaxed)
    }

    /// Reconnects the underlying client performed.
    pub fn reconnects(&self) -> u64 {
        self.client.lock().reconnects()
    }
}

impl FrameSink for ReconnectingFrameSink {
    fn push_frame(&self, frame: TelemetryFrame) -> bool {
        let ok = self.client.lock().push_telemetry(frame).is_ok();
        if !ok {
            self.failures.fetch_add(1, Ordering::Relaxed);
        }
        ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::CoordinatorServer;
    use crate::service::CoordinatorService;
    use bcp_core::integrity::TestClock;

    fn quick_policy() -> RetryPolicy {
        RetryPolicy::fixed(8, Duration::from_millis(5))
    }

    #[test]
    fn survives_server_restart_and_replays_safely() {
        let service = CoordinatorService::with_defaults();
        let server = CoordinatorServer::bind("127.0.0.1:0", service.clone()).unwrap();
        let addr = server.local_addr();

        let mut c = ReconnectingClient::new(addr, quick_policy()).unwrap();
        let outcome = c.register(JobSpec::new("rj", "mem://jobs/rj")).unwrap();
        assert!(outcome.is_admitted());
        assert_eq!(c.generation(), 1);
        c.report_commit(1, 64, 2).unwrap();

        // Kill and restart the endpoint on the same address; the service
        // object (and thus registry state) survives, like a journaled
        // coordinator would.
        server.abort();
        let server2 = bind_same_addr(addr, &service);

        // The next report reconnects transparently and is counted once.
        c.report_commit(2, 64, 2).unwrap();
        assert!(c.reconnects() >= 1, "reconnect happened: {}", c.reconnects());
        assert!(!c.is_degraded());
        let summary = service.registry().summary("rj").unwrap();
        assert_eq!(summary.commits, 2);

        // The reconnect delta reached the plane's counter (heartbeat-on-
        // reconnect carries it).
        let total = service.plane().registry().sum("client_reconnects_total");
        assert!(total >= 1.0, "client_reconnects_total = {total}");

        server2.shutdown();
    }

    #[test]
    fn degrades_after_deadline_and_heals_on_success() {
        // Nothing listens on this address (bind + drop reserves then frees
        // the port; racy in theory, fine for a refused-connection test).
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let clock = Arc::new(TestClock::new());
        let policy = RetryPolicy::fixed(4, Duration::from_millis(100))
            .with_deadline(Duration::from_millis(250));
        let mut c = ReconnectingClient::with_clock(addr, policy, clock.clone()).unwrap();

        assert!(c.ping().is_err());
        assert!(c.is_degraded(), "retry budget exhausted → degraded");
        // The virtual clock saw the bounded backoff schedule, not a hang:
        // attempts stop once the deadline would be crossed.
        let slept: Duration = clock.sleeps().iter().sum();
        assert!(slept <= Duration::from_millis(250), "slept {slept:?}");

        // Degraded calls are single-attempt: no further sleeps pile up.
        let before = clock.sleeps().len();
        assert!(c.ping().is_err());
        assert_eq!(clock.sleeps().len(), before, "degraded = one quick attempt");

        // A live server heals the client.
        let service = CoordinatorService::with_defaults();
        let server = bind_same_addr(addr, &service);
        c.ping().unwrap();
        assert!(!c.is_degraded());
        server.shutdown();
    }

    #[test]
    fn fenced_is_terminal_not_retried() {
        let service = CoordinatorService::with_defaults();
        let server = CoordinatorServer::bind("127.0.0.1:0", service.clone()).unwrap();
        let addr = server.local_addr();

        let mut old = ReconnectingClient::new(addr, quick_policy()).unwrap();
        old.register(JobSpec::new("fj", "mem://jobs/fj")).unwrap();
        // A newer incarnation registers: the old client is now a zombie.
        let mut new = ReconnectingClient::new(addr, quick_policy()).unwrap();
        new.register(JobSpec::new("fj", "mem://jobs/fj")).unwrap();
        assert_eq!(new.generation(), 2);

        let err = old.report_commit(9, 1, 1).unwrap_err();
        assert!(is_fenced(&err), "{err}");
        assert!(!old.is_degraded(), "fencing is terminal, not a wire failure");
        // The zombie's commit did not land.
        assert_eq!(service.registry().summary("fj").unwrap().commits, 0);

        server.shutdown();
    }

    fn bind_same_addr(
        addr: std::net::SocketAddr,
        service: &Arc<CoordinatorService>,
    ) -> CoordinatorServer {
        for _ in 0..100 {
            match CoordinatorServer::bind(addr, service.clone()) {
                Ok(s) => return s,
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        }
        panic!("could not rebind {addr}")
    }
}
