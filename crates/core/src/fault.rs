//! Stage-level crash injection (Appendix B's failure model, made testable).
//!
//! The paper's integrity argument is that "the failure of any single worker"
//! at *any* point of the save pipeline must never produce a checkpoint that
//! loads as valid. To test that claim exhaustively, the save/load workflows
//! are instrumented with named fault points — `"save/plan"`,
//! `"save/upload"`, `"save/commit"`, … — and a [`FaultPlan`] declares which
//! rank "dies" at which stage. When a planned crash fires, the hook marks
//! the rank failed in its communicator (so peers' collectives abort with
//! `PeerFailed` instead of hanging) and the pipeline returns
//! [`crate::BcpError::Crashed`], modelling a process that is simply gone.
//!
//! Production code runs with an empty plan: every fault point is a single
//! `is_empty` check.

use crate::{BcpError, Result};
use std::sync::Arc;

/// Named fault points of the save pipeline, in execution order. The matrix
/// test in `crates/core/tests/recovery.rs` iterates this list, kills a rank
/// at each stage (the coordinator at `save/metadata` and `save/commit`,
/// which only it reaches) and asserts the torn step never commits.
pub const SAVE_STAGES: &[&str] = &[
    "save/plan",
    "save/capture",
    "save/serialize",
    "save/upload",
    "save/loader",
    "save/extra",
    "save/barrier",
    "save/metadata",
    "save/commit",
];

/// Named fault points of the load pipeline, in execution order.
pub const LOAD_STAGES: &[&str] = &["load/metadata", "load/read", "load/barrier"];

/// A declarative crash schedule: which rank dies at which pipeline stage.
///
/// ```
/// use bcp_core::fault::FaultPlan;
/// let plan = FaultPlan::new().kill(2, "save/upload").kill(0, "save/commit");
/// assert!(plan.matches(2, "save/upload"));
/// assert!(!plan.matches(2, "save/commit"));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    kills: Vec<(usize, String)>,
}

impl FaultPlan {
    /// An empty plan: no injected crashes.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Schedule `rank` to crash when it reaches `stage`.
    pub fn kill(mut self, rank: usize, stage: impl Into<String>) -> FaultPlan {
        self.kills.push((rank, stage.into()));
        self
    }

    /// Whether this plan kills `rank` at `stage`.
    pub fn matches(&self, rank: usize, stage: &str) -> bool {
        self.kills.iter().any(|(r, s)| *r == rank && s == stage)
    }

    /// Whether no crashes are scheduled.
    pub fn is_empty(&self) -> bool {
        self.kills.is_empty()
    }
}

/// A per-rank handle over a [`FaultPlan`], carried through the pipelines.
///
/// `check(stage)` is called at every fault point; when the plan schedules a
/// crash there for this rank, the `on_kill` callback fires first (the
/// workflow uses it to mark the rank failed in its communicator) and the
/// call returns [`BcpError::Crashed`].
#[derive(Clone)]
pub struct FaultHook {
    plan: FaultPlan,
    rank: usize,
    on_kill: Option<Arc<dyn Fn() + Send + Sync>>,
}

impl FaultHook {
    /// A hook that never fires — for direct engine calls and benches.
    pub fn inert(rank: usize) -> FaultHook {
        FaultHook { plan: FaultPlan::new(), rank, on_kill: None }
    }

    /// A hook over `plan` for `rank`.
    pub fn new(plan: FaultPlan, rank: usize) -> FaultHook {
        FaultHook { plan, rank, on_kill: None }
    }

    /// Attach a callback fired when a crash triggers, before the error
    /// returns (e.g. declare this rank dead to its peers).
    pub fn with_on_kill(mut self, f: impl Fn() + Send + Sync + 'static) -> FaultHook {
        self.on_kill = Some(Arc::new(f));
        self
    }

    /// Fault point: returns `Err(Crashed)` when the plan kills this rank at
    /// `stage`, otherwise `Ok(())`.
    pub fn check(&self, stage: &str) -> Result<()> {
        if self.plan.is_empty() || !self.plan.matches(self.rank, stage) {
            return Ok(());
        }
        if let Some(f) = &self.on_kill {
            f();
        }
        Err(BcpError::Crashed { rank: self.rank, stage: stage.to_string() })
    }
}

impl std::fmt::Debug for FaultHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultHook")
            .field("plan", &self.plan)
            .field("rank", &self.rank)
            .field("on_kill", &self.on_kill.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn plan_matches_only_scheduled_kills() {
        let plan = FaultPlan::new().kill(2, "save/upload").kill(0, "save/commit");
        assert!(plan.matches(2, "save/upload"));
        assert!(plan.matches(0, "save/commit"));
        assert!(!plan.matches(2, "save/commit"));
        assert!(!plan.matches(1, "save/upload"));
        assert!(FaultPlan::new().is_empty() && !plan.is_empty());
    }

    #[test]
    fn hook_fires_on_kill_then_errors() {
        let fired = Arc::new(AtomicUsize::new(0));
        let counter = fired.clone();
        let hook =
            FaultHook::new(FaultPlan::new().kill(3, "save/upload"), 3).with_on_kill(move || {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        hook.check("save/plan").unwrap();
        assert_eq!(fired.load(Ordering::Relaxed), 0);
        let err = hook.check("save/upload").unwrap_err();
        assert!(matches!(err, BcpError::Crashed { rank: 3, ref stage } if stage == "save/upload"));
        assert_eq!(fired.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn inert_hook_never_fires() {
        let hook = FaultHook::inert(0);
        for stage in SAVE_STAGES.iter().chain(LOAD_STAGES) {
            hook.check(stage).unwrap();
        }
    }
}
