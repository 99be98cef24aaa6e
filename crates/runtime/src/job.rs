//! Job descriptions, budgets, and results.

use std::fmt;
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

use rsqp_solver::{
    CancelToken, Checkpoint, KktBackend, QpProblem, Settings, SolveResult, SolverError, Status,
};
use rsqp_sparse::CsrMatrix;

use crate::RetryPolicy;

/// A backend factory a job may carry across the queue into a worker thread.
///
/// The factory — not the backend — crosses threads: backends themselves may
/// be `!Send` (the simulated-FPGA backend holds an `Rc` to its machine), so
/// they are constructed *inside* the worker that runs the job. The closure
/// must therefore be `Send` and capture only `Send` state (e.g. an
/// `ArchConfig`).
pub type BackendFactory = Box<
    dyn FnMut(
            &CsrMatrix,
            &CsrMatrix,
            f64,
            &[f64],
            &Settings,
        ) -> Result<Box<dyn KktBackend>, SolverError>
        + Send,
>;

/// Per-job resource budget, enforced cooperatively inside the ADMM loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct JobBudget {
    /// Wall-clock budget, measured **from submission** — time spent waiting
    /// in the queue counts against it, so a saturated service sheds load by
    /// letting stale jobs expire instead of running them.
    pub timeout: Option<Duration>,
    /// ADMM iteration cap per solve attempt (combined with
    /// `Settings::max_iter` by minimum).
    pub iter_cap: Option<usize>,
}

impl JobBudget {
    /// No limits.
    pub fn unbounded() -> Self {
        Self::default()
    }

    /// Sets the wall-clock budget (from submission).
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Sets the per-attempt iteration cap.
    #[must_use]
    pub fn with_iter_cap(mut self, cap: usize) -> Self {
        self.iter_cap = Some(cap);
        self
    }
}

/// One unit of work for the [`SolveService`](crate::SolveService): a
/// problem, how to solve it, and how much it may cost.
pub struct JobSpec {
    /// The problem to solve, behind an `Arc` so retries, resumes, and the
    /// solvers they build all share one copy of the matrices instead of
    /// deep-copying them per attempt.
    pub problem: Arc<QpProblem>,
    /// Solver settings for the first attempt (retries may degrade them).
    pub settings: Settings,
    /// Resource budget.
    pub budget: JobBudget,
    /// How many attempts the job gets (the first plus the LDLᵀ fallback).
    pub retry: RetryPolicy,
    /// Optional checkpoint to resume from (warm restart).
    pub resume_from: Option<Checkpoint>,
    /// Optional custom backend factory (e.g. the simulated FPGA). `None`
    /// builds the backend selected by `Settings::linsys`. Dropped when a
    /// retry falls back to direct LDLᵀ.
    pub factory: Option<BackendFactory>,
}

impl JobSpec {
    /// A job with default settings, no budget, and the default retry policy.
    /// Accepts either an owned [`QpProblem`] or a pre-shared
    /// `Arc<QpProblem>`.
    pub fn new(problem: impl Into<Arc<QpProblem>>) -> Self {
        JobSpec {
            problem: problem.into(),
            settings: Settings::default(),
            budget: JobBudget::default(),
            retry: RetryPolicy::default(),
            resume_from: None,
            factory: None,
        }
    }

    /// Replaces the solver settings.
    #[must_use]
    pub fn with_settings(mut self, settings: Settings) -> Self {
        self.settings = settings;
        self
    }

    /// Replaces the budget.
    #[must_use]
    pub fn with_budget(mut self, budget: JobBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Replaces the retry policy.
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Resumes from a previously captured checkpoint.
    #[must_use]
    pub fn with_checkpoint(mut self, ckpt: Checkpoint) -> Self {
        self.resume_from = Some(ckpt);
        self
    }

    /// Installs a custom backend factory.
    #[must_use]
    pub fn with_backend_factory(mut self, factory: BackendFactory) -> Self {
        self.factory = Some(factory);
        self
    }
}

impl fmt::Debug for JobSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JobSpec")
            .field("problem", &self.problem.name())
            .field("budget", &self.budget)
            .field("retry", &self.retry)
            .field("resume_from", &self.resume_from.is_some())
            .field("custom_factory", &self.factory.is_some())
            .finish_non_exhaustive()
    }
}

/// Why a job produced no [`SolveResult`].
#[derive(Debug, Clone, PartialEq)]
pub enum JobError {
    /// Every attempt failed with a solver error; this is the last one.
    Solver(SolverError),
    /// Every attempt panicked (or the final one did); the worker caught the
    /// panic and survived. The payload is the panic message.
    Panicked(String),
    /// The worker dropped the job without reporting — only possible if the
    /// service was torn down around a running job.
    Lost,
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Solver(e) => write!(f, "solver error: {e}"),
            JobError::Panicked(msg) => write!(f, "solve attempt panicked: {msg}"),
            JobError::Lost => write!(f, "job lost: worker dropped the result channel"),
        }
    }
}

impl std::error::Error for JobError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JobError::Solver(e) => Some(e),
            _ => None,
        }
    }
}

/// What happened during one attempt of a job or session step.
#[derive(Debug, Clone, PartialEq)]
pub struct AttemptSummary {
    /// 0-based attempt index (0 = the undegraded first attempt).
    pub index: usize,
    /// Terminal status, when the attempt completed a solve.
    pub status: Option<Status>,
    /// Error or panic message, when it did not.
    pub error: Option<String>,
    /// Checkpointed iteration the attempt resumed from, if any.
    pub resumed_from: Option<u64>,
}

/// The definite outcome of a job: either a [`SolveResult`] (whose `status`
/// may still be e.g. `NumericalError` after the last attempt) or a typed
/// [`JobError`]. Every submitted job yields exactly one report.
#[derive(Debug)]
pub struct JobReport {
    /// Service-assigned job id.
    pub id: u64,
    /// Per-attempt history (length ≥ 1 unless the job was `Lost`).
    pub attempts: Vec<AttemptSummary>,
    /// Final outcome.
    pub outcome: Result<SolveResult, JobError>,
}

impl JobReport {
    pub(crate) fn lost(id: u64) -> Self {
        JobReport { id, attempts: Vec::new(), outcome: Err(JobError::Lost) }
    }

    /// The terminal solve status, if the job produced one.
    pub fn status(&self) -> Option<Status> {
        self.outcome.as_ref().ok().map(|r| r.status)
    }

    /// Number of attempts the job ran.
    pub fn attempts_used(&self) -> usize {
        self.attempts.len()
    }
}

/// A submitted job: carries the cancellation token and the (single-use)
/// result channel.
#[derive(Debug)]
pub struct JobHandle {
    pub(crate) id: u64,
    pub(crate) cancel: CancelToken,
    pub(crate) rx: Receiver<JobReport>,
}

impl JobHandle {
    /// The service-assigned job id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Requests cooperative cancellation. The job still produces a report
    /// (with [`Status::Cancelled`] if the cancellation landed mid-solve).
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// A clone of the job's cancellation token (e.g. to hand to a watchdog).
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Blocks until the job's report arrives.
    pub fn wait(self) -> JobReport {
        let id = self.id;
        self.rx.recv().unwrap_or_else(|_| JobReport::lost(id))
    }

    /// Waits up to `timeout` for the report; `None` means it is still
    /// running (the handle stays usable).
    pub fn wait_timeout(&self, timeout: Duration) -> Option<JobReport> {
        match self.rx.recv_timeout(timeout) {
            Ok(report) => Some(report),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => Some(JobReport::lost(self.id)),
        }
    }
}
