//! MPC-style parametric solve sessions.
//!
//! A [`SolveSession`] owns one persistent [`Solver`] and accepts a stream of
//! parametric updates ([`StepUpdate`]), re-solving after each batch. It is
//! the runtime's embodiment of the paper's flagship repeated-solve workload
//! (embedded MPC): the sparsity structure is fixed, only values change, so
//!
//! * the solver — and with it the Ruiz equilibration state, the backend,
//!   and the warm-started iterates — survives across steps;
//! * a shared [`CustomizationCache`] supplies the per-structure artifacts
//!   (architecture customization and the symbolic LDLᵀ ordering) so the
//!   expensive structure-dependent work runs **once per pattern**, not once
//!   per step;
//! * every step composes with the existing runtime machinery: a per-step
//!   [`JobBudget`], cooperative cancellation via the session's
//!   [`CancelToken`], the runtime's [`RetryPolicy`] attempt loop with its
//!   one direct-LDLᵀ fallback (resuming from a checkpoint of the
//!   pre-failure iterates), and the [`MetricsRegistry`] (`session_steps`,
//!   `cache_hits`, `cache_misses` counters plus a `session_step_us` latency
//!   histogram).
//!
//! Sessions run on the caller's thread — an MPC loop is latency-bound and
//! strictly sequential, so queueing each step behind the worker pool would
//! only add latency. Use [`crate::SolveService::open_session`] to share a
//! service's metrics registry (and host), or [`SolveSession::new`] for a
//! standalone session.

use std::sync::Arc;
use std::time::Instant;

use rsqp_core::{CacheLookup, CustomizationCache, PatternArtifacts};
use rsqp_obs::{Counter, Histogram, MetricsRegistry};
use rsqp_solver::{
    CancelToken, QpProblem, Settings, SolveControl, SolveResult, Solver, SolverError,
};
use rsqp_sparse::{CsrMatrix, PatternKey};

use crate::job::{AttemptSummary, BackendFactory, JobBudget, JobError};
use crate::retry::{build_solver, run_attempts};
use crate::RetryPolicy;

/// Why [`SolveSession`] holds its problem whenever it holds no solver.
const HELD: &str = "the session holds the problem while no solver does";

/// One parametric update applied before a session step's solve.
#[derive(Debug, Clone)]
pub enum StepUpdate {
    /// Replace the constraint bounds `l`/`u` (same length).
    Bounds {
        /// New lower bounds.
        l: Vec<f64>,
        /// New upper bounds.
        u: Vec<f64>,
    },
    /// Replace the linear cost `q`.
    LinearCost(Vec<f64>),
    /// Replace the values of `P` and/or `A` (same sparsity structure; a
    /// structure change is rejected and leaves the session untouched).
    Matrices {
        /// New `P` values, if changed.
        p: Option<CsrMatrix>,
        /// New `A` values, if changed.
        a: Option<CsrMatrix>,
    },
    /// Manually set the base step size ρ̄.
    Rho(f64),
}

/// Per-session configuration.
#[derive(Debug)]
pub struct SessionConfig {
    /// Solver settings for the session's persistent solver.
    pub settings: Settings,
    /// Per-step budget: the wall-clock timeout is measured from the start
    /// of each [`SolveSession::step`] call, the iteration cap applies per
    /// solve attempt.
    pub budget: JobBudget,
    /// Attempts per step. A step that had to fall back to direct LDLᵀ
    /// **keeps** the fallback for subsequent steps — the session stays on
    /// the safe configuration.
    pub retry: RetryPolicy,
    /// Warm-start each step from the previous solution (the default).
    /// `false` cold-starts every step (useful for baselines).
    pub warm_start: bool,
    /// Shared customization cache. `None` disables structure reuse (the
    /// session still keeps its solver warm across steps).
    pub cache: Option<Arc<CustomizationCache>>,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            settings: Settings::default(),
            budget: JobBudget::unbounded(),
            retry: RetryPolicy::default(),
            warm_start: true,
            cache: None,
        }
    }
}

impl SessionConfig {
    /// Replaces the solver settings.
    #[must_use]
    pub fn with_settings(mut self, settings: Settings) -> Self {
        self.settings = settings;
        self
    }

    /// Replaces the per-step budget.
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

    /// Disables warm starting between steps.
    #[must_use]
    pub fn with_cold_steps(mut self) -> Self {
        self.warm_start = false;
        self
    }

    /// Installs a shared customization cache.
    #[must_use]
    pub fn with_cache(mut self, cache: Arc<CustomizationCache>) -> Self {
        self.cache = Some(cache);
        self
    }
}

/// Outcome of one [`SolveSession::step`].
#[derive(Debug)]
pub struct StepReport {
    /// 1-based step number within the session.
    pub step: u64,
    /// The solve outcome (in the original problem space, warm-started).
    pub result: SolveResult,
    /// Per-attempt history of this step (length ≥ 1).
    pub attempts: Vec<AttemptSummary>,
    /// Whether the customization cache already held this structure's
    /// artifacts (`false` on the first step of a fresh pattern, or when no
    /// cache is configured).
    pub cache_hit: bool,
}

/// Telemetry handles held for the session's lifetime.
struct SessionMetrics {
    steps: Counter,
    cache_hits: Counter,
    cache_misses: Counter,
    step_us: Histogram,
}

impl SessionMetrics {
    fn new(registry: &MetricsRegistry) -> Self {
        SessionMetrics {
            steps: registry.counter("session_steps"),
            cache_hits: registry.counter("cache_hits"),
            cache_misses: registry.counter("cache_misses"),
            step_us: registry.histogram("session_step_us"),
        }
    }
}

/// A handle for a stream of parametric re-solves over one problem
/// structure: one persistent, warm-started [`Solver`] fed [`StepUpdate`]s,
/// with the per-structure artifacts taken from a shared
/// [`CustomizationCache`].
pub struct SolveSession {
    /// The problem while no persistent solver holds it: before the first
    /// step and after a failed one. The solver owns the only handle
    /// otherwise, so its updates never copy the data.
    problem: Option<Arc<QpProblem>>,
    settings: Settings,
    budget: JobBudget,
    retry: RetryPolicy,
    warm_start: bool,
    cache: Option<Arc<CustomizationCache>>,
    factory: Option<BackendFactory>,
    cancel: CancelToken,
    solver: Option<Solver>,
    artifacts: Option<Arc<PatternArtifacts>>,
    registry: MetricsRegistry,
    metrics: SessionMetrics,
    steps: u64,
}

impl std::fmt::Debug for SolveSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolveSession")
            .field("problem", &self.problem().name())
            .field("steps", &self.steps)
            .field("cached", &self.artifacts.is_some())
            .finish_non_exhaustive()
    }
}

impl SolveSession {
    /// Opens a session with its own private metrics registry. Cheap: the
    /// solver (and any cache miss) is paid on the first [`step`], not here.
    ///
    /// [`step`]: SolveSession::step
    pub fn new(problem: impl Into<Arc<QpProblem>>, config: SessionConfig) -> Self {
        Self::with_metrics(problem, config, MetricsRegistry::new())
    }

    /// Opens a session recording into an existing registry (e.g. a
    /// [`crate::SolveService`]'s, via [`crate::SolveService::open_session`]).
    pub fn with_metrics(
        problem: impl Into<Arc<QpProblem>>,
        config: SessionConfig,
        registry: MetricsRegistry,
    ) -> Self {
        let SessionConfig { settings, budget, retry, warm_start, cache } = config;
        let metrics = SessionMetrics::new(&registry);
        SolveSession {
            problem: Some(problem.into()),
            settings,
            budget,
            retry,
            warm_start,
            cache,
            factory: None,
            cancel: CancelToken::new(),
            solver: None,
            artifacts: None,
            registry,
            metrics,
            steps: 0,
        }
    }

    /// Installs a custom backend factory (e.g. the simulated FPGA built
    /// from cached artifacts). Takes precedence over the cached-ordering
    /// fast path; dropped if a step falls back to direct LDLᵀ.
    #[must_use]
    pub fn with_backend_factory(mut self, factory: BackendFactory) -> Self {
        self.factory = Some(factory);
        self
    }

    /// The problem as of the latest applied update.
    pub fn problem(&self) -> &QpProblem {
        match &self.solver {
            Some(solver) => solver.problem(),
            None => self.problem.as_deref().expect(HELD),
        }
    }

    /// Completed steps so far.
    pub fn steps_taken(&self) -> u64 {
        self.steps
    }

    /// A clone of the session's cancellation token; cancelling it makes the
    /// current (or next) step end with
    /// [`Status::Cancelled`](rsqp_solver::Status::Cancelled).
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// The metrics registry this session records into.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The per-structure artifacts resolved on the first step (`None`
    /// before that, or when the session has no cache).
    pub fn cached_artifacts(&self) -> Option<&Arc<PatternArtifacts>> {
        self.artifacts.as_ref()
    }

    /// Applies `updates` in order, then re-solves — warm-started from the
    /// previous step's iterates unless the session was configured with
    /// [`SessionConfig::with_cold_steps`]. The cache is consulted once per
    /// step (hit after the first step of a pattern); the persistent solver
    /// is built on the first step. A failed update (e.g. a structure
    /// change) returns the error without consuming a step and leaves the
    /// session usable; the updates before it in `updates` stay applied.
    ///
    /// # Errors
    ///
    /// Returns an error for an invalid update, or when a solver error ends
    /// the step (an unrecoverable one, or any on the last attempt). Budget
    /// expiry and cancellation are *statuses* on the returned result, not
    /// errors.
    pub fn step(&mut self, updates: Vec<StepUpdate>) -> Result<StepReport, SolverError> {
        let started = Instant::now();
        self.apply_updates(updates)?;

        // Consult the cache every step: the first sight of a pattern pays
        // the customization + symbolic analysis, every later step is a
        // ledger-counted hit. Updates never change the structure (a new one
        // is rejected), so after the first step the key the artifacts hold
        // is the problem's, and `P` and `A` are fingerprinted only once.
        let mut cache_hit = false;
        if let Some(cache) = self.cache.clone() {
            let problem = self.problem();
            let key = match &self.artifacts {
                Some(artifacts) => artifacts.key,
                None => PatternKey::new(problem.p(), problem.a()),
            };
            let CacheLookup { artifacts, hit } = cache.lookup(key, problem)?;
            if hit {
                self.metrics.cache_hits.inc();
            } else {
                self.metrics.cache_misses.inc();
            }
            cache_hit = hit;
            self.artifacts = Some(artifacts);
        }

        let mut control = SolveControl::unbounded().with_cancel(self.cancel.clone());
        if let Some(timeout) = self.budget.timeout {
            control = control.with_deadline(started + timeout);
        }
        if let Some(cap) = self.budget.iter_cap {
            control = control.with_iter_cap(cap);
        }

        // Attempt 0 runs on the persistent solver (built on first use); a
        // failed attempt's solver is dropped, so a retry rebuilds it on the
        // fallback rung the loop applied to the session's own settings and
        // factory, which later steps keep. Each attempt leaves the session a
        // handle to the problem for such a rebuild; a successful step drops
        // it, so between steps the solver holds the only one.
        let cached_perm = self
            .artifacts
            .as_deref()
            .filter(|a| a.params.ordering == self.settings.ordering)
            .and_then(|a| a.kkt_perm.as_deref());
        let (problem, persistent, warm_start) =
            (&mut self.problem, &mut self.solver, self.warm_start);
        let (attempts, outcome) =
            run_attempts(self.retry, &mut self.settings, &mut self.factory, None, |attempt| {
                let mut run = || -> Result<_, SolverError> {
                    let mut solver = match persistent.take() {
                        Some(solver) => solver,
                        None => {
                            let mut solver = build_solver(
                                problem.as_ref().expect(HELD),
                                attempt.settings,
                                attempt.factory,
                                cached_perm,
                            )?;
                            if let Some(ckpt) = attempt.resume {
                                solver.restore(ckpt)?;
                            }
                            solver
                        }
                    };
                    if attempt.index == 0 && !warm_start {
                        solver.cold_start();
                    }
                    *problem = Some(solver.problem_shared());
                    Ok((solver.solve_with_control(&control)?, solver))
                };
                run().map_err(JobError::Solver)
            });
        match outcome {
            Ok((result, solver)) => {
                self.solver = Some(solver);
                self.problem = None;
                self.steps += 1;
                self.metrics.steps.inc();
                self.metrics.step_us.observe(started.elapsed().as_micros() as u64);
                Ok(StepReport { step: self.steps, result, attempts, cache_hit })
            }
            // The failed solver is gone; the next step rebuilds it from the
            // session's problem and settings.
            Err(JobError::Solver(e)) => Err(e),
            Err(other) => unreachable!("session attempts fail only with solver errors: {other}"),
        }
    }

    /// Routes updates through the persistent solver when it exists (so
    /// scaling and ρ state stay consistent), or mutates the session's
    /// problem directly while none does. Either way the updates before a
    /// failing one stay applied.
    fn apply_updates(&mut self, updates: Vec<StepUpdate>) -> Result<(), SolverError> {
        if updates.is_empty() {
            return Ok(());
        }
        match self.solver.as_mut() {
            Some(solver) => {
                updates.into_iter().try_for_each(|update| match update {
                    StepUpdate::Bounds { l, u } => solver.update_bounds(l, u),
                    StepUpdate::LinearCost(q) => solver.update_q(q),
                    StepUpdate::Matrices { p, a } => solver.update_matrices(p, a),
                    StepUpdate::Rho(rho) => {
                        solver.update_rho(rho)?;
                        // Rebuilds start from the settings, not the solver.
                        self.settings.rho = rho;
                        Ok(())
                    }
                })?;
            }
            None => {
                let problem = Arc::make_mut(self.problem.as_mut().expect(HELD));
                for update in updates {
                    match update {
                        StepUpdate::Bounds { l, u } => problem.update_bounds(l, u)?,
                        StepUpdate::LinearCost(q) => problem.update_q(q)?,
                        StepUpdate::Matrices { p, a } => problem.update_matrices(p, a)?,
                        StepUpdate::Rho(rho) => {
                            // The check `Solver::update_rho` would apply.
                            Settings { rho, ..self.settings.clone() }.validate()?;
                            self.settings.rho = rho;
                        }
                    }
                }
            }
        }
        Ok(())
    }
}
