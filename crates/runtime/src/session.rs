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
//!   [`CancelToken`], the bounded [`RetryPolicy`] degradation ladder
//!   (resuming from a checkpoint of the pre-failure iterates), and the
//!   [`MetricsRegistry`] (`session_steps`, `cache_hits`, `cache_misses`
//!   counters plus a `session_step_us` latency histogram).
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
    CancelToken, Checkpoint, DirectLdltBackend, KktBackend, LinSysKind, QpProblem, Settings,
    SolveControl, SolveResult, Solver, SolverError, Status,
};
use rsqp_sparse::CsrMatrix;

use crate::job::{AttemptSummary, BackendFactory, JobBudget};
use crate::retry::degrade;
use crate::RetryPolicy;

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
    /// Retry ladder for steps that end in a numerical error. Degradations a
    /// step needed are **kept** for subsequent steps — a session that had
    /// to fall back stays on the safe configuration.
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
    /// Per-attempt history of this step's retry ladder (length ≥ 1).
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
    problem: Arc<QpProblem>,
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
            .field("problem", &self.problem.name())
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
            problem: problem.into(),
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
    /// fast path; dropped if the retry ladder reaches its direct-LDLᵀ rung.
    #[must_use]
    pub fn with_backend_factory(mut self, factory: BackendFactory) -> Self {
        self.factory = Some(factory);
        self
    }

    /// The problem as of the latest applied update.
    pub fn problem(&self) -> &QpProblem {
        &self.problem
    }

    /// Completed steps so far.
    pub fn steps_taken(&self) -> u64 {
        self.steps
    }

    /// A clone of the session's cancellation token; cancelling it makes the
    /// current (or next) step end with [`Status::Cancelled`].
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
    /// session usable.
    ///
    /// # Errors
    ///
    /// Returns an error for an invalid update, or when the retry ladder is
    /// exhausted by unrecoverable solver errors. Budget expiry and
    /// cancellation are *statuses* on the returned result, not errors.
    pub fn step(&mut self, updates: Vec<StepUpdate>) -> Result<StepReport, SolverError> {
        let started = Instant::now();
        self.apply_updates(updates)?;

        // Consult the cache every step: the first sight of a pattern pays
        // the customization + symbolic analysis, every later step is a
        // ledger-counted hit. Value updates never change the key.
        let mut cache_hit = false;
        if let Some(cache) = self.cache.clone() {
            let CacheLookup { artifacts, hit } = cache.get_or_customize(&self.problem)?;
            if hit {
                self.metrics.cache_hits.inc();
            } else {
                self.metrics.cache_misses.inc();
            }
            cache_hit = hit;
            self.artifacts = Some(artifacts);
        }

        if self.solver.is_none() {
            self.solver = Some(construct_solver(
                &self.problem,
                &self.settings,
                &mut self.factory,
                self.artifacts.as_deref(),
            )?);
        }

        let mut control = SolveControl::unbounded().with_cancel(self.cancel.clone());
        if let Some(timeout) = self.budget.timeout {
            control = control.with_deadline(started + timeout);
        }
        if let Some(cap) = self.budget.iter_cap {
            control = control.with_iter_cap(cap);
        }

        let n = self.problem.num_vars();
        let m = self.problem.num_constraints();
        let max_attempts = self.retry.max_attempts.max(1);
        let mut attempts: Vec<AttemptSummary> = Vec::new();
        let mut last_ckpt: Option<Checkpoint> = None;

        for attempt in 0..max_attempts {
            let last = attempt + 1 == max_attempts;
            if attempt > 0 {
                // Degrade *the session's* settings/factory: a rung a step
                // needed is kept for the rest of the session, and the
                // rebuilt (degraded) solver becomes the persistent one.
                degrade(&mut self.settings, &mut self.factory, attempt);
                let mut rebuilt = construct_solver(
                    &self.problem,
                    &self.settings,
                    &mut self.factory,
                    self.artifacts.as_deref(),
                )?;
                if let Some(ckpt) = &last_ckpt {
                    if ckpt.validate(n, m).is_ok() {
                        rebuilt.restore(ckpt)?;
                    }
                }
                self.solver = Some(rebuilt);
            }
            let solver = self.solver.as_mut().expect("solver built above");
            if !self.warm_start {
                solver.cold_start();
            }
            let resumed_from = last_ckpt.as_ref().map(|c| c.iterations);
            match solver.solve_with_control(&control) {
                Ok(result) => {
                    attempts.push(AttemptSummary {
                        index: attempt,
                        status: Some(result.status),
                        error: None,
                        resumed_from,
                    });
                    if result.status != Status::NumericalError || last {
                        self.steps += 1;
                        self.metrics.steps.inc();
                        self.metrics.step_us.observe(started.elapsed().as_micros() as u64);
                        return Ok(StepReport { step: self.steps, result, attempts, cache_hit });
                    }
                    let ckpt = solver.checkpoint();
                    if ckpt.validate(n, m).is_ok() {
                        last_ckpt = Some(ckpt);
                    }
                }
                Err(e) => {
                    attempts.push(AttemptSummary {
                        index: attempt,
                        status: None,
                        error: Some(e.to_string()),
                        resumed_from,
                    });
                    if !e.is_recoverable() || last {
                        // The failed solver may be poisoned; drop it so the
                        // next step rebuilds from the shared problem.
                        self.solver = None;
                        return Err(e);
                    }
                }
            }
        }
        unreachable!("the final attempt always returns");
    }

    /// Routes updates through the persistent solver when it exists (so
    /// scaling and ρ state stay consistent), or mutates the shared problem
    /// directly before the first step.
    fn apply_updates(&mut self, updates: Vec<StepUpdate>) -> Result<(), SolverError> {
        if updates.is_empty() {
            return Ok(());
        }
        match self.solver.as_mut() {
            Some(solver) => {
                for update in updates {
                    match update {
                        StepUpdate::Bounds { l, u } => solver.update_bounds(l, u)?,
                        StepUpdate::LinearCost(q) => solver.update_q(q)?,
                        StepUpdate::Matrices { p, a } => solver.update_matrices(p, a)?,
                        StepUpdate::Rho(rho) => solver.update_rho(rho)?,
                    }
                }
                // The solver's copy-on-write may have detached from the
                // session's Arc; re-share so retries and rebuilds see the
                // updated values.
                self.problem = solver.problem_shared();
            }
            None => {
                let problem = Arc::make_mut(&mut self.problem);
                for update in updates {
                    match update {
                        StepUpdate::Bounds { l, u } => problem.update_bounds(l, u)?,
                        StepUpdate::LinearCost(q) => problem.update_q(q)?,
                        StepUpdate::Matrices { p, a } => problem.update_matrices(p, a)?,
                        StepUpdate::Rho(rho) => {
                            if rho <= 0.0 {
                                return Err(SolverError::InvalidSetting(
                                    "rho must be positive".into(),
                                ));
                            }
                            self.settings.rho = rho;
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// Builds a solver for the session, replaying the cached symbolic LDLᵀ
/// ordering when one is available and applicable.
fn construct_solver(
    problem: &Arc<QpProblem>,
    settings: &Settings,
    factory: &mut Option<BackendFactory>,
    artifacts: Option<&PatternArtifacts>,
) -> Result<Solver, SolverError> {
    if let Some(f) = factory.as_mut() {
        return Solver::with_backend_shared(Arc::clone(problem), settings.clone(), f);
    }
    if settings.linsys == LinSysKind::DirectLdlt {
        let cached_perm = artifacts
            .filter(|a| a.params.ordering == settings.ordering)
            .and_then(|a| a.kkt_perm.clone());
        if let Some(perm) = cached_perm {
            return Solver::with_backend_shared(
                Arc::clone(problem),
                settings.clone(),
                &mut |p, a, sigma, rho, _s| {
                    Ok(Box::new(DirectLdltBackend::with_permutation(
                        p,
                        a,
                        sigma,
                        rho,
                        perm.clone(),
                    )?) as Box<dyn KktBackend>)
                },
            );
        }
    }
    Solver::new_shared(Arc::clone(problem), settings.clone())
}
