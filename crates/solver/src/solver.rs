//! The ADMM iteration (Algorithm 1 of the paper).

use std::sync::Arc;
use std::time::{Duration, Instant};

use rsqp_obs::{IterationTrace, SolveTrace, SpanId, SpanRecord, Timeline, TraceEvent};
use rsqp_sparse::CsrMatrix;

use crate::backend::{BackendStats, CpuPcgBackend, DirectLdltBackend, KktBackend};
use crate::control::SolveControl;
use crate::guard::{Anomaly, Guard, GuardReport, RecoveryAction};
use crate::infeasibility::{dual_certificate, primal_certificate};
use crate::rho::ConstraintKind;
use crate::scaling::{RuizWorkspace, ScaledData};
use crate::settings::{validate_rho, CgTolerance, LinSysKind};
use crate::termination::{residuals, ResidualInfo};
use crate::workspace::IterateWorkspace;
use crate::{QpProblem, RhoManager, Scaling, Settings, SolverError, Status};

/// Floor for guard-driven CG tolerance tightening.
const GUARD_CG_FLOOR: f64 = 1e-12;
/// Multiplier applied to the CG tolerance at the tightening rung.
const GUARD_CG_SHRINK: f64 = 1e-2;

/// Trace-event kind for a recovery-ladder action label.
fn recovery_kind(action: &str) -> &'static str {
    if action == "fallback_to_direct" {
        "backend_fallback"
    } else {
        "guard_recovery"
    }
}

/// Wall-clock breakdown of a solve, used to reproduce Figure 8 (the share of
/// solver time spent in the KKT solve).
#[derive(Debug, Clone, Copy, Default)]
pub struct TimingBreakdown {
    /// Time spent in `Solver::new` (scaling + backend setup).
    pub setup: Duration,
    /// Total time inside `solve`.
    pub solve: Duration,
    /// Portion of `solve` spent inside the KKT backend.
    pub kkt_solve: Duration,
}

impl TimingBreakdown {
    /// Fraction of solve time spent solving KKT systems, in `[0, 1]`.
    pub fn kkt_fraction(&self) -> f64 {
        if self.solve.is_zero() {
            0.0
        } else {
            self.kkt_solve.as_secs_f64() / self.solve.as_secs_f64()
        }
    }
}

/// Outcome of [`Solver::solve`]. All vectors are in the original (unscaled)
/// problem space.
#[derive(Debug, Clone)]
pub struct SolveResult {
    /// Termination status.
    pub status: Status,
    /// Primal solution estimate.
    pub x: Vec<f64>,
    /// Dual solution estimate.
    pub y: Vec<f64>,
    /// Constraint activation `z ≈ Ax`.
    pub z: Vec<f64>,
    /// Objective value at `x`.
    pub objective: f64,
    /// ADMM iterations performed.
    pub iterations: usize,
    /// Final unscaled primal residual.
    pub prim_res: f64,
    /// Final unscaled dual residual.
    pub dual_res: f64,
    /// Number of accepted adaptive-ρ updates.
    pub rho_updates: usize,
    /// Whether solution polishing ran and improved the iterate.
    pub polished: bool,
    /// Numerical-guard interventions (resets, tolerance tightenings,
    /// backend fallbacks) during this solve.
    pub guard: GuardReport,
    /// Work counters from the KKT backend (summed over a backend replaced
    /// by the recovery ladder and its successor).
    pub backend: BackendStats,
    /// Wall-clock breakdown.
    pub timings: TimingBreakdown,
    /// Full telemetry record of the solve (phase spans, per-iteration
    /// residuals and PCG counts, ρ-update and guard events). `Some` only
    /// when [`Settings::trace`] was enabled.
    pub trace: Option<SolveTrace>,
}

impl std::fmt::Display for SolveResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "status: {} | iters: {} | obj: {:.6e} | pri res: {:.3e} | dua res: {:.3e}{}{}{}",
            self.status,
            self.iterations,
            self.objective,
            self.prim_res,
            self.dual_res,
            if self.polished { " | polished" } else { "" },
            if self.rho_updates > 0 {
                format!(" | rho updates: {}", self.rho_updates)
            } else {
                String::new()
            },
            if self.guard.intervened() {
                format!(" | recoveries: {}", self.guard.faults_detected)
            } else {
                String::new()
            }
        )
    }
}

/// In-flight telemetry while a traced solve runs. Lives entirely on the
/// `solve_with_control` stack; when [`Settings::trace`] is off it is never
/// constructed, so a disabled solve performs no telemetry allocations.
struct TraceBuilder {
    timeline: Timeline,
    loop_span: SpanId,
    trace: SolveTrace,
}

impl TraceBuilder {
    fn event(&mut self, iter: usize, kind: &str, detail: String) {
        self.trace.events.push(TraceEvent { iter: iter as u64, kind: kind.to_string(), detail });
    }
}

/// An OSQP-style ADMM solver bound to one problem instance.
///
/// The solver keeps its iterates between [`Solver::solve`] calls, so
/// parametric re-solves (after [`Solver::update_bounds`] /
/// [`Solver::update_q`]) are automatically warm-started — the usage pattern
/// that amortizes RSQP's hardware-generation time in the paper's portfolio
/// backtesting example.
pub struct Solver {
    settings: Settings,
    /// Original problem, shared — retries and concurrent services hold the
    /// same `Arc` instead of deep-copying the matrices per solver.
    orig: Arc<QpProblem>,
    // Scaled problem data.
    p: CsrMatrix,
    q: Vec<f64>,
    a: CsrMatrix,
    l: Vec<f64>,
    u: Vec<f64>,
    scaling: Scaling,
    /// Scratch for re-equilibrating in [`Solver::update_matrices`].
    ruiz_ws: RuizWorkspace,
    rho_mgr: RhoManager,
    backend: Box<dyn KktBackend>,
    // Scaled iterates.
    x: Vec<f64>,
    z: Vec<f64>,
    y: Vec<f64>,
    /// Pre-sized per-iteration scratch (kept across `solve` calls).
    ws: IterateWorkspace,
    setup_time: Duration,
    /// Portion of `setup_time` spent in Ruiz equilibration (trace span).
    scaling_time: Duration,
    /// Work counters of backends retired by the recovery ladder.
    retired_stats: BackendStats,
    /// ADMM iterations accumulated across `solve` calls (checkpoint
    /// metadata; restored by [`Solver::restore`]).
    total_iterations: u64,
}

impl std::fmt::Debug for Solver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Solver")
            .field("n", &self.orig.num_vars())
            .field("m", &self.orig.num_constraints())
            .field("backend", &self.backend.name())
            .finish_non_exhaustive()
    }
}

impl Solver {
    /// Sets up the solver: validates settings, equilibrates the problem, and
    /// builds the backend selected by [`Settings::linsys`].
    ///
    /// `problem` is a `&QpProblem` (copied once) or an `Arc<QpProblem>`
    /// (shared, never copied) — retries, resumes and concurrent services
    /// pass the `Arc` so one copy of the data serves every solver.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid settings or a failed factorization.
    pub fn new(
        problem: impl Into<Arc<QpProblem>>,
        settings: Settings,
    ) -> Result<Self, SolverError> {
        let kind = settings.linsys;
        Self::with_backend(problem, settings, &mut |p, a, sigma, rho, s| match kind {
            LinSysKind::DirectLdlt => {
                Ok(Box::new(DirectLdltBackend::with_ordering(p, a, sigma, rho, s.ordering)?))
            }
            LinSysKind::CpuPcg => Ok(Box::new(CpuPcgBackend::with_threads(
                p,
                a,
                sigma,
                rho,
                s.cg_tolerance.initial(),
                s.cg_max_iter,
                s.resolved_threads(),
            ))),
        })
    }

    /// Sets up the solver with a caller-provided backend factory (used by
    /// `rsqp-core` to inject the simulated-FPGA backend). The factory
    /// receives the scaled `P` and `A`, σ, the initial ρ vector and the
    /// settings; `problem` is taken as in [`Solver::new`].
    ///
    /// # Errors
    ///
    /// Returns an error for invalid settings or a factory failure.
    pub fn with_backend(
        problem: impl Into<Arc<QpProblem>>,
        settings: Settings,
        factory: &mut dyn FnMut(
            &CsrMatrix,
            &CsrMatrix,
            f64,
            &[f64],
            &Settings,
        ) -> Result<Box<dyn KktBackend>, SolverError>,
    ) -> Result<Self, SolverError> {
        let problem = problem.into();
        let start = Instant::now();
        settings.validate()?;
        let n = problem.num_vars();
        let m = problem.num_constraints();

        let t_scaling = Instant::now();
        let (scaling, ScaledData { p, q, a }) =
            Scaling::ruiz(problem.p(), problem.q(), problem.a(), settings.scaling_iters);
        let scaling_time = t_scaling.elapsed();
        let (l, u) = scaling.scale_bounds(problem.l(), problem.u());
        let rho_mgr = RhoManager::new(settings.rho, &l, &u);
        let backend = factory(&p, &a, settings.sigma, rho_mgr.rho_vec(), &settings)?;
        Ok(Solver {
            settings,
            orig: problem,
            p,
            q,
            a,
            l,
            u,
            scaling,
            ruiz_ws: RuizWorkspace::new(n, m),
            rho_mgr,
            backend,
            x: vec![0.0; n],
            z: vec![0.0; m],
            y: vec![0.0; m],
            ws: IterateWorkspace::new(n, m),
            setup_time: start.elapsed(),
            scaling_time,
            retired_stats: BackendStats::default(),
            total_iterations: 0,
        })
    }

    /// The problem this solver was set up for.
    pub fn problem(&self) -> &QpProblem {
        &self.orig
    }

    /// The active backend's name.
    pub fn backend_name(&self) -> &str {
        self.backend.name()
    }

    /// Warm-starts the iterates from an unscaled primal/dual guess.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::InvalidProblem`] on length mismatches or
    /// non-finite entries (a NaN warm start would silently poison every
    /// subsequent iterate).
    pub fn warm_start(&mut self, x: &[f64], y: &[f64]) -> Result<(), SolverError> {
        if x.len() != self.x.len() || y.len() != self.y.len() {
            return Err(SolverError::InvalidProblem(format!(
                "warm-start lengths ({}, {}) do not match problem ({}, {})",
                x.len(),
                y.len(),
                self.x.len(),
                self.y.len()
            )));
        }
        if let Some(j) = x.iter().position(|v| !v.is_finite()) {
            return Err(SolverError::InvalidProblem(format!(
                "warm-start x[{j}] = {} is not finite",
                x[j]
            )));
        }
        if let Some(i) = y.iter().position(|v| !v.is_finite()) {
            return Err(SolverError::InvalidProblem(format!(
                "warm-start y[{i}] = {} is not finite",
                y[i]
            )));
        }
        self.x = self.scaling.scale_x(x);
        self.y = self.scaling.scale_y(y);
        self.a.spmv(&self.x, &mut self.z)?;
        Ok(())
    }

    /// Resets the iterates to zero (cold start).
    pub fn cold_start(&mut self) {
        self.x.fill(0.0);
        self.z.fill(0.0);
        self.y.fill(0.0);
    }

    /// The current base step size ρ̄.
    pub fn rho_bar(&self) -> f64 {
        self.rho_mgr.rho_bar()
    }

    /// The per-constraint ρ vector currently installed in the backend.
    pub fn rho_vec(&self) -> &[f64] {
        self.rho_mgr.rho_vec()
    }

    /// The per-constraint classification (equality / inequality / loose)
    /// the ρ vector is derived from. Classification happens on the *scaled*
    /// bounds, so a re-equilibration (e.g. after
    /// [`Solver::update_matrices`]) may legitimately change it.
    pub fn constraint_kinds(&self) -> &[ConstraintKind] {
        self.rho_mgr.kinds()
    }

    /// A clone of the shared problem handle, reflecting every parametric
    /// update applied so far: what a session rebuilds a failed solver
    /// from. While the clone lives, the next update copies the problem
    /// (`Arc::make_mut`), so hold it no longer than needed.
    pub fn problem_shared(&self) -> Arc<QpProblem> {
        Arc::clone(&self.orig)
    }

    /// Total ADMM iterations accumulated across all `solve` calls on this
    /// instance (checkpoint metadata).
    pub fn total_iterations(&self) -> u64 {
        self.total_iterations
    }

    pub(crate) fn unscaled_x(&self) -> Vec<f64> {
        self.scaling.unscale_x(&self.x)
    }

    pub(crate) fn unscaled_y(&self) -> Vec<f64> {
        self.scaling.unscale_y(&self.y)
    }

    pub(crate) fn unscaled_z(&self) -> Vec<f64> {
        self.scaling.unscale_z(&self.z)
    }

    /// Installs unscaled iterates verbatim (checkpoint restore). Unlike
    /// [`Solver::warm_start`], the slack `z` is restored exactly rather
    /// than recomputed as `Ax` — mid-ADMM the two differ, and resuming must
    /// not perturb the dual update. Inputs are pre-validated by
    /// [`crate::Checkpoint::validate`].
    pub(crate) fn restore_iterates(&mut self, x: &[f64], y: &[f64], z: &[f64], iters: u64) {
        self.x = self.scaling.scale_x(x);
        self.y = self.scaling.scale_y(y);
        self.z = self.scaling.scale_z(z);
        self.total_iterations = iters;
    }

    /// Replaces the constraint bounds (same structure), re-deriving the
    /// per-constraint ρ classification.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid bounds or a failed refactorization.
    pub fn update_bounds(&mut self, l: Vec<f64>, u: Vec<f64>) -> Result<(), SolverError> {
        Arc::make_mut(&mut self.orig).update_bounds(l, u)?;
        self.scaling.scale_bounds_into(self.orig.l(), self.orig.u(), &mut self.l, &mut self.u);
        if self.rho_mgr.update_bounds(&self.l, &self.u) {
            self.backend.update_rho(self.rho_mgr.rho_vec())?;
        }
        Ok(())
    }

    /// Replaces the values of `P` and/or `A` (same sparsity structure),
    /// re-runs the equilibration on the new data, and pushes the refreshed
    /// matrices into the backend — OSQP's `update_P_A`. The customized
    /// architecture (which depends only on the structure) stays valid.
    ///
    /// Everything happens in place, bit for bit as a fresh equilibration,
    /// and allocates nothing with the CPU PCG or the simulated-FPGA
    /// backend — unless the problem `Arc` is shared with another owner,
    /// which `Arc::make_mut` then copies once.
    ///
    /// # Errors
    ///
    /// Returns an error if a replacement changes the structure or the
    /// backend fails to refactorize.
    pub fn update_matrices(
        &mut self,
        p_new: Option<CsrMatrix>,
        a_new: Option<CsrMatrix>,
    ) -> Result<(), SolverError> {
        Arc::make_mut(&mut self.orig).update_matrices(p_new, a_new)?;
        // Map the current iterates out of the old scaled space, and into the
        // new one below, so warm starts survive the update. The slack z is
        // carried through the scaling change like x/y — mid-ADMM it is the
        // *projected* iterate, distinct from A·x̄, and recomputing it would
        // leave the restart outside [l, u].
        self.scaling.unscale_in_place(&mut self.x, &mut self.z, &mut self.y);
        // Re-equilibrate the new values in place.
        self.p.data_mut().copy_from_slice(self.orig.p().data());
        self.q.copy_from_slice(self.orig.q());
        self.a.data_mut().copy_from_slice(self.orig.a().data());
        let iters = self.settings.scaling_iters;
        self.scaling.equilibrate(&mut self.p, &mut self.q, &mut self.a, iters, &mut self.ruiz_ws);
        self.scaling.scale_bounds_into(self.orig.l(), self.orig.u(), &mut self.l, &mut self.u);
        self.scaling.scale_in_place(&mut self.x, &mut self.z, &mut self.y);
        // The ρ classification is derived from the *scaled* bounds, and the
        // new equilibration can move a constraint across the equality/loose
        // thresholds — re-derive it before the backend sees ρ.
        self.rho_mgr.update_bounds(&self.l, &self.u);
        self.backend.update_matrices(&self.p, &self.a, self.rho_mgr.rho_vec())?;
        Ok(())
    }

    /// Replaces the linear cost `q`.
    ///
    /// # Errors
    ///
    /// Returns an error on length mismatch.
    pub fn update_q(&mut self, q: Vec<f64>) -> Result<(), SolverError> {
        Arc::make_mut(&mut self.orig).update_q(q)?;
        self.scaling.scale_q_into(self.orig.q(), &mut self.q);
        Ok(())
    }

    /// Manually sets the base step size ρ̄ (OSQP's `update_rho`), rebuilding
    /// the per-constraint vector and informing the backend. Disables nothing:
    /// adaptive updates (if enabled) continue from the new value.
    ///
    /// # Errors
    ///
    /// Returns an error for a value [`Settings::validate`] would reject as
    /// ρ, or a failed backend refactorization.
    pub fn update_rho(&mut self, rho_bar: f64) -> Result<(), SolverError> {
        validate_rho(rho_bar)?;
        // In-place rebuild: the classification is unchanged (bounds did not
        // move), the buffers are reused, and the adaptive-update counter
        // survives — parametric update→re-solve loops stay allocation-free.
        self.rho_mgr.set_rho_bar(rho_bar);
        self.backend.update_rho(self.rho_mgr.rho_vec())?;
        Ok(())
    }

    /// Runs the ADMM iteration until convergence, an infeasibility
    /// certificate, or the iteration cap.
    ///
    /// # Errors
    ///
    /// Returns an error only on backend failure (e.g. a refactorization
    /// failing after a ρ update).
    pub fn solve(&mut self) -> Result<SolveResult, SolverError> {
        self.solve_with_control(&SolveControl::unbounded())
    }

    /// Like [`Solver::solve`], but under a caller-provided budget: a
    /// wall-clock deadline, an iteration cap, and/or a cancellation token
    /// another thread may trip. The budget is checked cooperatively at every
    /// ADMM iteration boundary — including after guard recoveries and the
    /// PCG→LDLᵀ fallback refactorization — so an expired budget surfaces as
    /// [`Status::Cancelled`] / [`Status::TimeLimitReached`] promptly and
    /// with well-defined iterates, never as a mid-iteration abort.
    ///
    /// # Errors
    ///
    /// Returns an error only on backend failure; budget exhaustion is a
    /// status, not an error.
    pub fn solve_with_control(
        &mut self,
        control: &SolveControl,
    ) -> Result<SolveResult, SolverError> {
        let t_start = Instant::now();
        let mut kkt_time = Duration::ZERO;
        let n = self.x.len();
        let m = self.z.len();
        let s = self.settings.clone();

        // Unified wall-clock budget: the tighter of the relative
        // `Settings::time_limit` and the absolute control deadline.
        let mut budget = control.clone();
        if let Some(limit) = s.time_limit {
            let from_settings = t_start + limit;
            budget.deadline = Some(budget.deadline.map_or(from_settings, |d| d.min(from_settings)));
        }
        let max_iter = control.iter_cap.map_or(s.max_iter, |cap| cap.min(s.max_iter)).max(1);

        let mut cg_eps = s.cg_tolerance.initial();
        if let CgTolerance::Adaptive { .. } = s.cg_tolerance {
            self.backend.set_cg_tolerance(cg_eps);
        }
        let mut last_res = f64::INFINITY;

        let mut status = Status::MaxIterationsReached;
        let mut iterations = max_iter;
        let mut last_info: Option<ResidualInfo> = None;
        let mut last_rho_iter = 0usize;
        let mut guard = if s.guard { Some(Guard::new(&self.x, &self.z, &self.y)) } else { None };
        // The KKT warm start: x̃ carries over between iterations of this
        // solve, and restarts from x here and after every recovery. Starting
        // each solve from x covers warm/cold starts, checkpoint restores and
        // parametric updates (which may change the scaled space).
        self.ws.xtilde.copy_from_slice(&self.x);
        let mut tracer: Option<TraceBuilder> = if s.trace {
            let mut timeline = Timeline::new();
            timeline.start("solve");
            let loop_span = timeline.start("admm_loop");
            Some(TraceBuilder {
                timeline,
                loop_span,
                trace: SolveTrace {
                    problem: self.orig.name().to_string(),
                    n,
                    m,
                    ..SolveTrace::default()
                },
            })
        } else {
            None
        };

        for k in 1..=max_iter {
            // Budget check at the iteration boundary. This also catches a
            // deadline that expired *inside* the previous KKT solve or a
            // guard recovery (e.g. the fallback LDLᵀ refactorization), so no
            // code path can overrun the budget by more than one iteration.
            if let Some(stop) = budget.check(Instant::now()) {
                status = stop;
                iterations = k - 1;
                break;
            }

            self.ws.prev_x.copy_from_slice(&self.x);
            self.ws.prev_y.copy_from_slice(&self.y);

            let cg_before = if tracer.is_some() { self.backend.stats().cg_iterations } else { 0 };
            let t = Instant::now();
            let kkt_result = self.backend.solve_kkt(
                &self.x,
                &self.z,
                &self.y,
                &self.q,
                &mut self.ws.xtilde,
                &mut self.ws.ztilde,
            );
            let kkt_elapsed = t.elapsed();
            kkt_time += kkt_elapsed;
            if let Err(e) = kkt_result {
                match guard.as_mut() {
                    Some(g) if e.is_recoverable() => {
                        if let Some(action) = self.apply_recovery(
                            g,
                            &Anomaly::BackendFault { error: e },
                            &mut cg_eps,
                        )? {
                            if let Some(tb) = tracer.as_mut() {
                                tb.event(k, recovery_kind(action), action.to_string());
                            }
                            continue;
                        }
                        status = Status::NumericalError;
                        iterations = k;
                        break;
                    }
                    _ => return Err(e),
                }
            }
            if let Some(tb) = tracer.as_mut() {
                tb.trace.records.push(IterationTrace {
                    iter: k as u64,
                    cg_iters: self.backend.stats().cg_iterations.saturating_sub(cg_before) as u64,
                    kkt_ns: kkt_elapsed.as_nanos() as u64,
                    rho_bar: self.rho_mgr.rho_bar(),
                    prim_res: f64::NAN,
                    dual_res: f64::NAN,
                });
            }

            // x^{k+1} = α x̃ + (1−α) x^k        (Algorithm 1, line 5)
            for j in 0..n {
                self.x[j] = s.alpha * self.ws.xtilde[j] + (1.0 - s.alpha) * self.x[j];
            }
            // z^{k+1} = Π(α z̃ + (1−α) z^k + ρ⁻¹ y^k)   (line 6)
            // y^{k+1} = ρ ∘ (candidate − z^{k+1})        (line 7, rearranged)
            let rho_inv = self.rho_mgr.rho_inv_vec();
            let rho_vec = self.rho_mgr.rho_vec();
            for i in 0..m {
                self.ws.zcand[i] = s.alpha * self.ws.ztilde[i]
                    + (1.0 - s.alpha) * self.z[i]
                    + rho_inv[i] * self.y[i];
                self.z[i] = self.ws.zcand[i].max(self.l[i]).min(self.u[i]);
                self.y[i] = rho_vec[i] * (self.ws.zcand[i] - self.z[i]);
            }

            let checking = k % s.check_termination == 0 || k == max_iter;
            if !checking {
                continue;
            }

            // Residuals (unscaled) from scaled intermediates.
            self.a.spmv(&self.x, &mut self.ws.ax)?;
            self.p.spmv(&self.x, &mut self.ws.px)?;
            self.a.spmv_transpose(&self.y, &mut self.ws.aty)?;
            let info = residuals(
                &self.scaling,
                &self.ws.ax,
                &self.z,
                &self.ws.px,
                &self.ws.aty,
                &self.q,
                s.eps_abs,
                s.eps_rel,
            );
            last_info = Some(info);
            if let Some(tb) = tracer.as_mut() {
                if let Some(r) = tb.trace.records.last_mut() {
                    r.prim_res = info.prim;
                    r.dual_res = info.dual;
                }
            }

            if let Some(g) = guard.as_mut() {
                if let Some(anomaly) = g.inspect(&self.x, &self.z, &self.y, info.prim, info.dual) {
                    if let Some(action) = self.apply_recovery(g, &anomaly, &mut cg_eps)? {
                        if let Some(tb) = tracer.as_mut() {
                            tb.event(k, recovery_kind(action), action.to_string());
                        }
                        continue;
                    }
                    status = Status::NumericalError;
                    iterations = k;
                    break;
                }
                g.record_good(&self.x, &self.z, &self.y);
            }

            if info.converged() {
                status = Status::Solved;
                iterations = k;
                break;
            }

            if self.detect_primal_infeasible(s.eps_prim_inf)? {
                status = Status::PrimalInfeasible;
                iterations = k;
                break;
            }
            if self.detect_dual_infeasible(s.eps_dual_inf)? {
                status = Status::DualInfeasible;
                iterations = k;
                break;
            }

            if let CgTolerance::Adaptive { fraction, min, .. } = s.cg_tolerance {
                // Monotone-decreasing inner tolerance tied to the outer
                // residuals; if the outer iteration stalls (inexact solves
                // holding it at a floor), force a 10x reduction — the
                // cuOSQP-style reduction rule.
                let res = info.prim.max(info.dual);
                let mut proposal = fraction * (info.prim * info.dual).sqrt();
                if res > 0.9 * last_res {
                    proposal = proposal.min(cg_eps * 0.1);
                }
                cg_eps = proposal.min(cg_eps).max(min);
                self.backend.set_cg_tolerance(cg_eps);
                last_res = res;
            }

            if s.adaptive_rho && k - last_rho_iter >= s.adaptive_rho_interval {
                let changed = self.rho_mgr.maybe_update(
                    info.prim,
                    info.prim_scale,
                    info.dual,
                    info.dual_scale,
                    s.adaptive_rho_tolerance,
                );
                if changed {
                    self.backend.update_rho(self.rho_mgr.rho_vec())?;
                    last_rho_iter = k;
                    if let Some(tb) = tracer.as_mut() {
                        let rho_bar = self.rho_mgr.rho_bar();
                        if let Some(r) = tb.trace.records.last_mut() {
                            r.rho_bar = rho_bar;
                        }
                        tb.event(k, "rho_update", format!("{rho_bar:?}"));
                    }
                }
            }
        }

        if let Some(tb) = tracer.as_mut() {
            let id = tb.loop_span;
            tb.timeline.end(id);
        }
        self.total_iterations += iterations as u64;
        let mut x = self.scaling.unscale_x(&self.x);
        let mut y = self.scaling.unscale_y(&self.y);
        let mut z = self.scaling.unscale_z(&self.z);
        let (mut prim_res, mut dual_res) = match last_info {
            Some(i) => (i.prim, i.dual),
            None => (f64::NAN, f64::NAN),
        };
        let mut polished = false;
        // Polish only with budget to spare: if the deadline expired between
        // convergence and here, the status stays Solved (the iterate is a
        // solution) but the optional refinement is skipped.
        if s.polish && status == Status::Solved && budget.check(Instant::now()).is_none() {
            let polish_span = tracer.as_mut().map(|tb| tb.timeline.start("polish"));
            if let Some(out) =
                crate::polish::polish(&self.orig, &y, s.polish_delta, s.polish_refine_iters)?
            {
                // Accept only if both residuals improve (OSQP's rule).
                if out.prim_res <= prim_res.max(1e-30) && out.dual_res <= dual_res.max(1e-30) {
                    x = out.x;
                    y = out.y;
                    z = out.z;
                    prim_res = out.prim_res;
                    dual_res = out.dual_res;
                    polished = true;
                }
            }
            if let (Some(tb), Some(id)) = (tracer.as_mut(), polish_span) {
                tb.timeline.end(id);
                tb.event(
                    iterations,
                    "polish",
                    if polished { "accepted" } else { "rejected" }.to_string(),
                );
            }
        }
        // Last line of defense, guard or no guard: never report Solved with
        // a non-finite solution.
        if status == Status::Solved
            && !(x.iter().all(|v| v.is_finite())
                && y.iter().all(|v| v.is_finite())
                && z.iter().all(|v| v.is_finite()))
        {
            status = Status::NumericalError;
        }
        let objective = self.orig.objective(&x);
        let trace = tracer.map(|tb| {
            let mut trace = tb.trace;
            trace.backend = self.backend.name().to_string();
            trace.status = status.to_string();
            trace.iterations = iterations as u64;
            // The timeline's origin is the start of `solve`; splice the
            // setup/scaling phases (measured in `Solver::new`, before the
            // timeline existed) in front and shift the live spans so the
            // whole trace shares one time axis.
            let setup_ns = self.setup_time.as_nanos() as u64;
            let scaling_ns = self.scaling_time.as_nanos() as u64;
            trace.spans.push(SpanRecord {
                name: "setup".to_string(),
                depth: 0,
                start_ns: 0,
                end_ns: setup_ns,
            });
            trace.spans.push(SpanRecord {
                name: "scaling".to_string(),
                depth: 1,
                start_ns: 0,
                end_ns: scaling_ns.min(setup_ns),
            });
            for mut span in tb.timeline.finish() {
                span.start_ns += setup_ns;
                span.end_ns += setup_ns;
                trace.spans.push(span);
            }
            trace
        });
        Ok(SolveResult {
            status,
            x,
            y,
            z,
            objective,
            iterations,
            prim_res,
            dual_res,
            polished,
            guard: guard.map(|g| g.report()).unwrap_or_default(),
            rho_updates: self.rho_mgr.updates(),
            backend: self.retired_stats.merged(self.backend.stats()),
            timings: TimingBreakdown {
                setup: self.setup_time,
                solve: t_start.elapsed(),
                kkt_solve: kkt_time,
            },
            trace,
        })
    }

    /// Applies one rung of the recovery ladder. Returns `Ok(Some(action))`
    /// when the solve should continue iterating (the label names the rung,
    /// for the trace), `Ok(None)` when the ladder is exhausted (caller
    /// reports [`Status::NumericalError`]).
    fn apply_recovery(
        &mut self,
        guard: &mut Guard,
        anomaly: &Anomaly,
        cg_eps: &mut f64,
    ) -> Result<Option<&'static str>, SolverError> {
        let can_fallback = self.backend.name() != "ldlt";
        let action = guard.recover(anomaly, can_fallback);
        if action != RecoveryAction::Abort {
            // A failed KKT solve may have left a partial or NaN iterate in
            // x̃; every rung restarts the warm start from the restored x.
            guard.restore(&mut self.x, &mut self.z, &mut self.y);
            self.ws.xtilde.copy_from_slice(&self.x);
        }
        match action {
            RecoveryAction::ResetIterates => Ok(Some("reset_iterates")),
            RecoveryAction::TightenCgTolerance => {
                *cg_eps = (*cg_eps * GUARD_CG_SHRINK).max(GUARD_CG_FLOOR);
                self.backend.set_cg_tolerance(*cg_eps);
                Ok(Some("tighten_cg_tolerance"))
            }
            RecoveryAction::FallbackToDirect => {
                // The direct factorization is the safety net; if even it
                // cannot be built the error is structural and propagates.
                let direct = DirectLdltBackend::with_ordering(
                    &self.p,
                    &self.a,
                    self.settings.sigma,
                    self.rho_mgr.rho_vec(),
                    self.settings.ordering,
                )?;
                self.retired_stats = self.retired_stats.merged(self.backend.stats());
                self.backend = Box::new(direct);
                Ok(Some("fallback_to_direct"))
            }
            RecoveryAction::Abort => Ok(None),
        }
    }

    /// Primal-infeasibility certificate check on `δy = y − prev_y` (both in
    /// the workspace), allocation-free.
    fn detect_primal_infeasible(&mut self, eps: f64) -> Result<bool, SolverError> {
        let m = self.y.len();
        if m == 0 {
            return Ok(false);
        }
        // δȳ in scaled space, mapped to unscaled: δy = c⁻¹·E·δȳ.
        let cinv = self.scaling.cinv();
        let e = self.scaling.e();
        let dinv = self.scaling.dinv();
        for i in 0..m {
            self.ws.dy_scaled[i] = self.y[i] - self.ws.prev_y[i];
            self.ws.dy[i] = cinv * e[i] * self.ws.dy_scaled[i];
        }
        // Aᵀδy (unscaled) = c⁻¹·D⁻¹·Āᵀ·δȳ.
        self.a.spmv_transpose(&self.ws.dy_scaled, &mut self.ws.at_dy)?;
        for (v, &di) in self.ws.at_dy.iter_mut().zip(dinv) {
            *v *= cinv * di;
        }
        Ok(primal_certificate(&self.ws.dy, &self.ws.at_dy, self.orig.l(), self.orig.u(), eps))
    }

    /// Dual-infeasibility certificate check on `δx = x − prev_x` (both in
    /// the workspace), allocation-free.
    fn detect_dual_infeasible(&mut self, eps: f64) -> Result<bool, SolverError> {
        // δx̄ scaled; unscaled δx = D·δx̄.
        let d = self.scaling.d();
        let dinv = self.scaling.dinv();
        let einv = self.scaling.einv();
        let cinv = self.scaling.cinv();
        for j in 0..self.x.len() {
            self.ws.dx_scaled[j] = self.x[j] - self.ws.prev_x[j];
            self.ws.dx[j] = self.ws.dx_scaled[j] * d[j];
        }
        // P·δx (unscaled) = c⁻¹·D⁻¹·P̄·δx̄.
        self.p.spmv(&self.ws.dx_scaled, &mut self.ws.p_dx)?;
        for (v, &di) in self.ws.p_dx.iter_mut().zip(dinv) {
            *v *= cinv * di;
        }
        // A·δx (unscaled) = E⁻¹·Ā·δx̄.
        self.a.spmv(&self.ws.dx_scaled, &mut self.ws.a_dx)?;
        for (v, &ei) in self.ws.a_dx.iter_mut().zip(einv) {
            *v *= ei;
        }
        Ok(dual_certificate(
            &self.ws.dx,
            &self.ws.p_dx,
            &self.ws.a_dx,
            self.orig.q(),
            self.orig.l(),
            self.orig.u(),
            eps,
        ))
    }
}
