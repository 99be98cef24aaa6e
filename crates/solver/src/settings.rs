use crate::SolverError;

/// Which KKT backend [`crate::Solver::new`] constructs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LinSysKind {
    /// Sparse quasi-definite LDLᵀ (OSQP CPU default), factored at set-up
    /// under [`Settings::ordering`].
    #[default]
    DirectLdlt,
    /// The same LDLᵀ under AMD, formed at the first KKT solve
    /// ([`crate::CpuPcgBackend`]). Named for the reduced-system PCG of
    /// cuOSQP and RSQP, which no backend runs.
    CpuPcg,
}

/// Fill-reducing ordering applied to the KKT matrix by the direct backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KktOrdering {
    /// No reordering.
    Natural,
    /// Reverse-Cuthill-McKee (bandwidth reduction).
    Rcm,
    /// Approximate minimum degree (Amestoy, Davis and Duff), OSQP's
    /// default pairing with QDLDL.
    #[default]
    Amd,
}

/// Tolerance policy for the inner PCG solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CgTolerance {
    /// Fixed relative tolerance `‖r‖ < eps·‖b‖` every ADMM iteration.
    Fixed(f64),
    /// Adaptive tolerance tied to the outer residuals (the cuOSQP scheme):
    /// `eps_k = clamp(fraction · √(r_prim · r_dual), min, start)`, updated at
    /// every termination check.
    Adaptive {
        /// Multiplier on the geometric mean of the ADMM residuals.
        fraction: f64,
        /// Tolerance floor.
        min: f64,
        /// Tolerance before the first termination check.
        start: f64,
    },
}

impl CgTolerance {
    /// The tolerance the first PCG solve uses: the fixed value, or the
    /// adaptive policy's `start`. Every backend factory starts from it.
    pub fn initial(&self) -> f64 {
        match *self {
            CgTolerance::Fixed(e) => e,
            CgTolerance::Adaptive { start, .. } => start,
        }
    }
}

impl Default for CgTolerance {
    fn default() -> Self {
        CgTolerance::Adaptive { fraction: 0.15, min: 1e-10, start: 1e-5 }
    }
}

/// Solver settings (defaults follow OSQP).
#[derive(Debug, Clone, PartialEq)]
pub struct Settings {
    /// Initial ADMM step size ρ.
    pub rho: f64,
    /// Regularization σ added to `P` in the KKT matrix.
    pub sigma: f64,
    /// Relaxation parameter α ∈ (0, 2).
    pub alpha: f64,
    /// Iteration cap.
    pub max_iter: usize,
    /// Absolute termination tolerance.
    pub eps_abs: f64,
    /// Relative termination tolerance.
    pub eps_rel: f64,
    /// Primal-infeasibility certificate tolerance.
    pub eps_prim_inf: f64,
    /// Dual-infeasibility certificate tolerance.
    pub eps_dual_inf: f64,
    /// Number of Ruiz equilibration iterations (0 disables scaling).
    pub scaling_iters: usize,
    /// Enables adaptive ρ updates.
    pub adaptive_rho: bool,
    /// Iterations between ρ-update evaluations.
    pub adaptive_rho_interval: usize,
    /// ρ changes only when the proposed value differs by more than this
    /// multiplicative factor.
    pub adaptive_rho_tolerance: f64,
    /// Iterations between termination checks.
    pub check_termination: usize,
    /// Which linear-system backend to build.
    pub linsys: LinSysKind,
    /// Fill-reducing ordering for the direct backend.
    pub ordering: KktOrdering,
    /// Inner-PCG tolerance policy (only used by PCG-style backends).
    pub cg_tolerance: CgTolerance,
    /// Inner-PCG iteration cap per ADMM iteration.
    pub cg_max_iter: usize,
    /// Runs solution polishing after a successful solve.
    pub polish: bool,
    /// Regularization δ used by the polishing KKT system.
    pub polish_delta: f64,
    /// Iterative-refinement sweeps during polishing.
    pub polish_refine_iters: usize,
    /// Optional wall-clock budget for `solve` (checked at termination
    /// checks; `None` disables the limit).
    pub time_limit: Option<std::time::Duration>,
    /// Enables the numerical guard: iterate checks at every termination
    /// check and the recovery ladder of [`crate::Guard`]. When `false`,
    /// backend errors propagate immediately and iterates are never
    /// inspected (the final result is still screened: `Solved` is never
    /// reported with a non-finite solution).
    pub guard: bool,
    /// Collects a full [`rsqp_obs::SolveTrace`] (phase spans, per-iteration
    /// residuals and PCG counts, ρ-update and guard events) on the returned
    /// `SolveResult`. Off by default: when disabled the solve allocates
    /// nothing for telemetry and the hot path is unchanged (the zero-alloc
    /// proof in `tests/zero_alloc.rs` runs with this setting off).
    pub trace: bool,
}

impl Default for Settings {
    fn default() -> Self {
        Settings {
            rho: 0.1,
            sigma: 1e-6,
            alpha: 1.6,
            max_iter: 4000,
            eps_abs: 1e-3,
            eps_rel: 1e-3,
            eps_prim_inf: 1e-4,
            eps_dual_inf: 1e-4,
            scaling_iters: 10,
            adaptive_rho: true,
            adaptive_rho_interval: 50,
            adaptive_rho_tolerance: 5.0,
            check_termination: 25,
            linsys: LinSysKind::DirectLdlt,
            ordering: KktOrdering::default(),
            cg_tolerance: CgTolerance::default(),
            cg_max_iter: 2000,
            polish: false,
            polish_delta: 1e-6,
            polish_refine_iters: 3,
            time_limit: None,
            guard: true,
            trace: false,
        }
    }
}

impl Settings {
    /// Always 1: every CPU kernel is serial. Kept only because the
    /// `benchmark/` package passes it to [`crate::CpuPcgBackend::with_threads`].
    pub fn resolved_threads(&self) -> usize {
        1
    }

    /// Validates parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::InvalidSetting`] for out-of-range or
    /// non-finite values: `rho`, `sigma`, `polish_delta` and the CG
    /// tolerances must be positive, `alpha` must lie in `(0, 2)`, the
    /// termination and infeasibility tolerances must be non-negative (and
    /// `eps_abs`, `eps_rel` not both zero), `adaptive_rho_tolerance` at
    /// least 1, and the iteration caps and intervals nonzero.
    pub fn validate(&self) -> Result<(), SolverError> {
        let invalid = |msg: &str| Err(SolverError::InvalidSetting(msg.into()));
        let positive = |v: f64| v.is_finite() && v > 0.0;
        let non_negative = |v: f64| v.is_finite() && v >= 0.0;
        validate_rho(self.rho)?;
        if !positive(self.sigma) {
            return invalid("sigma must be positive and finite");
        }
        if !(self.alpha > 0.0 && self.alpha < 2.0) {
            return invalid("alpha must lie in (0, 2)");
        }
        if self.max_iter == 0 {
            return invalid("max_iter must be positive");
        }
        if !non_negative(self.eps_abs)
            || !non_negative(self.eps_rel)
            || (self.eps_abs == 0.0 && self.eps_rel == 0.0)
        {
            return invalid("eps_abs/eps_rel must be finite, non-negative and not both zero");
        }
        if !non_negative(self.eps_prim_inf) || !non_negative(self.eps_dual_inf) {
            return invalid("eps_prim_inf/eps_dual_inf must be finite and non-negative");
        }
        if self.check_termination == 0 {
            return invalid("check_termination must be positive");
        }
        if self.adaptive_rho_interval == 0 {
            return invalid("adaptive_rho_interval must be positive");
        }
        if !(self.adaptive_rho_tolerance.is_finite() && self.adaptive_rho_tolerance >= 1.0) {
            return invalid("adaptive_rho_tolerance must be finite and >= 1");
        }
        if !positive(self.polish_delta) {
            return invalid("polish_delta must be positive and finite");
        }
        match self.cg_tolerance {
            CgTolerance::Fixed(eps) if !positive(eps) => {
                return invalid("fixed CG tolerance must be positive and finite")
            }
            CgTolerance::Adaptive { fraction, min, start }
                if !positive(fraction) || !positive(min) || !positive(start) || start < min =>
            {
                return invalid("adaptive CG tolerance parameters out of range")
            }
            _ => {}
        }
        if self.cg_max_iter == 0 {
            return invalid("cg_max_iter must be positive");
        }
        Ok(())
    }
}

/// The ρ check [`Settings::validate`] applies, shared with
/// [`crate::Solver::update_rho`]: ρ must be positive and finite.
pub(crate) fn validate_rho(rho: f64) -> Result<(), SolverError> {
    if rho.is_finite() && rho > 0.0 {
        Ok(())
    } else {
        Err(SolverError::InvalidSetting("rho must be positive and finite".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        Settings::default().validate().unwrap();
    }

    #[test]
    fn rejects_bad_alpha() {
        let s = Settings { alpha: 2.0, ..Default::default() };
        assert!(s.validate().is_err());
        let s = Settings { alpha: 0.0, ..Default::default() };
        assert!(s.validate().is_err());
    }

    const NON_FINITE: [f64; 3] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];

    #[test]
    fn rejects_bad_rho_sigma() {
        assert!(Settings { rho: 0.0, ..Default::default() }.validate().is_err());
        assert!(Settings { sigma: -1.0, ..Default::default() }.validate().is_err());
        for bad in NON_FINITE {
            assert!(Settings { rho: bad, ..Default::default() }.validate().is_err(), "rho {bad}");
            assert!(Settings { sigma: bad, ..Default::default() }.validate().is_err(), "{bad}");
        }
    }

    #[test]
    fn rejects_non_finite_tolerances_and_factors() {
        let d = Settings::default;
        for bad in NON_FINITE {
            for s in [
                Settings { eps_abs: bad, ..d() },
                Settings { eps_rel: bad, ..d() },
                Settings { eps_prim_inf: bad, ..d() },
                Settings { eps_dual_inf: bad, ..d() },
                Settings { adaptive_rho_tolerance: bad, ..d() },
                Settings { polish_delta: bad, ..d() },
                Settings { cg_tolerance: CgTolerance::Fixed(bad), ..d() },
                Settings {
                    cg_tolerance: CgTolerance::Adaptive { fraction: bad, min: 1e-10, start: 1e-5 },
                    ..d()
                },
                Settings {
                    cg_tolerance: CgTolerance::Adaptive { fraction: 0.15, min: bad, start: 1e-5 },
                    ..d()
                },
                Settings {
                    cg_tolerance: CgTolerance::Adaptive { fraction: 0.15, min: 1e-10, start: bad },
                    ..d()
                },
            ] {
                assert!(s.validate().is_err(), "accepted {s:?}");
            }
        }
        assert!(Settings { eps_prim_inf: -1e-4, ..d() }.validate().is_err());
        assert!(Settings { eps_dual_inf: -1e-4, ..d() }.validate().is_err());
        // Zero infeasibility tolerances and a zero eps_rel stay legal.
        Settings { eps_prim_inf: 0.0, eps_dual_inf: 0.0, eps_rel: 0.0, ..d() }.validate().unwrap();
    }

    #[test]
    fn initial_cg_tolerance_is_the_fixed_value_or_the_adaptive_start() {
        assert_eq!(CgTolerance::Fixed(3e-7).initial(), 3e-7);
        let adaptive = CgTolerance::Adaptive { fraction: 0.15, min: 1e-10, start: 2e-5 };
        assert_eq!(adaptive.initial(), 2e-5);
        assert_eq!(CgTolerance::default().initial(), 1e-5);
    }

    #[test]
    fn rejects_zero_intervals() {
        assert!(Settings { check_termination: 0, ..Default::default() }.validate().is_err());
        assert!(Settings { adaptive_rho_interval: 0, ..Default::default() }.validate().is_err());
        assert!(Settings { max_iter: 0, ..Default::default() }.validate().is_err());
        assert!(Settings { cg_max_iter: 0, ..Default::default() }.validate().is_err());
    }

    #[test]
    fn rejects_bad_tolerances() {
        assert!(Settings { eps_abs: 0.0, eps_rel: 0.0, ..Default::default() }.validate().is_err());
        assert!(Settings { cg_tolerance: CgTolerance::Fixed(0.0), ..Default::default() }
            .validate()
            .is_err());
        assert!(Settings {
            cg_tolerance: CgTolerance::Adaptive { fraction: 0.1, min: 1e-3, start: 1e-5 },
            ..Default::default()
        }
        .validate()
        .is_err());
    }
}
