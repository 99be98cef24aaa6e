//! Preconditioned Conjugate Gradient (Algorithm 2 of the RSQP paper).
//!
//! [`pcg_with`] is the one PCG specification, and the accelerator's kernel
//! (`rsqp_arch::kernels::build_pcg`) takes the same steps, operation for
//! operation: in f64 both return the same bits and count the same steps.
//!
//! ```text
//! r = K x₀ − b ;  if r = 0: return x₀ (0 steps; δ would be 0)
//! d = M⁻¹ r ;  p = 0 − d ;  δ = r·d ;  thr = max(ε²·(b·b), PCG_EPS_ABS²)
//! repeat:  λ = δ/(p·Kp) ;  x = λp + x ;  r = λKp + r     (one step)
//!          stop if r·r < thr
//!          d = M⁻¹ r ;  δ' = r·d ;  μ = δ'/δ ;  δ = δ' ;  p = μp − d
//! ```
//!
//! with `K·v = (P·v + σ·v) + Aᵀ(ρ∘(A·v))`, the right-hand side formed as
//! `(σx − q) + Aᵀ(ρ∘z − y)`, and each dot product summed left to right.
//! A warm start that already meets the test still takes one step. One
//! difference remains: the machine's loop tests at its end, so it applies
//! `M⁻¹` once more after its final step (the iterate is the same). Both
//! sum every dot product left to right, at every length.
//!
//! Unlike a direct LDLᵀ solve, PCG can fail mid-iteration: the operator may
//! turn out indefinite along a search direction (`pᵀKp ≤ 0`), or corrupted
//! input (NaN/Inf from an upstream ρ update or a faulty datapath) can poison
//! α/β. Both conditions are detected and reported as a typed [`PcgError`]
//! instead of silently returning the poisoned iterate, so callers can run a
//! recovery policy (see `solver::guard`; the machine guards its divisors
//! with `max(·, 1e-300)` instead, which agrees whenever they are positive).

use std::error::Error;
use std::fmt;

use rsqp_sparse::vec_ops::{self, PCG_EPS_ABS};

use crate::LinsysError;

/// A symmetric positive-definite linear operator `y = K x`.
///
/// Implementors may maintain scratch space, hence `apply` takes `&mut self`.
pub trait LinearOperator {
    /// Operator dimension (square).
    fn dim(&self) -> usize;

    /// Computes `y = K x`.
    ///
    /// # Errors
    ///
    /// Returns an error if `x.len()` or `y.len()` differ from [`Self::dim`]
    /// or the underlying evaluation fails (e.g. a device-backed operator
    /// detects corruption). Implementations must not panic on bad shapes.
    fn apply(&mut self, x: &[f64], y: &mut [f64]) -> Result<(), LinsysError>;

    /// Applies the preconditioner: `d = M⁻¹ r` for an SPD `M ≈ K`. Both
    /// slices have length [`Self::dim`].
    ///
    /// The default is `M = I` (`d = r`). Operators used on the solver hot
    /// path must not allocate here, so a workspace-based solve
    /// ([`pcg_with`]) stays allocation-free.
    fn precondition(&mut self, r: &[f64], d: &mut [f64]) {
        d.copy_from_slice(r);
    }
}

/// Typed failure of a [`pcg_with`] solve.
///
/// Any error means the returned iterate would have been unreliable; callers
/// should treat their own copy of the warm start as the last good state.
#[derive(Debug, Clone, PartialEq)]
pub enum PcgError {
    /// `pᵀKp ≤ 0` (or `rᵀM⁻¹r ≤ 0`): the operator or preconditioner is not
    /// positive definite along the current direction. Carries the iteration
    /// index and the offending curvature value.
    Breakdown {
        /// Iteration at which breakdown was detected (1-based).
        iteration: usize,
        /// The non-positive curvature `pᵀKp` or `rᵀM⁻¹r`.
        curvature: f64,
    },
    /// A scalar in the recurrence (step length, residual norm, or direction
    /// update) became NaN or ±Inf.
    NonFinite {
        /// Iteration at which the non-finite value appeared (0 = setup).
        iteration: usize,
        /// Which quantity went non-finite.
        quantity: &'static str,
    },
    /// The operator application itself failed.
    Operator(LinsysError),
}

impl fmt::Display for PcgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PcgError::Breakdown { iteration, curvature } => write!(
                f,
                "PCG breakdown at iteration {iteration}: curvature {curvature:e} is not positive"
            ),
            PcgError::NonFinite { iteration, quantity } => {
                write!(f, "PCG produced a non-finite {quantity} at iteration {iteration}")
            }
            PcgError::Operator(e) => write!(f, "PCG operator application failed: {e}"),
        }
    }
}

impl Error for PcgError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PcgError::Operator(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LinsysError> for PcgError {
    fn from(e: LinsysError) -> Self {
        PcgError::Operator(e)
    }
}

/// Convergence and iteration-limit settings for [`pcg_with`].
#[derive(Debug, Clone, PartialEq)]
pub struct PcgSettings {
    /// Relative tolerance: iterate until `‖r‖₂ < eps·‖b‖₂` (Algorithm 2,
    /// line 10).
    pub eps: f64,
    /// Iteration cap.
    pub max_iter: usize,
}

impl Default for PcgSettings {
    fn default() -> Self {
        PcgSettings { eps: 1e-8, max_iter: 5000 }
    }
}

/// Iteration summary of an in-place [`pcg_with`] solve. The iterate itself
/// is returned through the `x` argument.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PcgSummary {
    /// Steps taken (operator applications minus one).
    pub iterations: usize,
    /// Final residual 2-norm `‖K x − b‖₂`.
    pub residual: f64,
    /// Whether the tolerance was met within `max_iter`.
    pub converged: bool,
}

/// Reusable scratch space for [`pcg_with`]: the residual, preconditioned
/// residual, search direction and operator output.
///
/// Allocate once per KKT backend and reuse across solves; a solve against
/// an operator of the same dimension performs no heap allocation.
#[derive(Debug, Clone)]
pub struct PcgWorkspace {
    r: Vec<f64>,
    d: Vec<f64>,
    p: Vec<f64>,
    kp: Vec<f64>,
}

impl PcgWorkspace {
    /// Workspace sized for an operator of dimension `n`.
    pub fn new(n: usize) -> Self {
        PcgWorkspace { r: vec![0.0; n], d: vec![0.0; n], p: vec![0.0; n], kp: vec![0.0; n] }
    }

    /// Grows or shrinks the buffers to dimension `n` (no-op when already
    /// that size).
    pub fn resize(&mut self, n: usize) {
        if self.r.len() != n {
            self.r.resize(n, 0.0);
            self.d.resize(n, 0.0);
            self.p.resize(n, 0.0);
            self.kp.resize(n, 0.0);
        }
    }
}

/// Solves `K x = b` with the Preconditioned Conjugate Gradient method, in
/// place, warm-started at the incoming value of `x`, reusing `ws` for every
/// intermediate vector.
///
/// Implements Algorithm 2 of the paper as the module documentation
/// specifies it, with `d = M⁻¹ r` from [`LinearOperator::precondition`].
/// With a correctly sized workspace (and an operator whose
/// [`LinearOperator::precondition`] does not allocate) it performs **zero
/// heap allocations**, which is what lets the ADMM steady state run
/// allocation-free.
///
/// # Errors
///
/// Returns [`PcgError::Breakdown`] if the operator is indefinite along a
/// search direction, [`PcgError::NonFinite`] if the recurrence produces
/// NaN/Inf (e.g. corrupted `b` or operator data), and
/// [`PcgError::Operator`] if an operator application fails, including a
/// typed dimension error when `b.len()` or `x.len()` differ from
/// `op.dim()` (checked up front before any state is touched). On error `x`
/// may hold a partially updated iterate — callers must treat their own copy
/// as the last good state (the solver's guard ladder already does).
pub fn pcg_with(
    op: &mut dyn LinearOperator,
    b: &[f64],
    x: &mut [f64],
    settings: &PcgSettings,
    ws: &mut PcgWorkspace,
) -> Result<PcgSummary, PcgError> {
    let n = op.dim();
    check_lengths(n, b, x)?;
    ws.resize(n);

    let bb = vec_ops::dot(b, b);
    if !bb.is_finite() {
        return Err(PcgError::NonFinite { iteration: 0, quantity: "rhs norm" });
    }
    let thr = (settings.eps * settings.eps * bb).max(PCG_EPS_ABS * PCG_EPS_ABS);

    // r0 = K x0 - b
    op.apply(x, &mut ws.r)?;
    vec_ops::axpy(-1.0, b, &mut ws.r);
    let mut rr = vec_ops::dot(&ws.r, &ws.r);
    if !rr.is_finite() {
        return Err(PcgError::NonFinite { iteration: 0, quantity: "residual norm" });
    }
    if rr == 0.0 {
        return Ok(PcgSummary { iterations: 0, residual: 0.0, converged: true });
    }
    // d0 = M^{-1} r0 ; p0 = 0 - d0, the machine's -d0 + 0·d0 (+0 at ±0)
    op.precondition(&ws.r, &mut ws.d);
    for (pi, &di) in ws.p.iter_mut().zip(&ws.d) {
        *pi = 0.0 - di;
    }
    let mut delta = vec_ops::dot(&ws.r, &ws.d);
    if !delta.is_finite() {
        return Err(PcgError::NonFinite { iteration: 0, quantity: "preconditioned residual" });
    }
    if delta <= 0.0 {
        return Err(PcgError::Breakdown { iteration: 0, curvature: delta });
    }

    let mut iterations = 0;
    let mut converged = false;
    while iterations < settings.max_iter {
        iterations += 1;
        op.apply(&ws.p, &mut ws.kp)?;
        let pkp = vec_ops::dot(&ws.p, &ws.kp);
        if !pkp.is_finite() {
            return Err(PcgError::NonFinite {
                iteration: iterations, quantity: "curvature pᵀKp"
            });
        }
        if pkp <= 0.0 {
            return Err(PcgError::Breakdown { iteration: iterations, curvature: pkp });
        }
        let lambda = delta / pkp;
        if !lambda.is_finite() {
            return Err(PcgError::NonFinite { iteration: iterations, quantity: "step length α" });
        }
        vec_ops::axpy(lambda, &ws.p, x);
        vec_ops::axpy(lambda, &ws.kp, &mut ws.r);
        rr = vec_ops::dot(&ws.r, &ws.r);
        if !rr.is_finite() {
            return Err(PcgError::NonFinite { iteration: iterations, quantity: "residual norm" });
        }
        if rr < thr {
            converged = true;
            break;
        }
        op.precondition(&ws.r, &mut ws.d);
        let delta_new = vec_ops::dot(&ws.r, &ws.d);
        if !delta_new.is_finite() {
            return Err(PcgError::NonFinite {
                iteration: iterations,
                quantity: "preconditioned residual",
            });
        }
        if delta_new <= 0.0 {
            return Err(PcgError::Breakdown { iteration: iterations, curvature: delta_new });
        }
        let mu = delta_new / delta;
        delta = delta_new;
        // p = μp − d
        vec_ops::lincomb(-1.0, &ws.d, mu, &mut ws.p);
    }
    Ok(PcgSummary { iterations, residual: rr.sqrt(), converged })
}

/// Checks that the right-hand side `b` and the iterate `x` have the
/// operator's dimension `n`.
fn check_lengths(n: usize, b: &[f64], x: &[f64]) -> Result<(), PcgError> {
    if b.len() != n {
        return Err(PcgError::Operator(LinsysError::Dimension(format!(
            "rhs length {} does not match operator dimension {n}",
            b.len()
        ))));
    }
    if x.len() != n {
        return Err(PcgError::Operator(LinsysError::Dimension(format!(
            "warm-start length {} does not match operator dimension {n}",
            x.len()
        ))));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsqp_sparse::CsrMatrix;

    struct MatOp {
        m: CsrMatrix,
    }

    impl LinearOperator for MatOp {
        fn dim(&self) -> usize {
            self.m.nrows()
        }
        fn apply(&mut self, x: &[f64], y: &mut [f64]) -> Result<(), LinsysError> {
            self.m.spmv(x, y).map_err(LinsysError::from)
        }
        fn precondition(&mut self, r: &[f64], d: &mut [f64]) {
            for ((di, &ri), mi) in d.iter_mut().zip(r).zip(self.m.diagonal()) {
                *di = ri / mi;
            }
        }
    }

    fn spd_matrix(n: usize) -> CsrMatrix {
        // Tridiagonal SPD: 2 on diagonal, -1 off diagonal, plus i on diag.
        let mut t = Vec::new();
        for i in 0..n {
            t.push((i, i, 4.0 + i as f64 * 0.1));
            if i + 1 < n {
                t.push((i, i + 1, -1.0));
                t.push((i + 1, i, -1.0));
            }
        }
        CsrMatrix::from_triplets(n, n, t)
    }

    /// Runs [`pcg_with`] from `x0` with a fresh workspace, returning the
    /// iterate and the summary.
    fn solve_from(
        op: &mut dyn LinearOperator,
        b: &[f64],
        x0: &[f64],
        settings: &PcgSettings,
    ) -> Result<(Vec<f64>, PcgSummary), PcgError> {
        let mut x = x0.to_vec();
        let mut ws = PcgWorkspace::new(op.dim());
        let summary = pcg_with(op, b, &mut x, settings, &mut ws)?;
        Ok((x, summary))
    }

    #[test]
    fn solves_identity_in_one_iteration() {
        let mut op = MatOp { m: CsrMatrix::identity(5) };
        let b = vec![1.0, -2.0, 3.0, 0.5, 0.0];
        let (x, r) = solve_from(&mut op, &b, &[0.0; 5], &PcgSettings::default()).unwrap();
        assert!(r.converged);
        assert!(r.iterations <= 1);
        for (xi, bi) in x.iter().zip(&b) {
            assert!((xi - bi).abs() < 1e-10);
        }
    }

    #[test]
    fn solves_tridiagonal_system() {
        let n = 50;
        let m = spd_matrix(n);
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
        let mut b = vec![0.0; n];
        m.spmv(&x_true, &mut b).unwrap();
        let mut op = MatOp { m };
        let (x, r) = solve_from(&mut op, &b, &vec![0.0; n], &PcgSettings::default()).unwrap();
        assert!(r.converged, "residual {}", r.residual);
        for (got, want) in x.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-6, "{got} vs {want}");
        }
    }

    #[test]
    fn warm_start_at_solution_converges_immediately() {
        let n = 20;
        let m = spd_matrix(n);
        let x_true: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let mut b = vec![0.0; n];
        m.spmv(&x_true, &mut b).unwrap();
        let mut op = MatOp { m };
        let (_, r) = solve_from(&mut op, &b, &x_true, &PcgSettings::default()).unwrap();
        assert!(r.converged);
        assert_eq!(r.iterations, 0);
    }

    #[test]
    fn zero_rhs_returns_immediately_from_zero() {
        let mut op = MatOp { m: spd_matrix(4) };
        let (x, r) = solve_from(&mut op, &[0.0; 4], &[0.0; 4], &PcgSettings::default()).unwrap();
        assert!(r.converged);
        assert_eq!(r.iterations, 0);
        assert_eq!(x, vec![0.0; 4]);
    }

    #[test]
    fn respects_iteration_cap() {
        let n = 100;
        let m = spd_matrix(n);
        let b = vec![1.0; n];
        let mut op = MatOp { m };
        let (_, r) =
            solve_from(&mut op, &b, &vec![0.0; n], &PcgSettings { eps: 1e-14, max_iter: 2 })
                .unwrap();
        assert!(!r.converged);
        assert_eq!(r.iterations, 2);
    }

    #[test]
    fn preconditioning_speeds_up_ill_conditioned_systems() {
        // Diagonal matrix with a huge condition number: Jacobi solves it in
        // a single iteration, identity preconditioning needs many.
        let n = 40;
        let diag: Vec<f64> = (0..n).map(|i| 10f64.powi((i % 7) as i32)).collect();
        struct NoPre(CsrMatrix);
        impl LinearOperator for NoPre {
            fn dim(&self) -> usize {
                self.0.nrows()
            }
            fn apply(&mut self, x: &[f64], y: &mut [f64]) -> Result<(), LinsysError> {
                self.0.spmv(x, y).map_err(LinsysError::from)
            }
        }
        let b = vec![1.0; n];
        let settings = PcgSettings { eps: 1e-10, ..Default::default() };
        let mut pre = MatOp { m: CsrMatrix::from_diag(&diag) };
        let (_, with) = solve_from(&mut pre, &b, &vec![0.0; n], &settings).unwrap();
        let mut nop = NoPre(CsrMatrix::from_diag(&diag));
        let (_, without) = solve_from(&mut nop, &b, &vec![0.0; n], &settings).unwrap();
        assert!(with.converged);
        assert!(with.iterations < without.iterations);
        assert!(with.iterations <= 2);
    }

    #[test]
    fn indefinite_operator_reports_breakdown() {
        // diag(1, -1) is indefinite; the rhs steers the search into the
        // negative-curvature direction.
        let m = CsrMatrix::from_diag(&[1.0, -1.0]);
        struct NoPre(CsrMatrix);
        impl LinearOperator for NoPre {
            fn dim(&self) -> usize {
                self.0.nrows()
            }
            fn apply(&mut self, x: &[f64], y: &mut [f64]) -> Result<(), LinsysError> {
                self.0.spmv(x, y).map_err(LinsysError::from)
            }
        }
        let mut op = NoPre(m);
        let err = solve_from(&mut op, &[0.0, 1.0], &[0.0; 2], &PcgSettings::default()).unwrap_err();
        match err {
            PcgError::Breakdown { curvature, .. } => assert!(curvature <= 0.0),
            other => panic!("expected breakdown, got {other:?}"),
        }
    }

    #[test]
    fn negative_semidefinite_operator_never_looks_converged() {
        let m = CsrMatrix::from_diag(&[-2.0, -3.0, -4.0]);
        let mut op = MatOp { m };
        let res = solve_from(&mut op, &[1.0, 1.0, 1.0], &[0.0; 3], &PcgSettings::default());
        assert!(res.is_err(), "indefinite solve must not succeed: {res:?}");
    }

    #[test]
    fn non_finite_rhs_is_rejected() {
        let mut op = MatOp { m: spd_matrix(3) };
        let err = solve_from(&mut op, &[1.0, f64::NAN, 0.0], &[0.0; 3], &PcgSettings::default())
            .unwrap_err();
        assert!(matches!(err, PcgError::NonFinite { .. }), "{err:?}");
    }

    #[test]
    fn non_finite_operator_output_is_detected() {
        struct PoisonOp;
        impl LinearOperator for PoisonOp {
            fn dim(&self) -> usize {
                2
            }
            fn apply(&mut self, x: &[f64], y: &mut [f64]) -> Result<(), LinsysError> {
                y[0] = f64::NAN * x[0].max(1.0);
                y[1] = x[1];
                Ok(())
            }
        }
        let err =
            solve_from(&mut PoisonOp, &[1.0, 1.0], &[0.0; 2], &PcgSettings::default()).unwrap_err();
        assert!(matches!(err, PcgError::NonFinite { .. }), "{err:?}");
    }

    #[test]
    fn operator_failure_is_propagated() {
        struct FailOp;
        impl LinearOperator for FailOp {
            fn dim(&self) -> usize {
                2
            }
            fn apply(&mut self, _x: &[f64], _y: &mut [f64]) -> Result<(), LinsysError> {
                Err(LinsysError::Dimension("device fault".into()))
            }
        }
        let err =
            solve_from(&mut FailOp, &[1.0, 1.0], &[0.0; 2], &PcgSettings::default()).unwrap_err();
        assert!(matches!(err, PcgError::Operator(_)), "{err:?}");
    }
}
