//! Solution polishing (OSQP §5.2 of Stellato et al. 2020).
//!
//! After ADMM terminates, the active constraints are guessed from the signs
//! of the duals, and the equality-constrained QP restricted to that active
//! set is solved exactly (regularized LDLᵀ under AMD, as every other LDLᵀ
//! here, plus iterative refinement). If the polished point has smaller
//! residuals it replaces the ADMM iterate — often turning a 1e-3-accurate
//! solution into a machine-precision one.

use rsqp_linsys::{amd_ordering, Ldlt, LinsysError, SymmetricPermutation};
use rsqp_sparse::{vec_ops, CooMatrix, CscMatrix};

use crate::{QpProblem, SolverError};

/// Outcome of a polish attempt.
#[derive(Debug, Clone, PartialEq)]
pub struct PolishOutcome {
    /// Polished primal iterate.
    pub x: Vec<f64>,
    /// Polished dual iterate.
    pub y: Vec<f64>,
    /// Polished slack `z = A x`.
    pub z: Vec<f64>,
    /// Unscaled primal residual at the polished point.
    pub prim_res: f64,
    /// Unscaled dual residual at the polished point.
    pub dual_res: f64,
}

/// Attempts to polish the dual iterate `y`'s implied active set on the
/// original (unscaled) problem.
///
/// `delta` is the regularization added to both diagonal blocks;
/// `refine_iters` is the number of iterative-refinement sweeps.
///
/// Returns `None` when the active-set KKT system cannot be factorized (e.g.
/// a rank-deficient active set) — the caller keeps the ADMM iterate.
///
/// # Errors
///
/// Never fails with an error today; the `Result` leaves room for allocation
/// limits.
pub fn polish(
    problem: &QpProblem,
    y: &[f64],
    delta: f64,
    refine_iters: usize,
) -> Result<Option<PolishOutcome>, SolverError> {
    polish_ordered(problem, y, delta, refine_iters, amd_ordering)
}

/// [`polish`] with the active-set KKT matrix ordered by `order` (a
/// permutation, new → old, of its upper triangle).
fn polish_ordered(
    problem: &QpProblem,
    y: &[f64],
    delta: f64,
    refine_iters: usize,
    order: impl FnOnce(&CscMatrix) -> Result<Vec<usize>, LinsysError>,
) -> Result<Option<PolishOutcome>, SolverError> {
    let n = problem.num_vars();
    let m = problem.num_constraints();
    // Guess the active set from the dual signs.
    let mut active: Vec<(usize, f64)> = Vec::new(); // (row, bound value)
    for i in 0..m {
        let (li, ui) = (problem.l()[i], problem.u()[i]);
        if li == ui {
            // Equality constraints are always active, regardless of the
            // dual sign (which may be exactly zero at the optimum).
            active.push((i, li));
        } else if y[i] < 0.0 {
            if li.is_finite() {
                active.push((i, li));
            }
        } else if y[i] > 0.0 && ui.is_finite() {
            active.push((i, ui));
        }
    }
    let k = active.len();

    // Reduced KKT: [[P + δI, A_actᵀ], [A_act, -δI]].
    let dim = n + k;
    let mut coo = CooMatrix::with_capacity(dim, dim, problem.p().nnz() + dim);
    for r in 0..n {
        let (cols, vals) = problem.p().row(r);
        for (&cc, &v) in cols.iter().zip(vals) {
            if cc >= r {
                coo.push(r, cc, v);
            }
        }
        coo.push(r, r, delta);
    }
    for (slot, &(row, _)) in active.iter().enumerate() {
        let (cols, vals) = problem.a().row(row);
        for (&cc, &v) in cols.iter().zip(vals) {
            coo.push(cc, n + slot, v);
        }
        coo.push(n + slot, n + slot, -delta);
    }
    let kkt = coo.to_csc();
    let permuted = SymmetricPermutation::new(&kkt, order(&kkt)?)?;
    let Ok(factor) = Ldlt::factor(permuted.matrix()) else {
        return Ok(None);
    };
    let mut work = vec![0.0; dim];
    let mut solve = |b: &mut [f64]| -> Result<(), SolverError> {
        permuted.permute_into(b, &mut work);
        factor.solve_in_place(&mut work)?;
        permuted.unpermute_into(&work, b);
        Ok(())
    };

    // rhs = [-q; bound values]; iterative refinement against the
    // unregularized KKT operator.
    let mut rhs = vec![0.0; dim];
    for j in 0..n {
        rhs[j] = -problem.q()[j];
    }
    for (slot, &(_, b)) in active.iter().enumerate() {
        rhs[n + slot] = b;
    }
    let mut sol = rhs.clone();
    solve(&mut sol)?;
    for _ in 0..refine_iters {
        let mut corr = kkt_residual(problem, &active, &sol, &rhs)?;
        solve(&mut corr)?;
        for (s, c) in sol.iter_mut().zip(&corr) {
            *s += c;
        }
    }

    // Assemble the polished point.
    let x_pol = sol[..n].to_vec();
    let mut y_pol = vec![0.0; m];
    for (slot, &(row, _)) in active.iter().enumerate() {
        y_pol[row] = sol[n + slot];
    }
    let mut z_pol = vec![0.0; m];
    problem.a().spmv(&x_pol, &mut z_pol)?;

    // Residuals at the polished point.
    let mut prim: f64 = 0.0;
    for i in 0..m {
        prim = prim.max(problem.l()[i] - z_pol[i]).max(z_pol[i] - problem.u()[i]);
    }
    let prim = prim.max(0.0);
    let mut grad = vec![0.0; n];
    problem.p().spmv(&x_pol, &mut grad)?;
    let mut aty = vec![0.0; n];
    problem.a().spmv_transpose(&y_pol, &mut aty)?;
    for j in 0..n {
        grad[j] += problem.q()[j] + aty[j];
    }
    let dual = vec_ops::inf_norm(&grad);
    if !prim.is_finite() || !dual.is_finite() {
        return Ok(None);
    }
    Ok(Some(PolishOutcome { x: x_pol, y: y_pol, z: z_pol, prim_res: prim, dual_res: dual }))
}

/// `rhs − K_unregularized · sol` for the active-set KKT.
fn kkt_residual(
    problem: &QpProblem,
    active: &[(usize, f64)],
    sol: &[f64],
    rhs: &[f64],
) -> Result<Vec<f64>, SolverError> {
    let n = problem.num_vars();
    let k = active.len();
    let mut out = rhs.to_vec();
    // Top block: P x + A_actᵀ ν.
    let mut px = vec![0.0; n];
    problem.p().spmv(&sol[..n], &mut px)?;
    for j in 0..n {
        out[j] -= px[j];
    }
    for (slot, &(row, _)) in active.iter().enumerate() {
        let (cols, vals) = problem.a().row(row);
        let nu = sol[n + slot];
        let mut ax = 0.0;
        for (&c, &v) in cols.iter().zip(vals) {
            out[c] -= v * nu;
            ax += v * sol[c];
        }
        out[n + slot] -= ax;
    }
    debug_assert_eq!(out.len(), n + k);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsqp_sparse::CsrMatrix;

    fn box_qp() -> QpProblem {
        QpProblem::new(
            CsrMatrix::identity(2),
            vec![-2.0, -0.5],
            CsrMatrix::identity(2),
            vec![0.0, 0.0],
            vec![1.0, 1.0],
        )
        .expect("valid problem")
    }

    #[test]
    fn polish_recovers_exact_active_set_solution() {
        // Solution: x = (1, 0.5); constraint 0 active at u, constraint 1
        // inactive. Feed slightly-off iterates with the right dual signs.
        let qp = box_qp();
        let y = vec![0.9, 0.0]; // y0 > 0 -> upper bound active
        let out = polish(&qp, &y, 1e-7, 3).unwrap().expect("polish succeeds");
        assert!((out.x[0] - 1.0).abs() < 1e-9, "{}", out.x[0]);
        assert!((out.x[1] - 0.5).abs() < 1e-9);
        assert!(out.prim_res < 1e-9);
        assert!(out.dual_res < 1e-9);
        // Dual of the active constraint: stationarity x0 - 2 + y0 = 0.
        assert!((out.y[0] - 1.0).abs() < 1e-8);
    }

    #[test]
    fn polish_with_empty_active_set_solves_unconstrained() {
        let qp = QpProblem::new(
            CsrMatrix::from_diag(&[2.0, 4.0]),
            vec![-2.0, -4.0],
            CsrMatrix::identity(2),
            vec![-10.0, -10.0],
            vec![10.0, 10.0],
        )
        .expect("valid problem");
        let out = polish(&qp, &[0.0, 0.0], 1e-7, 3).unwrap().expect("polish succeeds");
        assert!((out.x[0] - 1.0).abs() < 1e-9);
        assert!((out.x[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn amd_polish_decides_as_the_natural_order_does() {
        let natural = |kkt: &CscMatrix| Ok((0..kkt.ncols()).collect());
        let settings = crate::Settings::default();
        let (delta, refine) = (settings.polish_delta, settings.polish_refine_iters);
        for b in rsqp_problems::small_suite(1) {
            // The suite's problems are of the dev-dependency's build of
            // this crate: rebuild each from its parts.
            let src = &b.problem;
            let qp = &QpProblem::new(
                src.p().clone(),
                src.q().to_vec(),
                src.a().clone(),
                src.l().to_vec(),
                src.u().to_vec(),
            )
            .unwrap();
            let r = crate::Solver::new(qp, settings.clone()).unwrap().solve().unwrap();
            let amd = polish(qp, &r.y, delta, refine).unwrap();
            let nat = polish_ordered(qp, &r.y, delta, refine, natural).unwrap();
            let accepts = |o: &Option<PolishOutcome>| {
                o.as_ref().is_some_and(|o| {
                    o.prim_res <= r.prim_res.max(1e-30) && o.dual_res <= r.dual_res.max(1e-30)
                })
            };
            assert_eq!(amd.is_some(), nat.is_some(), "{}", src.name());
            assert_eq!(accepts(&amd), accepts(&nat), "{}", src.name());
            // Equal to 1e-9, or to a thousandth where the guessed active set
            // is inconsistent and the δ-regularized solve leaves a residual
            // (svm_0006: 4.9e-4, which the two orders round apart by 1.1e-7).
            let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 + 1e-3 * b.abs();
            if let (Some(a), Some(n)) = (amd, nat) {
                assert!(close(a.prim_res, n.prim_res), "{}", src.name());
                assert!(close(a.dual_res, n.dual_res), "{}", src.name());
            }
        }
    }

    #[test]
    fn polish_ignores_infinite_bounds() {
        let qp = QpProblem::new(
            CsrMatrix::identity(1),
            vec![-1.0],
            CsrMatrix::identity(1),
            vec![f64::NEG_INFINITY],
            vec![f64::INFINITY],
        )
        .expect("valid problem");
        // Dual sign suggests an active bound that does not exist.
        let out = polish(&qp, &[0.5], 1e-7, 2).unwrap().expect("ok");
        assert!((out.x[0] - 1.0).abs() < 1e-9);
        assert_eq!(out.y[0], 0.0);
    }
}
