//! Answer checks that share no code with the ADMM driver.
//!
//! Residuals are recomputed from the unscaled problem data with
//! `rsqp-sparse` kernels only: primal infeasibility of `Ax` against
//! `[l, u]`, stationarity `‖Px + q + Aᵀy‖∞`, and the sign of each dual
//! against the bound it presses on. Tolerances are OSQP's termination
//! tolerances at the solver's `eps_abs`/`eps_rel`, times a slack factor.
//!
//! The duality gap is reported but not bounded: ADMM's termination test
//! does not bound it, and at the default tolerances some instances stop
//! with a gap of the order of their objective. Two backends' objectives
//! are instead required to agree within the gaps their answers certify.

use rsqp_solver::QpProblem;

/// Multiplier on the termination tolerances the solver itself stops at.
const SLACK: f64 = 2.0;
/// Relative objective agreement required between two backends.
pub const OBJECTIVE_RTOL: f64 = 1e-2;

/// Residuals of a candidate primal/dual pair, with the tolerances they are
/// held to.
#[derive(Debug, Clone, Copy)]
pub struct Residuals {
    /// `max_i dist((Ax)_i, [l_i, u_i])`.
    pub prim: f64,
    /// `‖Px + q + Aᵀy‖∞`.
    pub dual: f64,
    /// Largest distance from `(Ax)_i` to the bound its dual `y_i` presses on.
    pub comp: f64,
    /// Primal (and complementarity) tolerance.
    pub prim_tol: f64,
    /// Dual tolerance.
    pub dual_tol: f64,
    /// Duality gap `xᵀPx + qᵀx + Σ (u_i y_i⁺ + l_i y_i⁻)`.
    pub gap: f64,
}

impl Residuals {
    /// True when every residual is within its tolerance.
    pub fn ok(&self) -> bool {
        self.prim <= self.prim_tol && self.dual <= self.dual_tol && self.comp <= self.prim_tol
    }
}

fn inf_norm(v: &[f64]) -> f64 {
    v.iter().fold(0.0f64, |m, x| m.max(x.abs()))
}

/// Recomputes the residuals of `(x, y)` on `qp`.
pub fn residuals(qp: &QpProblem, x: &[f64], y: &[f64], eps_abs: f64, eps_rel: f64) -> Residuals {
    let (n, m) = (qp.num_vars(), qp.num_constraints());
    let (mut ax, mut px, mut aty) = (vec![0.0; m], vec![0.0; n], vec![0.0; n]);
    qp.a().spmv(x, &mut ax).expect("x has n entries");
    qp.p().spmv(x, &mut px).expect("x has n entries");
    qp.a().spmv_transpose(y, &mut aty).expect("y has m entries");
    let (l, u) = (qp.l(), qp.u());
    let mut prim = 0.0f64;
    let mut comp = 0.0f64;
    let mut proj_norm = 0.0f64;
    let mut support = 0.0f64;
    for i in 0..m {
        let proj = ax[i].clamp(l[i], u[i]);
        prim = prim.max((ax[i] - proj).abs());
        proj_norm = proj_norm.max(proj.abs());
        // A positive dual may only press on the upper bound, a negative one
        // on the lower bound (an infinite bound can carry no dual at all).
        if y[i] > 0.0 {
            comp = comp.max(u[i] - ax[i]);
            support += u[i] * y[i];
        } else if y[i] < 0.0 {
            comp = comp.max(ax[i] - l[i]);
            support += l[i] * y[i];
        }
    }
    let stationarity: Vec<f64> = (0..n).map(|j| px[j] + qp.q()[j] + aty[j]).collect();
    let dual_scale = inf_norm(&px).max(inf_norm(&aty)).max(inf_norm(qp.q()));
    let dot = |a: &[f64], b: &[f64]| a.iter().zip(b).map(|(x, y)| x * y).sum::<f64>();
    Residuals {
        prim,
        dual: inf_norm(&stationarity),
        comp,
        prim_tol: SLACK * (eps_abs + eps_rel * inf_norm(&ax).max(proj_norm)),
        dual_tol: SLACK * (eps_abs + eps_rel * dual_scale),
        gap: dot(x, &px) + dot(qp.q(), x) + support,
    }
}

/// True when two objective values agree within the duality gaps their
/// answers certify, plus [`OBJECTIVE_RTOL`].
pub fn objectives_agree(a: f64, gap_a: f64, b: f64, gap_b: f64) -> bool {
    (a - b).abs() <= gap_a.abs() + gap_b.abs() + OBJECTIVE_RTOL * (1.0 + a.abs().max(b.abs()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsqp_problems::{generate, Domain};
    use rsqp_solver::{Settings, Solver, Status};

    fn solved(domain: Domain) -> (QpProblem, Vec<f64>, Vec<f64>, f64) {
        let qp = generate(domain, 4, 1);
        let r = Solver::new(&qp, Settings::default()).unwrap().solve().unwrap();
        assert_eq!(r.status, Status::Solved);
        (qp, r.x, r.y, r.objective)
    }

    #[test]
    fn solver_answers_pass() {
        for domain in Domain::all() {
            let (qp, x, y, _) = solved(domain);
            let s = Settings::default();
            let r = residuals(&qp, &x, &y, s.eps_abs, s.eps_rel);
            assert!(r.ok(), "{domain}: {r:?}");
        }
    }

    #[test]
    fn perturbed_primal_is_rejected() {
        let (qp, mut x, y, _) = solved(Domain::Control);
        let s = Settings::default();
        x[0] += 0.5;
        assert!(!residuals(&qp, &x, &y, s.eps_abs, s.eps_rel).ok());
    }

    #[test]
    fn perturbed_dual_is_rejected() {
        let (qp, x, mut y, _) = solved(Domain::Lasso);
        let s = Settings::default();
        let i = y.iter().position(|&v| v != 0.0).expect("some constraint is active");
        y[i] *= 1.5;
        assert!(!residuals(&qp, &x, &y, s.eps_abs, s.eps_rel).ok());
    }

    #[test]
    fn wrong_sign_dual_is_rejected() {
        let (qp, x, mut y, _) = solved(Domain::Svm);
        let s = Settings::default();
        let i = y.iter().position(|&v| v != 0.0).expect("some constraint is active");
        y[i] = -y[i];
        assert!(!residuals(&qp, &x, &y, s.eps_abs, s.eps_rel).ok());
    }

    #[test]
    fn objective_mismatch_is_rejected() {
        let (qp, x, y, f) = solved(Domain::Portfolio);
        let s = Settings::default();
        let gap = residuals(&qp, &x, &y, s.eps_abs, s.eps_rel).gap;
        assert!(objectives_agree(f, gap, f * (1.0 + 1e-4), gap));
        let off = 2.0 * gap.abs() + 0.1 * (1.0 + f.abs());
        assert!(!objectives_agree(f, gap, f + off, gap));
    }
}
