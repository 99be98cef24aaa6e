use std::sync::Arc;

use rsqp_sparse::{vec_ops, CsrMatrix};

use crate::SolverError;

/// Value above which a bound is treated as infinite (OSQP's `OSQP_INFTY`).
pub const QP_INFTY: f64 = 1e30;

/// A convex quadratic program in OSQP standard form (Eq. 1 of the paper):
///
/// ```text
/// minimize   (1/2) xᵀ P x + qᵀ x
/// subject to l ≤ A x ≤ u
/// ```
///
/// `P` must be symmetric positive semidefinite (full symmetric storage) and
/// every `l_i ≤ u_i`. Bounds with magnitude ≥ `1e30` are treated as
/// infinite.
#[derive(Debug, Clone, PartialEq)]
pub struct QpProblem {
    p: CsrMatrix,
    q: Vec<f64>,
    a: CsrMatrix,
    l: Vec<f64>,
    u: Vec<f64>,
    name: String,
}

/// A borrowed problem becomes a solver's own copy, so [`crate::Solver::new`]
/// accepts `&QpProblem` as well as a shared `Arc<QpProblem>`.
impl From<&QpProblem> for Arc<QpProblem> {
    fn from(problem: &QpProblem) -> Self {
        Arc::new(problem.clone())
    }
}

/// Rejects non-finite entries in problem data (NaN poisons every downstream
/// residual check, so it must be stopped at the boundary).
fn require_finite(name: &str, data: &[f64]) -> Result<(), SolverError> {
    if let Some(i) = data.iter().position(|v| !v.is_finite()) {
        return Err(SolverError::InvalidProblem(format!(
            "{name} contains a non-finite entry ({}) at index {i}",
            data[i]
        )));
    }
    Ok(())
}

/// Rejects NaN bounds; ±∞ are legitimate "no bound" sentinels.
fn require_bounds_well_formed(l: &[f64], u: &[f64]) -> Result<(), SolverError> {
    for i in 0..l.len() {
        if l[i].is_nan() || u[i].is_nan() {
            return Err(SolverError::InvalidProblem(format!(
                "bounds contain NaN at index {i} (l = {}, u = {})",
                l[i], u[i]
            )));
        }
        if l[i] > u[i] {
            return Err(SolverError::InvalidProblem(format!(
                "l[{i}] = {} > u[{i}] = {}",
                l[i], u[i]
            )));
        }
    }
    Ok(())
}

/// Rejects a `P` that is not symmetric: its pattern must be, and every
/// pair of mirrored entries must agree to `1e-10·(1 + max |P_ij|)`.
/// Allocates nothing.
fn require_symmetric(p: &CsrMatrix) -> Result<(), SolverError> {
    let mirror = |i: usize, j: usize| {
        let (cols, vals) = p.row(j);
        cols.binary_search(&i).ok().map(|k| vals[k])
    };
    let entries = || {
        (0..p.nrows()).flat_map(|i| {
            let (cols, vals) = p.row(i);
            cols.iter().zip(vals).map(move |(&j, &v)| (i, j, v))
        })
    };
    if entries().any(|(i, j, _)| mirror(i, j).is_none()) {
        return Err(SolverError::InvalidProblem(
            "P has a structurally non-symmetric sparsity pattern".into(),
        ));
    }
    let scale = 1.0 + vec_ops::inf_norm(p.data());
    if entries().any(|(i, j, v)| mirror(i, j).is_some_and(|w| (v - w).abs() > 1e-10 * scale)) {
        return Err(SolverError::InvalidProblem("P is not symmetric".into()));
    }
    Ok(())
}

impl QpProblem {
    /// Builds and validates a problem.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::InvalidProblem`] if shapes disagree, `P` is not
    /// square or not symmetric (to 1e-10 relative), some `l_i > u_i`, or any
    /// datum is non-finite (bounds may be ±∞, never NaN).
    pub fn new(
        p: CsrMatrix,
        q: Vec<f64>,
        a: CsrMatrix,
        l: Vec<f64>,
        u: Vec<f64>,
    ) -> Result<Self, SolverError> {
        let n = p.nrows();
        if p.ncols() != n {
            return Err(SolverError::InvalidProblem(format!(
                "P must be square, got {}x{}",
                n,
                p.ncols()
            )));
        }
        if q.len() != n {
            return Err(SolverError::InvalidProblem(format!(
                "q has length {} but P is {n}x{n}",
                q.len()
            )));
        }
        if a.ncols() != n {
            return Err(SolverError::InvalidProblem(format!(
                "A has {} columns but the problem has {n} variables",
                a.ncols()
            )));
        }
        let m = a.nrows();
        if l.len() != m || u.len() != m {
            return Err(SolverError::InvalidProblem(format!(
                "bounds have lengths {}/{} but A has {m} rows",
                l.len(),
                u.len()
            )));
        }
        require_finite("P", p.data())?;
        require_finite("A", a.data())?;
        require_finite("q", &q)?;
        require_bounds_well_formed(&l, &u)?;
        require_symmetric(&p)?;
        Ok(QpProblem { p, q, a, l, u, name: String::new() })
    }

    /// Attaches a human-readable name (used by the benchmark harness).
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// The problem name (empty if unset).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Quadratic cost matrix `P`.
    pub fn p(&self) -> &CsrMatrix {
        &self.p
    }

    /// Linear cost vector `q`.
    pub fn q(&self) -> &[f64] {
        &self.q
    }

    /// Constraint matrix `A`.
    pub fn a(&self) -> &CsrMatrix {
        &self.a
    }

    /// Lower bounds `l`.
    pub fn l(&self) -> &[f64] {
        &self.l
    }

    /// Upper bounds `u`.
    pub fn u(&self) -> &[f64] {
        &self.u
    }

    /// Number of decision variables `n`.
    pub fn num_vars(&self) -> usize {
        self.p.nrows()
    }

    /// Number of constraints `m`.
    pub fn num_constraints(&self) -> usize {
        self.a.nrows()
    }

    /// `nnz(P) + nnz(A)` — the size measure used on every x-axis of the
    /// paper's evaluation figures.
    pub fn total_nnz(&self) -> usize {
        self.p.nnz() + self.a.nnz()
    }

    /// Objective value `(1/2) xᵀPx + qᵀx`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != num_vars()`.
    pub fn objective(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.num_vars(), "objective input length");
        let mut px = vec![0.0; x.len()];
        self.p.spmv(x, &mut px).expect("shape validated at construction");
        0.5 * vec_ops::dot(x, &px) + vec_ops::dot(&self.q, x)
    }

    /// Maximum violation of `l ≤ Ax ≤ u` at `x` (0 when feasible).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != num_vars()`.
    pub fn primal_infeasibility(&self, x: &[f64]) -> f64 {
        let mut ax = vec![0.0; self.num_constraints()];
        self.a.spmv(x, &mut ax).expect("shape validated at construction");
        let mut viol = 0.0f64;
        for i in 0..ax.len() {
            viol = viol.max(self.l[i] - ax[i]).max(ax[i] - self.u[i]);
        }
        viol.max(0.0)
    }

    /// Replaces the bound vectors, keeping the matrices: the parametric
    /// update used when re-solving the same problem *structure* with new
    /// data (the architecture-reuse scenario motivating RSQP §1).
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::InvalidProblem`] on length mismatch,
    /// `l_i > u_i`, or NaN bounds.
    pub fn update_bounds(&mut self, l: Vec<f64>, u: Vec<f64>) -> Result<(), SolverError> {
        let m = self.num_constraints();
        if l.len() != m || u.len() != m {
            return Err(SolverError::InvalidProblem("bound length mismatch".into()));
        }
        require_bounds_well_formed(&l, &u)?;
        self.l = l;
        self.u = u;
        Ok(())
    }

    /// Replaces the values of `P` and/or `A`, keeping the sparsity
    /// structure. This is OSQP's `update_P_A`: the parametric scenario where
    /// problem data changes but the structure — and hence the customized
    /// architecture — stays fixed.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::InvalidProblem`] if a replacement has a
    /// different sparsity structure, a non-finite value, or breaks the
    /// symmetry of `P`; the problem is then unchanged.
    pub fn update_matrices(
        &mut self,
        p: Option<CsrMatrix>,
        a: Option<CsrMatrix>,
    ) -> Result<(), SolverError> {
        if let Some(p_new) = &p {
            if !rsqp_sparse::pattern::same_structure(p_new, &self.p) {
                return Err(SolverError::InvalidProblem(
                    "P replacement has a different sparsity structure".into(),
                ));
            }
        }
        if let Some(a_new) = &a {
            if !rsqp_sparse::pattern::same_structure(a_new, &self.a) {
                return Err(SolverError::InvalidProblem(
                    "A replacement has a different sparsity structure".into(),
                ));
            }
        }
        // The checks of the constructor that new values can fail; the
        // replacements are moved in, so an update does not allocate.
        if let Some(p_new) = &p {
            require_finite("P", p_new.data())?;
        }
        if let Some(a_new) = &a {
            require_finite("A", a_new.data())?;
        }
        if let Some(p_new) = p {
            require_symmetric(&p_new)?;
            self.p = p_new;
        }
        if let Some(a_new) = a {
            self.a = a_new;
        }
        Ok(())
    }

    /// Replaces the linear cost vector `q`.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::InvalidProblem`] on length mismatch or
    /// non-finite entries.
    pub fn update_q(&mut self, q: Vec<f64>) -> Result<(), SolverError> {
        if q.len() != self.num_vars() {
            return Err(SolverError::InvalidProblem("q length mismatch".into()));
        }
        require_finite("q", &q)?;
        self.q = q;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid() -> QpProblem {
        QpProblem::new(
            CsrMatrix::from_dense(&[vec![2.0, 0.5], vec![0.5, 1.0]]),
            vec![1.0, -1.0],
            CsrMatrix::from_dense(&[vec![1.0, 1.0]]),
            vec![-1.0],
            vec![1.0],
        )
        .unwrap()
    }

    #[test]
    fn accepts_valid_problem() {
        let p = valid();
        assert_eq!(p.num_vars(), 2);
        assert_eq!(p.num_constraints(), 1);
        assert_eq!(p.total_nnz(), 6);
    }

    #[test]
    fn objective_matches_hand_computation() {
        let p = valid();
        let x = [1.0, 2.0];
        // 0.5*(2 + 0.5*2 + 0.5*2 + 4) + (1 - 2) = 0.5*8 - 1 = 3
        assert!((p.objective(&x) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_asymmetric_p() {
        let p = CsrMatrix::from_dense(&[vec![1.0, 2.0], vec![0.5, 1.0]]);
        let err = QpProblem::new(p, vec![0.0, 0.0], CsrMatrix::zeros(0, 2), vec![], vec![]);
        assert!(matches!(err, Err(SolverError::InvalidProblem(_))));
    }

    #[test]
    fn rejects_structurally_asymmetric_p() {
        let p = CsrMatrix::from_triplets(2, 2, vec![(0, 0, 1.0), (0, 1, 1.0), (1, 1, 1.0)]);
        assert!(QpProblem::new(p, vec![0.0; 2], CsrMatrix::zeros(0, 2), vec![], vec![]).is_err());
    }

    #[test]
    fn rejects_crossed_bounds() {
        let err = QpProblem::new(
            CsrMatrix::identity(1),
            vec![0.0],
            CsrMatrix::identity(1),
            vec![2.0],
            vec![1.0],
        );
        assert!(err.is_err());
    }

    #[test]
    fn rejects_shape_mismatches() {
        assert!(QpProblem::new(
            CsrMatrix::identity(2),
            vec![0.0],
            CsrMatrix::identity(2),
            vec![0.0; 2],
            vec![0.0; 2]
        )
        .is_err());
        assert!(QpProblem::new(
            CsrMatrix::identity(2),
            vec![0.0; 2],
            CsrMatrix::identity(3),
            vec![0.0; 3],
            vec![0.0; 3]
        )
        .is_err());
    }

    #[test]
    fn rejects_non_finite_p_entries() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let p = CsrMatrix::from_dense(&[vec![bad, 0.0], vec![0.0, 1.0]]);
            let err = QpProblem::new(p, vec![0.0; 2], CsrMatrix::zeros(0, 2), vec![], vec![]);
            assert!(matches!(err, Err(SolverError::InvalidProblem(_))), "{bad}");
        }
    }

    #[test]
    fn rejects_non_finite_a_entries() {
        for bad in [f64::NAN, f64::INFINITY] {
            let a = CsrMatrix::from_dense(&[vec![bad, 1.0]]);
            let err = QpProblem::new(CsrMatrix::identity(2), vec![0.0; 2], a, vec![0.0], vec![1.0]);
            assert!(matches!(err, Err(SolverError::InvalidProblem(_))), "{bad}");
        }
    }

    #[test]
    fn rejects_non_finite_q_entries() {
        for bad in [f64::NAN, f64::INFINITY] {
            let err = QpProblem::new(
                CsrMatrix::identity(1),
                vec![bad],
                CsrMatrix::identity(1),
                vec![0.0],
                vec![1.0],
            );
            assert!(matches!(err, Err(SolverError::InvalidProblem(_))), "{bad}");
        }
        let mut p = valid();
        assert!(p.update_q(vec![f64::NAN, 0.0]).is_err());
    }

    #[test]
    fn rejects_nan_bounds_but_accepts_infinite_sentinels() {
        let mk = |l: f64, u: f64| {
            QpProblem::new(
                CsrMatrix::identity(1),
                vec![0.0],
                CsrMatrix::identity(1),
                vec![l],
                vec![u],
            )
        };
        assert!(mk(f64::NAN, 1.0).is_err());
        assert!(mk(0.0, f64::NAN).is_err());
        // ±∞ are the "unbounded side" sentinels and must stay legal.
        assert!(mk(f64::NEG_INFINITY, f64::INFINITY).is_ok());
        assert!(mk(f64::NEG_INFINITY, 1.0).is_ok());
        let mut p = valid();
        assert!(p.update_bounds(vec![f64::NAN], vec![1.0]).is_err());
        assert!(p.update_bounds(vec![f64::NEG_INFINITY], vec![f64::INFINITY]).is_ok());
    }

    #[test]
    fn primal_infeasibility_measures_violation() {
        let p = valid();
        assert_eq!(p.primal_infeasibility(&[0.0, 0.0]), 0.0);
        assert!((p.primal_infeasibility(&[3.0, 0.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn parametric_updates() {
        let mut p = valid();
        p.update_bounds(vec![-2.0], vec![2.0]).unwrap();
        assert_eq!(p.l()[0], -2.0);
        assert!(p.update_bounds(vec![1.0], vec![-1.0]).is_err());
        p.update_q(vec![5.0, 5.0]).unwrap();
        assert_eq!(p.q()[0], 5.0);
        assert!(p.update_q(vec![1.0]).is_err());
    }

    #[test]
    fn name_roundtrip() {
        let p = valid().with_name("svm_10");
        assert_eq!(p.name(), "svm_10");
    }
}
