//! KKT-system assembly.
//!
//! Two views of the same optimality system are provided:
//!
//! * [`KktMatrix`] — the explicit quasi-definite matrix
//!   `[[P + σI, Aᵀ], [A, -diag(1/ρ)]]` in upper-triangular CSC form for the
//!   direct LDLᵀ path, with in-place ρ updates;
//! * [`ReducedKktOp`] — the matrix-free operator
//!   `x ↦ (P + σI + Aᵀ diag(ρ) A) x` of Eq. (3), which is what PCG and the
//!   FPGA datapath evaluate. Following §2.2, `AᵀA` is never formed for the
//!   product, which is computed incrementally as `P·x + σ·x + Aᵀ(ρ ∘ (A·x))`.
//!   Its `M⁻¹` is the [`KktPrecond`] of the same matrices, which on
//!   problems without dense rows or eliminable dense columns forms and
//!   factors `K` itself. Where that kind is exact, the operator solves the
//!   whole ADMM KKT system directly ([`ReducedKktOp::exact_solve`]): the
//!   dense-row kind in OSQP's augmented form, the others as `x̃ = M⁻¹b`.

use std::sync::Arc;

use rsqp_par::ThreadPool;
use rsqp_sparse::{CooMatrix, CscMatrix, CsrMatrix, RowPartition, TransposeCache};

use crate::pcg::LinearOperator;
use crate::precond::KktPrecond;
use crate::{LinsysError, PcgError};

/// The explicit upper-triangular KKT matrix of Eq. (2).
#[derive(Debug, Clone)]
pub struct KktMatrix {
    n: usize,
    m: usize,
    mat: CscMatrix,
    /// Data positions of the `-1/ρ_i` diagonal entries, for O(m) ρ updates.
    rho_positions: Vec<usize>,
}

impl KktMatrix {
    /// Assembles the KKT matrix from the problem data.
    ///
    /// `p` must be square (`n × n`, full symmetric storage — only the upper
    /// triangle is read), `a` is `m × n`, and `rho` has one positive entry
    /// per constraint.
    ///
    /// # Errors
    ///
    /// Returns [`LinsysError::Dimension`] if the shapes disagree or a ρ
    /// entry is not strictly positive.
    pub fn assemble(
        p: &CsrMatrix,
        a: &CsrMatrix,
        sigma: f64,
        rho: &[f64],
    ) -> Result<Self, LinsysError> {
        let n = p.nrows();
        let m = a.nrows();
        if p.ncols() != n {
            return Err(LinsysError::Dimension(format!(
                "P must be square, got {}x{}",
                n,
                p.ncols()
            )));
        }
        if a.ncols() != n {
            return Err(LinsysError::Dimension(format!(
                "A has {} columns but P is {n}x{n}",
                a.ncols()
            )));
        }
        if rho.len() != m {
            return Err(LinsysError::Dimension(format!(
                "rho has length {} but A has {m} rows",
                rho.len()
            )));
        }
        if rho.iter().any(|&r| r <= 0.0) {
            return Err(LinsysError::Dimension("rho entries must be positive".into()));
        }
        let dim = n + m;
        let mut coo = CooMatrix::with_capacity(dim, dim, p.nnz() + a.nnz() + dim);
        // P upper triangle + sigma*I.
        for i in 0..n {
            let (cols, vals) = p.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                if j >= i {
                    coo.push(i, j, v);
                }
            }
            coo.push(i, i, sigma);
        }
        // Aᵀ block: A entry (r, c) lands at KKT (c, n + r), always above the
        // diagonal of the lower-right block.
        for r in 0..m {
            let (cols, vals) = a.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                coo.push(c, n + r, v);
            }
        }
        // -diag(1/rho).
        for (i, &ri) in rho.iter().enumerate() {
            coo.push(n + i, n + i, -1.0 / ri);
        }
        let mat = coo.to_csc();
        // Upper-triangular sorted columns keep the diagonal last in each
        // column, so the rho entries are at colptr[n+i+1]-1.
        let rho_positions: Vec<usize> = (0..m).map(|i| mat.colptr()[n + i + 1] - 1).collect();
        Ok(KktMatrix { n, m, mat, rho_positions })
    }

    /// Number of decision variables `n`.
    pub fn num_vars(&self) -> usize {
        self.n
    }

    /// Number of constraints `m`.
    pub fn num_constraints(&self) -> usize {
        self.m
    }

    /// The assembled upper-triangular CSC matrix of dimension `n + m`.
    pub fn matrix(&self) -> &CscMatrix {
        &self.mat
    }

    /// Overwrites the `-1/ρ` diagonal block in place. The sparsity structure
    /// is untouched, so an existing [`crate::Ldlt`] can
    /// [`refactor`](crate::Ldlt::refactor) against [`Self::matrix`].
    ///
    /// # Errors
    ///
    /// Returns [`LinsysError::Dimension`] if `rho.len() != m` or an entry is
    /// not strictly positive.
    pub fn update_rho(&mut self, rho: &[f64]) -> Result<(), LinsysError> {
        if rho.len() != self.m {
            return Err(LinsysError::Dimension(format!(
                "rho has length {} but KKT has {} constraints",
                rho.len(),
                self.m
            )));
        }
        if rho.iter().any(|&r| r <= 0.0) {
            return Err(LinsysError::Dimension("rho entries must be positive".into()));
        }
        let data = self.mat.data_mut();
        for (i, &ri) in rho.iter().enumerate() {
            data[self.rho_positions[i]] = -1.0 / ri;
        }
        Ok(())
    }
}

/// Matrix-free reduced KKT operator `K = P + σI + Aᵀ diag(ρ) A` (Eq. 3).
///
/// `Aᵀ` is built **once** at construction as a [`TransposeCache`], so every
/// `apply` evaluates `Aᵀ(ρ∘(Ax))` as two cache-friendly gather SpMVs
/// instead of a scatter (the GPU implementation and the FPGA likewise store
/// `A` and `Aᵀ` explicitly for row-major streaming). The operator owns its
/// matrices behind [`Arc`]s so backends can hold it across iterations
/// without cloning data, and runs its SpMVs on a shared [`ThreadPool`] over
/// nnz-balanced [`RowPartition`]s — bit-identical for every pool size.
///
/// Its `M⁻¹` ([`KktPrecond`]) is Jacobi plus the Woodbury correction for
/// the dense rows of `A`, the block elimination of its dense columns, or
/// the sparse LDLᵀ of `K`. It is chosen with the operator, refreshed with
/// every ρ or value update, and readied by [`Self::prepare`] before a
/// solve, which is where the factor of `K` is formed and refactored. When
/// it is exact, [`Self::exact_solve`] is the whole KKT solve.
#[derive(Debug, Clone)]
pub struct ReducedKktOp {
    p: Arc<CsrMatrix>,
    a: Arc<CsrMatrix>,
    at: TransposeCache,
    sigma: f64,
    rho: Vec<f64>,
    /// The preconditioner for the current matrices and ρ.
    precond: KktPrecond,
    tmp_m: Vec<f64>,
    /// The right-hand side of [`Self::exact_solve`].
    tmp_n: Vec<f64>,
    pool: Arc<ThreadPool>,
    p_part: RowPartition,
    a_part: RowPartition,
    at_part: RowPartition,
    spmv_count: usize,
}

impl ReducedKktOp {
    /// Creates a serial operator, cloning the matrices once and building
    /// the `Aᵀ` cache.
    ///
    /// # Errors
    ///
    /// Returns [`LinsysError::Dimension`] if the shapes are inconsistent.
    pub fn new(p: &CsrMatrix, a: &CsrMatrix, sigma: f64, rho: &[f64]) -> Result<Self, LinsysError> {
        Self::with_pool(
            Arc::new(p.clone()),
            Arc::new(a.clone()),
            sigma,
            rho,
            Arc::new(ThreadPool::serial()),
        )
    }

    /// Creates the operator on an existing pool without copying matrix
    /// data. Row partitions are balanced by nnz for the pool size; the `Aᵀ`
    /// cache is built here, once.
    ///
    /// # Errors
    ///
    /// Returns [`LinsysError::Dimension`] if the shapes are inconsistent.
    pub fn with_pool(
        p: Arc<CsrMatrix>,
        a: Arc<CsrMatrix>,
        sigma: f64,
        rho: &[f64],
        pool: Arc<ThreadPool>,
    ) -> Result<Self, LinsysError> {
        let n = p.nrows();
        let m = a.nrows();
        if p.ncols() != n {
            return Err(LinsysError::Dimension(format!("P must be square, got {n}x{}", p.ncols())));
        }
        if a.ncols() != n {
            return Err(LinsysError::Dimension(format!(
                "A has {} columns but P is {n}x{n}",
                a.ncols()
            )));
        }
        if rho.len() != m {
            return Err(LinsysError::Dimension(format!(
                "rho has length {} but A has {m} rows",
                rho.len()
            )));
        }
        let at = TransposeCache::new(&a);
        // A mild oversplit (2 chunks per thread) smooths out rows of uneven
        // cost without shrinking chunks below useful sizes.
        let chunks = pool.threads() * 2;
        let p_part = RowPartition::balanced(&p, chunks);
        let a_part = RowPartition::balanced(&a, chunks);
        let at_part = RowPartition::balanced(at.matrix(), chunks);
        let precond = KktPrecond::new(&p, &a, at.matrix(), sigma, rho);
        Ok(ReducedKktOp {
            p,
            a,
            at,
            sigma,
            rho: rho.to_vec(),
            precond,
            tmp_m: vec![0.0; m],
            tmp_n: vec![0.0; n],
            pool,
            p_part,
            a_part,
            at_part,
            spmv_count: 0,
        })
    }

    fn check_rho_len(&self, rho: &[f64]) -> Result<(), LinsysError> {
        if rho.len() != self.rho.len() {
            return Err(LinsysError::Dimension(format!(
                "rho length changed from {} to {}",
                self.rho.len(),
                rho.len()
            )));
        }
        Ok(())
    }

    /// Replaces the ρ vector (no structural work needed — this is the big
    /// advantage of the indirect method highlighted in §2.2) and refreshes
    /// the preconditioner in place.
    ///
    /// # Errors
    ///
    /// Returns [`LinsysError::Dimension`] if the length changes.
    pub fn update_rho(&mut self, rho: &[f64]) -> Result<(), LinsysError> {
        self.check_rho_len(rho)?;
        self.rho.copy_from_slice(rho);
        self.precond.refresh(&self.p, &self.a, self.at.matrix(), &self.rho);
        Ok(())
    }

    /// Replaces the matrix values and ρ. The sparsity patterns of `P` and
    /// `A` must match the originals (the ADMM solver only rescales values
    /// in place); the `Aᵀ` cache and the preconditioner are refreshed by
    /// value passes, never rebuilt.
    ///
    /// # Errors
    ///
    /// Returns [`LinsysError::Dimension`] when a shape, nonzero count, or
    /// the ρ length differs from the cached structure.
    pub fn update_values(
        &mut self,
        p: &CsrMatrix,
        a: &CsrMatrix,
        rho: &[f64],
    ) -> Result<(), LinsysError> {
        if (p.nrows(), p.ncols(), p.nnz()) != (self.p.nrows(), self.p.ncols(), self.p.nnz()) {
            return Err(LinsysError::Dimension("P shape or nnz changed in update".into()));
        }
        if (a.nrows(), a.ncols(), a.nnz()) != (self.a.nrows(), self.a.ncols(), self.a.nnz()) {
            return Err(LinsysError::Dimension("A shape or nnz changed in update".into()));
        }
        self.check_rho_len(rho)?;
        self.rho.copy_from_slice(rho);
        // In place while the operator owns its copies, so an update does
        // not allocate.
        for (own, new) in [(&mut self.p, p), (&mut self.a, a)] {
            match Arc::get_mut(own) {
                Some(own) => own.data_mut().copy_from_slice(new.data()),
                None => *own = Arc::new(new.clone()),
            }
        }
        self.at.refresh_values(&self.a)?;
        self.precond.refresh(&self.p, &self.a, self.at.matrix(), &self.rho);
        Ok(())
    }

    /// The preconditioner for the current matrices and ρ.
    pub fn preconditioner(&self) -> &KktPrecond {
        &self.precond
    }

    /// Readies `M⁻¹` for the current matrices and ρ
    /// ([`KktPrecond::prepare`]): factors `K` at the first call and after
    /// each update when `M⁻¹` is its factor.
    ///
    /// # Errors
    ///
    /// [`PcgError::Breakdown`] at iteration 0 while a pivot of `M⁻¹` is
    /// not positive and finite.
    pub fn prepare(&mut self) -> Result<(), PcgError> {
        self.precond.prepare(&self.p, &self.a, self.at.matrix(), &self.rho)
    }

    /// `y = A x` on the operator's pool — the `z̃ = A x̃` step of a KKT
    /// solve, counted in [`Self::spmv_count`].
    ///
    /// # Errors
    ///
    /// Returns [`LinsysError::Sparse`] on shape mismatch.
    pub fn a_spmv(&mut self, x: &[f64], y: &mut [f64]) -> Result<(), LinsysError> {
        self.a.spmv_partitioned(x, y, &self.pool, &self.a_part)?;
        self.spmv_count += 1;
        Ok(())
    }

    /// The right-hand side of the reduced KKT system for the ADMM iterates
    /// `x`, `z`, `y` and the cost `q`: `b = (σx − q) + Aᵀ(ρ∘z − y)`, or, for
    /// the augmented dense-row solve, `(σx − q) + Aᵀ(mask_R∘(ρ∘z − y))`,
    /// which leaves out the rows of `S` ([`DenseRowPrecond::mask`]). The
    /// `Aᵀ` product counts in [`Self::spmv_count`].
    ///
    /// # Errors
    ///
    /// Returns [`LinsysError::Dimension`] when a length differs from the
    /// operator's `n` or `m`.
    ///
    /// [`DenseRowPrecond::mask`]: crate::DenseRowPrecond::mask
    pub fn rhs(
        &mut self,
        x: &[f64],
        z: &[f64],
        y: &[f64],
        q: &[f64],
        b: &mut [f64],
    ) -> Result<(), LinsysError> {
        let (n, m) = (self.p.nrows(), self.a.nrows());
        if [x.len(), q.len(), b.len()] != [n; 3] || [z.len(), y.len()] != [m; 2] {
            return Err(LinsysError::Dimension(format!(
                "KKT right-hand side: x, q, b need length {n} and z, y length {m}"
            )));
        }
        let mask = match &self.precond {
            KktPrecond::Rows(pre) if pre.is_exact() => Some(pre.mask()),
            _ => None,
        };
        for (i, t) in self.tmp_m.iter_mut().enumerate() {
            let v = self.rho[i] * z[i] - y[i];
            *t = mask.map_or(v, |mask| mask[i] * v);
        }
        for ((bj, &xj), &qj) in b.iter_mut().zip(x).zip(q) {
            *bj = self.sigma * xj - qj;
        }
        self.at.matrix().spmv_acc_partitioned(1.0, &self.tmp_m, b, &self.pool, &self.at_part)?;
        self.spmv_count += 1;
        Ok(())
    }

    /// Solves the ADMM KKT system (Eq. 2) directly for an exact `M⁻¹`
    /// ([`KktPrecond::is_exact`]), with no CG iteration: forms the
    /// right-hand side ([`Self::rhs`]), then `x̃ = M⁻¹b` and `z̃ = A x̃` for
    /// the dense-column elimination and the factor of `K`, or the augmented
    /// dense-row solve — `x̃` by [`DenseRowPrecond::solve_augmented`], `z̃ =
    /// A x̃` outside `S` and `z̃_S = u_S + ρ_S⁻¹∘ν` on it. Readies `M⁻¹`
    /// first ([`Self::prepare`]). The incoming `xtilde` is not read.
    /// Counts `products() + 2` SpMVs: `Aᵀ`, the products of `M⁻¹` and `A`.
    /// Performs no heap allocation.
    ///
    /// # Errors
    ///
    /// [`PcgError::Breakdown`] at iteration 0 while a pivot of `M⁻¹` is not
    /// positive and finite, [`PcgError::Operator`] when a length differs
    /// from the operator's, and, as PCG would fail on the same input,
    /// [`PcgError::NonFinite`] at iteration 0 when `x̃` is not finite: the
    /// `"rhs norm"` when the right-hand side is not, else the
    /// `"preconditioned residual"`.
    ///
    /// # Panics
    ///
    /// Panics unless [`KktPrecond::is_exact`].
    ///
    /// [`DenseRowPrecond::solve_augmented`]: crate::DenseRowPrecond::solve_augmented
    pub fn exact_solve(
        &mut self,
        x: &[f64],
        z: &[f64],
        y: &[f64],
        q: &[f64],
        xtilde: &mut [f64],
        ztilde: &mut [f64],
    ) -> Result<(), PcgError> {
        assert!(self.precond.is_exact(), "a direct KKT solve needs an exact M⁻¹");
        self.prepare()?;
        let (n, m) = (self.p.nrows(), self.a.nrows());
        if xtilde.len() != n || ztilde.len() != m {
            return Err(PcgError::Operator(LinsysError::Dimension(format!(
                "x̃ needs length {n} and z̃ length {m}"
            ))));
        }
        let mut b = std::mem::take(&mut self.tmp_n);
        let formed = self.rhs(x, z, y, q, &mut b);
        if formed.is_ok() {
            match &mut self.precond {
                KktPrecond::Rows(pre) => pre.solve_augmented(&b, z, y, xtilde),
                pre => pre.apply(&b, xtilde),
            }
            self.spmv_count += self.precond.products();
        }
        let finite = b.iter().all(|v| v.is_finite());
        self.tmp_n = b;
        formed?;
        if !xtilde.iter().all(|v| v.is_finite()) {
            let quantity = if finite { "preconditioned residual" } else { "rhs norm" };
            return Err(PcgError::NonFinite { iteration: 0, quantity });
        }
        self.a_spmv(xtilde, ztilde)?;
        if let KktPrecond::Rows(pre) = &self.precond {
            pre.write_dense_ztilde(ztilde);
        }
        Ok(())
    }

    /// The cached transpose `Aᵀ`.
    pub fn transpose(&self) -> &TransposeCache {
        &self.at
    }

    /// The current ρ vector.
    pub fn rho(&self) -> &[f64] {
        &self.rho
    }

    /// Number of SpMV evaluations performed so far, used by the performance
    /// models: three per `apply` (`P`, `A`, `Aᵀ`), one per
    /// [`Self::a_spmv`] and [`Self::rhs`], and per `precondition`
    /// the [`KktPrecond::products`] of `M⁻¹`: three with dense rows
    /// (`A_S`, `C⁻¹`, `A_Sᵀ`), three or four for the dense-column
    /// elimination (`H`, `S⁻¹`, `Hᵀ`, and `G` when it is not diagonal), or
    /// two for the factor of `K` (its two sweeps through `L`). An exact KKT
    /// solve ([`Self::exact_solve`]) counts `products() + 2`: `Aᵀ` for the
    /// right-hand side, the products of `M⁻¹` and `A` for `z̃`.
    pub fn spmv_count(&self) -> usize {
        self.spmv_count
    }
}

impl LinearOperator for ReducedKktOp {
    fn dim(&self) -> usize {
        self.p.nrows()
    }

    fn apply(&mut self, x: &[f64], y: &mut [f64]) -> Result<(), LinsysError> {
        // y = P x + sigma x
        self.p.spmv_partitioned(x, y, &self.pool, &self.p_part)?;
        for (yi, &xi) in y.iter_mut().zip(x) {
            *yi += self.sigma * xi;
        }
        // tmp = rho .* (A x); y += At tmp — both gather SpMVs.
        self.a.spmv_partitioned(x, &mut self.tmp_m, &self.pool, &self.a_part)?;
        for (t, &r) in self.tmp_m.iter_mut().zip(&self.rho) {
            *t *= r;
        }
        self.at.matrix().spmv_acc_partitioned(1.0, &self.tmp_m, y, &self.pool, &self.at_part)?;
        self.spmv_count += 3;
        Ok(())
    }

    /// `d = M⁻¹ r`, readying `M⁻¹` first ([`Self::prepare`]) for callers
    /// that run PCG on the operator directly. While `M⁻¹` has a failed
    /// pivot, `d = 0`, which PCG reports as a breakdown.
    fn precondition(&mut self, r: &[f64], d: &mut [f64]) {
        if self.prepare().is_err() {
            d.fill(0.0);
            return;
        }
        self.precond.apply(r, d);
        self.spmv_count += self.precond.products();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DenseColPrecond, DenseRowPrecond, KktFactor, Ldlt};
    use rsqp_solver::QpProblem;

    fn small_problem() -> (CsrMatrix, CsrMatrix) {
        let p = CsrMatrix::from_dense(&[vec![4.0, 1.0], vec![1.0, 2.0]]);
        let a = CsrMatrix::from_dense(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]]);
        (p, a)
    }

    #[test]
    fn kkt_assembly_shape_and_blocks() {
        let (p, a) = small_problem();
        let rho = vec![0.1, 0.2, 0.4];
        let kkt = KktMatrix::assemble(&p, &a, 1e-6, &rho).unwrap();
        let m = kkt.matrix();
        assert_eq!((m.nrows(), m.ncols()), (5, 5));
        assert!(m.is_upper_triangular());
        assert!((m.get(0, 0) - (4.0 + 1e-6)).abs() < 1e-15);
        assert_eq!(m.get(0, 2), 1.0); // Aᵀ block
        assert_eq!(m.get(1, 4), 1.0);
        assert!((m.get(2, 2) + 10.0).abs() < 1e-12); // -1/0.1
        assert!((m.get(4, 4) + 2.5).abs() < 1e-12); // -1/0.4
    }

    #[test]
    fn kkt_rho_update_matches_fresh_assembly() {
        let (p, a) = small_problem();
        let mut kkt = KktMatrix::assemble(&p, &a, 1e-6, &[0.1, 0.1, 0.1]).unwrap();
        kkt.update_rho(&[1.0, 2.0, 4.0]).unwrap();
        let fresh = KktMatrix::assemble(&p, &a, 1e-6, &[1.0, 2.0, 4.0]).unwrap();
        assert_eq!(kkt.matrix(), fresh.matrix());
    }

    #[test]
    fn kkt_rejects_bad_shapes_and_rho() {
        let (p, a) = small_problem();
        assert!(KktMatrix::assemble(&p, &a, 1e-6, &[0.1]).is_err());
        assert!(KktMatrix::assemble(&p, &a, 1e-6, &[0.1, -1.0, 0.1]).is_err());
        let bad_a = CsrMatrix::from_dense(&[vec![1.0, 2.0, 3.0]]);
        assert!(KktMatrix::assemble(&p, &bad_a, 1e-6, &[0.1]).is_err());
    }

    #[test]
    fn kkt_factorizes_and_matches_reduced_solve() {
        let (p, a) = small_problem();
        let rho = vec![0.5, 0.5, 0.5];
        let sigma = 1e-6;
        let kkt = KktMatrix::assemble(&p, &a, sigma, &rho).unwrap();
        let ldlt = Ldlt::factor(kkt.matrix()).unwrap();
        assert_eq!(ldlt.num_positive_d(), 2);
        // Solve KKT [x; nu] = [b1; 0] and compare x against the dense
        // reduced system (P + sigma I + rho AᵀA) x = b1.
        let b1 = [1.0, -2.0];
        let mut rhs = vec![b1[0], b1[1], 0.0, 0.0, 0.0];
        ldlt.solve_in_place(&mut rhs).unwrap();
        // Dense reduced solve.
        let k = [[4.0 + sigma + 0.5 * 2.0, 1.0 + 0.5], [1.0 + 0.5, 2.0 + sigma + 0.5 * 2.0]];
        let det = k[0][0] * k[1][1] - k[0][1] * k[1][0];
        let x0 = (k[1][1] * b1[0] - k[0][1] * b1[1]) / det;
        let x1 = (-k[1][0] * b1[0] + k[0][0] * b1[1]) / det;
        assert!((rhs[0] - x0).abs() < 1e-10, "{} vs {}", rhs[0], x0);
        assert!((rhs[1] - x1).abs() < 1e-10);
    }

    #[test]
    fn reduced_op_matches_dense() {
        let (p, a) = small_problem();
        let rho = vec![0.1, 0.2, 0.4];
        let sigma = 0.01;
        let mut op = ReducedKktOp::new(&p, &a, sigma, &rho).unwrap();
        let x = [1.0, 2.0];
        let mut y = vec![0.0; 2];
        op.apply(&x, &mut y).unwrap();
        // Dense: K = P + sigma I + At diag(rho) A
        // A rows: [1,0],[0,1],[1,1]
        // At diag(rho) A = [[0.1+0.4, 0.4], [0.4, 0.2+0.4]]
        let k = [[4.0 + sigma + 0.5, 1.0 + 0.4], [1.0 + 0.4, 2.0 + sigma + 0.6]];
        let want = [k[0][0] * x[0] + k[0][1] * x[1], k[1][0] * x[0] + k[1][1] * x[1]];
        assert!((y[0] - want[0]).abs() < 1e-12);
        assert!((y[1] - want[1]).abs() < 1e-12);
        assert_eq!(op.spmv_count(), 3);
    }

    /// Per-constraint ρ as the solver sets it: `rho` on inequality rows and
    /// `1e3·rho` on equality rows.
    fn solver_rho(qp: &rsqp_solver::QpProblem, rho: f64) -> Vec<f64> {
        qp.l().iter().zip(qp.u()).map(|(l, u)| if l == u { 1e3 * rho } else { rho }).collect()
    }

    /// The dense-row preconditioner of `op`.
    fn rows(op: &ReducedKktOp) -> &DenseRowPrecond {
        match op.preconditioner() {
            KktPrecond::Rows(pre) => pre,
            _ => panic!("expected the dense-row preconditioner"),
        }
    }

    /// The dense-column preconditioner of `op`.
    fn cols(op: &ReducedKktOp) -> &DenseColPrecond {
        match op.preconditioner() {
            KktPrecond::Cols(pre) => pre,
            _ => panic!("expected the dense-column preconditioner"),
        }
    }

    /// The factor of `K` of `op`.
    fn factor(op: &ReducedKktOp) -> &KktFactor {
        match op.preconditioner() {
            KktPrecond::Factor(pre) => pre,
            _ => panic!("expected the factor of K"),
        }
    }

    /// `‖K x − b‖ / ‖b‖` through the operator.
    fn relative_residual(op: &mut ReducedKktOp, x: &[f64], b: &[f64]) -> f64 {
        let mut kx = vec![0.0; x.len()];
        op.apply(x, &mut kx).unwrap();
        let norm = |v: &mut dyn Iterator<Item = f64>| v.map(|e| e * e).sum::<f64>().sqrt();
        norm(&mut kx.iter().zip(b).map(|(k, b)| k - b)) / norm(&mut b.iter().copied())
    }

    #[test]
    fn the_factor_is_formed_at_the_first_prepare() {
        let (p, a) = small_problem();
        let mut op = ReducedKktOp::new(&p, &a, 0.01, &[0.1, 0.2, 0.4]).unwrap();
        assert!(op.preconditioner().is_exact());
        assert!(op.preconditioner().inv_diag().is_none());
        assert!(factor(&op).upper().is_none(), "nothing is formed at construction");
        op.prepare().unwrap();
        assert_eq!(factor(&op).upper().unwrap().nnz(), 3, "triu(K) is full");
        assert_eq!(op.preconditioner().factorizations(), 1);
        // A ρ update refactors at the next prepare, not before.
        op.update_rho(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(op.preconditioner().factorizations(), 1);
        op.prepare().unwrap();
        op.prepare().unwrap();
        assert_eq!(op.preconditioner().factorizations(), 2);
    }

    #[test]
    fn without_dense_rows_or_columns_the_kkt_solve_is_the_factor() {
        // The small suite but its portfolios (their factor and budget rows
        // are dense), the benchmark's control and eqqp instances, and an
        // SVM with too few dense feature columns: K_RR couples more than
        // 8 variables, so the column elimination declines.
        let mut problems: Vec<_> = rsqp_problems::small_suite(1)
            .into_iter()
            .filter(|bp| bp.domain != rsqp_problems::Domain::Portfolio)
            .map(|bp| bp.problem)
            .collect();
        problems.extend([
            rsqp_problems::generate(rsqp_problems::Domain::Control, 60, 1),
            rsqp_problems::generate(rsqp_problems::Domain::Eqqp, 400, 1),
            rsqp_problems::generate(rsqp_problems::Domain::Svm, 14, 1),
        ]);
        for qp in &problems {
            let (p, a, sigma) = (qp.p(), qp.a(), 1e-6);
            let rho = solver_rho(qp, 0.1);
            let mut op = ReducedKktOp::new(p, a, sigma, &rho).unwrap();
            let name = qp.name();
            if !matches!(op.preconditioner(), KktPrecond::Factor(_)) {
                assert!(
                    name.starts_with("svm")
                        || name.starts_with("lasso")
                        || name.starts_with("huber"),
                    "{name}"
                );
                continue;
            }
            op.prepare().unwrap();
            let r: Vec<f64> = (0..p.nrows()).map(|i| (i as f64 * 0.61).sin()).collect();
            let mut d = vec![0.0; r.len()];
            op.precondition(&r, &mut d);
            assert_eq!(op.spmv_count(), 2, "{name}: two sweeps through L");
            let rel = relative_residual(&mut op, &d, &r);
            assert!(rel <= 1e-10, "{name}: ‖Kx − b‖/‖b‖ = {rel:e}");
        }
    }

    /// Solves `K x = b` by PCG from zero at eps 1e-13 and checks the
    /// iteration count against `max_iter` and `x` against the x block of
    /// an LDLᵀ solve of the full KKT system.
    fn pcg_matches_ldlt(
        op: &mut ReducedKktOp,
        p: &CsrMatrix,
        a: &CsrMatrix,
        sigma: f64,
        rho: &[f64],
        max_iter: usize,
    ) {
        let n = p.nrows();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).cos()).collect();
        let settings = crate::PcgSettings { eps: 1e-13, max_iter: 100 };
        let mut x = vec![0.0; n];
        let mut ws = crate::PcgWorkspace::new(n);
        let sol =
            crate::pcg_with(op, &b, &mut x, &settings, &mut ws, &ThreadPool::serial()).unwrap();
        assert!(sol.converged && sol.iterations <= max_iter, "{} iterations", sol.iterations);
        let kkt = KktMatrix::assemble(p, a, sigma, rho).unwrap();
        let mut rhs = b.clone();
        rhs.resize(n + a.nrows(), 0.0);
        Ldlt::factor(kkt.matrix()).unwrap().solve_in_place(&mut rhs).unwrap();
        for (got, want) in x.iter().zip(&rhs[..n]) {
            assert!((got - want).abs() < 1e-8, "{got} vs {want}");
        }
    }

    #[test]
    fn dense_row_preconditioner_solves_portfolio_in_one_step() {
        // A portfolio's rows are its factor and budget rows (dense) and
        // single-entry box rows, and P is diagonal: M = K, so PCG from
        // zero converges at once.
        let qp = rsqp_problems::generate(rsqp_problems::Domain::Portfolio, 5, 1);
        let (p, a, sigma) = (qp.p(), qp.a(), 1e-6);
        let rho = solver_rho(&qp, 0.1);
        let mut op = ReducedKktOp::new(p, a, sigma, &rho).unwrap();
        let pre = rows(&op);
        assert_eq!(pre.dense_rows(), [0, 1, 2, 3, 4, 5], "five factor rows and the budget row");
        assert_eq!(pre.failed_pivot(), None);
        pcg_matches_ldlt(&mut op, p, a, sigma, &rho, 2);
    }

    /// `wave(len, phase)_i = sin(0.37 i + phase)`.
    fn wave(len: usize, phase: f64) -> Vec<f64> {
        (0..len).map(|i| ((i as f64) * 0.37 + phase).sin()).collect()
    }

    #[test]
    fn a_diagonal_k_r_makes_the_dense_rows_exact() {
        // A portfolio: P diagonal, box rows of one entry. A 40-variable
        // budget QP with a tridiagonal P (every row a box row, one dense
        // budget row): K_R is not diagonal, and PCG stays.
        let qp = rsqp_problems::generate(rsqp_problems::Domain::Portfolio, 5, 1);
        let op = ReducedKktOp::new(qp.p(), qp.a(), 1e-6, &solver_rho(&qp, 0.1)).unwrap();
        assert!(rows(&op).is_exact() && op.preconditioner().is_exact());
        let n = 40;
        let p = CsrMatrix::from_triplets(
            n,
            n,
            (0..n).flat_map(|i| [(i, i, 2.0), (i, (i + 1) % n, -0.5), ((i + 1) % n, i, -0.5)]),
        );
        let a = CsrMatrix::from_triplets(n + 1, n, (0..n).flat_map(|j| [(j, j, 1.0), (n, j, 1.0)]));
        let op = ReducedKktOp::new(&p, &a, 1e-6, &vec![0.1; n + 1]).unwrap();
        assert_eq!(rows(&op).dense_rows(), [n]);
        assert!(!rows(&op).is_exact() && !op.preconditioner().is_exact());
        assert_eq!(rows(&op).mask().iter().filter(|&&v| v == 0.0).count(), 1);
    }

    #[test]
    fn the_augmented_solve_is_ldlts_kkt_solve() {
        // Equality rows at 1e3·ρ (the factor rows and the budget row): x̃
        // and z̃ of the full KKT system, to LDLᵀ's accuracy.
        let qp = rsqp_problems::generate(rsqp_problems::Domain::Portfolio, 20, 1);
        let (p, a, sigma) = (qp.p(), qp.a(), 1e-6);
        let (n, m) = (p.nrows(), a.nrows());
        let rho = solver_rho(&qp, 0.1);
        let mut op = ReducedKktOp::new(p, a, sigma, &rho).unwrap();
        let (x, z, y, q) = (wave(n, 0.0), wave(m, 1.0), wave(m, 2.0), wave(n, 3.0));
        let (mut xt, mut zt) = (vec![f64::NAN; n], vec![0.0; m]);
        op.exact_solve(&x, &z, &y, &q, &mut xt, &mut zt).unwrap();
        assert_eq!(op.spmv_count(), 3 + 2, "Aᵀ, A_S, C⁻¹, A_Sᵀ and A");

        let kkt = KktMatrix::assemble(p, a, sigma, &rho).unwrap();
        let mut rhs: Vec<f64> = (0..n).map(|j| sigma * x[j] - q[j]).collect();
        rhs.extend((0..m).map(|i| z[i] - y[i] / rho[i]));
        Ldlt::factor(kkt.matrix()).unwrap().solve_in_place(&mut rhs).unwrap();
        for (got, want) in xt.iter().zip(&rhs[..n]) {
            assert!((got - want).abs() < 1e-9, "x̃: {got} vs {want}");
        }
        for i in 0..m {
            let want = z[i] + (rhs[n + i] - y[i]) / rho[i];
            assert!((zt[i] - want).abs() < 1e-9, "z̃[{i}]: {} vs {want}", zt[i]);
        }
    }

    #[test]
    fn exact_solve_fails_as_pcg_would() {
        use crate::{pcg_with, PcgSettings, PcgWorkspace};
        // K = diag(1e-300, 1e-300) plus a negligible row: its factor has
        // tiny pivots, so a right-hand side of 1e10 overflows K⁻¹b.
        let p = CsrMatrix::from_diag(&[1e-300, 1e-300]);
        let a = CsrMatrix::from_dense(&[vec![1e-200, 0.0]]);
        let (x, z, y) = ([0.0; 2], [0.0], [0.0]);
        for (q, quantity) in
            [([f64::NAN, 1.0], "rhs norm"), ([1e10, 1e10], "preconditioned residual")]
        {
            let mut op = ReducedKktOp::new(&p, &a, 0.0, &[1.0]).unwrap();
            assert!(op.preconditioner().is_exact());
            let direct = op.exact_solve(&x, &z, &y, &q, &mut [0.0; 2], &mut [0.0]).unwrap_err();
            assert_eq!(direct, PcgError::NonFinite { iteration: 0, quantity });
            let mut b = [0.0; 2];
            op.rhs(&x, &z, &y, &q, &mut b).unwrap();
            let pcg = pcg_with(
                &mut op,
                &b,
                &mut [0.0; 2],
                &PcgSettings::default(),
                &mut PcgWorkspace::new(2),
                &ThreadPool::serial(),
            )
            .unwrap_err();
            assert_eq!(direct, pcg);
        }
        let mut op = ReducedKktOp::new(&p, &a, 0.0, &[1.0]).unwrap();
        let short = op.exact_solve(&x, &z, &y, &[0.0], &mut [0.0; 2], &mut [0.0]);
        assert!(matches!(short, Err(PcgError::Operator(_))), "{short:?}");
    }

    /// The smallest SVM, lasso and Huber instances whose feature columns
    /// the dense-column rule picks, with their feature counts.
    fn dense_column_instances() -> [(QpProblem, usize); 3] {
        use rsqp_problems::{generate, Domain};
        [
            (generate(Domain::Svm, 21, 1), 21),
            (generate(Domain::Lasso, 14, 1), 14),
            (generate(Domain::Huber, 19, 1), 19),
        ]
    }

    #[test]
    fn dense_column_preconditioner_solves_in_one_step() {
        // K_RR is block-diagonal on all three (1×1 blocks on SVM and lasso,
        // 3×3 on Huber), so M = K and PCG from zero converges at once.
        for (qp, features) in dense_column_instances() {
            let (p, a, sigma) = (qp.p(), qp.a(), 1e-6);
            let rho = solver_rho(&qp, 0.1);
            let mut op = ReducedKktOp::new(p, a, sigma, &rho).unwrap();
            let pre = cols(&op);
            assert_eq!(pre.dense_cols(), (0..features).collect::<Vec<_>>(), "{}", qp.name());
            assert_eq!(pre.failed_pivot(), None, "{}", qp.name());
            assert_eq!(pre.g().is_some(), qp.name().starts_with("huber"), "{}", qp.name());
            // Every apply counts H, S⁻¹, Hᵀ and a non-diagonal G.
            let products = 3 + usize::from(pre.g().is_some());
            assert_eq!(pre.products(), products);
            let r = vec![1.0; p.nrows()];
            op.precondition(&r, &mut vec![0.0; p.nrows()]);
            assert_eq!(op.spmv_count(), products);
            pcg_matches_ldlt(&mut op, p, a, sigma, &rho, 2);
        }
    }

    #[test]
    fn cached_preconditioner_follows_rho_and_value_updates() {
        // The factor of K refactors to the bits of a fresh one.
        let same = |op: &mut ReducedKktOp, fresh: &mut ReducedKktOp| {
            op.prepare().unwrap();
            fresh.prepare().unwrap();
            assert_eq!(factor(op).upper(), factor(fresh).upper());
            let r = [1.0, -0.5];
            let (mut x, mut y) = ([0.0; 2], [0.0; 2]);
            op.precondition(&r, &mut x);
            fresh.precondition(&r, &mut y);
            assert_eq!(x.map(f64::to_bits), y.map(f64::to_bits));
        };
        let (p, a) = small_problem();
        let mut op = ReducedKktOp::new(&p, &a, 0.01, &[0.1, 0.2, 0.4]).unwrap();
        op.prepare().unwrap();
        op.update_rho(&[1.0, 2.0, 3.0]).unwrap();
        same(&mut op, &mut ReducedKktOp::new(&p, &a, 0.01, &[1.0, 2.0, 3.0]).unwrap());
        let (p2, a2) = (p.map_values(|v| 2.0 * v), a.map_values(|v| 0.5 * v));
        op.update_values(&p2, &a2, &[0.3, 0.2, 0.1]).unwrap();
        same(&mut op, &mut ReducedKktOp::new(&p2, &a2, 0.01, &[0.3, 0.2, 0.1]).unwrap());

        // With dense rows, D'⁻¹, A_S and C⁻¹ all follow the updates.
        let qp = rsqp_problems::generate(rsqp_problems::Domain::Portfolio, 2, 1);
        let (p, a) = (qp.p(), qp.a());
        let mut op = ReducedKktOp::new(p, a, 1e-6, &solver_rho(&qp, 0.1)).unwrap();
        let same = |op: &ReducedKktOp, fresh: &ReducedKktOp| {
            let (x, y) = (rows(op), rows(fresh));
            assert_eq!((x.failed_pivot(), y.failed_pivot()), (None, None));
            assert_eq!(x.dense_rows(), y.dense_rows());
            assert_eq!(x.inv_diag(), y.inv_diag());
            assert_eq!(x.a_s(), y.a_s());
            assert_eq!(x.cinv(), y.cinv());
        };
        let rho = solver_rho(&qp, 1.7);
        op.update_rho(&rho).unwrap();
        same(&op, &ReducedKktOp::new(p, a, 1e-6, &rho).unwrap());
        let (p2, a2) = (p.map_values(|v| 3.0 * v), a.map_values(|v| 0.25 * v));
        let rho = solver_rho(&qp, 0.02);
        op.update_values(&p2, &a2, &rho).unwrap();
        same(&op, &ReducedKktOp::new(&p2, &a2, 1e-6, &rho).unwrap());

        // With dense columns, G, H and S⁻¹ follow them too.
        let same = |op: &ReducedKktOp, fresh: &ReducedKktOp| {
            let (x, y) = (cols(op), cols(fresh));
            assert_eq!((x.failed_pivot(), y.failed_pivot()), (None, None));
            assert_eq!(x.dense_cols(), y.dense_cols());
            assert_eq!(x.inv_diag(), y.inv_diag());
            assert_eq!(x.g(), y.g());
            assert_eq!(x.ht(), y.ht());
            let k = x.rank();
            let (mut sx, mut sy) = (vec![0.0; k * k], vec![0.0; k * k]);
            x.write_s_inverse(&mut sx);
            y.write_s_inverse(&mut sy);
            assert_eq!(sx, sy);
        };
        for (qp, _) in dense_column_instances() {
            let (p, a) = (qp.p(), qp.a());
            let mut op = ReducedKktOp::new(p, a, 1e-6, &solver_rho(&qp, 0.1)).unwrap();
            let rho = solver_rho(&qp, 1.7);
            op.update_rho(&rho).unwrap();
            same(&op, &ReducedKktOp::new(p, a, 1e-6, &rho).unwrap());
            let (p2, a2) = (p.map_values(|v| 3.0 * v), a.map_values(|v| 0.25 * v));
            let rho = solver_rho(&qp, 0.02);
            op.update_values(&p2, &a2, &rho).unwrap();
            same(&op, &ReducedKktOp::new(&p2, &a2, 1e-6, &rho).unwrap());
        }
    }

    /// `P` of `qp` with `value` on the diagonal of variable `j`, added to
    /// its pattern.
    fn with_diagonal(qp: &QpProblem, j: usize, value: f64) -> CsrMatrix {
        let p = qp.p();
        let entries = (0..p.nrows()).flat_map(|i| {
            let (cols, vals) = p.row(i);
            cols.iter().zip(vals).map(move |(&c, &v)| (i, c, v))
        });
        CsrMatrix::from_triplets(p.nrows(), p.ncols(), entries.chain([(j, j, value)]))
    }

    #[test]
    fn a_failed_refresh_keeps_its_pivot_until_the_next_one() {
        // A negative curvature on the first slack of an SVM (a 1×1 block
        // of K_RR, touched by its hinge row and its sign row) leaves the
        // elimination without a factor; valid values restore it exactly.
        let (qp, _) = &dense_column_instances()[0];
        let (a, sigma, t0) = (qp.a(), 1e-6, 21);
        let rho = solver_rho(qp, 0.1);
        let valid = with_diagonal(qp, t0, 0.0);
        let mut op = ReducedKktOp::new(&valid, a, sigma, &rho).unwrap();
        assert_eq!(cols(&op).failed_pivot(), None);
        op.update_values(&with_diagonal(qp, t0, -5.0), a, &rho).unwrap();
        let pivot = sigma - 5.0 + 0.1 + 0.1;
        assert_eq!(cols(&op).failed_pivot(), Some(pivot));
        let err = op.prepare().unwrap_err();
        assert_eq!(err, crate::PcgError::Breakdown { iteration: 0, curvature: pivot });
        op.update_values(&valid, a, &rho).unwrap();
        let fresh = ReducedKktOp::new(&valid, a, sigma, &rho).unwrap();
        assert!(op.prepare().is_ok());
        let (x, y) = (cols(&op), cols(&fresh));
        assert_eq!(x.inv_diag(), y.inv_diag());
        assert_eq!(x.ht(), y.ht());
        let k = x.rank();
        let (mut sx, mut sy) = (vec![0.0; k * k], vec![0.0; k * k]);
        x.write_s_inverse(&mut sx);
        y.write_s_inverse(&mut sy);
        assert_eq!(sx, sy);
    }

    #[test]
    fn update_rho_changes_operator() {
        let (p, a) = small_problem();
        let mut op = ReducedKktOp::new(&p, &a, 0.0, &[1.0, 1.0, 1.0]).unwrap();
        let mut y1 = vec![0.0; 2];
        op.apply(&[1.0, 0.0], &mut y1).unwrap();
        op.update_rho(&[2.0, 2.0, 2.0]).unwrap();
        let mut y2 = vec![0.0; 2];
        op.apply(&[1.0, 0.0], &mut y2).unwrap();
        // Doubling rho doubles the AᵀA part: y2 - Px = 2 (y1 - Px).
        let px = 4.0;
        assert!(((y2[0] - px) - 2.0 * (y1[0] - px)).abs() < 1e-12);
    }
}
