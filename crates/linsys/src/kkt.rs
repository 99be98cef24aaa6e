//! KKT-system assembly.
//!
//! Two views of the same optimality system are provided:
//!
//! * [`KktMatrix`] — the explicit quasi-definite matrix
//!   `[[P + σI, Aᵀ], [A, -diag(1/ρ)]]` in upper-triangular CSC form for the
//!   direct LDLᵀ path, with in-place ρ updates;
//! * [`ReducedKktOp`] — the matrix-free operator
//!   `x ↦ (P + σI + Aᵀ diag(ρ) A) x` of Eq. (3), which is what PCG and the
//!   FPGA datapath evaluate. Following §2.2, `AᵀA` is never formed: the
//!   product is computed incrementally as `P·x + σ·x + Aᵀ(ρ ∘ (A·x))`.

use std::sync::Arc;

use rsqp_par::ThreadPool;
use rsqp_sparse::{CooMatrix, CscMatrix, CsrMatrix, RowPartition, TransposeCache};

use crate::pcg::LinearOperator;
use crate::LinsysError;

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
#[derive(Debug, Clone)]
pub struct ReducedKktOp {
    p: Arc<CsrMatrix>,
    a: Arc<CsrMatrix>,
    at: TransposeCache,
    sigma: f64,
    rho: Vec<f64>,
    /// The Jacobi diagonal for the current matrices and ρ.
    jacobi: Vec<f64>,
    tmp_m: Vec<f64>,
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
        let mut op = ReducedKktOp {
            p,
            a,
            at,
            sigma,
            rho: rho.to_vec(),
            jacobi: vec![0.0; n],
            tmp_m: vec![0.0; m],
            pool,
            p_part,
            a_part,
            at_part,
            spmv_count: 0,
        };
        op.refresh_jacobi();
        Ok(op)
    }

    /// Recomputes the cached Jacobi diagonal
    /// `diag(P) + σ + Σ_i ρ_i A_{i,·}²` in place.
    fn refresh_jacobi(&mut self) {
        for (i, o) in self.jacobi.iter_mut().enumerate() {
            *o = self.p.get(i, i) + self.sigma;
        }
        for i in 0..self.a.nrows() {
            let (cols, vals) = self.a.row(i);
            let ri = self.rho[i];
            for (&j, &v) in cols.iter().zip(vals) {
                self.jacobi[j] += ri * v * v;
            }
        }
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
    /// the cached Jacobi diagonal.
    ///
    /// # Errors
    ///
    /// Returns [`LinsysError::Dimension`] if the length changes.
    pub fn update_rho(&mut self, rho: &[f64]) -> Result<(), LinsysError> {
        self.check_rho_len(rho)?;
        self.rho.copy_from_slice(rho);
        self.refresh_jacobi();
        Ok(())
    }

    /// Replaces the matrix values and ρ. The sparsity patterns of `P` and
    /// `A` must match the originals (the ADMM solver only rescales values
    /// in place); the `Aᵀ` cache and the Jacobi diagonal are refreshed by
    /// linear value passes, never rebuilt.
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
        self.p = Arc::new(p.clone());
        self.a = Arc::new(a.clone());
        self.at.refresh_values(&self.a)?;
        self.refresh_jacobi();
        Ok(())
    }

    /// The Jacobi preconditioner diagonal
    /// `diag(P) + σ + Σ_i ρ_i A_{i,·}²` (column-wise), freshly allocated.
    pub fn jacobi_diag(&self) -> Vec<f64> {
        self.jacobi.clone()
    }

    /// Copies the Jacobi preconditioner diagonal, cached whenever the
    /// matrices or ρ change, into `out` (length `n`) without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != n`.
    pub fn jacobi_diag_into(&self, out: &mut [f64]) {
        assert_eq!(out.len(), self.jacobi.len(), "jacobi diagonal length mismatch");
        out.copy_from_slice(&self.jacobi);
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

    /// `y += alpha · Aᵀ x` through the cached gather transpose on the
    /// operator's pool, counted in [`Self::spmv_count`].
    ///
    /// # Errors
    ///
    /// Returns [`LinsysError::Sparse`] on shape mismatch.
    pub fn at_spmv_acc(&mut self, alpha: f64, x: &[f64], y: &mut [f64]) -> Result<(), LinsysError> {
        self.at.matrix().spmv_acc_partitioned(alpha, x, y, &self.pool, &self.at_part)?;
        self.spmv_count += 1;
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

    /// The regularization shift σ.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// The pool this operator dispatches its SpMVs on.
    pub fn pool(&self) -> &Arc<ThreadPool> {
        &self.pool
    }

    /// Number of `A`/`Aᵀ`/`P` SpMV evaluations performed so far (three per
    /// `apply`), used by the performance models.
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

    fn precond_diag(&self) -> Option<Vec<f64>> {
        Some(self.jacobi_diag())
    }

    fn precond_diag_into(&self, out: &mut [f64]) -> bool {
        self.jacobi_diag_into(out);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Ldlt;

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

    #[test]
    fn jacobi_diag_matches_dense_diagonal() {
        let (p, a) = small_problem();
        let rho = vec![0.1, 0.2, 0.4];
        let sigma = 0.01;
        let op = ReducedKktOp::new(&p, &a, sigma, &rho).unwrap();
        let d = op.jacobi_diag();
        assert!((d[0] - (4.0 + sigma + 0.1 + 0.4)).abs() < 1e-12);
        assert!((d[1] - (2.0 + sigma + 0.2 + 0.4)).abs() < 1e-12);
    }

    #[test]
    fn cached_jacobi_diag_follows_rho_and_value_updates() {
        let (p, a) = small_problem();
        let mut op = ReducedKktOp::new(&p, &a, 0.01, &[0.1, 0.2, 0.4]).unwrap();
        op.update_rho(&[1.0, 2.0, 3.0]).unwrap();
        let fresh = ReducedKktOp::new(&p, &a, 0.01, &[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(op.jacobi_diag(), fresh.jacobi_diag());
        let (p2, a2) = (p.map_values(|v| 2.0 * v), a.map_values(|v| 0.5 * v));
        op.update_values(&p2, &a2, &[0.3, 0.2, 0.1]).unwrap();
        let fresh = ReducedKktOp::new(&p2, &a2, 0.01, &[0.3, 0.2, 0.1]).unwrap();
        let mut d = vec![0.0; 2];
        op.jacobi_diag_into(&mut d);
        assert_eq!(d, fresh.jacobi_diag());
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
