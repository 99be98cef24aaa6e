//! KKT-system assembly.
//!
//! Two views of the same optimality system are provided:
//!
//! * [`KktMatrix`] — the explicit quasi-definite matrix
//!   `[[P + σI, Aᵀ], [A, -diag(1/ρ)]]` in upper-triangular CSC form, with
//!   in-place ρ and value updates, which [`crate::KktLdlt`] factors;
//! * [`ReducedKktOp`] — the matrix-free operator
//!   `x ↦ (P + σI + Aᵀ diag(ρ) A) x` of Eq. (3) with the Jacobi
//!   preconditioner of Algorithm 2, which is what PCG and the paper's FPGA
//!   datapath evaluate. Following §2.2, `AᵀA` is never formed for the
//!   product, which is computed incrementally as `P·x + σ·x + Aᵀ(ρ ∘ (A·x))`.

use rsqp_sparse::{CscMatrix, CsrMatrix, TransposeCache};

use crate::pcg::LinearOperator;
use crate::LinsysError;

/// [`KktMatrix`]'s position of an entry of `P` below the diagonal, which it
/// does not read.
const BELOW: usize = usize::MAX;

/// The explicit upper-triangular KKT matrix of Eq. (2).
#[derive(Debug, Clone)]
pub struct KktMatrix {
    n: usize,
    m: usize,
    sigma: f64,
    mat: CscMatrix,
    /// Where each stored entry of `P` lands in `mat`'s data, or [`BELOW`].
    p_at: Vec<usize>,
    /// `ρ⁻¹`, whose negation is the lower-right diagonal block.
    rho_inv: Vec<f64>,
    /// Data positions of the `−1/ρ_i` diagonal entries, for O(m) ρ updates.
    rho_at: Vec<usize>,
}

/// Checks that `p` is `n × n`, `a` is `m × n` and `rho` has `m` positive
/// entries.
fn check_shapes(p: &CsrMatrix, a: &CsrMatrix, rho: &[f64]) -> Result<(), LinsysError> {
    let (n, m) = (p.nrows(), a.nrows());
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
    if rho.iter().any(|&r| r <= 0.0) {
        return Err(LinsysError::Dimension("rho entries must be positive".into()));
    }
    Ok(())
}

impl KktMatrix {
    /// Assembles the KKT matrix from the problem data, column by column in
    /// one pass: column `j < n` holds the entries `(i, j)`, `i ≤ j`, of
    /// `P`'s upper triangle (read from its rows), the diagonal last with σ
    /// added to it (σ alone where `P` stores none); column `n + r` holds row
    /// `r` of `A` and then `−1/ρ_r`.
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
        check_shapes(p, a, rho)?;
        let (n, m) = (p.nrows(), a.nrows());
        let dim = n + m;
        // Rows are sorted, so row i's upper triangle starts at its first
        // column ≥ i.
        let upper_start = |i: usize| p.row(i).0.partition_point(|&j| j < i);
        let mut colptr = vec![0; dim + 1];
        for i in 0..n {
            let cols = &p.row(i).0[upper_start(i)..];
            for &j in cols {
                colptr[j + 1] += 1;
            }
            if cols.first() != Some(&i) {
                colptr[i + 1] += 1;
            }
        }
        for r in 0..m {
            colptr[n + r + 1] = a.row_nnz(r) + 1;
        }
        for j in 0..dim {
            colptr[j + 1] += colptr[j];
        }
        let mut rowidx = vec![0; colptr[dim]];
        let mut data = vec![0.0; colptr[dim]];
        // Rows are visited in increasing order, so each column fills in
        // increasing row order and row j's diagonal lands last in column j.
        let mut next = colptr[..n].to_vec();
        let mut p_at = vec![BELOW; p.nnz()];
        for i in 0..n {
            let first = upper_start(i);
            let (cols, vals) = p.row(i);
            if cols.get(first) != Some(&i) {
                rowidx[next[i]] = i;
                data[next[i]] = sigma;
                next[i] += 1;
            }
            let offset = p.indptr()[i];
            for (e, (&j, &v)) in cols.iter().zip(vals).enumerate().skip(first) {
                let at = next[j];
                next[j] += 1;
                rowidx[at] = i;
                data[at] = if j == i { v + sigma } else { v };
                p_at[offset + e] = at;
            }
        }
        let rho_inv: Vec<f64> = rho.iter().map(|&r| 1.0 / r).collect();
        for (r, &ri) in rho_inv.iter().enumerate() {
            let (cols, vals) = a.row(r);
            let (start, diag) = (colptr[n + r], colptr[n + r + 1] - 1);
            rowidx[start..diag].copy_from_slice(cols);
            data[start..diag].copy_from_slice(vals);
            rowidx[diag] = n + r;
            data[diag] = -ri;
        }
        let rho_at = colptr[n + 1..].iter().map(|&end| end - 1).collect();
        let mat = CscMatrix::from_raw_parts(dim, dim, colptr, rowidx, data)?;
        Ok(KktMatrix { n, m, sigma, mat, p_at, rho_inv, rho_at })
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

    /// The shift σ on the diagonal of `P`.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// `ρ⁻¹` (length `m`), as the lower-right block holds it negated.
    pub fn rho_inv(&self) -> &[f64] {
        &self.rho_inv
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
        for ((inv, &r), &at) in self.rho_inv.iter_mut().zip(rho).zip(&self.rho_at) {
            *inv = 1.0 / r;
            data[at] = -*inv;
        }
        Ok(())
    }

    /// Writes new values of `P` and `A` (the patterns given to
    /// [`Self::assemble`]) into the matrix in place, through the positions
    /// recorded at assembly, without allocating: the same values, bit for
    /// bit, as a fresh assembly.
    ///
    /// # Errors
    ///
    /// Returns [`LinsysError::Dimension`], and writes nothing, if a shape
    /// or the sparsity pattern of `P`'s upper triangle or of `A` differs
    /// from the assembled one.
    pub fn update_values(&mut self, p: &CsrMatrix, a: &CsrMatrix) -> Result<(), LinsysError> {
        if !self.has_pattern_of(p, a) {
            return Err(LinsysError::Dimension(
                "P or A changed its sparsity pattern in a value update".into(),
            ));
        }
        let mut a_at = self.mat.colptr()[self.n];
        let data = self.mat.data_mut();
        let mut p_at = self.p_at.iter();
        for i in 0..self.n {
            let (cols, vals) = p.row(i);
            for ((&j, &v), &at) in cols.iter().zip(vals).zip(p_at.by_ref()) {
                if at != BELOW {
                    data[at] = if j == i { v + self.sigma } else { v };
                }
            }
        }
        for r in 0..self.m {
            let vals = a.row(r).1;
            data[a_at..a_at + vals.len()].copy_from_slice(vals);
            a_at += vals.len() + 1;
        }
        Ok(())
    }

    /// Whether `p` and `a` have the shapes and the patterns (of `P`'s upper
    /// triangle, and of `A`) the matrix was assembled from.
    fn has_pattern_of(&self, p: &CsrMatrix, a: &CsrMatrix) -> bool {
        let (n, m) = (self.n, self.m);
        if (p.nrows(), p.ncols(), a.nrows(), a.ncols()) != (n, n, m, n)
            || p.nnz() != self.p_at.len()
        {
            return false;
        }
        let (colptr, rowidx) = (self.mat.colptr(), self.mat.rowidx());
        let p_ok = (0..n).all(|i| {
            let cols = p.row(i).0;
            let at = &self.p_at[p.indptr()[i]..];
            cols.iter().zip(at).all(|(&j, &at)| match j < i {
                true => at == BELOW,
                false => (colptr[j]..colptr[j + 1]).contains(&at) && rowidx[at] == i,
            })
        });
        p_ok && (0..m).all(|r| {
            let cols = a.row(r).0;
            let start = colptr[n + r];
            colptr[n + r + 1] == start + cols.len() + 1
                && rowidx[start..start + cols.len()] == *cols
        })
    }
}

/// Matrix-free reduced KKT operator `K = P + σI + Aᵀ diag(ρ) A` (Eq. 3),
/// preconditioned with Algorithm 2's Jacobi `M = diag(K)`.
///
/// `Aᵀ` is built **once** at construction as a [`TransposeCache`], so every
/// `apply` evaluates `Aᵀ(ρ∘(Ax))` as two cache-friendly gather SpMVs
/// instead of a scatter (the GPU implementation and the FPGA likewise store
/// `A` and `Aᵀ` explicitly for row-major streaming). It is the CPU
/// reference of the accelerator's PCG kernel
/// (`rsqp_arch::kernels::build_pcg`); the solver's backends solve the KKT
/// system through [`crate::KktLdlt`] instead.
#[derive(Debug, Clone)]
pub struct ReducedKktOp {
    p: CsrMatrix,
    a: CsrMatrix,
    at: TransposeCache,
    sigma: f64,
    rho: Vec<f64>,
    /// `1/diag(K)`, `1` where the diagonal is zero.
    inv_diag: Vec<f64>,
    tmp_m: Vec<f64>,
}

impl ReducedKktOp {
    /// Creates the operator, cloning the matrices once and building the
    /// `Aᵀ` cache and the Jacobi diagonal
    /// `diag(P) + σ + Σ_i ρ_i A_{i,·}²`, summed over the rows of `A` in
    /// increasing order.
    ///
    /// # Errors
    ///
    /// Returns [`LinsysError::Dimension`] if the shapes are inconsistent.
    pub fn new(p: &CsrMatrix, a: &CsrMatrix, sigma: f64, rho: &[f64]) -> Result<Self, LinsysError> {
        check_shapes(p, a, rho)?;
        let mut inv_diag: Vec<f64> = (0..p.nrows()).map(|j| p.get(j, j) + sigma).collect();
        for (i, &r) in rho.iter().enumerate() {
            let (cols, vals) = a.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                inv_diag[j] += r * v * v;
            }
        }
        for d in &mut inv_diag {
            *d = if *d != 0.0 { 1.0 / *d } else { 1.0 };
        }
        Ok(ReducedKktOp {
            p: p.clone(),
            a: a.clone(),
            at: TransposeCache::new(a),
            sigma,
            rho: rho.to_vec(),
            inv_diag,
            tmp_m: vec![0.0; a.nrows()],
        })
    }

    /// The Jacobi preconditioner's `1/diag(K)`, the diagonal the kernel's
    /// `minv` register holds.
    pub fn inv_diag(&self) -> &[f64] {
        &self.inv_diag
    }
}

impl LinearOperator for ReducedKktOp {
    fn dim(&self) -> usize {
        self.p.nrows()
    }

    fn apply(&mut self, x: &[f64], y: &mut [f64]) -> Result<(), LinsysError> {
        // y = P x + sigma x
        self.p.spmv(x, y)?;
        for (yi, &xi) in y.iter_mut().zip(x) {
            *yi += self.sigma * xi;
        }
        // tmp = rho .* (A x); y += At tmp — both gather SpMVs.
        self.a.spmv(x, &mut self.tmp_m)?;
        for (t, &r) in self.tmp_m.iter_mut().zip(&self.rho) {
            *t *= r;
        }
        self.at.matrix().spmv_acc(1.0, &self.tmp_m, y)?;
        Ok(())
    }

    /// `d = M⁻¹ r = r ∘ (1/diag(K))`.
    fn precondition(&mut self, r: &[f64], d: &mut [f64]) {
        for ((di, &ri), &inv) in d.iter_mut().zip(r).zip(&self.inv_diag) {
            *di = ri * inv;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Ldlt;
    use rsqp_sparse::CooMatrix;

    fn small_problem() -> (CsrMatrix, CsrMatrix) {
        let p = CsrMatrix::from_dense(&[vec![4.0, 1.0], vec![1.0, 2.0]]);
        let a = CsrMatrix::from_dense(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]]);
        (p, a)
    }

    /// The KKT matrix summed through COO triplets: `P`'s upper triangle,
    /// σ on its diagonal, `Aᵀ` and `−1/ρ`.
    fn coo_assembly(p: &CsrMatrix, a: &CsrMatrix, sigma: f64, rho: &[f64]) -> CscMatrix {
        let (n, m) = (p.nrows(), a.nrows());
        let mut coo = CooMatrix::new(n + m, n + m);
        for i in 0..n {
            let (cols, vals) = p.row(i);
            for (&j, &v) in cols.iter().zip(vals).filter(|(&j, _)| j >= i) {
                coo.push(i, j, v);
            }
            coo.push(i, i, sigma);
        }
        for r in 0..m {
            let (cols, vals) = a.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                coo.push(c, n + r, v);
            }
        }
        for (i, &ri) in rho.iter().enumerate() {
            coo.push(n + i, n + i, -1.0 / ri);
        }
        coo.to_csc()
    }

    fn bits(m: &CscMatrix) -> (Vec<usize>, Vec<usize>, Vec<u64>) {
        let data = m.data().iter().map(|v| v.to_bits()).collect();
        (m.colptr().to_vec(), m.rowidx().to_vec(), data)
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
    fn one_pass_assembly_matches_the_coo_sums_bit_for_bit() {
        // The small suite as generated and Ruiz-scaled (whose P is
        // symmetric only to rounding, so the upper triangle must be the
        // one read), at the solver's ρ: 0.1, and 100 on equality rows.
        for bp in rsqp_problems::small_suite(1) {
            let qp = &bp.problem;
            let (_, scaled) = rsqp_solver::Scaling::ruiz(qp.p(), qp.q(), qp.a(), 10);
            let rho: Vec<f64> =
                qp.l().iter().zip(qp.u()).map(|(l, u)| if l == u { 100.0 } else { 0.1 }).collect();
            for (p, a) in [(qp.p(), qp.a()), (&scaled.p, &scaled.a)] {
                let kkt = KktMatrix::assemble(p, a, 1e-6, &rho).unwrap();
                let want = coo_assembly(p, a, 1e-6, &rho);
                assert_eq!(bits(kkt.matrix()), bits(&want), "{}", qp.name());
            }
        }
        // A P without some diagonal entries takes σ alone there.
        let p = CsrMatrix::from_dense(&[vec![0.0, 1.0, 0.0], vec![1.0, 0.0, 0.0], vec![0.0; 3]]);
        let a = CsrMatrix::from_dense(&[vec![1.0, 0.0, 2.0]]);
        let kkt = KktMatrix::assemble(&p, &a, 0.5, &[0.2]).unwrap();
        assert_eq!(bits(kkt.matrix()), bits(&coo_assembly(&p, &a, 0.5, &[0.2])));
    }

    #[test]
    fn value_updates_match_a_fresh_assembly() {
        let qp = rsqp_problems::generate(rsqp_problems::Domain::Control, 4, 1);
        let (p, a) = (qp.p(), qp.a());
        let rho = vec![0.1; a.nrows()];
        let mut kkt = KktMatrix::assemble(p, a, 1e-6, &rho).unwrap();
        let (p2, a2) = (p.map_values(|v| 1.5 * v), a.map_values(|v| -0.25 * v));
        kkt.update_values(&p2, &a2).unwrap();
        let fresh = KktMatrix::assemble(&p2, &a2, 1e-6, &rho).unwrap();
        assert_eq!(bits(kkt.matrix()), bits(fresh.matrix()));
        assert!(kkt.update_values(&p2, &p2).is_err(), "A's shape changed");
    }

    #[test]
    fn kkt_rho_update_matches_fresh_assembly() {
        let (p, a) = small_problem();
        let mut kkt = KktMatrix::assemble(&p, &a, 1e-6, &[0.1, 0.1, 0.1]).unwrap();
        kkt.update_rho(&[1.0, 2.0, 4.0]).unwrap();
        let fresh = KktMatrix::assemble(&p, &a, 1e-6, &[1.0, 2.0, 4.0]).unwrap();
        assert_eq!(kkt.matrix(), fresh.matrix());
        assert_eq!(kkt.rho_inv(), [1.0, 0.5, 0.25]);
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
        // Jacobi: d = r / diag(K).
        let mut d = [0.0; 2];
        op.precondition(&[1.0, 1.0], &mut d);
        assert_eq!(d, [1.0 / k[0][0], 1.0 / k[1][1]]);
        assert_eq!(op.inv_diag(), d);
    }
}
