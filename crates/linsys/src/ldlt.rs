//! Sparse quasi-definite LDLᵀ factorization.
//!
//! This is a safe-Rust port of the QDLDL algorithm used by OSQP: an
//! up-looking LDLᵀ of an upper-triangular CSC matrix without pivoting, which
//! is guaranteed to exist for quasi-definite matrices such as the OSQP KKT
//! matrix `[[P + σI, Aᵀ], [A, -diag(1/ρ)]]`.
//!
//! The factorization is split into a symbolic phase (elimination tree +
//! column counts, run once per sparsity structure) and a numeric phase (run
//! again whenever values change, e.g. on a ρ update) — exactly the three-
//! stage structure described in §2.2 of the RSQP paper.

use rsqp_sparse::{ldl_solve_in_place, CscMatrix};

use crate::LinsysError;

/// An LDLᵀ factorization `A = L·D·Lᵀ` with unit lower-triangular `L`
/// (stored without its diagonal) and diagonal `D`.
#[derive(Debug, Clone)]
pub struct Ldlt {
    n: usize,
    etree: Vec<isize>,
    /// Nodes on the longest leaf-to-root path of the elimination tree.
    height: usize,
    lnz: Vec<usize>,
    l_colptr: Vec<usize>,
    l_rowidx: Vec<usize>,
    l_data: Vec<f64>,
    d: Vec<f64>,
    dinv: Vec<f64>,
    pos_d: usize,
    /// Numeric-phase scratch, sized once here so a refactorization never
    /// allocates: reach markers, the reach itself, the etree path being
    /// walked, the next free slot of each `L` column, and the scattered
    /// column of `A`.
    y_markers: Vec<bool>,
    y_idx: Vec<usize>,
    elim_buffer: Vec<usize>,
    l_next_space: Vec<usize>,
    y_vals: Vec<f64>,
}

impl Ldlt {
    /// Factorizes an upper-triangular CSC matrix (symbolic + numeric).
    ///
    /// Every column must contain an explicit diagonal entry (it may be zero
    /// *valued* only if a later pivot never divides by it — quasi-definite
    /// inputs always have non-zero pivots).
    ///
    /// # Errors
    ///
    /// * [`LinsysError::NotUpperTriangular`] if any entry lies below the
    ///   diagonal,
    /// * [`LinsysError::MissingDiagonal`] if a column lacks its diagonal,
    /// * [`LinsysError::ZeroPivot`] if a pivot is exactly zero.
    pub fn factor(a: &CscMatrix) -> Result<Self, LinsysError> {
        let mut fac = Self::symbolic(a)?;
        fac.refactor(a)?;
        Ok(fac)
    }

    /// The symbolic phase alone: the elimination tree, the column counts of
    /// `L` and every buffer the numeric phase fills. The result holds no
    /// factorization until [`Ldlt::refactor`] succeeds on a matrix of the
    /// same pattern.
    ///
    /// # Errors
    ///
    /// [`LinsysError::Dimension`] for a non-square matrix and
    /// [`LinsysError::NotUpperTriangular`] for an entry below the diagonal.
    pub(crate) fn symbolic(a: &CscMatrix) -> Result<Self, LinsysError> {
        let n = a.ncols();
        if a.nrows() != n {
            return Err(LinsysError::Dimension(format!(
                "LDLT requires a square matrix, got {}x{}",
                a.nrows(),
                n
            )));
        }
        let (etree, lnz) = etree_and_counts(a.colptr(), a.rowidx())?;
        let total_lnz: usize = lnz.iter().sum();
        // A parent follows its children, so one backward pass finds every
        // node's depth.
        let mut depth = vec![1usize; n];
        for j in (0..n).rev() {
            if let Ok(parent) = usize::try_from(etree[j]) {
                depth[j] = depth[parent] + 1;
            }
        }
        let height = depth.into_iter().max().unwrap_or(0);
        let mut fac = Ldlt {
            n,
            etree,
            height,
            lnz,
            l_colptr: vec![0; n + 1],
            l_rowidx: vec![0; total_lnz],
            l_data: vec![0.0; total_lnz],
            d: vec![0.0; n],
            dinv: vec![0.0; n],
            pos_d: 0,
            y_markers: vec![false; n],
            y_idx: vec![0; n],
            elim_buffer: vec![0; n],
            l_next_space: vec![0; n],
            y_vals: vec![0.0; n],
        };
        for j in 0..n {
            fac.l_colptr[j + 1] = fac.l_colptr[j] + fac.lnz[j];
        }
        Ok(fac)
    }

    /// Re-runs the numeric factorization for a matrix with the **same
    /// sparsity structure** as the one given to [`Ldlt::factor`].
    ///
    /// This is the cheap path taken when OSQP updates ρ: the symbolic
    /// analysis (elimination tree, column counts) and the scratch buffers
    /// are reused, so the call does not allocate.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Ldlt::factor`]. If the structure differs from
    /// the original, the factorization may also fail with an index error via
    /// [`LinsysError::NotUpperTriangular`].
    pub fn refactor(&mut self, a: &CscMatrix) -> Result<(), LinsysError> {
        let n = self.n;
        if a.ncols() != n || a.nrows() != n {
            return Err(LinsysError::Dimension(format!(
                "refactor shape {}x{} != {}",
                a.nrows(),
                a.ncols(),
                n
            )));
        }
        let Ldlt {
            etree,
            l_colptr,
            l_rowidx,
            l_data,
            d,
            dinv,
            pos_d,
            y_markers,
            y_idx,
            elim_buffer,
            l_next_space,
            y_vals,
            ..
        } = self;
        l_next_space.copy_from_slice(&l_colptr[..n]);
        *pos_d = 0;

        for k in 0..n {
            let (rows, vals) = a.col(k);
            if rows.is_empty() {
                return Err(LinsysError::MissingDiagonal(k));
            }
            // Upper-triangular sorted columns keep the diagonal last.
            let last = rows.len() - 1;
            if rows[last] != k {
                return if rows[last] > k {
                    Err(LinsysError::NotUpperTriangular)
                } else {
                    Err(LinsysError::MissingDiagonal(k))
                };
            }
            d[k] = vals[last];

            // Scatter the strictly-upper entries of column k and compute the
            // elimination reach through the etree.
            let mut nnz_y = 0usize;
            for p in 0..last {
                let b_idx = rows[p];
                y_vals[b_idx] = vals[p];
                let mut next_idx = b_idx;
                if !y_markers[next_idx] {
                    y_markers[next_idx] = true;
                    elim_buffer[0] = next_idx;
                    let mut nnz_e = 1usize;
                    loop {
                        let parent = etree[next_idx];
                        if parent == -1 || parent as usize >= k {
                            break;
                        }
                        let parent = parent as usize;
                        if y_markers[parent] {
                            break;
                        }
                        y_markers[parent] = true;
                        elim_buffer[nnz_e] = parent;
                        nnz_e += 1;
                        next_idx = parent;
                    }
                    while nnz_e > 0 {
                        nnz_e -= 1;
                        y_idx[nnz_y] = elim_buffer[nnz_e];
                        nnz_y += 1;
                    }
                }
            }

            // Process the reach in topological (reverse insertion) order.
            for i in (0..nnz_y).rev() {
                let cidx = y_idx[i];
                let tmp_idx = l_next_space[cidx];
                let y_val = y_vals[cidx];
                let filled = l_colptr[cidx]..tmp_idx;
                for (&r, &v) in l_rowidx[filled.clone()].iter().zip(&l_data[filled]) {
                    y_vals[r] -= v * y_val;
                }
                l_rowidx[tmp_idx] = k;
                l_data[tmp_idx] = y_val * dinv[cidx];
                d[k] -= y_val * l_data[tmp_idx];
                l_next_space[cidx] += 1;
                y_vals[cidx] = 0.0;
                y_markers[cidx] = false;
            }

            if d[k] == 0.0 {
                return Err(LinsysError::ZeroPivot(k));
            }
            if d[k] > 0.0 {
                *pos_d += 1;
            }
            dinv[k] = 1.0 / d[k];
        }
        Ok(())
    }

    /// Dimension of the factorized matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of stored entries in `L` (excluding the unit diagonal).
    pub fn l_nnz(&self) -> usize {
        self.l_data.len()
    }

    /// The diagonal `D` of the factorization.
    pub fn d(&self) -> &[f64] {
        &self.d
    }

    /// `D⁻¹`.
    pub fn dinv(&self) -> &[f64] {
        &self.dinv
    }

    /// The strictly lower part of the unit lower triangular `L`, by
    /// columns: `(colptr, rowidx, values)`.
    pub fn l(&self) -> (&[usize], &[usize], &[f64]) {
        (&self.l_colptr, &self.l_rowidx, &self.l_data)
    }

    /// Nodes on the longest leaf-to-root path of the elimination tree: the
    /// number of dependent steps in each triangular sweep.
    pub fn etree_height(&self) -> usize {
        self.height
    }

    /// Number of positive entries in `D` — for a quasi-definite KKT matrix
    /// this must equal the number of primal variables.
    pub fn num_positive_d(&self) -> usize {
        self.pos_d
    }

    /// Solves `A x = b` in place (`b` becomes `x`).
    ///
    /// # Errors
    ///
    /// Returns [`LinsysError::Dimension`] if `b.len() != dim()`.
    pub fn solve_in_place(&self, b: &mut [f64]) -> Result<(), LinsysError> {
        if b.len() != self.n {
            return Err(LinsysError::Dimension(format!(
                "solve rhs length {} does not match factorization dimension {}",
                b.len(),
                self.n
            )));
        }
        ldl_solve_in_place(&self.l_colptr, &self.l_rowidx, &self.l_data, &self.dinv, b);
        Ok(())
    }

    /// Convenience wrapper returning a fresh solution vector.
    ///
    /// # Errors
    ///
    /// Returns [`LinsysError::Dimension`] if `b.len() != dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinsysError> {
        let mut x = b.to_vec();
        self.solve_in_place(&mut x)?;
        Ok(x)
    }
}

/// Computes the elimination tree and per-column counts of `L` for the
/// upper-triangular CSC pattern `(colptr, rowidx)`. Rows within a column
/// may come in any order.
pub(crate) fn etree_and_counts(
    colptr: &[usize],
    rowidx: &[usize],
) -> Result<(Vec<isize>, Vec<usize>), LinsysError> {
    let n = colptr.len() - 1;
    let mut work = vec![usize::MAX; n];
    let mut etree = vec![-1isize; n];
    let mut lnz = vec![0usize; n];
    for j in 0..n {
        work[j] = j;
        for &i in &rowidx[colptr[j]..colptr[j + 1]] {
            if i > j {
                return Err(LinsysError::NotUpperTriangular);
            }
            let mut i = i;
            while work[i] != j {
                if etree[i] == -1 {
                    etree[i] = j as isize;
                }
                lnz[i] += 1;
                work[i] = j;
                i = etree[i] as usize;
            }
        }
    }
    Ok((etree, lnz))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsqp_sparse::CsrMatrix;

    fn upper(dense: &[Vec<f64>]) -> CscMatrix {
        CsrMatrix::from_dense(dense).upper_triangle().to_csc()
    }

    #[test]
    fn factor_spd_2x2() {
        let a = upper(&[vec![4.0, 1.0], vec![1.0, 2.0]]);
        let f = Ldlt::factor(&a).unwrap();
        assert_eq!(f.num_positive_d(), 2);
        let x = f.solve(&[1.0, 1.0]).unwrap();
        // Verify A x = b with the full matrix.
        let full = CsrMatrix::from_dense(&[vec![4.0, 1.0], vec![1.0, 2.0]]);
        let mut b = vec![0.0; 2];
        full.spmv(&x, &mut b).unwrap();
        assert!((b[0] - 1.0).abs() < 1e-12);
        assert!((b[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn factor_quasi_definite_kkt() {
        // [[ 2, 0, 1], [0, 2, 1], [1, 1, -1]] : quasi-definite (2 pos, 1 neg)
        let dense = vec![vec![2.0, 0.0, 1.0], vec![0.0, 2.0, 1.0], vec![1.0, 1.0, -1.0]];
        let f = Ldlt::factor(&upper(&dense)).unwrap();
        assert_eq!(f.num_positive_d(), 2);
        let x = f.solve(&[1.0, 2.0, 3.0]).unwrap();
        let full = CsrMatrix::from_dense(&dense);
        let mut b = vec![0.0; 3];
        full.spmv(&x, &mut b).unwrap();
        for (got, want) in b.iter().zip(&[1.0, 2.0, 3.0]) {
            assert!((got - want).abs() < 1e-10, "got {got} want {want}");
        }
    }

    #[test]
    fn missing_diagonal_is_rejected() {
        // Column 1 has no diagonal entry.
        let a = CsrMatrix::from_triplets(2, 2, vec![(0, 0, 1.0), (0, 1, 1.0)]).to_csc();
        assert!(matches!(Ldlt::factor(&a), Err(LinsysError::MissingDiagonal(1))));
    }

    #[test]
    fn lower_triangular_entry_rejected() {
        let a =
            CsrMatrix::from_triplets(2, 2, vec![(0, 0, 1.0), (1, 0, 1.0), (1, 1, 1.0)]).to_csc();
        assert!(matches!(Ldlt::factor(&a), Err(LinsysError::NotUpperTriangular)));
    }

    #[test]
    fn zero_pivot_detected() {
        // Explicit zero diagonal entry (from_triplets keeps explicit zeros).
        let a = CsrMatrix::from_triplets(2, 2, vec![(0, 0, 0.0), (1, 1, 1.0)]).to_csc();
        assert!(matches!(Ldlt::factor(&a), Err(LinsysError::ZeroPivot(0))));
    }

    #[test]
    fn non_square_rejected() {
        let a = CsrMatrix::from_triplets(2, 3, vec![(0, 0, 1.0)]).to_csc();
        assert!(matches!(Ldlt::factor(&a), Err(LinsysError::Dimension(_))));
    }

    #[test]
    fn refactor_reuses_structure() {
        let d1 = vec![vec![4.0, 1.0, 0.0], vec![1.0, 3.0, 1.0], vec![0.0, 1.0, 5.0]];
        let mut f = Ldlt::factor(&upper(&d1)).unwrap();
        // Same structure, new values.
        let d2 = vec![vec![8.0, 2.0, 0.0], vec![2.0, 6.0, 2.0], vec![0.0, 2.0, 10.0]];
        f.refactor(&upper(&d2)).unwrap();
        let x = f.solve(&[1.0, 0.0, 0.0]).unwrap();
        let full = CsrMatrix::from_dense(&d2);
        let mut b = vec![0.0; 3];
        full.spmv(&x, &mut b).unwrap();
        assert!((b[0] - 1.0).abs() < 1e-10);
        assert!(b[1].abs() < 1e-10);
        assert!(b[2].abs() < 1e-10);
    }

    #[test]
    fn dense_spd_random_solve() {
        // Deterministic diagonally-dominant SPD matrix.
        let n = 12;
        let mut dense = vec![vec![0.0; n]; n];
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    dense[i][j] = 10.0 + i as f64;
                } else if (i + 2 * j) % 5 == 0 {
                    let v = 0.3 * ((i * j % 7) as f64 - 3.0);
                    dense[i][j] = v;
                    dense[j][i] = v;
                }
            }
        }
        // Symmetrize strictly (loop above may have overwritten asymmetric).
        for i in 0..n {
            for j in (i + 1)..n {
                let v = dense[i][j];
                dense[j][i] = v;
            }
        }
        let f = Ldlt::factor(&upper(&dense)).unwrap();
        let b: Vec<f64> = (0..n).map(|i| (i as f64) - 4.0).collect();
        let x = f.solve(&b).unwrap();
        let full = CsrMatrix::from_dense(&dense);
        let mut ax = vec![0.0; n];
        full.spmv(&x, &mut ax).unwrap();
        for (got, want) in ax.iter().zip(&b) {
            assert!((got - want).abs() < 1e-9, "got {got} want {want}");
        }
    }

    #[test]
    fn l_nnz_counts_fill() {
        // Arrow matrix: dense last row/col produces no extra fill with
        // natural ordering when the arrow points down-right.
        let n = 6;
        let mut dense = vec![vec![0.0; n]; n];
        for i in 0..n {
            dense[i][i] = 4.0;
            if i + 1 < n {
                dense[i][n - 1] = 1.0;
                dense[n - 1][i] = 1.0;
            }
        }
        let f = Ldlt::factor(&upper(&dense)).unwrap();
        assert_eq!(f.l_nnz(), n - 1);
        assert_eq!(f.dim(), n);
        // Every column hangs off the last one.
        assert_eq!(f.etree_height(), 2);
    }

    #[test]
    fn a_tridiagonal_etree_is_a_chain() {
        let n: usize = 7;
        let dense: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..n)
                    .map(|j| {
                        if i == j {
                            4.0
                        } else if i.abs_diff(j) == 1 {
                            1.0
                        } else {
                            0.0
                        }
                    })
                    .collect()
            })
            .collect();
        let f = Ldlt::factor(&upper(&dense)).unwrap();
        assert_eq!((f.etree_height(), f.l_nnz()), (n, n - 1));
    }
}
