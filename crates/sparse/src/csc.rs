use crate::{CsrMatrix, SparseError};

/// Compressed sparse column matrix with `f64` values.
///
/// CSC is the storage format consumed by the LDLᵀ direct solver in
/// `rsqp-linsys` (mirroring OSQP's QDLDL, which factorizes an upper-triangular
/// CSC KKT matrix).
///
/// Invariants mirror [`CsrMatrix`], with columns in place of rows.
#[derive(Debug, Clone, PartialEq)]
pub struct CscMatrix {
    nrows: usize,
    ncols: usize,
    colptr: Vec<usize>,
    rowidx: Vec<usize>,
    data: Vec<f64>,
}

impl CscMatrix {
    /// Builds a CSC matrix from raw arrays, validating the structure.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::InvalidStructure`] if the arrays are
    /// inconsistent (see the type-level invariants).
    pub fn from_raw_parts(
        nrows: usize,
        ncols: usize,
        colptr: Vec<usize>,
        rowidx: Vec<usize>,
        data: Vec<f64>,
    ) -> Result<Self, SparseError> {
        // Validation is delegated to the CSR checker on the transposed shape:
        // a valid CSC of (nrows x ncols) has exactly the arrays of a valid
        // CSR of (ncols x nrows).
        let (colptr, rowidx, data) =
            CsrMatrix::from_raw_parts(ncols, nrows, colptr, rowidx, data)?.into_raw_parts();
        Ok(CscMatrix { nrows, ncols, colptr, rowidx, data })
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.data.len()
    }

    /// Column pointer array (`ncols + 1` entries).
    pub fn colptr(&self) -> &[usize] {
        &self.colptr
    }

    /// Row index array.
    pub fn rowidx(&self) -> &[usize] {
        &self.rowidx
    }

    /// Value array.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable value array (structure stays fixed).
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Row indices and values of column `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j >= ncols`.
    pub fn col(&self, j: usize) -> (&[usize], &[f64]) {
        let (lo, hi) = (self.colptr[j], self.colptr[j + 1]);
        (&self.rowidx[lo..hi], &self.data[lo..hi])
    }

    /// Stored value at `(i, j)`, or `0.0` if not stored.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let (rows, vals) = self.col(j);
        match rows.binary_search(&i) {
            Ok(k) => vals[k],
            Err(_) => 0.0,
        }
    }

    /// Converts to CSR storage.
    pub fn to_csr(&self) -> CsrMatrix {
        // The arrays of this CSC are a CSR of the transpose; transposing that
        // CSR yields the CSR of self.
        CsrMatrix::from_raw_parts(
            self.ncols,
            self.nrows,
            self.colptr.clone(),
            self.rowidx.clone(),
            self.data.clone(),
        )
        .expect("internal arrays are valid")
        .transpose()
    }

    /// Computes `y = self * x`.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] on shape mismatch.
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) -> Result<(), SparseError> {
        if x.len() != self.ncols {
            return Err(SparseError::DimensionMismatch {
                op: "csc spmv input",
                expected: self.ncols,
                found: x.len(),
            });
        }
        if y.len() != self.nrows {
            return Err(SparseError::DimensionMismatch {
                op: "csc spmv output",
                expected: self.nrows,
                found: y.len(),
            });
        }
        y.fill(0.0);
        for j in 0..self.ncols {
            let (rows, vals) = self.col(j);
            let xj = x[j];
            for (&i, &v) in rows.iter().zip(vals) {
                y[i] += v * xj;
            }
        }
        Ok(())
    }

    /// Returns the diagonal, with zeros for unstored diagonal entries.
    pub fn diagonal(&self) -> Vec<f64> {
        let n = self.nrows.min(self.ncols);
        (0..n).map(|i| self.get(i, i)).collect()
    }

    /// True if every stored entry `(i, j)` satisfies `i <= j`.
    pub fn is_upper_triangular(&self) -> bool {
        (0..self.ncols).all(|j| self.col(j).0.iter().all(|&i| i <= j))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example() -> CscMatrix {
        // [1 0 2]
        // [0 3 0]
        CsrMatrix::from_triplets(2, 3, vec![(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0)]).to_csc()
    }

    #[test]
    fn get_and_shape() {
        let m = example();
        assert_eq!((m.nrows(), m.ncols(), m.nnz()), (2, 3, 3));
        assert_eq!(m.get(0, 2), 2.0);
        assert_eq!(m.get(1, 2), 0.0);
    }

    #[test]
    fn spmv_matches_csr() {
        let csc = example();
        let csr = csc.to_csr();
        let x = vec![1.0, -2.0, 0.5];
        let mut y1 = vec![0.0; 2];
        let mut y2 = vec![0.0; 2];
        csc.spmv(&x, &mut y1).unwrap();
        csr.spmv(&x, &mut y2).unwrap();
        assert_eq!(y1, y2);
    }

    #[test]
    fn upper_triangular_detection() {
        let m = CsrMatrix::from_triplets(2, 2, vec![(0, 0, 1.0), (0, 1, 2.0)]).to_csc();
        assert!(m.is_upper_triangular());
        let m2 = CsrMatrix::from_triplets(2, 2, vec![(1, 0, 1.0)]).to_csc();
        assert!(!m2.is_upper_triangular());
    }

    #[test]
    fn invalid_structure_rejected() {
        assert!(CscMatrix::from_raw_parts(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err());
        assert!(CscMatrix::from_raw_parts(3, 1, vec![0, 2], vec![2, 0], vec![1.0, 2.0]).is_err());
    }

    #[test]
    fn diagonal_reads_stored_and_missing() {
        let m = CsrMatrix::from_triplets(2, 2, vec![(0, 0, 5.0)]).to_csc();
        assert_eq!(m.diagonal(), vec![5.0, 0.0]);
    }
}
