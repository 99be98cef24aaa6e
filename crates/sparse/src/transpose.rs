//! A cached, gather-friendly transpose for repeated `Aᵀv` products.
//!
//! [`CsrMatrix::spmv_transpose`] scatters into the output (`y[j] += v·xᵢ`
//! with `j` jumping across the whole vector), which is cache-hostile and
//! cannot be row-parallelized without atomics. Building the transpose once
//! turns every later `Aᵀv` into a plain row-major **gather** SpMV — the
//! shape the reduced KKT operator `Aᵀ(ρ∘(Ax))` evaluates hundreds of times
//! per solve.
//!
//! The cache also records, for every entry of `Aᵀ`, the position of the
//! corresponding entry in `A`'s value array. When `A`'s values change but
//! its pattern does not (Ruiz re-equilibration, `update_matrices`), the
//! cache is refreshed by one linear pass over that map instead of
//! rebuilding the structure.

use crate::csr::CsrMatrix;
use crate::error::SparseError;

/// A materialized `Aᵀ` plus the value map back into `A`.
#[derive(Debug, Clone, PartialEq)]
pub struct TransposeCache {
    at: CsrMatrix,
    /// `at.data()[k]` mirrors `a.data()[map[k]]`.
    map: Vec<usize>,
}

impl TransposeCache {
    /// Builds the transpose of `a` and the value map in the counting-sort
    /// pass of [`CsrMatrix::transpose`].
    pub fn new(a: &CsrMatrix) -> Self {
        let mut map = vec![0usize; a.nnz()];
        let at = a.transpose_recording(|dst, src| map[dst] = src);
        TransposeCache { at, map }
    }

    /// Copies `a`'s current values into the cached transpose without
    /// touching the pattern. `a` must have the same shape and sparsity
    /// pattern as the matrix the cache was built from — only its values may
    /// differ.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] when the shape or
    /// nonzero count differs from the cached structure. A same-shape,
    /// same-nnz pattern change is **not** detectable here; callers own that
    /// invariant (our solvers only rescale values in place).
    pub fn refresh_values(&mut self, a: &CsrMatrix) -> Result<(), SparseError> {
        if a.nrows() != self.at.ncols() || a.ncols() != self.at.nrows() {
            return Err(SparseError::DimensionMismatch {
                op: "transpose cache refresh",
                expected: self.at.ncols(),
                found: a.nrows(),
            });
        }
        if a.nnz() != self.at.nnz() {
            return Err(SparseError::DimensionMismatch {
                op: "transpose cache refresh nnz",
                expected: self.at.nnz(),
                found: a.nnz(),
            });
        }
        let src = a.data();
        for (dst, &s) in self.at.data_mut().iter_mut().zip(&self.map) {
            *dst = src[s];
        }
        Ok(())
    }

    /// The cached `Aᵀ` in CSR form.
    pub fn matrix(&self) -> &CsrMatrix {
        &self.at
    }

    /// `y = Aᵀx` as a gather SpMV over the cached transpose.
    ///
    /// Bit-identical to [`CsrMatrix::spmv_transpose`] on the source matrix:
    /// for each output `y[j]` both accumulate contributions in increasing
    /// source-row order.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] on shape mismatch.
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) -> Result<(), SparseError> {
        self.at.spmv(x, y)
    }

    /// `y += alpha · Aᵀx` as a gather SpMV over the cached transpose.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] on shape mismatch.
    pub fn spmv_acc(&self, alpha: f64, x: &[f64], y: &mut [f64]) -> Result<(), SparseError> {
        self.at.spmv_acc(alpha, x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    fn sample() -> CsrMatrix {
        let mut coo = CooMatrix::with_capacity(4, 3, 7);
        for (i, j, v) in
            [(0, 0, 1.0), (0, 2, 2.0), (1, 1, -3.0), (2, 0, 4.0), (2, 1, 5.0), (3, 2, -1.5)]
        {
            coo.push(i, j, v);
        }
        coo.to_csr()
    }

    #[test]
    fn gather_matches_scatter_bitwise() {
        let a = sample();
        let cache = TransposeCache::new(&a);
        let x = [1.0, -2.0, 0.5, 3.0];
        let mut scatter = vec![0.0; 3];
        let mut gather = vec![0.0; 3];
        a.spmv_transpose(&x, &mut scatter).unwrap();
        cache.spmv(&x, &mut gather).unwrap();
        assert_eq!(scatter, gather);
    }

    #[test]
    fn matches_materialized_transpose() {
        let a = sample();
        let cache = TransposeCache::new(&a);
        let t = a.transpose();
        assert_eq!(cache.matrix().indptr(), t.indptr());
        assert_eq!(cache.matrix().indices(), t.indices());
        assert_eq!(cache.matrix().data(), t.data());
    }

    #[test]
    fn refresh_tracks_value_updates() {
        let mut a = sample();
        let mut cache = TransposeCache::new(&a);
        for (k, v) in a.data_mut().iter_mut().enumerate() {
            *v = 10.0 + k as f64;
        }
        cache.refresh_values(&a).unwrap();
        let t = a.transpose();
        assert_eq!(cache.matrix().data(), t.data());
    }

    #[test]
    fn refresh_rejects_shape_change() {
        let a = sample();
        let mut cache = TransposeCache::new(&a);
        let other = CooMatrix::with_capacity(2, 2, 0).to_csr();
        assert!(cache.refresh_values(&other).is_err());
    }
}
