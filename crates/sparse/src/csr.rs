use crate::{CooMatrix, CscMatrix, SparseError};

/// Compressed sparse row matrix with `f64` values.
///
/// This is the working format of the reproduction: the problem matrices `P`,
/// `A` and `Aᵀ` are stored in CSR and streamed row-by-row to the (simulated)
/// SpMV engine, mirroring how RSQP lays the non-zero values out contiguously
/// in HBM.
///
/// Invariants (checked by [`CsrMatrix::from_raw_parts`]):
/// * `indptr.len() == nrows + 1`, `indptr[0] == 0`, non-decreasing,
/// * `indices` are strictly increasing within each row and `< ncols`,
/// * `data.len() == indices.len() == indptr[nrows]`.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    indptr: Vec<usize>,
    indices: Vec<usize>,
    data: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from raw arrays, validating the structure.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::InvalidStructure`] if the arrays do not satisfy
    /// the invariants listed on [`CsrMatrix`].
    pub fn from_raw_parts(
        nrows: usize,
        ncols: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        data: Vec<f64>,
    ) -> Result<Self, SparseError> {
        if indptr.len() != nrows + 1 {
            return Err(SparseError::InvalidStructure(format!(
                "indptr length {} != nrows + 1 = {}",
                indptr.len(),
                nrows + 1
            )));
        }
        if indptr[0] != 0 {
            return Err(SparseError::InvalidStructure("indptr[0] must be 0".into()));
        }
        if *indptr.last().expect("indptr is non-empty") != indices.len() {
            return Err(SparseError::InvalidStructure(format!(
                "indptr[last] {} != indices length {}",
                indptr[nrows],
                indices.len()
            )));
        }
        if indices.len() != data.len() {
            return Err(SparseError::InvalidStructure(format!(
                "indices length {} != data length {}",
                indices.len(),
                data.len()
            )));
        }
        for r in 0..nrows {
            if indptr[r] > indptr[r + 1] {
                return Err(SparseError::InvalidStructure(format!("indptr decreases at row {r}")));
            }
            let row = &indices[indptr[r]..indptr[r + 1]];
            for w in row.windows(2) {
                if w[0] >= w[1] {
                    return Err(SparseError::InvalidStructure(format!(
                        "row {r} has unsorted or duplicate column indices"
                    )));
                }
            }
            if let Some(&last) = row.last() {
                if last >= ncols {
                    return Err(SparseError::InvalidStructure(format!(
                        "row {r} has column index {last} >= ncols {ncols}"
                    )));
                }
            }
        }
        Ok(CsrMatrix { nrows, ncols, indptr, indices, data })
    }

    /// Moves out `(indptr, indices, data)`.
    pub(crate) fn into_raw_parts(self) -> (Vec<usize>, Vec<usize>, Vec<f64>) {
        (self.indptr, self.indices, self.data)
    }

    /// Builds a CSR matrix from a triplet list (duplicates summed).
    pub fn from_triplets(
        nrows: usize,
        ncols: usize,
        triplets: impl IntoIterator<Item = (usize, usize, f64)>,
    ) -> Self {
        let mut coo = CooMatrix::new(nrows, ncols);
        coo.extend(triplets);
        coo.to_csr()
    }

    /// The `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        Self::from_diag(&vec![1.0; n])
    }

    /// An empty (all-zero) matrix of the given shape.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        CsrMatrix {
            nrows,
            ncols,
            indptr: vec![0; nrows + 1],
            indices: Vec::new(),
            data: Vec::new(),
        }
    }

    /// A square diagonal matrix with the given diagonal.
    pub fn from_diag(diag: &[f64]) -> Self {
        let n = diag.len();
        CsrMatrix {
            nrows: n,
            ncols: n,
            indptr: (0..=n).collect(),
            indices: (0..n).collect(),
            data: diag.to_vec(),
        }
    }

    /// Builds from a dense row-major matrix, dropping exact zeros.
    pub fn from_dense(rows: &[Vec<f64>]) -> Self {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, Vec::len);
        let mut coo = CooMatrix::new(nrows, ncols);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), ncols, "ragged dense matrix");
            for (j, &v) in row.iter().enumerate() {
                if v != 0.0 {
                    coo.push(i, j, v);
                }
            }
        }
        coo.to_csr()
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

    /// Row pointer array (`nrows + 1` entries).
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// Column index array.
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// Value array.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable value array (structure stays fixed).
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Column indices and values of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= nrows`.
    pub fn row(&self, i: usize) -> (&[usize], &[f64]) {
        let (lo, hi) = (self.indptr[i], self.indptr[i + 1]);
        (&self.indices[lo..hi], &self.data[lo..hi])
    }

    /// Number of stored entries in row `i`.
    pub fn row_nnz(&self, i: usize) -> usize {
        self.indptr[i + 1] - self.indptr[i]
    }

    /// Stored value at `(i, j)`, or `0.0` if the coordinate is not stored.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let (cols, vals) = self.row(i);
        match cols.binary_search(&j) {
            Ok(k) => vals[k],
            Err(_) => 0.0,
        }
    }

    /// Computes `y = self * x`.
    ///
    /// Each `y[i]` is row `i` summed left to right from `0.0`
    /// (`acc += v * x[j]` over the row's stored entries in column order),
    /// bit for bit the one-row loop and the simulated machine's
    /// non-lane-exact SpMV. The kernel sums four rows at once to hide the
    /// latency of each row's chain of adds; the order within a row does not
    /// change.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] if `x.len() != ncols` or
    /// `y.len() != nrows`.
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) -> Result<(), SparseError> {
        self.check_spmv_dims(x, y)?;
        self.row_dots(x, y, |yi, dot| *yi = dot);
        Ok(())
    }

    /// Computes `y += alpha * self * x`, as `y[i] += alpha * dot` with
    /// `dot` row `i` summed exactly as in [`Self::spmv`].
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] on shape mismatch.
    pub fn spmv_acc(&self, alpha: f64, x: &[f64], y: &mut [f64]) -> Result<(), SparseError> {
        self.check_spmv_dims(x, y)?;
        self.row_dots(x, y, |yi, dot| *yi += alpha * dot);
        Ok(())
    }

    /// The row kernel behind every row product: calls
    /// `store(&mut out[i], dot)` for each row `i`, `dot` summed left to
    /// right from `0.0`. Blocks of [`ROWS`] rows share one loop over the
    /// shortest row's length with one accumulator per row, so the rows'
    /// add chains overlap; then each row finishes its own tail.
    fn row_dots(&self, x: &[f64], out: &mut [f64], store: impl Fn(&mut f64, f64)) {
        let mut blocks = out.chunks_exact_mut(ROWS);
        let mut i = 0;
        for block in &mut blocks {
            let rows: [(&[usize], &[f64]); ROWS] = std::array::from_fn(|r| self.row(i + r));
            let common = rows.iter().map(|(cols, _)| cols.len()).min().unwrap_or(0);
            let cols: [&[usize]; ROWS] = std::array::from_fn(|r| &rows[r].0[..common]);
            let vals: [&[f64]; ROWS] = std::array::from_fn(|r| &rows[r].1[..common]);
            let mut acc = [0.0; ROWS];
            for k in 0..common {
                for r in 0..ROWS {
                    acc[r] += vals[r][k] * x[cols[r][k]];
                }
            }
            for ((y, a), (cols, vals)) in block.iter_mut().zip(acc).zip(rows) {
                store(y, dot_from(a, &cols[common..], &vals[common..], x));
            }
            i += ROWS;
        }
        for (r, y) in blocks.into_remainder().iter_mut().enumerate() {
            let (cols, vals) = self.row(i + r);
            store(y, dot_from(0.0, cols, vals, x));
        }
    }

    /// Computes `y = selfᵀ * x` without materializing the transpose.
    ///
    /// This is a **scatter** kernel: each source row adds into output
    /// positions spread across all of `y`, so it walks the output with no
    /// locality and cannot be row-parallelized without atomics. It is the
    /// right choice when the transpose is applied once (problem setup,
    /// polish); repeated applications — the reduced KKT operator evaluates
    /// `Aᵀv` on every PCG iteration — should build a
    /// [`crate::TransposeCache`] once and use its gather SpMV instead.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] if `x.len() != nrows` or
    /// `y.len() != ncols`.
    pub fn spmv_transpose(&self, x: &[f64], y: &mut [f64]) -> Result<(), SparseError> {
        if x.len() != self.nrows {
            return Err(SparseError::DimensionMismatch {
                op: "spmv_transpose input",
                expected: self.nrows,
                found: x.len(),
            });
        }
        if y.len() != self.ncols {
            return Err(SparseError::DimensionMismatch {
                op: "spmv_transpose output",
                expected: self.ncols,
                found: y.len(),
            });
        }
        y.fill(0.0);
        for i in 0..self.nrows {
            let (cols, vals) = self.row(i);
            let xi = x[i];
            for (&j, &v) in cols.iter().zip(vals) {
                y[j] += v * xi;
            }
        }
        Ok(())
    }

    fn check_spmv_dims(&self, x: &[f64], y: &[f64]) -> Result<(), SparseError> {
        if x.len() != self.ncols {
            return Err(SparseError::DimensionMismatch {
                op: "spmv input",
                expected: self.ncols,
                found: x.len(),
            });
        }
        if y.len() != self.nrows {
            return Err(SparseError::DimensionMismatch {
                op: "spmv output",
                expected: self.nrows,
                found: y.len(),
            });
        }
        Ok(())
    }

    /// Materializes the transpose.
    pub fn transpose(&self) -> CsrMatrix {
        self.transpose_recording(|_, _| {})
    }

    /// The one counting-sort transpose (`O(nnz + ncols)`), behind
    /// [`Self::transpose`] and [`TransposeCache::new`](crate::TransposeCache::new):
    /// `record(dst, src)` runs once per entry with its positions in the
    /// result's and in `self`'s value arrays.
    pub(crate) fn transpose_recording(&self, mut record: impl FnMut(usize, usize)) -> CsrMatrix {
        let mut counts = vec![0usize; self.ncols + 1];
        for &j in &self.indices {
            counts[j + 1] += 1;
        }
        for j in 0..self.ncols {
            counts[j + 1] += counts[j];
        }
        let mut indices = vec![0usize; self.nnz()];
        let mut data = vec![0.0; self.nnz()];
        let mut next = counts.clone();
        for i in 0..self.nrows {
            let row_start = self.indptr[i];
            let (cols, vals) = self.row(i);
            for (k, (&j, &v)) in cols.iter().zip(vals).enumerate() {
                let dst = next[j];
                indices[dst] = i;
                data[dst] = v;
                record(dst, row_start + k);
                next[j] += 1;
            }
        }
        CsrMatrix { nrows: self.ncols, ncols: self.nrows, indptr: counts, indices, data }
    }

    /// Converts to CSC storage.
    pub fn to_csc(&self) -> CscMatrix {
        let t = self.transpose();
        CscMatrix::from_raw_parts(self.nrows, self.ncols, t.indptr, t.indices, t.data)
            .expect("transpose of a valid CSR is a valid CSC")
    }

    /// Returns the diagonal (length `min(nrows, ncols)`), with zeros for
    /// unstored diagonal entries.
    pub fn diagonal(&self) -> Vec<f64> {
        let n = self.nrows.min(self.ncols);
        (0..n).map(|i| self.get(i, i)).collect()
    }

    /// Scales row `i` by `d[i]` in place (left multiplication by `diag(d)`).
    ///
    /// # Panics
    ///
    /// Panics if `d.len() != nrows`.
    pub fn scale_rows(&mut self, d: &[f64]) {
        assert_eq!(d.len(), self.nrows, "row scaling length mismatch");
        for i in 0..self.nrows {
            let (lo, hi) = (self.indptr[i], self.indptr[i + 1]);
            for v in &mut self.data[lo..hi] {
                *v *= d[i];
            }
        }
    }

    /// Scales column `j` by `d[j]` in place (right multiplication by
    /// `diag(d)`).
    ///
    /// # Panics
    ///
    /// Panics if `d.len() != ncols`.
    pub fn scale_cols(&mut self, d: &[f64]) {
        assert_eq!(d.len(), self.ncols, "column scaling length mismatch");
        for (v, &j) in self.data.iter_mut().zip(&self.indices) {
            *v *= d[j];
        }
    }

    /// Scales `self ← diag(r)·self·diag(c)` in place, each entry as
    /// `(v·r_i)·c_j` (bit for bit [`Self::scale_rows`] then
    /// [`Self::scale_cols`]), and writes the infinity norms of the scaled
    /// rows and columns — one pass over the entries instead of four.
    ///
    /// The norms equal [`Self::row_inf_norms`] and
    /// [`Self::column_inf_norms`] of the result.
    ///
    /// # Panics
    ///
    /// Panics if `r` or `row_norms` is not of length `nrows`, or `c` or
    /// `col_norms` not of length `ncols`.
    pub fn scale_with_inf_norms(
        &mut self,
        r: &[f64],
        c: &[f64],
        row_norms: &mut [f64],
        col_norms: &mut [f64],
    ) {
        assert_eq!((r.len(), row_norms.len()), (self.nrows, self.nrows), "row length mismatch");
        assert_eq!((c.len(), col_norms.len()), (self.ncols, self.ncols), "column length mismatch");
        col_norms.fill(0.0);
        for (i, (&ri, rn)) in r.iter().zip(row_norms.iter_mut()).enumerate() {
            let (lo, hi) = (self.indptr[i], self.indptr[i + 1]);
            let mut row_max = 0.0f64;
            for (v, &j) in self.data[lo..hi].iter_mut().zip(&self.indices[lo..hi]) {
                *v = *v * ri * c[j];
                row_max = max_abs(row_max, *v);
                col_norms[j] = max_abs(col_norms[j], *v);
            }
            *rn = row_max;
        }
    }

    /// Returns a copy with rows reordered so that new row `i` is old row
    /// `perm[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..nrows`.
    pub fn permute_rows(&self, perm: &[usize]) -> CsrMatrix {
        assert_eq!(perm.len(), self.nrows, "permutation length mismatch");
        let mut seen = vec![false; self.nrows];
        for &p in perm {
            assert!(p < self.nrows && !seen[p], "perm is not a permutation");
            seen[p] = true;
        }
        let mut indptr = Vec::with_capacity(self.nrows + 1);
        let mut indices = Vec::with_capacity(self.nnz());
        let mut data = Vec::with_capacity(self.nnz());
        indptr.push(0);
        for &old in perm {
            let (cols, vals) = self.row(old);
            indices.extend_from_slice(cols);
            data.extend_from_slice(vals);
            indptr.push(indices.len());
        }
        CsrMatrix { nrows: self.nrows, ncols: self.ncols, indptr, indices, data }
    }

    /// Applies `f` to every stored value, keeping the structure.
    pub fn map_values(&self, f: impl Fn(f64) -> f64) -> CsrMatrix {
        let mut out = self.clone();
        for v in &mut out.data {
            *v = f(*v);
        }
        out
    }

    /// Extracts the upper triangle (including the diagonal). Only meaningful
    /// for square matrices; used when assembling the KKT matrix for LDLᵀ.
    pub fn upper_triangle(&self) -> CsrMatrix {
        let mut coo = CooMatrix::with_capacity(self.nrows, self.ncols, self.nnz());
        for i in 0..self.nrows {
            let (cols, vals) = self.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                if j >= i {
                    coo.push(i, j, v);
                }
            }
        }
        coo.to_csr()
    }

    /// `max |value|` over stored entries of each column.
    pub fn column_inf_norms(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.ncols];
        self.column_inf_norms_into(&mut out);
        out
    }

    /// [`Self::column_inf_norms`] into `out`, without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not of length `ncols`.
    pub fn column_inf_norms_into(&self, out: &mut [f64]) {
        assert_eq!(out.len(), self.ncols, "column length mismatch");
        out.fill(0.0);
        for (&j, &v) in self.indices.iter().zip(&self.data) {
            out[j] = max_abs(out[j], v);
        }
    }

    /// `max |value|` over stored entries of each row.
    pub fn row_inf_norms(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.nrows];
        self.row_inf_norms_into(&mut out);
        out
    }

    /// [`Self::row_inf_norms`] into `out`, without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not of length `nrows`.
    pub fn row_inf_norms_into(&self, out: &mut [f64]) {
        assert_eq!(out.len(), self.nrows, "row length mismatch");
        for (i, o) in out.iter_mut().enumerate() {
            let (_, vals) = self.row(i);
            *o = vals.iter().fold(0.0f64, |m, &v| max_abs(m, v));
        }
    }
}

/// Rows [`CsrMatrix::row_dots`] sums at once.
const ROWS: usize = 4;

/// `acc` plus the row entries `(cols, vals)` against `x`, left to right.
fn dot_from(mut acc: f64, cols: &[usize], vals: &[f64], x: &[f64]) -> f64 {
    for (&j, &v) in cols.iter().zip(vals) {
        acc += v * x[j];
    }
    acc
}

/// `max(m, |v|)` for a norm `m ≥ 0`, ignoring a NaN `v` as `f64::max`
/// does, by a plain comparison that compiles without branches.
fn max_abs(m: f64, v: f64) -> f64 {
    let a = v.abs();
    if a > m {
        a
    } else {
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fused_scaling_matches_the_separate_passes_bit_for_bit() {
        let a = CsrMatrix::from_dense(&[
            vec![1.5, 0.0, -3.25, 0.0],
            vec![0.0, 0.0, 0.0, 0.0],
            vec![-7.0, 2.0, 0.0, 1e-9],
        ]);
        let (r, c) = ([0.3, 1.7, 1.0 / 3.0], [2.0 / 7.0, 1.1, 0.9, 1e5]);
        let mut want = a.clone();
        want.scale_rows(&r);
        want.scale_cols(&c);
        let mut got = a.clone();
        let (mut rows, mut cols) = (vec![9.0; 3], vec![9.0; 4]);
        got.scale_with_inf_norms(&r, &c, &mut rows, &mut cols);
        assert_eq!(got, want);
        assert_eq!(rows, want.row_inf_norms());
        assert_eq!(cols, want.column_inf_norms());
    }

    fn example() -> CsrMatrix {
        // [1 0 2]
        // [0 3 0]
        CsrMatrix::from_triplets(2, 3, vec![(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0)])
    }

    #[test]
    fn spmv_matches_dense() {
        let m = example();
        let mut y = vec![0.0; 2];
        m.spmv(&[1.0, 2.0, 3.0], &mut y).unwrap();
        assert_eq!(y, vec![7.0, 6.0]);
    }

    #[test]
    fn spmv_dimension_errors() {
        let m = example();
        let mut y = vec![0.0; 2];
        assert!(matches!(m.spmv(&[1.0], &mut y), Err(SparseError::DimensionMismatch { .. })));
        let mut bad_y = vec![0.0; 1];
        assert!(m.spmv(&[1.0, 2.0, 3.0], &mut bad_y).is_err());
    }

    #[test]
    fn spmv_transpose_matches_materialized() {
        let m = example();
        let t = m.transpose();
        let x = vec![2.0, -1.0];
        let mut y1 = vec![0.0; 3];
        let mut y2 = vec![0.0; 3];
        m.spmv_transpose(&x, &mut y1).unwrap();
        t.spmv(&x, &mut y2).unwrap();
        assert_eq!(y1, y2);
    }

    #[test]
    fn spmv_acc_accumulates() {
        let m = example();
        let mut y = vec![1.0, 1.0];
        m.spmv_acc(2.0, &[1.0, 1.0, 1.0], &mut y).unwrap();
        assert_eq!(y, vec![1.0 + 2.0 * 3.0, 1.0 + 2.0 * 3.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = example();
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn csc_roundtrip() {
        let m = example();
        assert_eq!(m.to_csc().to_csr(), m);
    }

    #[test]
    fn identity_and_diag() {
        let i3 = CsrMatrix::identity(3);
        assert_eq!(i3.diagonal(), vec![1.0, 1.0, 1.0]);
        let d = CsrMatrix::from_diag(&[2.0, 3.0]);
        let mut y = vec![0.0; 2];
        d.spmv(&[1.0, 1.0], &mut y).unwrap();
        assert_eq!(y, vec![2.0, 3.0]);
    }

    #[test]
    fn from_dense_drops_zeros() {
        let m = CsrMatrix::from_dense(&[vec![0.0, 1.0], vec![2.0, 0.0]]);
        assert_eq!(m.nnz(), 2);
        assert_eq!((m.get(0, 1), m.get(1, 0)), (1.0, 2.0));
    }

    #[test]
    fn scale_rows_and_cols() {
        let mut m = example();
        m.scale_rows(&[2.0, 3.0]);
        assert_eq!(m.get(0, 2), 4.0);
        assert_eq!(m.get(1, 1), 9.0);
        m.scale_cols(&[1.0, 0.5, 1.0]);
        assert_eq!(m.get(1, 1), 4.5);
    }

    #[test]
    fn permute_rows_reorders() {
        let m = example();
        let p = m.permute_rows(&[1, 0]);
        assert_eq!(p.get(0, 1), 3.0);
        assert_eq!(p.get(1, 0), 1.0);
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn bad_permutation_panics() {
        example().permute_rows(&[0, 0]);
    }

    #[test]
    fn invalid_structure_rejected() {
        // indptr wrong length
        assert!(CsrMatrix::from_raw_parts(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err());
        // unsorted columns
        assert!(CsrMatrix::from_raw_parts(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 2.0]).is_err());
        // column out of range
        assert!(CsrMatrix::from_raw_parts(1, 1, vec![0, 1], vec![5], vec![1.0]).is_err());
        // data length mismatch
        assert!(CsrMatrix::from_raw_parts(1, 2, vec![0, 1], vec![0], vec![]).is_err());
        // decreasing indptr
        assert!(CsrMatrix::from_raw_parts(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 2.0]).is_err());
    }

    #[test]
    fn upper_triangle_of_symmetric() {
        let m = CsrMatrix::from_triplets(
            2,
            2,
            vec![(0, 0, 4.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 2.0)],
        );
        let u = m.upper_triangle();
        assert_eq!(u.nnz(), 3);
        assert_eq!(u.get(1, 0), 0.0);
        assert_eq!(u.get(0, 1), 1.0);
    }

    #[test]
    fn norms_per_row_and_col() {
        let m = example();
        assert_eq!(m.row_inf_norms(), vec![2.0, 3.0]);
        assert_eq!(m.column_inf_norms(), vec![1.0, 3.0, 2.0]);
    }

    #[test]
    fn map_values_keeps_structure() {
        let m = example().map_values(|v| -v);
        assert_eq!(m.get(0, 0), -1.0);
        assert_eq!(m.nnz(), 3);
    }
}
