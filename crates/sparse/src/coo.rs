use crate::{CscMatrix, CsrMatrix};

/// Coordinate-format (triplet) sparse matrix builder.
///
/// `CooMatrix` is the construction format used by the benchmark problem
/// generators: entries are pushed in any order and duplicates are summed when
/// converting to a compressed format.
///
/// # Example
///
/// ```
/// use rsqp_sparse::CooMatrix;
///
/// let mut coo = CooMatrix::new(3, 3);
/// coo.push(0, 0, 1.0);
/// coo.push(0, 0, 2.0); // duplicate: summed on conversion
/// let csr = coo.to_csr();
/// assert_eq!(csr.get(0, 0), 3.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CooMatrix {
    nrows: usize,
    ncols: usize,
    rows: Vec<usize>,
    cols: Vec<usize>,
    vals: Vec<f64>,
}

impl CooMatrix {
    /// Creates an empty triplet matrix with the given shape.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        CooMatrix { nrows, ncols, rows: Vec::new(), cols: Vec::new(), vals: Vec::new() }
    }

    /// Creates an empty triplet matrix with capacity for `cap` entries.
    pub fn with_capacity(nrows: usize, ncols: usize, cap: usize) -> Self {
        CooMatrix {
            nrows,
            ncols,
            rows: Vec::with_capacity(cap),
            cols: Vec::with_capacity(cap),
            vals: Vec::with_capacity(cap),
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored triplets (duplicates counted individually).
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Appends the entry `(row, col, val)`.
    ///
    /// Zero values are kept: the benchmark generators rely on explicit zeros
    /// to fix a sparsity *structure* independent of the numeric instance.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    pub fn push(&mut self, row: usize, col: usize, val: f64) {
        assert!(row < self.nrows, "row {row} out of bounds ({} rows)", self.nrows);
        assert!(col < self.ncols, "col {col} out of bounds ({} cols)", self.ncols);
        self.rows.push(row);
        self.cols.push(col);
        self.vals.push(val);
    }

    /// Iterates over the stored triplets as `(row, col, value)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.rows.iter().zip(&self.cols).zip(&self.vals).map(|((&r, &c), &v)| (r, c, v))
    }

    /// Converts to CSR, summing duplicate entries.
    ///
    /// The result has sorted column indices within each row and no duplicate
    /// coordinates (explicit zeros are preserved so the structure is stable).
    pub fn to_csr(&self) -> CsrMatrix {
        // Counting sort by row, then sort each row segment by column and
        // compact duplicates.
        let mut counts = vec![0usize; self.nrows + 1];
        for &r in &self.rows {
            counts[r + 1] += 1;
        }
        for i in 0..self.nrows {
            counts[i + 1] += counts[i];
        }
        let mut order: Vec<usize> = vec![0; self.nnz()];
        let mut next = counts.clone();
        for (k, &r) in self.rows.iter().enumerate() {
            order[next[r]] = k;
            next[r] += 1;
        }

        let mut indptr = Vec::with_capacity(self.nrows + 1);
        let mut indices = Vec::with_capacity(self.nnz());
        let mut data = Vec::with_capacity(self.nnz());
        indptr.push(0);
        let mut segment: Vec<(usize, f64)> = Vec::new();
        for r in 0..self.nrows {
            segment.clear();
            segment.extend(
                order[counts[r]..counts[r + 1]].iter().map(|&k| (self.cols[k], self.vals[k])),
            );
            segment.sort_unstable_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < segment.len() {
                let col = segment[i].0;
                let mut sum = 0.0;
                while i < segment.len() && segment[i].0 == col {
                    sum += segment[i].1;
                    i += 1;
                }
                indices.push(col);
                data.push(sum);
            }
            indptr.push(indices.len());
        }
        CsrMatrix::from_raw_parts(self.nrows, self.ncols, indptr, indices, data)
            .expect("COO-to-CSR conversion always produces a valid structure")
    }

    /// Converts to CSC, summing duplicate entries.
    pub fn to_csc(&self) -> CscMatrix {
        self.to_csr().to_csc()
    }
}

impl Extend<(usize, usize, f64)> for CooMatrix {
    fn extend<I: IntoIterator<Item = (usize, usize, f64)>>(&mut self, iter: I) {
        for (r, c, v) in iter {
            self.push(r, c, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_matrix_converts() {
        let coo = CooMatrix::new(3, 4);
        let csr = coo.to_csr();
        assert_eq!(csr.nrows(), 3);
        assert_eq!(csr.ncols(), 4);
        assert_eq!(csr.nnz(), 0);
    }

    #[test]
    fn duplicates_are_summed() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(1, 1, 1.5);
        coo.push(1, 1, 2.5);
        coo.push(0, 1, -1.0);
        let csr = coo.to_csr();
        assert_eq!(csr.nnz(), 2);
        assert_eq!(csr.get(1, 1), 4.0);
        assert_eq!(csr.get(0, 1), -1.0);
    }

    #[test]
    fn out_of_order_insertion_sorts() {
        let mut coo = CooMatrix::new(2, 3);
        coo.push(1, 2, 3.0);
        coo.push(0, 1, 1.0);
        coo.push(1, 0, 2.0);
        let csr = coo.to_csr();
        let (cols, vals) = csr.row(1);
        assert_eq!(cols, &[0, 2]);
        assert_eq!(vals, &[2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn push_out_of_bounds_panics() {
        let mut coo = CooMatrix::new(1, 1);
        coo.push(1, 0, 1.0);
    }

    #[test]
    fn extend_collects_triplets() {
        let mut coo = CooMatrix::new(2, 2);
        coo.extend(vec![(0, 0, 1.0), (1, 1, 2.0)]);
        assert_eq!(coo.nnz(), 2);
        assert_eq!(coo.iter().count(), 2);
    }

    #[test]
    fn explicit_zeros_are_kept() {
        let mut coo = CooMatrix::new(1, 2);
        coo.push(0, 0, 0.0);
        let csr = coo.to_csr();
        assert_eq!(csr.nnz(), 1);
    }
}
