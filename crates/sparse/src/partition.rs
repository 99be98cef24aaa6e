//! Row partitions for parallel SpMV.
//!
//! A partition is a fixed set of contiguous row ranges computed once from
//! the matrix structure. Because the boundaries depend only on the matrix
//! (never on the thread count or runtime timing), every parallel kernel
//! that uses a given partition produces bit-identical results regardless
//! of how many threads execute it — each row is still accumulated
//! left-to-right by exactly one thread.

use crate::csr::CsrMatrix;

/// A contiguous partition of `0..nrows` into chunks, balanced for SpMV.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowPartition {
    /// `bounds[k]..bounds[k + 1]` is chunk `k`; starts at 0, ends at nrows.
    bounds: Vec<usize>,
}

impl RowPartition {
    /// Partitions the rows of `m` into at most `max_chunks` pieces with
    /// roughly equal nonzero counts, so chunks cost about the same even on
    /// matrices with wildly uneven row densities.
    pub fn balanced(m: &CsrMatrix, max_chunks: usize) -> Self {
        let nrows = m.nrows();
        let nchunks = max_chunks.clamp(1, nrows.max(1));
        let per_chunk = m.nnz().div_ceil(nchunks).max(1);
        let mut bounds = Vec::with_capacity(nchunks + 1);
        bounds.push(0);
        let mut acc = 0usize;
        for i in 0..nrows {
            acc += m.row_nnz(i);
            if acc >= per_chunk * bounds.len() && bounds.len() < nchunks {
                bounds.push(i + 1);
            }
        }
        if *bounds.last().unwrap() != nrows {
            bounds.push(nrows);
        }
        RowPartition { bounds }
    }

    /// The chunk boundaries (`len() == num_chunks() + 1`).
    pub fn bounds(&self) -> &[usize] {
        &self.bounds
    }

    /// Number of chunks.
    pub fn num_chunks(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Number of rows covered.
    pub fn nrows(&self) -> usize {
        *self.bounds.last().unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    fn ragged_matrix() -> CsrMatrix {
        // Row i has i % 7 + 1 entries: very uneven nnz per row.
        let nrows = 200;
        let ncols = 50;
        let mut coo = CooMatrix::with_capacity(nrows, ncols, nrows * 4);
        for i in 0..nrows {
            for k in 0..(i % 7 + 1) {
                coo.push(i, (i * 3 + k * 11) % ncols, 1.0 + k as f64);
            }
        }
        coo.to_csr()
    }

    #[test]
    fn balanced_covers_all_rows_in_order() {
        let m = ragged_matrix();
        for chunks in [1, 2, 3, 8, 64, 1000] {
            let p = RowPartition::balanced(&m, chunks);
            assert_eq!(p.bounds()[0], 0);
            assert_eq!(p.nrows(), m.nrows());
            assert!(p.bounds().windows(2).all(|w| w[0] < w[1]));
            assert!(p.num_chunks() <= chunks.max(1));
        }
    }

    #[test]
    fn balanced_spreads_nnz() {
        let m = ragged_matrix();
        let p = RowPartition::balanced(&m, 4);
        let nnz_of = |lo: usize, hi: usize| (lo..hi).map(|i| m.row_nnz(i)).sum::<usize>();
        let loads: Vec<usize> = p.bounds().windows(2).map(|w| nnz_of(w[0], w[1])).collect();
        let max = *loads.iter().max().unwrap();
        let min = *loads.iter().min().unwrap();
        // Perfect balance is impossible at row granularity, but chunks must
        // be within a small factor of each other.
        assert!(max <= 2 * min + 8, "unbalanced loads: {loads:?}");
    }
}
