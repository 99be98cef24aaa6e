//! Block assembly: vertical stacking of matrices with equal column counts.

use crate::{CooMatrix, CsrMatrix};

/// Vertically stacks matrices with identical column counts.
///
/// # Panics
///
/// Panics if `mats` is empty or the column counts differ.
pub fn vstack(mats: &[&CsrMatrix]) -> CsrMatrix {
    assert!(!mats.is_empty(), "vstack of zero matrices");
    let ncols = mats[0].ncols();
    assert!(mats.iter().all(|m| m.ncols() == ncols), "vstack requires equal column counts");
    let nrows: usize = mats.iter().map(|m| m.nrows()).sum();
    let nnz: usize = mats.iter().map(|m| m.nnz()).sum();
    let mut coo = CooMatrix::with_capacity(nrows, ncols, nnz);
    let mut off = 0;
    for m in mats {
        for i in 0..m.nrows() {
            let (cols, vals) = m.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                coo.push(off + i, j, v);
            }
        }
        off += m.nrows();
    }
    coo.to_csr()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a() -> CsrMatrix {
        CsrMatrix::from_dense(&[vec![1.0, 2.0]])
    }

    fn b() -> CsrMatrix {
        CsrMatrix::from_dense(&[vec![3.0, 0.0], vec![0.0, 4.0]])
    }

    #[test]
    fn vstack_shapes_and_values() {
        let s = vstack(&[&a(), &b()]);
        assert_eq!((s.nrows(), s.ncols()), (3, 2));
        assert_eq!(s.get(0, 1), 2.0);
        assert_eq!(s.get(2, 1), 4.0);
    }

    #[test]
    #[should_panic(expected = "equal column counts")]
    fn vstack_mismatched_cols_panics() {
        let one = CsrMatrix::identity(1);
        vstack(&[&a(), &one]);
    }
}
