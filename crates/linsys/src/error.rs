use std::error::Error;
use std::fmt;

use rsqp_sparse::SparseError;

/// Error type for factorization and KKT assembly.
#[derive(Debug, Clone, PartialEq)]
pub enum LinsysError {
    /// The input matrix is not upper triangular.
    NotUpperTriangular,
    /// Column `0` is missing its diagonal entry (LDLᵀ requires an explicit,
    /// possibly zero-valued diagonal in every column).
    MissingDiagonal(usize),
    /// A zero pivot was encountered while factorizing column `0`; the matrix
    /// is not quasi-definite.
    ZeroPivot(usize),
    /// The KKT matrix's `D` has `positive` positive pivots, not `n`:
    /// `P + σI + Aᵀ diag(ρ) A` is not positive definite, so `P` is not
    /// positive semidefinite.
    NonConvex {
        /// Positive pivots found.
        positive: usize,
        /// Positive pivots a convex problem has: the number of variables.
        n: usize,
    },
    /// Operand dimensions disagree.
    Dimension(String),
    /// A fill-reducing ordering or permutation vector is not a valid
    /// permutation of `0..n`.
    InvalidPermutation(String),
    /// An underlying sparse-matrix operation failed.
    Sparse(SparseError),
}

impl fmt::Display for LinsysError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinsysError::NotUpperTriangular => {
                write!(f, "matrix must be upper triangular for LDLT factorization")
            }
            LinsysError::MissingDiagonal(j) => {
                write!(f, "column {j} is missing an explicit diagonal entry")
            }
            LinsysError::ZeroPivot(j) => write!(f, "zero pivot in column {j}"),
            LinsysError::NonConvex { positive, n } => write!(
                f,
                "the KKT factor has {positive} positive pivots, not {n}: the problem is not convex"
            ),
            LinsysError::Dimension(msg) => write!(f, "dimension error: {msg}"),
            LinsysError::InvalidPermutation(msg) => write!(f, "invalid permutation: {msg}"),
            LinsysError::Sparse(e) => write!(f, "sparse kernel error: {e}"),
        }
    }
}

impl Error for LinsysError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            LinsysError::Sparse(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SparseError> for LinsysError {
    fn from(e: SparseError) -> Self {
        LinsysError::Sparse(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_column() {
        assert!(LinsysError::ZeroPivot(7).to_string().contains('7'));
        assert!(LinsysError::MissingDiagonal(3).to_string().contains('3'));
    }

    #[test]
    fn from_sparse_error_chains_source() {
        use std::error::Error as _;
        let e: LinsysError = SparseError::InvalidStructure("x".into()).into();
        assert!(e.source().is_some());
    }
}
