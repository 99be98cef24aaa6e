use std::error::Error;
use std::fmt;

use rsqp_linsys::{LinsysError, PcgError};
use rsqp_sparse::SparseError;

/// Error type for problem construction and solver setup.
#[derive(Debug, Clone, PartialEq)]
pub enum SolverError {
    /// The problem data is malformed (shape mismatch, `l > u`, non-symmetric
    /// `P`, non-finite entries, …).
    InvalidProblem(String),
    /// A setting has an out-of-range value (e.g. `alpha` outside `(0, 2)`).
    InvalidSetting(String),
    /// The linear-system backend failed.
    Linsys(LinsysError),
    /// The inner PCG solve broke down or produced non-finite values.
    Pcg(PcgError),
    /// An underlying sparse kernel failed.
    Sparse(SparseError),
    /// A custom backend reported a failure.
    Backend(String),
    /// The solve diverged past every recovery stage; identifies what was
    /// detected (e.g. "non-finite iterate x").
    Numerical(String),
}

impl SolverError {
    /// Whether the guard layer may attempt recovery from this error, as
    /// opposed to a structural failure that a retry cannot fix.
    ///
    /// A non-convex `P` ([`LinsysError::NonConvex`]) is structural: no rung
    /// of the ladder changes `P`, and the LDLᵀ fallback would factor the
    /// same matrix only to meet the same check.
    pub fn is_recoverable(&self) -> bool {
        match self {
            SolverError::Linsys(e) => !matches!(e, LinsysError::NonConvex { .. }),
            SolverError::Pcg(_) | SolverError::Backend(_) | SolverError::Numerical(_) => true,
            _ => false,
        }
    }
}

impl fmt::Display for SolverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolverError::InvalidProblem(msg) => write!(f, "invalid problem: {msg}"),
            SolverError::InvalidSetting(msg) => write!(f, "invalid setting: {msg}"),
            SolverError::Linsys(e) => write!(f, "linear system error: {e}"),
            SolverError::Pcg(e) => write!(f, "inner PCG solve failed: {e}"),
            SolverError::Sparse(e) => write!(f, "sparse kernel error: {e}"),
            SolverError::Backend(msg) => write!(f, "backend error: {msg}"),
            SolverError::Numerical(msg) => write!(f, "numerical failure: {msg}"),
        }
    }
}

impl Error for SolverError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SolverError::Linsys(e) => Some(e),
            SolverError::Pcg(e) => Some(e),
            SolverError::Sparse(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LinsysError> for SolverError {
    fn from(e: LinsysError) -> Self {
        SolverError::Linsys(e)
    }
}

impl From<PcgError> for SolverError {
    fn from(e: PcgError) -> Self {
        SolverError::Pcg(e)
    }
}

impl From<SparseError> for SolverError {
    fn from(e: SparseError) -> Self {
        SolverError::Sparse(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_prefixed() {
        assert!(SolverError::InvalidProblem("x".into()).to_string().contains("invalid problem"));
        assert!(SolverError::Backend("b".into()).to_string().contains("backend"));
    }

    #[test]
    fn conversion_from_linsys() {
        let e: SolverError = LinsysError::ZeroPivot(1).into();
        assert!(matches!(e, SolverError::Linsys(_)));
        assert!(e.is_recoverable());
        let non_convex: SolverError = LinsysError::NonConvex { positive: 1, n: 2 }.into();
        assert!(!non_convex.is_recoverable());
    }

    #[test]
    fn conversion_from_pcg_is_recoverable() {
        let e: SolverError = PcgError::Breakdown { iteration: 3, curvature: -1.0 }.into();
        assert!(matches!(e, SolverError::Pcg(_)));
        assert!(e.is_recoverable());
        assert!(!SolverError::InvalidProblem("x".into()).is_recoverable());
    }
}
