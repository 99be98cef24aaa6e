//! Linear-system solvers used inside the OSQP/RSQP iteration.
//!
//! OSQP solves the KKT system (Eq. 2 of the RSQP paper) either *directly*
//! with a sparse quasi-definite LDLᵀ factorization (the CPU default,
//! mirroring QDLDL) or *indirectly* by reducing it to
//! `(P + σI + Aᵀ diag(ρ) A) x = b` (Eq. 3) and applying the Preconditioned
//! Conjugate Gradient method (Algorithm 2) — the path taken by cuOSQP and by
//! RSQP's FPGA accelerator.
//!
//! This crate provides both:
//!
//! * [`Ldlt`] — symbolic + numeric LDLᵀ of an upper-triangular CSC matrix
//!   with quasi-definite pivots, plus triangular solves,
//! * [`KktMatrix`] — one-pass assembly of the KKT matrix from `P`, `A`,
//!   `σ`, `ρ`, with in-place ρ and value updates that reuse the symbolic
//!   factorization,
//! * [`KktLdlt`] — the direct KKT solve through the LDLᵀ of the permuted
//!   KKT matrix, with OSQP's non-convexity check: the one exact KKT solve
//!   of every backend, on the CPU and on the accelerator,
//! * [`ReducedKktOp`] — the matrix-free reduced-KKT operator with the
//!   Jacobi preconditioner, and [`pcg_with`] — Algorithm 2, in place over a
//!   reusable [`PcgWorkspace`]: the CPU reference of the accelerator's PCG
//!   kernel,
//! * [`amd_ordering`] and [`rcm_ordering`] — fill-reducing orderings (our
//!   substitutes for SuiteSparse AMD; see `DESIGN.md`).
//!
//! # Example: solving a tiny KKT system both ways
//!
//! ```
//! use rsqp_sparse::CsrMatrix;
//! use rsqp_linsys::{pcg_with, KktMatrix, Ldlt, PcgSettings, PcgWorkspace, ReducedKktOp};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let p = CsrMatrix::from_diag(&[2.0, 2.0]);
//! let a = CsrMatrix::from_dense(&[vec![1.0, 1.0]]);
//! let rho = vec![0.1];
//! let kkt = KktMatrix::assemble(&p, &a, 1e-6, &rho)?;
//! let mut ldlt = Ldlt::factor(kkt.matrix())?;
//! let mut rhs = vec![1.0, 1.0, 0.0];
//! ldlt.solve_in_place(&mut rhs)?;
//!
//! let mut op = ReducedKktOp::new(&p, &a, 1e-6, &rho)?;
//! let b = vec![1.0, 1.0];
//! let mut x = vec![0.0; 2];
//! let mut ws = PcgWorkspace::new(2);
//! let summary = pcg_with(&mut op, &b, &mut x, &PcgSettings::default(), &mut ws)?;
//! assert!(summary.converged);
//! assert!((x[0] - rhs[0]).abs() < 1e-6);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod direct;
mod error;
mod kkt;
mod ldlt;
mod ordering;
mod pcg;

pub use direct::KktLdlt;
pub use error::LinsysError;
pub use kkt::{KktMatrix, ReducedKktOp};
pub use ldlt::Ldlt;
pub use ordering::{amd_ordering, inverse_permutation, rcm_ordering, SymmetricPermutation};
pub use pcg::{pcg_with, LinearOperator, PcgError, PcgSettings, PcgSummary, PcgWorkspace};
