//! Sparse linear algebra substrate for the RSQP reproduction.
//!
//! This crate provides the matrix and vector kernels every other layer of the
//! workspace is built on:
//!
//! * [`CooMatrix`] — a triplet builder used by the problem generators,
//! * [`CsrMatrix`] — compressed sparse row storage, the format streamed to the
//!   simulated SpMV engine and used by the CPU PCG backend,
//! * [`CscMatrix`] — compressed sparse column storage, used by the LDLᵀ
//!   direct solver,
//! * [`vec_ops`] — the dense vector kernels (dot products, norms, linear
//!   combinations, element-wise projection) that correspond one-to-one with
//!   the vector-engine instructions of the RSQP architecture (Table 1 of the
//!   paper),
//! * [`RowPartition`] / [`TransposeCache`] plus the `*_partitioned` SpMV and
//!   `*_par` vector kernels — the deterministic parallel CPU layer (built on
//!   `rsqp-par`) used by the reference PCG/ADMM hot path,
//! * [`ldl_solve_in_place`] — the triangular sweeps of an LDLᵀ solve,
//!   shared by the CPU factorization and the simulated accelerator.
//!
//! # Example
//!
//! ```
//! use rsqp_sparse::{CooMatrix, CsrMatrix};
//!
//! # fn main() -> Result<(), rsqp_sparse::SparseError> {
//! let mut coo = CooMatrix::new(2, 2);
//! coo.push(0, 0, 4.0);
//! coo.push(0, 1, 1.0);
//! coo.push(1, 0, 1.0);
//! coo.push(1, 1, 2.0);
//! let m: CsrMatrix = coo.to_csr();
//! let mut y = vec![0.0; 2];
//! m.spmv(&[1.0, 1.0], &mut y)?;
//! assert_eq!(y, vec![5.0, 3.0]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod coo;
mod csc;
mod csr;
mod error;
pub mod io;
mod partition;
pub mod pattern;
pub mod stack;
mod transpose;
mod triangular;
pub mod vec_ops;

pub use coo::CooMatrix;
pub use csc::CscMatrix;
pub use csr::CsrMatrix;
pub use error::SparseError;
pub use partition::RowPartition;
pub use pattern::PatternKey;
pub use transpose::TransposeCache;
pub use triangular::ldl_solve_in_place;
