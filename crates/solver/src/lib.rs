//! OSQP-style ADMM solver for convex quadratic programs.
//!
//! Implements Algorithm 1 of the RSQP paper (which is the OSQP method of
//! Stellato et al. 2020): at every iteration the KKT system (Eq. 2) is
//! solved, followed by a Euclidean projection onto the constraint box and a
//! dual update. The KKT solve is delegated to a pluggable [`KktBackend`]:
//!
//! * [`DirectLdltBackend`] — sparse quasi-definite LDLᵀ with cached numeric
//!   factorization (the OSQP CPU default),
//! * [`CpuPcgBackend`] — matrix-free PCG on the reduced system (Eq. 3), the
//!   algorithm cuOSQP and RSQP's FPGA both run,
//! * any external implementation of [`KktBackend`] — `rsqp-core` plugs the
//!   cycle-level FPGA simulator in through this trait.
//!
//! The solver reproduces OSQP's practical machinery: Ruiz equilibration,
//! per-constraint ρ with equality boosting, adaptive ρ updates, unscaled
//! residual termination criteria, and primal/dual infeasibility
//! certificates.
//!
//! # Example
//!
//! ```
//! use rsqp_sparse::CsrMatrix;
//! use rsqp_solver::{QpProblem, Settings, Solver, Status};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // minimize  (1/2)(4x0^2 + 2x1^2 + 2x0x1) + x0 + x1
//! // subject to x0 + x1 = 1, 0 <= x0 <= 0.7, 0 <= x1 <= 0.7
//! let p = CsrMatrix::from_dense(&[vec![4.0, 1.0], vec![1.0, 2.0]]);
//! let a = CsrMatrix::from_dense(&[vec![1.0, 1.0], vec![1.0, 0.0], vec![0.0, 1.0]]);
//! let problem = QpProblem::new(
//!     p,
//!     vec![1.0, 1.0],
//!     a,
//!     vec![1.0, 0.0, 0.0],
//!     vec![1.0, 0.7, 0.7],
//! )?;
//! let mut solver = Solver::new(&problem, Settings::default())?;
//! let result = solver.solve()?;
//! assert_eq!(result.status, Status::Solved);
//! assert!((result.x[0] + result.x[1] - 1.0).abs() < 1e-3);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod checkpoint;
mod control;
mod error;
mod guard;
mod infeasibility;
mod polish;
mod problem;
mod rho;
mod scaling;
mod settings;
mod solver;
mod status;
mod termination;
mod workspace;

pub use backend::{kkt_ordering, BackendStats, CpuPcgBackend, DirectLdltBackend, KktBackend};
pub use checkpoint::Checkpoint;
pub use control::{CancelToken, SolveControl};
pub use error::SolverError;
pub use guard::{Anomaly, Guard, GuardReport, RecoveryAction};
pub use polish::{polish, PolishOutcome};
pub use problem::QpProblem;
pub use rho::{ConstraintKind, RhoManager};
pub use scaling::Scaling;
pub use settings::{CgTolerance, KktOrdering, LinSysKind, Settings};
pub use solver::{SolveResult, Solver, TimingBreakdown};
pub use status::Status;
// Trace types re-exported so downstream crates can consume
// `SolveResult::trace` without a direct `rsqp-obs` dependency.
pub use rsqp_obs::{IterationTrace, SolveTrace, TraceEvent};
