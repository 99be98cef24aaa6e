//! RSQP core: the paper's primary contribution, assembled.
//!
//! This crate ties the substrates together into the system the paper
//! describes:
//!
//! * [`customize`] — the problem-specific customization pipeline of §4:
//!   encode the sparsity of `P`, `A`, `Aᵀ` as strings, search a MAC-tree
//!   structure set with LZW (minimizing `E_p`), compress the vector buffers
//!   with First-Fit (minimizing `E_c`), and score the result with the match
//!   metric η of §3.6;
//! * [`CustomizationCache`] — a bounded, pattern-keyed cache of those
//!   artifacts (plus the symbolic LDLᵀ ordering), so repeated-solve
//!   workloads pay the pipeline once per sparsity structure, not per
//!   problem instance;
//! * [`FpgaPcgBackend`] — a [`rsqp_solver::KktBackend`] that runs the KKT
//!   solve through the host's LDLᵀ of the KKT matrix on the cycle-level
//!   machine of `rsqp-arch`, so the OSQP outer loop converges on
//!   *simulated-FPGA arithmetic*, bit for bit the CPU's, while cycles are
//!   counted;
//!   [`fpga_solver`] builds a solver on it from a problem, settings and an
//!   architecture;
//! * [`perf`] — end-to-end time, power, and efficiency models for the three
//!   platforms of Table 2 (measured CPU, modeled GPU, simulated FPGA);
//! * [`report`] — small CSV/table helpers shared by the figure harnesses.
//!
//! # Example: customize an architecture for one problem
//!
//! ```
//! use rsqp_core::customize;
//! use rsqp_problems::{generate, Domain};
//!
//! let qp = generate(Domain::Svm, 3, 1);
//! let result = customize(&qp, 16, 4);
//! assert!(result.eta_custom >= result.eta_baseline);
//! assert!(result.eta_custom <= 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
pub mod bundle;
mod cache;
mod customize;
mod eta;
pub mod perf;
pub mod report;

pub use backend::{fpga_solver, FpgaPcgBackend, FpgaSolver};
pub use cache::{CacheLookup, CacheParams, CustomizationCache, PatternArtifacts};
pub use customize::{customize, customize_with_config, CustomizationResult, MatrixCustomization};
pub use eta::{eta, EtaParts};
