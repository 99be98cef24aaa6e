//! Resilient concurrent solve runtime for RSQP.
//!
//! The paper's deployment story (§7 discussion) is a solver appliance:
//! many QP instances stream through a fixed, problem-structure-customized
//! accelerator. That only works in production if the *runtime* around the
//! solver is robust — one diverging, hanging, or crashing solve must not
//! take the service down or starve its neighbours. This crate provides
//! that runtime for the Rust reproduction:
//!
//! * [`SolveService`] — a fixed worker pool behind a **bounded** job queue;
//!   saturation surfaces as [`SubmitError::QueueFull`] backpressure rather
//!   than unbounded buffering.
//! * [`JobBudget`] — per-job wall-clock deadline (counted from submission)
//!   and iteration cap, enforced *cooperatively* at ADMM iteration
//!   boundaries via [`rsqp_solver::SolveControl`]; a budgeted job always
//!   ends with a definite [`rsqp_solver::Status`].
//! * **Panic isolation** — a panicking backend is caught per job
//!   ([`JobError::Panicked`]); the worker survives and takes the next job.
//! * [`RetryPolicy`] — one attempt loop shared by jobs and sessions. The
//!   solver's guard owns numeric recovery inside a solve; the runtime adds
//!   the one rung the guard cannot take: after a panic, a failed backend
//!   build, a recoverable error, or `NumericalError`, it drops the custom
//!   backend, retries on direct LDLᵀ, and resumes from the last valid
//!   [`rsqp_solver::Checkpoint`] so completed work is kept.
//! * [`ChaosPlan`] — deterministic fault injection (delays, recoverable
//!   errors, panics) at the backend boundary, composing with the
//!   cycle-level bit-flip faults of `rsqp-arch` for end-to-end chaos runs
//!   (`cargo run -p rsqp-bench --bin chaos_smoke`).
//! * [`SolveSession`] — MPC-style parametric re-solves: one persistent,
//!   warm-started solver fed a stream of [`StepUpdate`]s, with a shared
//!   pattern-keyed [`CustomizationCache`] so customization and symbolic
//!   analysis run once per sparsity structure, not once per step.
//!
//! # Example
//!
//! ```
//! use std::time::Duration;
//! use rsqp_sparse::CsrMatrix;
//! use rsqp_solver::QpProblem;
//! use rsqp_runtime::{JobBudget, JobSpec, ServiceConfig, SolveService};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let problem = QpProblem::new(
//!     CsrMatrix::identity(2),
//!     vec![-1.0, -1.0],
//!     CsrMatrix::identity(2),
//!     vec![0.0, 0.0],
//!     vec![1.0, 1.0],
//! )?;
//! let service = SolveService::new(ServiceConfig { workers: 2, queue_capacity: 8 });
//! let job = JobSpec::new(problem)
//!     .with_budget(JobBudget::unbounded().with_timeout(Duration::from_secs(5)));
//! let handle = service.submit(job).expect("queue has room");
//! let report = handle.wait();
//! assert!(report.status().is_some_and(|s| s.is_solved()));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chaos;
mod job;
mod retry;
mod service;
mod session;

pub use chaos::ChaosPlan;
pub use job::{AttemptSummary, BackendFactory, JobBudget, JobError, JobHandle, JobReport, JobSpec};
pub use retry::RetryPolicy;
pub use service::{ServiceConfig, SolveService, SubmitError};
pub use session::{SessionConfig, SolveSession, StepReport, StepUpdate};
// Cache types re-exported so sessions can be configured without a direct
// `rsqp-core` dependency.
pub use rsqp_core::{CacheLookup, CacheParams, CustomizationCache, PatternArtifacts};
// Telemetry types re-exported so callers can consume
// `SolveService::metrics_snapshot()` without a direct `rsqp-obs` dependency.
pub use rsqp_obs::{MetricsRegistry, MetricsSnapshot};
