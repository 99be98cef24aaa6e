//! The runtime's attempt loop and its single fallback rung.
//!
//! Numeric recovery inside a solve belongs to the solver's guard ladder
//! (reset → LDLᵀ fallback for a backend that is not already a host factor
//! → `NumericalError`). What the guard cannot survive is a backend that
//! panics or a factory that fails to build, so the runtime adds exactly one
//! rung above it:
//!
//! | attempt | configuration |
//! |---|---|
//! | 0 | the caller's settings and backend factory |
//! | ≥1 | the custom factory dropped, `Settings::linsys = DirectLdlt` |
//!
//! An attempt that ends in [`Status::NumericalError`], a recoverable
//! [`SolverError`], or a caught panic is retried; each retry resumes from
//! the last valid checkpoint, so work already done is not thrown away.
//! Retries past the first repeat the same LDLᵀ configuration, which is why
//! the default policy allows exactly two attempts.
//!
//! [`SolverError`]: rsqp_solver::SolverError

use std::sync::Arc;

use rsqp_solver::{
    Checkpoint, DirectLdltBackend, KktBackend, LinSysKind, QpProblem, Settings, SolveResult,
    Solver, SolverError, Status,
};

use crate::job::{AttemptSummary, BackendFactory, JobError};

/// How many times a job may be attempted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (so `1` disables retries).
    pub max_attempts: usize,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        // The first attempt plus the direct-LDLᵀ fallback.
        RetryPolicy { max_attempts: 2 }
    }
}

impl RetryPolicy {
    /// A policy that never retries.
    pub fn no_retries() -> Self {
        RetryPolicy { max_attempts: 1 }
    }

    /// A policy with `max_attempts` total attempts (clamped to ≥ 1).
    pub fn with_max_attempts(max_attempts: usize) -> Self {
        RetryPolicy { max_attempts: max_attempts.max(1) }
    }
}

/// The fallback rung: drop any custom backend and solve with direct LDLᵀ.
fn degrade(settings: &mut Settings, factory: &mut Option<BackendFactory>) {
    *factory = None;
    settings.linsys = LinSysKind::DirectLdlt;
}

/// What one attempt runs with, handed to the caller's attempt closure.
pub(crate) struct Attempt<'a> {
    /// 0-based attempt index (0 = the undegraded first attempt).
    pub index: usize,
    /// Settings, degraded on retries.
    pub settings: &'a Settings,
    /// Custom backend factory; `None` from the first retry on.
    pub factory: &'a mut Option<BackendFactory>,
    /// Checkpoint to resume from, if any.
    pub resume: Option<&'a Checkpoint>,
}

/// Runs `attempt` until an outcome is final: any status other than
/// `NumericalError`, an unrecoverable solver error, or the last allowed
/// attempt. A retry first applies the fallback rung to `settings` and
/// `factory` (so callers keep it) and resumes from the last checkpoint that
/// passed validation, starting with `resume`. The solver of a successful
/// final attempt is returned with its result.
pub(crate) fn run_attempts(
    policy: RetryPolicy,
    settings: &mut Settings,
    factory: &mut Option<BackendFactory>,
    mut resume: Option<Checkpoint>,
    mut attempt: impl FnMut(Attempt<'_>) -> Result<(SolveResult, Solver), JobError>,
) -> (Vec<AttemptSummary>, Result<(SolveResult, Solver), JobError>) {
    let max_attempts = policy.max_attempts.max(1);
    let mut attempts = Vec::new();
    for index in 0..max_attempts {
        if index > 0 {
            degrade(settings, factory);
        }
        let resumed_from = resume.as_ref().map(|c| c.iterations);
        let outcome = attempt(Attempt { index, settings, factory, resume: resume.as_ref() });
        let (status, error, is_final) = match &outcome {
            Ok((result, _)) => (Some(result.status), None, result.status != Status::NumericalError),
            Err(JobError::Solver(e)) => (None, Some(e.to_string()), !e.is_recoverable()),
            Err(JobError::Panicked(msg)) => (None, Some(format!("panic: {msg}")), false),
            Err(JobError::Lost) => (None, Some(JobError::Lost.to_string()), true),
        };
        attempts.push(AttemptSummary { index, status, error, resumed_from });
        if is_final || index + 1 == max_attempts {
            return (attempts, outcome);
        }
        if let Ok((_, solver)) = &outcome {
            let ckpt = solver.checkpoint();
            let problem = solver.problem();
            if ckpt.validate(problem.num_vars(), problem.num_constraints()).is_ok() {
                resume = Some(ckpt);
            }
        }
    }
    unreachable!("the final attempt always returns")
}

/// Builds a solver: a custom factory wins; otherwise a direct LDLᵀ solver
/// replays `cached_perm` when one is given; otherwise `Settings::linsys`
/// selects the backend.
pub(crate) fn build_solver(
    problem: &Arc<QpProblem>,
    settings: &Settings,
    factory: &mut Option<BackendFactory>,
    cached_perm: Option<&[usize]>,
) -> Result<Solver, SolverError> {
    let (problem, settings) = (Arc::clone(problem), settings.clone());
    match (factory.as_mut(), cached_perm) {
        (Some(f), _) => Solver::with_backend(problem, settings, f),
        (None, Some(perm)) if settings.linsys == LinSysKind::DirectLdlt => {
            Solver::with_backend(problem, settings, &mut |p, a, sigma, rho, _s| {
                Ok(Box::new(DirectLdltBackend::with_permutation(p, a, sigma, rho, perm.to_vec())?)
                    as Box<dyn KktBackend>)
            })
        }
        (None, _) => Solver::new(problem, settings),
    }
}

#[cfg(test)]
mod tests {
    use rsqp_solver::CgTolerance;

    use super::*;

    #[test]
    fn fallback_drops_the_factory_and_keeps_everything_else() {
        let mut s = Settings {
            linsys: LinSysKind::CpuPcg,
            cg_tolerance: CgTolerance::Fixed(1e-7),
            max_iter: 4000,
            ..Default::default()
        };
        let mut f: Option<BackendFactory> =
            Some(Box::new(|_, _, _, _, _| Err(SolverError::Backend("never built".into()))));
        degrade(&mut s, &mut f);
        assert!(f.is_none());
        assert_eq!(s.linsys, LinSysKind::DirectLdlt);
        assert_eq!(s.cg_tolerance, CgTolerance::Fixed(1e-7));
        assert_eq!(s.max_iter, 4000);
    }

    #[test]
    fn policy_clamps_to_one_attempt() {
        assert_eq!(RetryPolicy::with_max_attempts(0).max_attempts, 1);
        assert_eq!(RetryPolicy::no_retries().max_attempts, 1);
        assert_eq!(RetryPolicy::default().max_attempts, 2);
    }
}
