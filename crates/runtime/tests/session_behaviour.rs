//! Behavioural tests for [`SolveSession`]: the 40-step MPC ledger the
//! customization cache exists for (one miss, then hits forever), equivalence
//! of warm session steps against cold solves, budget/cancellation statuses,
//! and recovery from rejected updates.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use rsqp_problems::control;
use rsqp_runtime::{
    ChaosPlan, CustomizationCache, JobBudget, RetryPolicy, ServiceConfig, SessionConfig,
    SolveService, SolveSession, StepUpdate,
};
use rsqp_solver::{
    BackendStats, CpuPcgBackend, DirectLdltBackend, KktBackend, QpProblem, Settings, Solver,
    SolverError, Status,
};
use rsqp_sparse::CsrMatrix;

fn tight() -> Settings {
    Settings { eps_abs: 1e-8, eps_rel: 1e-8, ..Settings::default() }
}

/// The MPC step: seed `k`'s bounds carry a new initial state (first `nx`
/// rows); dynamics and box rows are unchanged.
fn mpc_bounds(size: usize, seed: u64) -> StepUpdate {
    let target = control::generate(size, seed);
    StepUpdate::Bounds { l: target.l().to_vec(), u: target.u().to_vec() }
}

#[test]
fn forty_step_mpc_sequence_customizes_once() {
    let cache = Arc::new(CustomizationCache::new(4));
    let base = control::generate(3, 1);
    let config =
        SessionConfig::default().with_settings(Settings::default()).with_cache(Arc::clone(&cache));
    let mut session = SolveSession::new(base, config);

    let first = session.step(Vec::new()).unwrap();
    assert!(!first.cache_hit, "the first sight of a pattern must miss");
    assert_eq!(first.result.status, Status::Solved);

    for seed in 2..=40u64 {
        let report = session.step(vec![mpc_bounds(3, seed)]).unwrap();
        assert!(report.cache_hit, "step {seed} re-customized a cached pattern");
        assert_eq!(report.result.status, Status::Solved, "step {seed}");
    }

    assert_eq!(session.steps_taken(), 40);
    let snap = session.metrics().snapshot();
    assert_eq!(snap.counter("session_steps"), 40);
    assert_eq!(snap.counter("cache_misses"), 1, "customization must run exactly once");
    assert_eq!(snap.counter("cache_hits"), 39);
    let hist = snap.histograms.get("session_step_us").expect("latency histogram registered");
    assert_eq!(hist.count(), 40);
    assert!(hist.mean() > 0.0);

    // The cache's own ledger agrees with the session metrics.
    assert_eq!(cache.misses(), 1);
    assert_eq!(cache.hits(), 39);
    assert_eq!(cache.len(), 1);
    assert!(session.cached_artifacts().is_some());
}

#[test]
fn value_updates_keep_the_first_steps_pattern_key() {
    let cache = Arc::new(CustomizationCache::new(4));
    let base = control::generate(3, 1);
    let n = base.num_vars();
    let mut session =
        SolveSession::new(base, SessionConfig::default().with_cache(Arc::clone(&cache)));
    assert!(!session.step(Vec::new()).unwrap().cache_hit);
    for seed in 2..=10u64 {
        let target = control::generate(3, seed);
        let q: Vec<f64> = (0..n).map(|i| 0.05 * ((i as f64) * 0.61 + seed as f64).cos()).collect();
        let report = session
            .step(vec![
                StepUpdate::Bounds { l: target.l().to_vec(), u: target.u().to_vec() },
                StepUpdate::LinearCost(q),
                StepUpdate::Matrices { p: Some(target.p().clone()), a: Some(target.a().clone()) },
            ])
            .unwrap();
        assert!(report.cache_hit, "step {seed}");
        assert_eq!(report.result.status, Status::Solved, "step {seed}");
    }
    assert_eq!((cache.misses(), cache.hits()), (1, 9));
    let snap = session.metrics().snapshot();
    assert_eq!((snap.counter("cache_misses"), snap.counter("cache_hits")), (1, 9));
    let problem = session.problem();
    let key = rsqp_sparse::PatternKey::new(problem.p(), problem.a());
    assert_eq!(session.cached_artifacts().unwrap().key, key);
}

#[test]
fn cache_is_shared_across_sessions() {
    let cache = Arc::new(CustomizationCache::new(4));
    let mut first = SolveSession::new(
        control::generate(3, 1),
        SessionConfig::default().with_cache(Arc::clone(&cache)),
    );
    assert!(!first.step(Vec::new()).unwrap().cache_hit);

    // A different numeric instance of the same structure: the second
    // session's very first step hits the shared cache.
    let mut second = SolveSession::new(
        control::generate(3, 99),
        SessionConfig::default().with_cache(Arc::clone(&cache)),
    );
    assert!(second.step(Vec::new()).unwrap().cache_hit);

    // A different structure misses independently.
    let mut third = SolveSession::new(
        control::generate(4, 1),
        SessionConfig::default().with_cache(Arc::clone(&cache)),
    );
    assert!(!third.step(Vec::new()).unwrap().cache_hit);
    assert_eq!(cache.misses(), 2);
    assert_eq!(cache.hits(), 1);
}

#[test]
fn session_steps_match_cold_solves() {
    let base = control::generate(3, 1);
    let cache = Arc::new(CustomizationCache::new(2));
    let config = SessionConfig::default().with_settings(tight()).with_cache(cache);
    let mut session = SolveSession::new(base.clone(), config);
    session.step(Vec::new()).unwrap();

    let mut reference = base;
    for seed in 2..=6u64 {
        let target = control::generate(3, seed);
        let report = session.step(vec![mpc_bounds(3, seed)]).unwrap();

        reference.update_bounds(target.l().to_vec(), target.u().to_vec()).unwrap();
        let mut cold = Solver::new(&reference, tight()).unwrap();
        let cold_result = cold.solve().unwrap();

        assert_eq!(report.result.status, cold_result.status, "seed {seed}");
        assert_eq!(report.result.status, Status::Solved);
        let tol = 1e-6 * (1.0 + cold_result.objective.abs());
        assert!(
            (report.result.objective - cold_result.objective).abs() <= tol,
            "seed {seed}: session objective {} vs cold {}",
            report.result.objective,
            cold_result.objective
        );
        assert!(
            report.result.iterations <= cold_result.iterations,
            "seed {seed}: warm session step took {} iterations vs {} cold",
            report.result.iterations,
            cold_result.iterations
        );
    }
}

#[test]
fn all_update_kinds_flow_through_a_session() {
    let base = control::generate(3, 5);
    let target = control::generate(3, 6);
    let n = base.num_vars();
    let mut session =
        SolveSession::new(base.clone(), SessionConfig::default().with_settings(tight()));
    session.step(Vec::new()).unwrap();

    let new_q: Vec<f64> = (0..n).map(|i| 0.05 * ((i as f64) * 0.61).cos()).collect();
    let report = session
        .step(vec![
            StepUpdate::LinearCost(new_q.clone()),
            StepUpdate::Bounds { l: target.l().to_vec(), u: target.u().to_vec() },
            StepUpdate::Matrices { p: Some(target.p().clone()), a: Some(target.a().clone()) },
            StepUpdate::Rho(0.5),
        ])
        .unwrap();
    assert_eq!(report.result.status, Status::Solved);

    // Cold reference with the same batch applied to a fresh problem.
    let mut reference = base;
    reference.update_q(new_q).unwrap();
    reference.update_bounds(target.l().to_vec(), target.u().to_vec()).unwrap();
    reference.update_matrices(Some(target.p().clone()), Some(target.a().clone())).unwrap();
    let mut cold = Solver::new(&reference, Settings { rho: 0.5, ..tight() }).unwrap();
    let cold_result = cold.solve().unwrap();
    assert_eq!(cold_result.status, Status::Solved);
    let tol = 1e-6 * (1.0 + cold_result.objective.abs());
    assert!((report.result.objective - cold_result.objective).abs() <= tol);
}

#[test]
fn pre_first_step_updates_mutate_the_problem() {
    let base = control::generate(3, 1);
    let target = control::generate(3, 2);
    let mut session =
        SolveSession::new(base.clone(), SessionConfig::default().with_settings(tight()));
    // Updates queued before the solver exists are applied to the problem
    // itself; the first step then solves the updated instance.
    let report = session.step(vec![mpc_bounds(3, 2)]).unwrap();

    let mut reference = base;
    reference.update_bounds(target.l().to_vec(), target.u().to_vec()).unwrap();
    let mut cold = Solver::new(&reference, tight()).unwrap();
    let cold_result = cold.solve().unwrap();
    assert_eq!(report.result.status, Status::Solved);
    let tol = 1e-6 * (1.0 + cold_result.objective.abs());
    assert!((report.result.objective - cold_result.objective).abs() <= tol);
}

#[test]
fn budget_iter_cap_yields_definite_status() {
    let config = SessionConfig::default()
        .with_settings(tight())
        .with_budget(JobBudget::unbounded().with_iter_cap(3));
    let mut session = SolveSession::new(control::generate(3, 1), config);
    let report = session.step(Vec::new()).unwrap();
    assert_eq!(report.result.status, Status::MaxIterationsReached);
    assert!(report.result.iterations <= 3);
    // The capped step still counts: budgets end steps, they don't void them.
    assert_eq!(session.steps_taken(), 1);
}

#[test]
fn expired_deadline_yields_time_limit_status() {
    let config =
        SessionConfig::default().with_budget(JobBudget::unbounded().with_timeout(Duration::ZERO));
    let mut session = SolveSession::new(control::generate(3, 1), config);
    let report = session.step(Vec::new()).unwrap();
    assert_eq!(report.result.status, Status::TimeLimitReached);
}

#[test]
fn cancellation_yields_cancelled_status() {
    let mut session = SolveSession::new(control::generate(3, 1), SessionConfig::default());
    session.cancel_token().cancel();
    let report = session.step(Vec::new()).unwrap();
    assert_eq!(report.result.status, Status::Cancelled);
}

#[test]
fn structure_change_is_rejected_and_session_survives() {
    let base = control::generate(3, 1);
    let (m, n) = (base.num_constraints(), base.num_vars());
    let mut session = SolveSession::new(base, SessionConfig::default().with_settings(tight()));
    session.step(Vec::new()).unwrap();

    // Same shape, different sparsity pattern: a dense first column.
    let mut dense = vec![vec![0.0; n]; m];
    for row in dense.iter_mut() {
        row[0] = 1.0;
    }
    let bad = CsrMatrix::from_dense(&dense);
    let err = session.step(vec![StepUpdate::Matrices { p: None, a: Some(bad) }]);
    assert!(err.is_err(), "a structure change must be rejected");
    assert_eq!(session.steps_taken(), 1, "a rejected update must not consume a step");

    // The session remains usable afterwards.
    let report = session.step(vec![mpc_bounds(3, 2)]).unwrap();
    assert_eq!(report.result.status, Status::Solved);
    assert_eq!(session.steps_taken(), 2);
}

#[test]
fn a_failed_update_batch_leaves_the_problem_in_step_with_the_solver() {
    // The updates before the failing one reach the persistent solver; the
    // session's problem, which retries and rebuilds start from, must carry
    // them too.
    let mut session = SolveSession::new(control::generate(2, 1), SessionConfig::default());
    session.step(Vec::new()).unwrap();
    let target = control::generate(2, 7);
    let failed = session.step(vec![mpc_bounds(2, 7), StepUpdate::LinearCost(vec![0.0])]);
    assert!(failed.is_err(), "a wrong-length q must be rejected");
    assert_eq!(session.steps_taken(), 1);
    assert_eq!(session.problem().l(), target.l());
    assert_eq!(session.problem().u(), target.u());
}

#[test]
fn bounds_only_steps_do_not_copy_the_problem() {
    // Between steps the persistent solver holds the only handle to the
    // problem, so a bounds update writes into it instead of copying P and A.
    let mut session = SolveSession::new(control::generate(3, 1), SessionConfig::default());
    session.step(Vec::new()).unwrap();
    let a = session.problem().a().data().as_ptr();
    for seed in [2, 3] {
        session.step(vec![mpc_bounds(3, seed)]).unwrap();
        assert_eq!(session.problem().a().data().as_ptr(), a, "step to seed {seed}");
        assert_eq!(session.problem().l(), control::generate(3, seed).l());
    }
}

#[test]
fn service_sessions_share_the_service_registry() {
    let service = SolveService::new(ServiceConfig { workers: 1, ..Default::default() });
    let cache = Arc::new(CustomizationCache::new(2));
    let mut session =
        service.open_session(control::generate(3, 1), SessionConfig::default().with_cache(cache));
    session.step(Vec::new()).unwrap();
    session.step(vec![mpc_bounds(3, 2)]).unwrap();
    drop(session);

    let snap = service.metrics_snapshot();
    assert_eq!(snap.counter("session_steps"), 2);
    assert_eq!(snap.counter("cache_misses"), 1);
    assert_eq!(snap.counter("cache_hits"), 1);
}

#[test]
fn cold_step_sessions_disable_warm_starting() {
    // A cold-stepping session is the baseline the bench compares against:
    // it must take as many iterations on step 2 as a fresh solver would.
    let base = control::generate(3, 1);
    let mut cold_session = SolveSession::new(
        base.clone(),
        SessionConfig::default().with_settings(tight()).with_cold_steps(),
    );
    cold_session.step(Vec::new()).unwrap();
    let cold_step = cold_session.step(vec![mpc_bounds(3, 2)]).unwrap();

    let mut reference: QpProblem = base;
    let target = control::generate(3, 2);
    reference.update_bounds(target.l().to_vec(), target.u().to_vec()).unwrap();
    let mut fresh = Solver::new(&reference, tight()).unwrap();
    let fresh_result = fresh.solve().unwrap();
    assert_eq!(cold_step.result.iterations, fresh_result.iterations);
}

/// Direct LDLᵀ that reports itself as `"ldlt"` (so the guard has no
/// fallback rung past it) and fails every KKT solve with `error` once the
/// shared budget of healthy solves is spent.
struct Faulty {
    inner: DirectLdltBackend,
    healthy: Arc<AtomicUsize>,
    error: SolverError,
}

impl KktBackend for Faulty {
    fn name(&self) -> &str {
        "ldlt"
    }

    fn update_rho(&mut self, rho: &[f64]) -> Result<(), SolverError> {
        self.inner.update_rho(rho)
    }

    fn solve_kkt(
        &mut self,
        x: &[f64],
        z: &[f64],
        y: &[f64],
        q: &[f64],
        xtilde: &mut [f64],
        ztilde: &mut [f64],
    ) -> Result<(), SolverError> {
        if self
            .healthy
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |h| h.checked_sub(1))
            .is_err()
        {
            return Err(self.error.clone());
        }
        self.inner.solve_kkt(x, z, y, q, xtilde, ztilde)
    }

    fn update_matrices(
        &mut self,
        p: &CsrMatrix,
        a: &CsrMatrix,
        rho: &[f64],
    ) -> Result<(), SolverError> {
        self.inner.update_matrices(p, a, rho)
    }

    fn stats(&self) -> BackendStats {
        self.inner.stats()
    }
}

#[test]
fn rho_updates_survive_a_solver_rebuild() {
    // A step that fails with an unrecoverable error drops the solver; the
    // next step rebuilds it from the session's settings, which must carry
    // the ρ̄ set since the first build.
    let healthy = Arc::new(AtomicUsize::new(usize::MAX));
    let built_with = Arc::new(Mutex::new(Vec::new()));
    let (budget, log) = (Arc::clone(&healthy), Arc::clone(&built_with));
    let mut session = SolveSession::new(control::generate(3, 1), SessionConfig::default())
        .with_backend_factory(Box::new(move |p, a, sigma, rho, s| {
            log.lock().unwrap().push(s.rho);
            let error = SolverError::InvalidSetting("injected".into());
            let inner = DirectLdltBackend::new(p, a, sigma, rho)?;
            Ok(Box::new(Faulty { inner, healthy: Arc::clone(&budget), error }))
        }));
    session.step(Vec::new()).unwrap();

    healthy.store(0, Ordering::SeqCst);
    let failed = session.step(vec![StepUpdate::Rho(5.0)]);
    assert!(matches!(failed, Err(SolverError::InvalidSetting(_))), "{failed:?}");

    healthy.store(usize::MAX, Ordering::SeqCst);
    let report = session.step(Vec::new()).unwrap();
    assert_eq!(report.result.status, Status::Solved);
    assert_eq!(*built_with.lock().unwrap(), [0.1, 5.0]);
}

#[test]
fn cold_step_retries_resume_from_the_checkpoint() {
    // The backend fails after 60 KKT solves; the guard cannot fall back past
    // "ldlt", so the step retries on direct LDLᵀ from the checkpoint. A
    // cold-step session must resume from it too, not restart from zero.
    let problem = Arc::new(control::generate(8, 1));
    let settings = Settings { eps_abs: 1e-7, eps_rel: 1e-7, ..Settings::default() };
    let retry_iterations = |config: SessionConfig| {
        let healthy = Arc::new(AtomicUsize::new(60));
        let mut session = SolveSession::new(Arc::clone(&problem), config).with_backend_factory(
            Box::new(move |p, a, sigma, rho, _s| {
                let error = SolverError::Backend("injected".into());
                let inner = DirectLdltBackend::new(p, a, sigma, rho)?;
                Ok(Box::new(Faulty { inner, healthy: Arc::clone(&healthy), error }))
            }),
        );
        let report = session.step(Vec::new()).unwrap();
        assert_eq!(report.result.status, Status::Solved);
        assert_eq!(report.attempts.len(), 2);
        assert_eq!(report.attempts[0].status, Some(Status::NumericalError));
        assert!(report.attempts[1].resumed_from.is_some(), "{:?}", report.attempts);
        report.result.iterations
    };
    let base = SessionConfig::default()
        .with_settings(settings.clone())
        .with_retry(RetryPolicy::with_max_attempts(2));
    let warm = retry_iterations(base);
    let cold = retry_iterations(
        SessionConfig::default()
            .with_settings(settings)
            .with_retry(RetryPolicy::with_max_attempts(2))
            .with_cold_steps(),
    );
    assert_eq!(cold, warm, "the cold-step retry discarded its checkpoint");
}

#[test]
fn chaos_session_falls_back_once_and_stays_on_ldlt() {
    // With the guard off, every injected backend fault reaches the runtime:
    // the first step retries on direct LDLᵀ (replaying the cached ordering)
    // and the session keeps that configuration for good.
    let settings = Settings { guard: false, ..Settings::default() };
    let cache = Arc::new(CustomizationCache::new(2));
    let config = SessionConfig::default().with_settings(settings).with_cache(cache);
    let mut session = SolveSession::new(control::generate(3, 1), config).with_backend_factory(
        Box::new(|p, a, sigma, rho, s| {
            let inner = Box::new(CpuPcgBackend::new(p, a, sigma, rho, 1e-7, s.cg_max_iter));
            Ok(ChaosPlan::new(3).with_errors(1.0).wrap(inner))
        }),
    );

    let first = session.step(Vec::new()).unwrap();
    assert_eq!(first.result.status, Status::Solved);
    assert_eq!(first.attempts.len(), 2, "{:?}", first.attempts);
    assert!(first.attempts[0].error.as_deref().is_some_and(|e| e.contains("chaos")));
    assert!(!first.cache_hit);

    for seed in 2..=6u64 {
        let report = session.step(vec![mpc_bounds(3, seed)]).unwrap();
        assert_eq!(report.result.status, Status::Solved, "step {seed}");
        assert_eq!(report.attempts.len(), 1, "step {seed}: {:?}", report.attempts);
        assert!(report.cache_hit, "step {seed}");
    }
}

#[test]
fn non_finite_rho_is_rejected_before_and_after_the_first_step() {
    let mut session =
        SolveSession::new(control::generate(2, 1), SessionConfig::default().with_settings(tight()));
    // The first pass queues the update before any solver exists, the second
    // routes it through the solver the first step built.
    for _ in 0..2 {
        let rejected = session.step(vec![StepUpdate::Rho(f64::NAN)]);
        assert!(matches!(rejected, Err(SolverError::InvalidSetting(_))), "{rejected:?}");
        assert_eq!(session.step(Vec::new()).unwrap().result.status, Status::Solved);
    }
}
