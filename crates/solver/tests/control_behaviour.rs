//! Budget and checkpoint semantics of `solve_with_control`: cancellation,
//! deadlines landing in different solve phases, and checkpoint/resume
//! fidelity on the control benchmark family.

use std::time::{Duration, Instant};

use rsqp_problems::{generate, Domain};
use rsqp_solver::{
    BackendStats, CancelToken, Checkpoint, CpuPcgBackend, DirectLdltBackend, KktBackend, QpProblem,
    Settings, SolveControl, Solver, SolverError, Status,
};
use rsqp_sparse::CsrMatrix;

fn control_problem(size: usize) -> QpProblem {
    generate(Domain::Control, size, 7)
}

fn deterministic_settings() -> Settings {
    Settings {
        eps_abs: 1e-6,
        eps_rel: 1e-6,
        check_termination: 1,
        adaptive_rho: false,
        ..Default::default()
    }
}

/// A backend decorator that fires a side effect at the start of KKT solve
/// number `at_call` — the deterministic way to land a cancellation or a
/// deadline expiry in a chosen solve phase.
struct TriggerAt<F: FnMut()> {
    inner: Box<dyn KktBackend>,
    at_call: usize,
    calls: usize,
    effect: F,
}

impl<F: FnMut()> KktBackend for TriggerAt<F> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn update_rho(&mut self, rho: &[f64]) -> Result<(), SolverError> {
        self.inner.update_rho(rho)
    }

    fn set_cg_tolerance(&mut self, eps: f64) {
        self.inner.set_cg_tolerance(eps);
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
        self.calls += 1;
        if self.calls == self.at_call {
            (self.effect)();
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

fn solver_with_trigger<F: FnMut() + 'static>(
    problem: &QpProblem,
    settings: Settings,
    at_call: usize,
    effect: F,
) -> Solver {
    let mut effect = Some(effect);
    Solver::with_backend(problem, settings, &mut |p, a, sigma, rho, _s| {
        Ok(Box::new(TriggerAt {
            inner: Box::new(DirectLdltBackend::new(p, a, sigma, rho)?),
            at_call,
            calls: 0,
            effect: effect.take().expect("factory runs once"),
        }))
    })
    .expect("valid problem")
}

#[test]
fn pre_cancelled_token_stops_before_any_iteration() {
    let token = CancelToken::new();
    token.cancel();
    let mut solver = Solver::new(control_problem(3), deterministic_settings()).unwrap();
    let control = SolveControl::unbounded().with_cancel(token);
    let r = solver.solve_with_control(&control).unwrap();
    assert_eq!(r.status, Status::Cancelled);
    assert_eq!(r.iterations, 0);
}

#[test]
fn cancellation_mid_solve_stops_at_the_next_boundary() {
    let token = CancelToken::new();
    let tripper = token.clone();
    let mut solver =
        solver_with_trigger(&control_problem(3), deterministic_settings(), 5, move || {
            tripper.cancel();
        });
    let control = SolveControl::unbounded().with_cancel(token);
    let r = solver.solve_with_control(&control).unwrap();
    assert_eq!(r.status, Status::Cancelled);
    // The cancel lands during KKT solve #5; iteration 5 completes and the
    // boundary check before iteration 6 observes it.
    assert_eq!(r.iterations, 5);
    assert!(r.x.iter().all(|v| v.is_finite()));
}

#[test]
fn deadline_expiring_during_the_kkt_solve_is_caught_at_the_boundary() {
    // The first KKT solve sleeps well past the deadline: the iteration
    // still completes (cooperative, not preemptive) and the very next
    // boundary check reports the expiry.
    let problem = control_problem(3);
    let mut solver = solver_with_trigger(&problem, deterministic_settings(), 1, || {
        std::thread::sleep(Duration::from_millis(200));
    });
    let control =
        SolveControl::unbounded().with_deadline(Instant::now() + Duration::from_millis(50));
    let r = solver.solve_with_control(&control).unwrap();
    assert_eq!(r.status, Status::TimeLimitReached);
    assert_eq!(r.iterations, 1);
}

#[test]
fn deadline_expiring_before_polish_keeps_solved_but_skips_polish() {
    let problem = control_problem(3);
    let mut settings = deterministic_settings();
    settings.polish = true;

    // Control run: converges and polishes; records the convergence
    // iteration k* (deterministic: direct backend, fixed ρ).
    let mut reference = Solver::new(&problem, settings.clone()).unwrap();
    let ref_result = reference.solve().unwrap();
    assert_eq!(ref_result.status, Status::Solved);
    assert!(ref_result.polished, "reference run must polish for this test to mean anything");
    let k_star = ref_result.iterations;

    // Interrupted run: the *final* (convergence-producing) KKT solve burns
    // through the whole deadline. Convergence is still detected — the
    // iterate is a solution — so the status stays Solved, but the polish
    // step finds the budget exhausted and is skipped.
    let mut solver = solver_with_trigger(&problem, settings, k_star, || {
        std::thread::sleep(Duration::from_millis(900));
    });
    let control =
        SolveControl::unbounded().with_deadline(Instant::now() + Duration::from_millis(600));
    let r = solver.solve_with_control(&control).unwrap();
    assert_eq!(r.status, Status::Solved);
    assert_eq!(r.iterations, k_star);
    assert!(!r.polished, "polish must be skipped once the budget is spent");
}

#[test]
fn iter_cap_takes_the_minimum_with_max_iter() {
    let mut solver = Solver::new(
        control_problem(3),
        Settings {
            eps_abs: 1e-300,
            eps_rel: 1e-300,
            check_termination: 1,
            ..deterministic_settings()
        },
    )
    .unwrap();
    let r = solver.solve_with_control(&SolveControl::unbounded().with_iter_cap(11)).unwrap();
    assert_eq!(r.status, Status::MaxIterationsReached);
    assert_eq!(r.iterations, 11);
}

#[test]
fn settings_time_limit_still_applies_without_a_control() {
    let mut settings = deterministic_settings();
    settings.eps_abs = 1e-300;
    settings.eps_rel = 1e-300;
    settings.time_limit = Some(Duration::from_millis(30));
    // No iteration cap a fast host could reach inside the time limit.
    settings.max_iter = usize::MAX;
    let mut solver = Solver::new(control_problem(4), settings).unwrap();
    let t = Instant::now();
    let r = solver.solve().unwrap();
    assert_eq!(r.status, Status::TimeLimitReached);
    assert!(t.elapsed() < Duration::from_secs(10));
}

#[test]
fn warm_start_rejects_non_finite_entries() {
    let problem = control_problem(2);
    let n = problem.num_vars();
    let m = problem.num_constraints();
    let mut solver = Solver::new(&problem, Settings::default()).unwrap();
    let mut x = vec![0.0; n];
    x[0] = f64::NAN;
    let err = solver.warm_start(&x, &vec![0.0; m]).unwrap_err();
    assert!(err.to_string().contains("not finite"), "{err}");
    let mut y = vec![0.0; m];
    y[m - 1] = f64::INFINITY;
    let err = solver.warm_start(&vec![0.0; n], &y).unwrap_err();
    assert!(err.to_string().contains("not finite"), "{err}");
}

/// Checkpoint → serialize → restore → resume must land on the same answer
/// as the uninterrupted solve, across the control benchmark family.
#[test]
fn checkpoint_resume_matches_uninterrupted_on_control_family() {
    for size in [2usize, 3, 5] {
        let problem = control_problem(size);
        let settings = deterministic_settings();

        let mut uninterrupted = Solver::new(&problem, settings.clone()).unwrap();
        let full = uninterrupted.solve().unwrap();
        assert_eq!(full.status, Status::Solved, "size {size}");
        let k_star = full.iterations;
        assert!(k_star >= 4, "family member converges too fast to split (k*={k_star})");

        // Stop halfway, checkpoint through the byte format, resume on a
        // fresh solver.
        let split = k_star / 2;
        let mut first_half = Solver::new(&problem, settings.clone()).unwrap();
        let partial =
            first_half.solve_with_control(&SolveControl::unbounded().with_iter_cap(split)).unwrap();
        assert_eq!(partial.status, Status::MaxIterationsReached);
        let ckpt = Checkpoint::from_bytes(&first_half.checkpoint().to_bytes()).unwrap();
        assert_eq!(ckpt.iterations, split as u64);

        let mut resumed = Solver::new(&problem, settings.clone()).unwrap();
        resumed.restore(&ckpt).unwrap();
        let rest = resumed.solve().unwrap();
        assert_eq!(rest.status, Status::Solved, "size {size}");

        // Same solution (to solver tolerance)...
        for (a, b) in rest.x.iter().zip(&full.x) {
            assert!((a - b).abs() <= 1e-5 * (1.0 + b.abs()), "size {size}: {a} vs {b}");
        }
        assert!((rest.objective - full.objective).abs() <= 1e-6 * (1.0 + full.objective.abs()));
        // ...for the same total work, up to termination-check phase slack.
        let total = split + rest.iterations;
        assert!(
            total.abs_diff(k_star) <= 3,
            "size {size}: resumed total {total} vs uninterrupted {k_star}"
        );
        assert_eq!(resumed.total_iterations(), split as u64 + rest.iterations as u64);
    }
}

/// A checkpoint taken on a PCG-backed solver resumes on a direct-LDLᵀ
/// solver — the degradation path the runtime retry ladder takes.
#[test]
fn checkpoint_is_portable_across_backends() {
    let problem = control_problem(3);
    let settings = deterministic_settings();

    let mut pcg_solver =
        Solver::with_backend(&problem, settings.clone(), &mut |p, a, sigma, rho, _| {
            Ok(Box::new(CpuPcgBackend::new(p, a, sigma, rho)))
        })
        .unwrap();
    pcg_solver.solve_with_control(&SolveControl::unbounded().with_iter_cap(10)).unwrap();
    let ckpt = pcg_solver.checkpoint();

    let mut direct = Solver::new(&problem, settings).unwrap();
    direct.restore(&ckpt).unwrap();
    let r = direct.solve().unwrap();
    assert_eq!(r.status, Status::Solved);
}

#[test]
fn restore_rejects_mismatched_and_corrupt_checkpoints() {
    let problem = control_problem(3);
    let mut solver = Solver::new(&problem, Settings::default()).unwrap();
    let other = Solver::new(control_problem(2), Settings::default()).unwrap();
    let err = solver.restore(&other.checkpoint()).unwrap_err();
    assert!(err.to_string().contains("does not match"), "{err}");

    let mut bad = solver.checkpoint();
    bad.rho_bar = f64::NAN;
    assert!(solver.restore(&bad).is_err());
}
