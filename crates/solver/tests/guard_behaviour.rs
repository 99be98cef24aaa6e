//! End-to-end tests of the numerical guard and recovery ladder, using a
//! sabotage backend that corrupts KKT solves on demand.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use proptest::prelude::*;
use rsqp_linsys::LinsysError;
use rsqp_solver::{
    BackendStats, CgTolerance, CpuPcgBackend, DirectLdltBackend, KktBackend, QpProblem, Settings,
    Solver, SolverError, Status,
};
use rsqp_sparse::CsrMatrix;

fn small_qp() -> QpProblem {
    let p = CsrMatrix::from_dense(&[vec![4.0, 1.0], vec![1.0, 2.0]]);
    let a = CsrMatrix::from_dense(&[vec![1.0, 1.0], vec![1.0, 0.0], vec![0.0, 1.0]]);
    QpProblem::new(p, vec![1.0, 1.0], a, vec![1.0, 0.0, 0.0], vec![1.0, 0.7, 0.7]).unwrap()
}

fn guarded_settings() -> Settings {
    Settings {
        check_termination: 5,
        cg_tolerance: CgTolerance::Fixed(1e-10),
        ..Settings::default()
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Sabotage {
    PoisonNan,
    PoisonInf,
    Error,
}

/// What one KKT solve received and returned.
#[derive(Debug, Clone)]
struct KktCall {
    /// The iterate `x`.
    x: Vec<f64>,
    /// `xtilde` on entry: the warm start.
    start: Vec<f64>,
    /// `xtilde` on return.
    solution: Vec<f64>,
}

type CallLog = Rc<RefCell<Vec<KktCall>>>;

/// Wraps a real backend, logs every call, and corrupts `solve_kkt` output
/// from call `fire_at` on (one-shot unless `persistent`).
struct SabotageBackend {
    inner: Box<dyn KktBackend>,
    name: String,
    mode: Sabotage,
    fire_at: usize,
    persistent: bool,
    calls: usize,
    log: CallLog,
}

impl SabotageBackend {
    fn should_fire(&mut self) -> bool {
        self.calls += 1;
        self.calls == self.fire_at || (self.persistent && self.calls >= self.fire_at)
    }
}

impl KktBackend for SabotageBackend {
    fn name(&self) -> &str {
        &self.name
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
        let start = xtilde.to_vec();
        let fire = self.should_fire();
        let result = if fire && self.mode == Sabotage::Error {
            // A failing device may leave a partial iterate behind.
            xtilde.fill(f64::NAN);
            Err(SolverError::Backend("injected device fault".into()))
        } else {
            self.inner.solve_kkt(x, z, y, q, xtilde, ztilde)
        };
        if fire && result.is_ok() {
            xtilde[0] = match self.mode {
                Sabotage::PoisonNan => f64::NAN,
                Sabotage::PoisonInf => f64::INFINITY,
                Sabotage::Error => unreachable!(),
            };
        }
        self.log.borrow_mut().push(KktCall { x: x.to_vec(), start, solution: xtilde.to_vec() });
        result
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

fn sabotaged_solver(
    settings: Settings,
    mode: Sabotage,
    fire_at: usize,
    persistent: bool,
    direct: bool,
) -> Solver {
    logged_sabotaged_solver(settings, mode, fire_at, persistent, direct).0
}

/// [`sabotaged_solver`] plus the backend's call log.
fn logged_sabotaged_solver(
    settings: Settings,
    mode: Sabotage,
    fire_at: usize,
    persistent: bool,
    direct: bool,
) -> (Solver, CallLog) {
    let problem = small_qp();
    let log = CallLog::default();
    let solver = Solver::with_backend(&problem, settings, &mut |p, a, sigma, rho, s| {
        let (inner, name): (Box<dyn KktBackend>, &str) = if direct {
            (Box::new(DirectLdltBackend::with_ordering(p, a, sigma, rho, s.ordering)?), "ldlt")
        } else {
            (Box::new(CpuPcgBackend::new(p, a, sigma, rho)), "cpu-pcg")
        };
        Ok(Box::new(SabotageBackend {
            inner,
            name: name.to_string(),
            mode,
            fire_at,
            persistent,
            calls: 0,
            log: Rc::clone(&log),
        }))
    })
    .unwrap();
    (solver, log)
}

#[test]
fn one_shot_nan_is_absorbed_by_iterate_reset() {
    let mut s = sabotaged_solver(guarded_settings(), Sabotage::PoisonNan, 3, false, false);
    let r = s.solve().unwrap();
    assert_eq!(r.status, Status::Solved);
    assert!(r.x.iter().all(|v| v.is_finite()));
    assert!(r.guard.faults_detected >= 1, "guard never noticed the NaN");
    assert!(r.guard.iterate_resets >= 1);
    assert!((r.x[0] + r.x[1] - 1.0).abs() < 1e-2);
}

#[test]
fn persistent_backend_errors_degrade_to_direct_ldlt() {
    let mut s = sabotaged_solver(guarded_settings(), Sabotage::Error, 2, true, false);
    let r = s.solve().unwrap();
    assert_eq!(r.status, Status::Solved);
    assert_eq!(r.guard.backend_fallbacks, 1, "expected exactly one fallback: {:?}", r.guard);
    assert_eq!(s.backend_name(), "ldlt");
    assert!((r.x[0] + r.x[1] - 1.0).abs() < 1e-2);
}

#[test]
fn persistent_corruption_on_direct_backend_reports_numerical_error() {
    // The backend claims to be the direct solver, so the fallback rung is
    // unavailable and the ladder must exhaust into NumericalError.
    let mut s = sabotaged_solver(guarded_settings(), Sabotage::PoisonNan, 1, true, true);
    let r = s.solve().unwrap();
    assert_eq!(r.status, Status::NumericalError);
    assert!(r.guard.faults_detected >= 2);
}

#[test]
fn disabled_guard_propagates_backend_errors() {
    let settings = Settings { guard: false, ..guarded_settings() };
    let mut s = sabotaged_solver(settings, Sabotage::Error, 2, true, false);
    let err = s.solve().unwrap_err();
    assert!(matches!(err, SolverError::Backend(_)), "{err:?}");
}

/// A backend whose every KKT solve reports a non-convex `P`, counting its
/// solves and the CG tolerances it is given.
struct NonConvexBackend {
    solves: Rc<Cell<usize>>,
    tightenings: Rc<Cell<usize>>,
}

impl KktBackend for NonConvexBackend {
    fn name(&self) -> &str {
        "cpu-pcg"
    }
    fn update_rho(&mut self, _rho: &[f64]) -> Result<(), SolverError> {
        Ok(())
    }
    fn set_cg_tolerance(&mut self, _eps: f64) {
        self.tightenings.set(self.tightenings.get() + 1);
    }
    fn solve_kkt(
        &mut self,
        _x: &[f64],
        _z: &[f64],
        _y: &[f64],
        _q: &[f64],
        _xtilde: &mut [f64],
        _ztilde: &mut [f64],
    ) -> Result<(), SolverError> {
        self.solves.set(self.solves.get() + 1);
        Err(LinsysError::NonConvex { positive: 1, n: 2 }.into())
    }
    fn update_matrices(
        &mut self,
        _p: &CsrMatrix,
        _a: &CsrMatrix,
        _rho: &[f64],
    ) -> Result<(), SolverError> {
        Ok(())
    }
    fn stats(&self) -> BackendStats {
        BackendStats { kkt_solves: self.solves.get(), ..BackendStats::default() }
    }
}

#[test]
fn a_non_convex_p_ends_the_solve_without_climbing_the_ladder() {
    // No rung changes P: the first error is returned, with no iterate
    // reset, no CG tightening and no LDLᵀ fallback (which, on this convex
    // problem, would build and go on to solve it).
    let (solves, tightenings) = (Rc::new(Cell::new(0)), Rc::new(Cell::new(0)));
    let mut s = Solver::with_backend(small_qp(), guarded_settings(), &mut |_, _, _, _, _| {
        Ok(Box::new(NonConvexBackend {
            solves: Rc::clone(&solves),
            tightenings: Rc::clone(&tightenings),
        }))
    })
    .unwrap();
    let err = s.solve().unwrap_err();
    assert_eq!(err, SolverError::Linsys(LinsysError::NonConvex { positive: 1, n: 2 }));
    assert_eq!((solves.get(), tightenings.get()), (1, 0));
    assert_eq!(s.backend_name(), "cpu-pcg", "no fallback");
}

#[test]
fn disabled_guard_still_never_reports_solved_with_non_finite_x() {
    // Poison on the exact call whose result feeds the final termination
    // check; without the guard the residual math sees NaN (never converges),
    // and the final screen must keep Solved off the table.
    let settings = Settings { max_iter: 40, guard: false, ..guarded_settings() };
    let mut s = sabotaged_solver(settings, Sabotage::PoisonNan, 1, true, false);
    match s.solve() {
        // Propagating a typed error is fine; claiming Solved is not.
        Ok(r) => assert_ne!(r.status, Status::Solved),
        Err(e) => assert!(matches!(e, SolverError::Pcg(_) | SolverError::Numerical(_)), "{e:?}"),
    }
}

#[test]
fn clean_solves_report_no_interventions() {
    let problem = small_qp();
    let mut s = Solver::new(&problem, guarded_settings()).unwrap();
    let r = s.solve().unwrap();
    assert_eq!(r.status, Status::Solved);
    assert!(!r.guard.intervened(), "spurious guard activity: {:?}", r.guard);
}

/// Solves `small_qp` on CPU PCG with a one-shot sabotage at call
/// `fire_at` and returns the status with the call log.
fn probed_solve(mode: Sabotage, fire_at: usize) -> (Status, Vec<KktCall>) {
    let (mut solver, log) =
        logged_sabotaged_solver(guarded_settings(), mode, fire_at, false, false);
    let status = solver.solve().unwrap().status;
    let calls = log.borrow().clone();
    (status, calls)
}

/// The solve after the poisoned one (call `fire_at`, 1-based) starts from
/// the restored `x` — the initial iterate, since no residual check has
/// passed by then.
fn assert_warm_start_restored(calls: &[KktCall], fire_at: usize) {
    assert!(calls.len() > fire_at, "the solve stopped at the fault");
    let next = &calls[fire_at];
    assert!(next.start.iter().all(|v| v.is_finite()), "poisoned warm start: {:?}", next.start);
    assert_eq!(next.start, next.x, "the warm start must be the restored x");
    assert_eq!(next.x, calls[0].x, "x must be the restored checkpoint");
}

#[test]
fn failed_kkt_solve_does_not_poison_the_next_warm_start() {
    let (status, calls) = probed_solve(Sabotage::Error, 3);
    assert_eq!(status, Status::Solved);
    assert_warm_start_restored(&calls, 3);
}

#[test]
fn residual_anomaly_restore_resets_the_warm_start() {
    // Call 5 is the first residual check (`check_termination = 5`), so the
    // guard sees the NaN iterate there and restores the checkpoint.
    let (status, calls) = probed_solve(Sabotage::PoisonNan, 5);
    assert_eq!(status, Status::Solved);
    assert_warm_start_restored(&calls, 5);
}

#[test]
fn warm_start_carries_the_previous_solution_within_a_solve() {
    let (status, calls) = probed_solve(Sabotage::Error, usize::MAX);
    assert_eq!(status, Status::Solved);
    assert_eq!(calls[0].start, calls[0].x, "a solve starts from x");
    for pair in calls.windows(2) {
        assert_eq!(pair[1].start, pair[0].solution, "then from the previous x̃");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Whatever corruption is injected, wherever: the solver must return a
    // diagnosable status without panicking, and a `Solved` status implies
    // an entirely finite solution.
    #[test]
    fn corrupted_solves_always_terminate_diagnosably(
        fire_at in 1usize..40,
        mode in prop::sample::select(vec![
            Sabotage::PoisonNan,
            Sabotage::PoisonInf,
            Sabotage::Error,
        ]),
        persistent in any::<bool>(),
        direct in any::<bool>(),
    ) {
        let mut s = sabotaged_solver(guarded_settings(), mode, fire_at, persistent, direct);
        let r = s.solve().unwrap();
        prop_assert!(
            matches!(
                r.status,
                Status::Solved
                    | Status::MaxIterationsReached
                    | Status::NumericalError
            ),
            "unexpected status {:?}",
            r.status
        );
        if r.status == Status::Solved {
            prop_assert!(r.x.iter().all(|v| v.is_finite()), "Solved with non-finite x");
            prop_assert!(r.y.iter().all(|v| v.is_finite()), "Solved with non-finite y");
            prop_assert!(r.z.iter().all(|v| v.is_finite()), "Solved with non-finite z");
        }
    }
}
