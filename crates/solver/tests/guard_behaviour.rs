//! End-to-end tests of the numerical guard and recovery ladder, using a
//! sabotage backend that corrupts KKT solves on demand.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use proptest::prelude::*;
use rsqp_linsys::LinsysError;
use rsqp_solver::{
    BackendStats, CpuPcgBackend, DirectLdltBackend, KktBackend, QpProblem, Settings, SolveResult,
    Solver, SolverError, Status,
};
use rsqp_sparse::CsrMatrix;

fn small_qp() -> QpProblem {
    let p = CsrMatrix::from_dense(&[vec![4.0, 1.0], vec![1.0, 2.0]]);
    let a = CsrMatrix::from_dense(&[vec![1.0, 1.0], vec![1.0, 0.0], vec![0.0, 1.0]]);
    QpProblem::new(p, vec![1.0, 1.0], a, vec![1.0, 0.0, 0.0], vec![1.0, 0.7, 0.7]).unwrap()
}

fn guarded_settings() -> Settings {
    Settings { check_termination: 5, ..Settings::default() }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Sabotage {
    PoisonNan,
    PoisonInf,
    Error,
}

/// The iterate `x` each KKT solve received.
type CallLog = Rc<RefCell<Vec<Vec<f64>>>>;

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
    fn solve_kkt(
        &mut self,
        x: &[f64],
        z: &[f64],
        y: &[f64],
        q: &[f64],
        xtilde: &mut [f64],
        ztilde: &mut [f64],
    ) -> Result<(), SolverError> {
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
        self.log.borrow_mut().push(x.to_vec());
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

/// Which real backend the sabotage wraps, and the name it reports: the two
/// CPU kinds under their own names, or the CPU-PCG kind posing as an
/// off-host device, to which the guard still offers the LDLᵀ fallback.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Inner {
    Ldlt,
    CpuPcg,
    Device,
}

fn sabotaged_solver(
    settings: Settings,
    mode: Sabotage,
    fire_at: usize,
    persistent: bool,
    inner: Inner,
) -> Solver {
    logged_sabotaged_solver(settings, mode, fire_at, persistent, inner).0
}

/// [`sabotaged_solver`] plus the backend's call log.
fn logged_sabotaged_solver(
    settings: Settings,
    mode: Sabotage,
    fire_at: usize,
    persistent: bool,
    kind: Inner,
) -> (Solver, CallLog) {
    let problem = small_qp();
    let log = CallLog::default();
    let solver = Solver::with_backend(&problem, settings, &mut |p, a, sigma, rho, s| {
        let (inner, name): (Box<dyn KktBackend>, &str) = match kind {
            Inner::Ldlt => {
                (Box::new(DirectLdltBackend::with_ordering(p, a, sigma, rho, s.ordering)?), "ldlt")
            }
            Inner::CpuPcg => (Box::new(CpuPcgBackend::new(p, a, sigma, rho)), "cpu-pcg"),
            Inner::Device => (Box::new(CpuPcgBackend::new(p, a, sigma, rho)), "device"),
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

/// Runs one sabotage on both CPU kinds, which solve through the same
/// factor and are both host factors to the guard, checks that they end
/// alike, and returns the LDLᵀ run's result.
fn on_both_cpu_kinds(mode: Sabotage, fire_at: usize, persistent: bool) -> SolveResult {
    let [ldlt, pcg] = [Inner::Ldlt, Inner::CpuPcg].map(|inner| {
        sabotaged_solver(guarded_settings(), mode, fire_at, persistent, inner).solve().unwrap()
    });
    assert_eq!(
        (ldlt.status, ldlt.iterations, ldlt.guard),
        (pcg.status, pcg.iterations, pcg.guard),
        "the two CPU kinds must take the same ladder"
    );
    ldlt
}

#[test]
fn one_shot_nan_is_absorbed_by_iterate_reset() {
    let r = on_both_cpu_kinds(Sabotage::PoisonNan, 3, false);
    assert_eq!(r.status, Status::Solved);
    assert!(r.x.iter().all(|v| v.is_finite()));
    assert!(r.guard.faults_detected >= 1, "guard never noticed the NaN");
    assert!(r.guard.iterate_resets >= 1);
    assert!((r.x[0] + r.x[1] - 1.0).abs() < 1e-2);
}

#[test]
fn persistent_backend_errors_degrade_to_direct_ldlt() {
    // An off-host backend is offered the host factor after one reset.
    let mut s = sabotaged_solver(guarded_settings(), Sabotage::Error, 2, true, Inner::Device);
    let r = s.solve().unwrap();
    assert_eq!(r.status, Status::Solved);
    assert_eq!(r.guard.backend_fallbacks, 1, "expected exactly one fallback: {:?}", r.guard);
    assert_eq!(s.backend_name(), "ldlt");
    assert!((r.x[0] + r.x[1] - 1.0).abs() < 1e-2);
}

#[test]
fn persistent_backend_errors_on_a_cpu_kind_end_in_numerical_error() {
    // Neither CPU kind is offered the fallback: it would rebuild the
    // factor the failing backend already solves through.
    let r = on_both_cpu_kinds(Sabotage::Error, 2, true);
    assert_eq!(r.status, Status::NumericalError);
    let g = r.guard;
    assert_eq!((g.faults_detected, g.iterate_resets, g.backend_fallbacks), (2, 1, 0), "{g:?}");
}

#[test]
fn persistent_corruption_on_direct_backend_reports_numerical_error() {
    let r = on_both_cpu_kinds(Sabotage::PoisonNan, 1, true);
    assert_eq!(r.status, Status::NumericalError);
    let g = r.guard;
    assert_eq!((g.faults_detected, g.iterate_resets, g.backend_fallbacks), (2, 1, 0), "{g:?}");
}

#[test]
fn disabled_guard_propagates_backend_errors() {
    let settings = Settings { guard: false, ..guarded_settings() };
    let mut s = sabotaged_solver(settings, Sabotage::Error, 2, true, Inner::CpuPcg);
    let err = s.solve().unwrap_err();
    assert!(matches!(err, SolverError::Backend(_)), "{err:?}");
}

/// A backend whose every KKT solve reports a non-convex `P`, counting its
/// solves.
struct NonConvexBackend {
    solves: Rc<Cell<usize>>,
}

impl KktBackend for NonConvexBackend {
    fn name(&self) -> &str {
        "cpu-pcg"
    }
    fn update_rho(&mut self, _rho: &[f64]) -> Result<(), SolverError> {
        Ok(())
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
    // reset and no LDLᵀ fallback.
    let solves = Rc::new(Cell::new(0));
    let mut s = Solver::with_backend(small_qp(), guarded_settings(), &mut |_, _, _, _, _| {
        Ok(Box::new(NonConvexBackend { solves: Rc::clone(&solves) }))
    })
    .unwrap();
    let err = s.solve().unwrap_err();
    assert_eq!(err, SolverError::Linsys(LinsysError::NonConvex { positive: 1, n: 2 }));
    assert_eq!(solves.get(), 1);
    assert_eq!(s.backend_name(), "cpu-pcg", "no fallback");
}

#[test]
fn disabled_guard_still_never_reports_solved_with_non_finite_x() {
    // Poison on the exact call whose result feeds the final termination
    // check; without the guard the residual math sees NaN (never converges),
    // and the final screen must keep Solved off the table.
    let settings = Settings { max_iter: 40, guard: false, ..guarded_settings() };
    let mut s = sabotaged_solver(settings, Sabotage::PoisonNan, 1, true, Inner::CpuPcg);
    match s.solve() {
        // Propagating a typed error is fine; claiming Solved is not.
        Ok(r) => assert_ne!(r.status, Status::Solved),
        Err(e) => assert!(matches!(e, SolverError::Numerical(_)), "{e:?}"),
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
/// `fire_at` (1-based), and checks that the solve after it starts from the
/// restored checkpoint: the initial iterate, since no residual check has
/// passed by then.
fn assert_next_solve_starts_from_the_checkpoint(mode: Sabotage, fire_at: usize) {
    let (mut solver, log) =
        logged_sabotaged_solver(guarded_settings(), mode, fire_at, false, Inner::CpuPcg);
    assert_eq!(solver.solve().unwrap().status, Status::Solved);
    let calls = log.borrow();
    assert!(calls.len() > fire_at, "the solve stopped at the fault");
    assert_eq!(calls[fire_at], calls[0], "x must be the restored checkpoint");
}

#[test]
fn failed_kkt_solve_restores_the_checkpoint() {
    assert_next_solve_starts_from_the_checkpoint(Sabotage::Error, 3);
}

#[test]
fn residual_anomaly_restores_the_checkpoint() {
    // Call 5 is the first residual check (`check_termination = 5`), so the
    // guard sees the NaN iterate there and restores the checkpoint.
    assert_next_solve_starts_from_the_checkpoint(Sabotage::PoisonNan, 5);
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
        inner in prop::sample::select(vec![Inner::Ldlt, Inner::CpuPcg, Inner::Device]),
    ) {
        let mut s = sabotaged_solver(guarded_settings(), mode, fire_at, persistent, inner);
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
