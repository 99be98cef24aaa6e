//! A failed refresh of the dense-column elimination, on the CPU and on the
//! machine.
//!
//! The elimination needs every block of `K_RR` and its Schur complement
//! `S` positive definite. A non-convex `P` breaks that: here the first
//! slack of svm_0021 (an `R` variable, a 1×1 block) gets the curvature
//! `P[t₀, t₀] = −5`. The refresh then records the failed pivot, and every
//! KKT solve returns PCG's breakdown at iteration 0 without solving, for
//! the solver's guard ladder, until a refresh succeeds again.

use rsqp_arch::ArchConfig;
use rsqp_core::{fpga_solver, FpgaPcgBackend};
use rsqp_linsys::PcgError;
use rsqp_problems::{generate, Domain};
use rsqp_solver::{
    CpuPcgBackend, GuardReport, KktBackend, LinSysKind, QpProblem, Settings, Solver, SolverError,
    Status,
};
use rsqp_sparse::CsrMatrix;

const SIGMA: f64 = 1e-6;

/// The first slack variable `t₀` of svm_0021 (after its 21 features).
const T0: usize = 21;

fn wave(len: usize, phase: f64) -> Vec<f64> {
    (0..len).map(|i| ((i as f64) * 0.37 + phase).sin()).collect()
}

/// svm_0021 with `P[t₀, t₀] = value` added to the pattern of `P`.
fn svm_with_slack_curvature(value: f64) -> QpProblem {
    let qp = generate(Domain::Svm, 21, 1);
    let p = qp.p();
    let entries = (0..p.nrows()).flat_map(|i| {
        let (cols, vals) = p.row(i);
        cols.iter().zip(vals).map(move |(&j, &v)| (i, j, v))
    });
    let p = CsrMatrix::from_triplets(p.nrows(), p.ncols(), entries.chain([(T0, T0, value)]));
    QpProblem::new(p, qp.q().to_vec(), qp.a().clone(), qp.l().to_vec(), qp.u().to_vec()).unwrap()
}

/// The CPU and the machine backend for `qp`'s unscaled matrices at ρ = 0.1.
fn backends(qp: &QpProblem) -> [Box<dyn KktBackend>; 2] {
    let (p, a, rho) = (qp.p(), qp.a(), vec![0.1; qp.num_constraints()]);
    let cpu = CpuPcgBackend::new(p, a, SIGMA, &rho, 1e-7, 200);
    let (fpga, _) = FpgaPcgBackend::new(p, a, SIGMA, &rho, ArchConfig::baseline(8), 1e-7, 200);
    [Box::new(cpu), Box::new(fpga)]
}

/// One KKT solve from a zero warm start: `(x̃, z̃)` or the error.
fn solve(backend: &mut dyn KktBackend, n: usize, m: usize) -> Result<Vec<f64>, SolverError> {
    let (mut xt, mut zt) = (vec![0.0; n], vec![0.0; m]);
    backend.solve_kkt(
        &wave(n, 0.0),
        &wave(m, 1.0),
        &wave(m, 2.0),
        &wave(n, 3.0),
        &mut xt,
        &mut zt,
    )?;
    xt.extend(zt);
    Ok(xt)
}

/// The breakdown a solve on the indefinite slack returns: the slack's
/// block `σ − 5 + ρ·1² + ρ·1²` (its hinge row and its sign row).
fn expected_breakdown() -> PcgError {
    PcgError::Breakdown { iteration: 0, curvature: SIGMA - 5.0 + 0.1 + 0.1 }
}

#[test]
fn an_indefinite_block_is_a_breakdown_on_both_backends() {
    let qp = svm_with_slack_curvature(-5.0);
    let (n, m) = (qp.num_vars(), qp.num_constraints());
    for mut backend in backends(&qp) {
        let err = solve(backend.as_mut(), n, m).unwrap_err();
        match err {
            SolverError::Pcg(e) => assert_eq!(e, expected_breakdown(), "{}", backend.name()),
            other => panic!("{}: {other}", backend.name()),
        }
        let stats = backend.stats();
        assert_eq!((stats.kkt_solves, stats.spmv_evals), (0, 0), "{}: nothing ran", backend.name());
    }
}

#[test]
fn the_next_successful_refresh_restores_the_direct_solve() {
    // Built from valid data whose P pattern holds the slack's diagonal,
    // updated to the indefinite value (the same breakdown as a backend
    // built on it), and back (the same solve as a fresh backend).
    let valid = svm_with_slack_curvature(0.0);
    let indefinite = svm_with_slack_curvature(-5.0);
    let (n, m) = (valid.num_vars(), valid.num_constraints());
    let rho = vec![0.1; m];
    for (mut updated, mut fresh) in backends(&valid).into_iter().zip(backends(&valid)) {
        let name = updated.name().to_string();
        let before = solve(updated.as_mut(), n, m).unwrap();
        updated.update_matrices(indefinite.p(), indefinite.a(), &rho).unwrap();
        let err = solve(updated.as_mut(), n, m).unwrap_err();
        assert!(matches!(&err, SolverError::Pcg(e) if *e == expected_breakdown()), "{name}: {err}");
        updated.update_matrices(valid.p(), valid.a(), &rho).unwrap();
        let after = solve(updated.as_mut(), n, m).unwrap();
        assert_eq!(after, solve(fresh.as_mut(), n, m).unwrap(), "{name}");
        assert_eq!(after, before, "{name}");
        assert_eq!(updated.stats().cg_iterations, 0, "{name}: direct solves only");
    }
}

/// Status, ADMM iterations and guard report of a solve of the indefinite
/// problem under `settings`, on the CPU or on the machine.
fn solve_end_to_end(
    on_machine: bool,
    settings: Settings,
) -> Result<(Status, usize, GuardReport), SolverError> {
    let qp = svm_with_slack_curvature(-5.0);
    let result = if on_machine {
        fpga_solver(&qp, settings, ArchConfig::baseline(8))?.solver.solve()?
    } else {
        Solver::new(&qp, settings)?.solve()?
    };
    Ok((result.status, result.iterations, result.guard))
}

#[test]
fn the_guard_ladder_takes_the_breakdown_to_ldlt() {
    // Reset, tighten, then LDLᵀ, which cannot solve a non-convex problem
    // either.
    let report = GuardReport {
        faults_detected: 3,
        iterate_resets: 2,
        cg_tightenings: 1,
        backend_fallbacks: 1,
    };
    let cpu = Settings { linsys: LinSysKind::CpuPcg, ..Settings::default() };
    for (on_machine, settings) in [(false, cpu), (true, Settings::default())] {
        let outcome = solve_end_to_end(on_machine, settings.clone()).unwrap();
        assert_eq!(outcome, (Status::NumericalError, 75, report), "machine: {on_machine}");
        // Without the guard the solve returns the breakdown.
        match solve_end_to_end(on_machine, Settings { guard: false, ..settings }) {
            Err(SolverError::Pcg(PcgError::Breakdown { iteration: 0, curvature })) => {
                assert!(curvature < 0.0, "machine: {on_machine}: {curvature}");
            }
            other => panic!("machine: {on_machine}: {other:?}"),
        }
    }
}
