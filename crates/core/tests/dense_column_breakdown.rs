//! A failed refresh of `M⁻¹`, on the CPU and on the machine.
//!
//! `M⁻¹` is fixed by `A`'s pattern: the dense-column elimination needs
//! every block of `K_RR` and its Schur complement `S` positive definite,
//! the dense-row correction needs `C = R_S⁻¹ + A_S D'⁻¹ A_Sᵀ` positive
//! definite, and the factor of `K` needs `K` itself positive definite. A
//! non-convex `P` breaks any of them. Three inputs:
//!
//! - svm_0021 with `P[t₀, t₀] = −5` on its first slack `t₀` (an `R`
//!   variable, a 1×1 block);
//! - portfolio_0005 with `P[0, 0] = −0.1000011` on its first asset, whose
//!   only row outside the dense rows is its box row, so at ρ = 0.1
//!   `D'₀ = −0.1000011 + σ + ρ < 0` and `C` fails to factor (`P` stays
//!   diagonal, so its KKT solve is the augmented dense-row solve);
//! - control_0004 with `P[0, 0] = −1000` on its first state, so `K` is
//!   indefinite and its LDLᵀ meets a negative pivot.
//!
//! The refresh (or, for the factor of `K`, the refactorization at the
//! next KKT solve) then records the failed pivot, and every KKT solve
//! returns PCG's breakdown at iteration 0 without solving — no SpMV, no
//! machine run — for the solver's guard ladder, until a refresh succeeds
//! again.

use std::cell::RefCell;
use std::rc::Rc;

use rsqp_arch::{ArchConfig, Machine};
use rsqp_core::{fpga_solver, FpgaPcgBackend};
use rsqp_linsys::PcgError;
use rsqp_problems::{generate, Domain};
use rsqp_solver::{
    CpuPcgBackend, GuardReport, KktBackend, LinSysKind, QpProblem, Settings, Solver, SolverError,
    Status,
};
use rsqp_sparse::CsrMatrix;

const SIGMA: f64 = 1e-6;

/// `(domain, size, variable j, indefinite P[j, j])`: svm_0021's first
/// slack `t₀` (after its 21 features), portfolio_0005's first asset and
/// control_0004's first state.
const CASES: [(Domain, usize, usize, f64); 3] = [
    (Domain::Svm, 21, 21, -5.0),
    (Domain::Portfolio, 5, 0, -0.1000011),
    (Domain::Control, 4, 0, -1000.0),
];

fn wave(len: usize, phase: f64) -> Vec<f64> {
    (0..len).map(|i| ((i as f64) * 0.37 + phase).sin()).collect()
}

/// The `(domain, size)` instance with `P[j, j] = value`, in the pattern of
/// `P` (where it replaces the generated entry).
fn with_curvature(domain: Domain, size: usize, j: usize, value: f64) -> QpProblem {
    let qp = generate(domain, size, 1);
    let p = qp.p();
    let entries = (0..p.nrows()).flat_map(|i| {
        let (cols, vals) = p.row(i);
        cols.iter().zip(vals).filter(move |(&c, _)| (i, c) != (j, j)).map(move |(&c, &v)| (i, c, v))
    });
    let p = CsrMatrix::from_triplets(p.nrows(), p.ncols(), entries.chain([(j, j, value)]));
    QpProblem::new(p, qp.q().to_vec(), qp.a().clone(), qp.l().to_vec(), qp.u().to_vec()).unwrap()
}

/// The valid and the indefinite instance of a case: the generated `P[j, j]`
/// (zero on the svm slack, kept in the pattern) and the indefinite one.
fn instances((domain, size, j, value): (Domain, usize, usize, f64)) -> [QpProblem; 2] {
    let generated = generate(domain, size, 1).p().get(j, j);
    [with_curvature(domain, size, j, generated), with_curvature(domain, size, j, value)]
}

/// The CPU and the machine backend for `qp`'s unscaled matrices at ρ = 0.1,
/// with the machine.
fn backends_and_machine(qp: &QpProblem) -> ([Box<dyn KktBackend>; 2], Rc<RefCell<Machine>>) {
    let (p, a, rho) = (qp.p(), qp.a(), vec![0.1; qp.num_constraints()]);
    let cpu = CpuPcgBackend::new(p, a, SIGMA, &rho, 1e-7, 200);
    let (fpga, machine) =
        FpgaPcgBackend::new(p, a, SIGMA, &rho, ArchConfig::baseline(8), 1e-7, 200);
    ([Box::new(cpu), Box::new(fpga)], machine)
}

/// The CPU and the machine backend for `qp`'s unscaled matrices at ρ = 0.1.
fn backends(qp: &QpProblem) -> [Box<dyn KktBackend>; 2] {
    backends_and_machine(qp).0
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

/// The breakdown a solve of `case`'s indefinite instance returns on both
/// backends: at iteration 0, with the failed pivot as the curvature. On
/// the svm slack that is its block `σ − 5 + ρ·1² + ρ·1²` (its hinge row
/// and its sign row); on the portfolio a pivot of `C`, on control one of
/// `K`'s LDLᵀ.
fn assert_breakdown(case: (Domain, usize, usize, f64), err: &SolverError, backend: &str) {
    let Domain::Svm = case.0 else {
        assert!(
            matches!(err, SolverError::Pcg(PcgError::Breakdown { iteration: 0, curvature })
                if *curvature <= 0.0),
            "{:?} on {backend}: {err}",
            case.0
        );
        return;
    };
    let expected = PcgError::Breakdown { iteration: 0, curvature: SIGMA - 5.0 + 0.1 + 0.1 };
    assert!(matches!(err, SolverError::Pcg(e) if *e == expected), "svm on {backend}: {err}");
}

#[test]
fn an_indefinite_block_is_a_breakdown_on_both_backends() {
    for case in CASES {
        let [_, qp] = instances(case);
        let (n, m) = (qp.num_vars(), qp.num_constraints());
        let (backends, device) = backends_and_machine(&qp);
        let [cpu, machine] = backends.map(|mut backend| {
            let err = solve(backend.as_mut(), n, m).unwrap_err();
            assert_breakdown(case, &err, backend.name());
            let stats = backend.stats();
            assert_eq!(
                (stats.kkt_solves, stats.spmv_evals),
                (0, 0),
                "{}: nothing ran",
                backend.name()
            );
            err.to_string()
        });
        assert_eq!(cpu, machine, "{:?}: one breakdown", case.0);
        assert_eq!(device.borrow().stats().cycles, 0, "{:?}: the machine never ran", case.0);
    }
}

#[test]
fn the_next_successful_refresh_restores_the_kkt_solve() {
    // Built from valid data whose P pattern holds the diagonal entry,
    // updated to the indefinite value (the same breakdown as a backend
    // built on it), and back (the same solve as a fresh backend).
    for case in CASES {
        let [valid, indefinite] = instances(case);
        let (n, m) = (valid.num_vars(), valid.num_constraints());
        let rho = vec![0.1; m];
        for (mut updated, mut fresh) in backends(&valid).into_iter().zip(backends(&valid)) {
            let name = format!("{:?} on {}", case.0, updated.name());
            let before = solve(updated.as_mut(), n, m).unwrap();
            let cg = updated.stats().cg_iterations;
            updated.update_matrices(indefinite.p(), indefinite.a(), &rho).unwrap();
            let err = solve(updated.as_mut(), n, m).unwrap_err();
            assert_breakdown(case, &err, &name);
            updated.update_matrices(valid.p(), valid.a(), &rho).unwrap();
            let after = solve(updated.as_mut(), n, m).unwrap();
            assert_eq!(after, solve(fresh.as_mut(), n, m).unwrap(), "{name}");
            assert_eq!(after, before, "{name}");
            // All three solve directly: the svm by the dense-column
            // elimination, the portfolio in the augmented dense-row form,
            // control through the factor of K.
            assert_eq!((cg, updated.stats().cg_iterations), (0, 0), "{name}");
        }
    }
}

/// Status, ADMM iterations and guard report of a solve of `qp` under
/// `settings`, on the CPU or on the machine.
fn solve_end_to_end(
    qp: &QpProblem,
    on_machine: bool,
    settings: Settings,
) -> Result<(Status, usize, GuardReport), SolverError> {
    let result = if on_machine {
        fpga_solver(qp, settings, ArchConfig::baseline(8))?.solver.solve()?
    } else {
        Solver::new(qp, settings)?.solve()?
    };
    Ok((result.status, result.iterations, result.guard))
}

#[test]
fn the_guard_ladder_takes_the_breakdown_to_ldlt() {
    // Reset, tighten, then LDLᵀ, which cannot solve a non-convex problem
    // either. The portfolio and the control problem run unscaled (at the
    // default ρ = 0.1 of the portfolio's box rows): Ruiz scaling lifts the
    // portfolio's D'₀ above zero and leaves control's K positive definite.
    let report = GuardReport {
        faults_detected: 3,
        iterate_resets: 2,
        cg_tightenings: 1,
        backend_fallbacks: 1,
    };
    let scaled = Settings::default().scaling_iters;
    for (case, scaling_iters, admm) in
        [(CASES[0], scaled, 75), (CASES[1], 0, 25), (CASES[2], 0, 125)]
    {
        let [_, qp] = instances(case);
        let machine = Settings { scaling_iters, ..Settings::default() };
        let cpu = Settings { linsys: LinSysKind::CpuPcg, ..machine.clone() };
        let mut curvatures = Vec::new();
        for (on_machine, settings) in [(false, cpu), (true, machine)] {
            let name = format!("{:?}, machine: {on_machine}", case.0);
            let outcome = solve_end_to_end(&qp, on_machine, settings.clone()).unwrap();
            assert_eq!(outcome, (Status::NumericalError, admm, report), "{name}");
            // Without the guard the solve returns the breakdown.
            match solve_end_to_end(&qp, on_machine, Settings { guard: false, ..settings }) {
                Err(SolverError::Pcg(PcgError::Breakdown { iteration: 0, curvature })) => {
                    assert!(curvature < 0.0, "{name}: {curvature}");
                    curvatures.push(curvature);
                }
                other => panic!("{name}: {other:?}"),
            }
        }
        assert_eq!(curvatures[0], curvatures[1], "{:?}: one pivot", case.0);
    }
}
