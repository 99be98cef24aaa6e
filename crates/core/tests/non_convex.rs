//! OSQP's non-convexity check on the one KKT factor, on the CPU and on the
//! machine.
//!
//! The quasi-definite KKT matrix `[[P + σI, Aᵀ], [A, −ρ⁻¹]]` has exactly
//! `n` positive pivots when `P + σI + Aᵀ diag(ρ) A` is positive definite.
//! A factorization with any other count is `LinsysError::NonConvex`, an
//! error of the KKT solve that forms or refactors the factor and of every
//! later one, until an update refactors it — without running the machine.
//! Three inputs, each with one indefinite diagonal entry of `P`:
//!
//! - svm_0021 with `P[t₀, t₀] = −5` on its first slack `t₀`, whose block of
//!   `K` is `σ − 5 + ρ·1² + ρ·1² < 0`;
//! - portfolio_0005 with `P[0, 0] = −0.1000011` on its first asset; its
//!   factor and budget rows (equalities, at `100ρ`) add more than that to
//!   `K`'s diagonal, so `K` stays positive definite and the check passes;
//! - control_0004 with `P[0, 0] = −1000` on its first state, so `K` is
//!   indefinite.

use std::cell::RefCell;
use std::rc::Rc;

use rsqp_arch::{ArchConfig, Machine};
use rsqp_core::{fpga_solver, FpgaPcgBackend};
use rsqp_linsys::LinsysError;
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
    let cpu = CpuPcgBackend::new(p, a, SIGMA, &rho);
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

/// The error a solve of an indefinite instance returns: the factor's
/// positive pivots, one short of `n` (`None` where the check passes).
fn expected(qp: &QpProblem, case: (Domain, usize, usize, f64)) -> Option<SolverError> {
    let n = qp.num_vars();
    (case.0 != Domain::Portfolio)
        .then(|| SolverError::Linsys(LinsysError::NonConvex { positive: n - 1, n }))
}

#[test]
fn a_non_convex_p_fails_the_factor_on_both_backends() {
    for case in CASES {
        let [_, qp] = instances(case);
        let (n, m) = (qp.num_vars(), qp.num_constraints());
        let (backends, device) = backends_and_machine(&qp);
        let want = expected(&qp, case);
        for mut backend in backends {
            let name = format!("{:?} on {}", case.0, backend.name());
            let got = solve(backend.as_mut(), n, m);
            match &want {
                Some(err) => {
                    assert_eq!(got.as_ref().unwrap_err(), err, "{name}");
                    // Kept, not refactored, until an update.
                    assert_eq!(solve(backend.as_mut(), n, m).unwrap_err(), *err, "{name}");
                    let stats = backend.stats();
                    assert_eq!((stats.kkt_solves, stats.factorizations), (0, 1), "{name}");
                }
                None => assert!(got.is_ok(), "{name}: {got:?}"),
            }
        }
        if want.is_some() {
            assert_eq!(device.borrow().stats().cycles, 0, "{:?}: the machine never ran", case.0);
        }
    }
}

#[test]
fn the_next_update_restores_the_kkt_solve() {
    // Built from valid data whose P pattern holds the diagonal entry,
    // updated to the indefinite value (the same error as a backend built
    // on it), and back (the same solve as a fresh backend).
    for case in CASES {
        let [valid, indefinite] = instances(case);
        let (n, m) = (valid.num_vars(), valid.num_constraints());
        let rho = vec![0.1; m];
        for (mut updated, mut fresh) in backends(&valid).into_iter().zip(backends(&valid)) {
            let name = format!("{:?} on {}", case.0, updated.name());
            let before = solve(updated.as_mut(), n, m).unwrap();
            updated.update_matrices(indefinite.p(), indefinite.a(), &rho).unwrap();
            let got = solve(updated.as_mut(), n, m);
            assert_eq!(got.err(), expected(&indefinite, case), "{name}");
            updated.update_matrices(valid.p(), valid.a(), &rho).unwrap();
            let after = solve(updated.as_mut(), n, m).unwrap();
            assert_eq!(after, solve(fresh.as_mut(), n, m).unwrap(), "{name}");
            assert_eq!(after, before, "{name}");
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
fn the_guard_ladder_sees_the_check_and_ldlt_refuses_the_problem() {
    // On svm and control the check fails the first KKT solve of the CPU
    // kind and of the machine. The error is not recoverable (no rung
    // changes `P`), so the ladder does not start: it ends the solve at
    // once, as it ends `Solver::new` on the LDLᵀ kind. The portfolio
    // passes the check; its iterates diverge, and the ladder ends in
    // `NumericalError` on both kinds, the machine taking the CPU's steps.
    // The portfolio and the control problem run unscaled (at the default
    // ρ = 0.1 of the portfolio's box rows).
    let diverged = |faults, resets, fallbacks| GuardReport {
        faults_detected: faults,
        iterate_resets: resets,
        cg_tightenings: 1,
        backend_fallbacks: fallbacks,
    };
    for case in CASES {
        let [_, qp] = instances(case);
        let scaling_iters =
            if case.0 == Domain::Svm { Settings::default().scaling_iters } else { 0 };
        let ldlt = Settings { scaling_iters, ..Settings::default() };
        let cpu = Settings { linsys: LinSysKind::CpuPcg, ..ldlt.clone() };
        let refused = expected(&qp, case);
        for (on_machine, settings) in [(false, cpu), (true, ldlt.clone())] {
            let name = format!("{:?}, machine: {on_machine}", case.0);
            let got = solve_end_to_end(&qp, on_machine, settings.clone());
            match &refused {
                Some(err) => assert_eq!(got.unwrap_err(), *err, "{name}"),
                None => assert_eq!(
                    got.unwrap(),
                    (Status::NumericalError, 100, diverged(4, 3, 1)),
                    "{name}"
                ),
            }
        }
        let got = solve_end_to_end(&qp, false, ldlt);
        match refused {
            Some(err) => assert_eq!(got.unwrap_err(), err, "{:?} on LDLᵀ", case.0),
            None => assert_eq!(
                got.unwrap(),
                (Status::NumericalError, 75, diverged(3, 2, 0)),
                "{:?} on LDLᵀ",
                case.0
            ),
        }
    }
}
