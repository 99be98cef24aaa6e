//! The dense rows of `A` in OSQP's augmented form, on the CPU and on the
//! simulated machine.
//!
//! A problem whose `K_R = P + σI + A_Rᵀ R_R A_R` is diagonal (`P` diagonal,
//! at most one entry in every row outside the dense rows `S`) — every
//! portfolio — solves its KKT system directly: `ν = C⁻¹(A_S D'⁻¹b − u_S)`,
//! `x̃ = D'⁻¹(b − A_Sᵀν)`, `z̃ = A x̃` outside `S` and `u_S + ρ_S⁻¹∘ν` on it,
//! with no CG iteration. These tests pin, on every small-suite portfolio,
//! the relative residual of the full KKT system (Eq. 2) of both backends'
//! `(x̃, z̃)`, which are the same bits, and that a dense-row problem over a
//! non-diagonal `K_R`, the budget QP, still runs the PCG loop with the
//! counts it had before the augmented solve existed.

use rsqp::arch::ArchConfig;
use rsqp::core::{fpga_solver, FpgaPcgBackend};
use rsqp::linsys::KktPrecond;
use rsqp::problems::random::generate_budget;
use rsqp::problems::{small_suite, Domain};
use rsqp::solver::{CpuPcgBackend, KktBackend, LinSysKind, QpProblem, Settings, Solver, Status};

const SIGMA: f64 = 1e-6;
/// The relative residual every augmented KKT solve must reach.
const RESIDUAL_PIN: f64 = 1e-10;

fn wave(len: usize, phase: f64) -> Vec<f64> {
    (0..len).map(|i| ((i as f64) * 0.37 + phase).sin()).collect()
}

/// ρ as the solver sets it at its default: 0.1, and 100 on equality rows.
fn solver_rho(qp: &QpProblem) -> Vec<f64> {
    qp.l().iter().zip(qp.u()).map(|(l, u)| if l == u { 100.0 } else { 0.1 }).collect()
}

/// The KKT-solve kind of `qp` at the solver's ρ.
fn precond(qp: &QpProblem) -> KktPrecond {
    let a = qp.a();
    KktPrecond::new(qp.p(), a, &a.transpose(), SIGMA, &solver_rho(qp))
}

fn norm(v: &[f64]) -> f64 {
    v.iter().map(|e| e * e).sum::<f64>().sqrt()
}

/// Solves one KKT system of `qp` on the CPU and on the machine, checks that
/// both return the same bits with no CG iteration and no factorization,
/// and returns the relative residual of the full KKT system
///
/// ```text
/// [P + σI   Aᵀ  ] [x̃]   [σx − q     ]
/// [A      −R⁻¹  ] [ν ] = [z − R⁻¹y   ],   ν = y + R(z̃ − z).
/// ```
fn augmented_residual(qp: &QpProblem) -> f64 {
    let (p, a) = (qp.p(), qp.a());
    let (n, m) = (qp.num_vars(), qp.num_constraints());
    let rho = solver_rho(qp);
    let (x, z, y, q) = (wave(n, 0.0), wave(m, 1.0), wave(m, 2.0), wave(n, 3.0));
    let config = ArchConfig::baseline(32);
    let backends: [Box<dyn KktBackend>; 2] = [
        Box::new(CpuPcgBackend::new(p, a, SIGMA, &rho, 1e-7, 200)),
        Box::new(FpgaPcgBackend::new(p, a, SIGMA, &rho, config, 1e-7, 200).0),
    ];
    let mut solutions = Vec::new();
    for mut backend in backends {
        let (mut xt, mut zt) = (vec![f64::NAN; n], vec![0.0; m]);
        backend.solve_kkt(&x, &z, &y, &q, &mut xt, &mut zt).unwrap();
        let stats = backend.stats();
        assert_eq!((stats.cg_iterations, stats.factorizations), (0, 0), "{}", qp.name());
        solutions.push((xt, zt));
    }
    let bits = |v: &[f64]| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
    let [(xt, zt), (xm, zm)] = <[_; 2]>::try_from(solutions).unwrap();
    assert_eq!(bits(&xt), bits(&xm), "{}: x̃ on the CPU and the machine", qp.name());
    assert_eq!(bits(&zt), bits(&zm), "{}: z̃ on the CPU and the machine", qp.name());

    let nu: Vec<f64> = (0..m).map(|i| y[i] + rho[i] * (zt[i] - z[i])).collect();
    // (P + σI) x̃ + Aᵀν − (σx − q), and A x̃ − R⁻¹ν − (z − R⁻¹y).
    let mut r1: Vec<f64> = (0..n).map(|j| SIGMA * xt[j] - (SIGMA * x[j] - q[j])).collect();
    p.spmv_acc(1.0, &xt, &mut r1).unwrap();
    a.transpose().spmv_acc(1.0, &nu, &mut r1).unwrap();
    let mut r2: Vec<f64> = (0..m).map(|i| -nu[i] / rho[i] - (z[i] - y[i] / rho[i])).collect();
    a.spmv_acc(1.0, &xt, &mut r2).unwrap();
    let rhs: Vec<f64> =
        (0..n).map(|j| SIGMA * x[j] - q[j]).chain((0..m).map(|i| z[i] - y[i] / rho[i])).collect();
    r1.extend(r2);
    norm(&r1) / norm(&rhs)
}

#[test]
fn augmented_kkt_solves_are_exact_on_the_small_suite() {
    let mut portfolios = 0;
    for bp in small_suite(1).into_iter().filter(|bp| bp.domain == Domain::Portfolio) {
        let qp = &bp.problem;
        let KktPrecond::Rows(pre) = precond(qp) else { panic!("{}: dense rows", qp.name()) };
        assert!(pre.is_exact(), "{}: K_R is diagonal", qp.name());
        portfolios += 1;
        let rel = augmented_residual(qp);
        assert!(rel <= RESIDUAL_PIN, "{}: relative KKT residual {rel:e}", qp.name());
    }
    assert_eq!(portfolios, 3, "small-suite portfolios");
}

/// `(ADMM iterations, CG iterations)` of the budget QP at default settings
/// on CPU PCG and on the machine, as before the augmented solve existed.
const BUDGET_COUNTS: (usize, usize) = (50, 73);

#[test]
fn the_budget_qp_keeps_the_pcg_loop() {
    let qp = generate_budget(40);
    let KktPrecond::Rows(pre) = precond(&qp) else { panic!("the budget row is dense") };
    assert!(!pre.is_exact(), "P is tridiagonal: K_R is not diagonal");
    let settings = Settings { linsys: LinSysKind::CpuPcg, ..Default::default() };
    let cpu = Solver::new(&qp, settings.clone()).unwrap().solve().unwrap();
    let machine =
        fpga_solver(&qp, settings, ArchConfig::baseline(16)).unwrap().solver.solve().unwrap();
    for r in [&cpu, &machine] {
        assert_eq!(r.status, Status::Solved);
        assert_eq!((r.iterations, r.backend.cg_iterations), BUDGET_COUNTS);
    }
    let bits = |v: &[f64]| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&cpu.x), bits(&machine.x), "x on the CPU and the machine");
}
