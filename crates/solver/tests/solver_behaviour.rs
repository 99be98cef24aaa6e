//! End-to-end behaviour tests for the ADMM solver: optimality conditions,
//! backend agreement, infeasibility detection, warm starting, and
//! parametric updates.

use std::sync::Arc;

use rsqp_problems::{generate, Domain};
use rsqp_solver::{CgTolerance, LinSysKind, QpProblem, Settings, Solver, SolverError, Status};
use rsqp_sparse::CsrMatrix;

const INF: f64 = f64::INFINITY;

fn box_qp() -> QpProblem {
    // minimize (1/2)||x - c||^2 over the box [0, 1]^3, c = (2, 0.5, -1)
    // -> solution (1, 0.5, 0)
    QpProblem::new(
        CsrMatrix::identity(3),
        vec![-2.0, -0.5, 1.0],
        CsrMatrix::identity(3),
        vec![0.0, 0.0, 0.0],
        vec![1.0, 1.0, 1.0],
    )
    .unwrap()
}

fn equality_qp() -> QpProblem {
    // minimize (1/2)(x0^2 + x1^2) s.t. x0 + x1 = 1 -> x = (0.5, 0.5)
    QpProblem::new(
        CsrMatrix::identity(2),
        vec![0.0, 0.0],
        CsrMatrix::from_dense(&[vec![1.0, 1.0]]),
        vec![1.0],
        vec![1.0],
    )
    .unwrap()
}

fn tight_settings(kind: LinSysKind) -> Settings {
    Settings { eps_abs: 1e-6, eps_rel: 1e-6, max_iter: 20_000, linsys: kind, ..Default::default() }
}

#[test]
fn box_qp_solution_is_projection() {
    let mut s = Solver::new(box_qp(), tight_settings(LinSysKind::DirectLdlt)).unwrap();
    let r = s.solve().unwrap();
    assert_eq!(r.status, Status::Solved);
    let want = [1.0, 0.5, 0.0];
    for (got, want) in r.x.iter().zip(&want) {
        assert!((got - want).abs() < 1e-4, "{got} vs {want}");
    }
}

#[test]
fn equality_qp_exact_solution() {
    for kind in [LinSysKind::DirectLdlt, LinSysKind::CpuPcg] {
        let mut s = Solver::new(equality_qp(), tight_settings(kind)).unwrap();
        let r = s.solve().unwrap();
        assert_eq!(r.status, Status::Solved, "backend {kind:?}");
        assert!((r.x[0] - 0.5).abs() < 1e-4);
        assert!((r.x[1] - 0.5).abs() < 1e-4);
        assert!((r.objective - 0.25).abs() < 1e-3);
    }
}

#[test]
fn backends_agree_on_random_qp() {
    // Deterministic pseudo-random strictly convex QP.
    let n = 20;
    let m = 30;
    let mut p_t = Vec::new();
    for i in 0..n {
        p_t.push((i, i, 2.0 + (i % 5) as f64));
        if i + 1 < n {
            p_t.push((i, i + 1, 0.4));
            p_t.push((i + 1, i, 0.4));
        }
    }
    let p = CsrMatrix::from_triplets(n, n, p_t);
    let q: Vec<f64> = (0..n).map(|i| ((i * 7 % 11) as f64) - 5.0).collect();
    let mut a_t = Vec::new();
    for i in 0..m {
        a_t.push((i, i % n, 1.0));
        a_t.push((i, (i * 3 + 1) % n, -0.5));
    }
    let a = CsrMatrix::from_triplets(m, n, a_t);
    let l: Vec<f64> = (0..m).map(|i| -1.0 - (i % 3) as f64).collect();
    let u: Vec<f64> = (0..m).map(|i| 1.0 + (i % 4) as f64).collect();
    let problem = QpProblem::new(p, q, a, l, u).unwrap();

    let mut direct = Solver::new(&problem, tight_settings(LinSysKind::DirectLdlt)).unwrap();
    let rd = direct.solve().unwrap();
    let mut indirect = Solver::new(&problem, tight_settings(LinSysKind::CpuPcg)).unwrap();
    let ri = indirect.solve().unwrap();
    assert_eq!(rd.status, Status::Solved);
    assert_eq!(ri.status, Status::Solved);
    assert!(
        (rd.objective - ri.objective).abs() < 1e-3 * (1.0 + rd.objective.abs()),
        "objectives {} vs {}",
        rd.objective,
        ri.objective
    );
    for (a, b) in rd.x.iter().zip(&ri.x) {
        assert!((a - b).abs() < 1e-2, "{a} vs {b}");
    }
}

#[test]
fn kkt_conditions_hold_at_solution() {
    let problem = box_qp();
    let mut s = Solver::new(&problem, tight_settings(LinSysKind::DirectLdlt)).unwrap();
    let r = s.solve().unwrap();
    // Stationarity: Px + q + Aᵀy ≈ 0.
    let mut grad = vec![0.0; 3];
    problem.p().spmv(&r.x, &mut grad).unwrap();
    let mut aty = vec![0.0; 3];
    problem.a().spmv_transpose(&r.y, &mut aty).unwrap();
    for i in 0..3 {
        let g = grad[i] + problem.q()[i] + aty[i];
        assert!(g.abs() < 1e-4, "stationarity violated: {g}");
    }
    // Primal feasibility.
    assert!(problem.primal_infeasibility(&r.x) < 1e-4);
    // Complementary slackness via sign conditions on y.
    for i in 0..3 {
        if r.z[i] < problem.u()[i] - 1e-3 {
            assert!(r.y[i] < 1e-3, "y[{i}] should be <= 0 at inactive upper bound");
        }
        if r.z[i] > problem.l()[i] + 1e-3 {
            assert!(r.y[i] > -1e-3, "y[{i}] should be >= 0 at inactive lower bound");
        }
    }
}

#[test]
fn detects_primal_infeasibility() {
    // x = 0 and x = 1 simultaneously.
    let problem = QpProblem::new(
        CsrMatrix::identity(1),
        vec![0.0],
        CsrMatrix::from_dense(&[vec![1.0], vec![1.0]]),
        vec![0.0, 1.0],
        vec![0.0, 1.0],
    )
    .unwrap();
    let mut s = Solver::new(&problem, Settings::default()).unwrap();
    let r = s.solve().unwrap();
    assert_eq!(r.status, Status::PrimalInfeasible);
}

#[test]
fn detects_dual_infeasibility() {
    // minimize -x with x >= 0: unbounded below.
    let problem = QpProblem::new(
        CsrMatrix::zeros(1, 1),
        vec![-1.0],
        CsrMatrix::identity(1),
        vec![0.0],
        vec![INF],
    )
    .unwrap();
    let mut s = Solver::new(&problem, Settings::default()).unwrap();
    let r = s.solve().unwrap();
    assert_eq!(r.status, Status::DualInfeasible);
}

#[test]
fn unconstrained_problem_solves() {
    // minimize (1/2)x'Px + q'x with no constraints: x = -P^{-1} q.
    let problem = QpProblem::new(
        CsrMatrix::from_diag(&[2.0, 4.0]),
        vec![-2.0, -4.0],
        CsrMatrix::zeros(0, 2),
        vec![],
        vec![],
    )
    .unwrap();
    let mut s = Solver::new(&problem, tight_settings(LinSysKind::DirectLdlt)).unwrap();
    let r = s.solve().unwrap();
    assert_eq!(r.status, Status::Solved);
    assert!((r.x[0] - 1.0).abs() < 1e-4);
    assert!((r.x[1] - 1.0).abs() < 1e-4);
}

#[test]
fn warm_start_reduces_iterations() {
    let problem = equality_qp();
    let mut s = Solver::new(&problem, tight_settings(LinSysKind::DirectLdlt)).unwrap();
    let r1 = s.solve().unwrap();
    assert_eq!(r1.status, Status::Solved);
    // Re-solve warm-started at the solution.
    s.warm_start(&r1.x, &r1.y).unwrap();
    let r2 = s.solve().unwrap();
    assert_eq!(r2.status, Status::Solved);
    assert!(r2.iterations <= r1.iterations, "warm {} vs cold {}", r2.iterations, r1.iterations);
}

#[test]
fn parametric_bound_update_resolves() {
    let problem = box_qp();
    let mut s = Solver::new(&problem, tight_settings(LinSysKind::DirectLdlt)).unwrap();
    let r1 = s.solve().unwrap();
    assert!((r1.x[0] - 1.0).abs() < 1e-3);
    // Widen the box: now the unconstrained minimizer (2, 0.5, -1) is inside.
    s.update_bounds(vec![-5.0; 3], vec![5.0; 3]).unwrap();
    let r2 = s.solve().unwrap();
    assert_eq!(r2.status, Status::Solved);
    assert!((r2.x[0] - 2.0).abs() < 1e-3, "{}", r2.x[0]);
    assert!((r2.x[2] + 1.0).abs() < 1e-3);
}

#[test]
fn parametric_q_update_resolves() {
    let problem = box_qp();
    let mut s = Solver::new(&problem, tight_settings(LinSysKind::DirectLdlt)).unwrap();
    s.solve().unwrap();
    s.update_q(vec![5.0, 5.0, 5.0]).unwrap(); // pushes everything to 0
    let r = s.solve().unwrap();
    assert_eq!(r.status, Status::Solved);
    for v in &r.x {
        assert!(v.abs() < 1e-3);
    }
}

#[test]
fn scaling_off_still_solves() {
    let settings =
        Settings { scaling_iters: 0, eps_abs: 1e-5, eps_rel: 1e-5, ..Default::default() };
    let mut s = Solver::new(equality_qp(), settings).unwrap();
    let r = s.solve().unwrap();
    assert_eq!(r.status, Status::Solved);
    assert!((r.x[0] - 0.5).abs() < 1e-3);
}

#[test]
fn fixed_cg_tolerance_solves() {
    let settings = Settings {
        linsys: LinSysKind::CpuPcg,
        cg_tolerance: CgTolerance::Fixed(1e-10),
        eps_abs: 1e-6,
        eps_rel: 1e-6,
        ..Default::default()
    };
    // The inner tolerance is accepted and not read: the KKT solve is the
    // direct one, with no CG iteration.
    let mut s = Solver::new(rsqp_problems::random::generate_budget(40), settings).unwrap();
    let r = s.solve().unwrap();
    assert_eq!(r.status, Status::Solved);
    assert_eq!(r.backend.cg_iterations, 0);
}

#[test]
fn timing_breakdown_is_consistent() {
    let mut s = Solver::new(box_qp(), Settings::default()).unwrap();
    let r = s.solve().unwrap();
    assert!(r.timings.kkt_solve <= r.timings.solve);
    let f = r.timings.kkt_fraction();
    assert!((0.0..=1.0).contains(&f));
}

#[test]
fn max_iterations_status_when_cap_hit() {
    let settings = Settings {
        max_iter: 2,
        check_termination: 1,
        eps_abs: 1e-14,
        eps_rel: 1e-14,
        ..Default::default()
    };
    let mut s = Solver::new(box_qp(), settings).unwrap();
    let r = s.solve().unwrap();
    assert_eq!(r.status, Status::MaxIterationsReached);
    assert_eq!(r.iterations, 2);
    assert!(r.prim_res.is_finite());
}

#[test]
fn ill_scaled_problem_benefits_from_ruiz() {
    // Wildly different magnitudes across variables.
    let p = CsrMatrix::from_diag(&[1e6, 1e-4]);
    let q = vec![-1e6, 1e-4];
    let a = CsrMatrix::from_dense(&[vec![1e3, 0.0], vec![0.0, 1e-3]]);
    let problem = QpProblem::new(p, q, a, vec![-1e3, -1e-3], vec![1e3, 1e-3]).unwrap();
    let mut s = Solver::new(
        &problem,
        Settings { eps_abs: 1e-5, eps_rel: 1e-5, max_iter: 10_000, ..Default::default() },
    )
    .unwrap();
    let r = s.solve().unwrap();
    assert_eq!(r.status, Status::Solved);
    // Optimum of (1/2)*1e6 x0^2 - 1e6 x0 is x0 = 1 (inside |x0| <= 1000 via
    // constraint row 0 scaled by 1e3 -> |1e3*x0| <= 1e3).
    assert!((r.x[0] - 1.0).abs() < 1e-2, "{}", r.x[0]);
}

#[test]
fn time_limit_is_respected() {
    let settings = Settings {
        eps_abs: 1e-14,
        eps_rel: 1e-14,
        max_iter: 100_000_000,
        check_termination: 1,
        time_limit: Some(std::time::Duration::ZERO),
        ..Default::default()
    };
    let mut s = Solver::new(box_qp(), settings).unwrap();
    let r = s.solve().unwrap();
    assert_eq!(r.status, Status::TimeLimitReached);
    assert_eq!(r.iterations, 0, "an already-expired limit fires before any iteration runs");
}

#[test]
fn matrix_value_update_resolves_correctly() {
    // minimize (1/2) x'P x - 1'x over [0,10]^2 with diagonal P: solution
    // x_i = 1/P_ii. Update P values (same structure) and re-solve.
    let p1 = CsrMatrix::from_diag(&[1.0, 2.0]);
    let problem = QpProblem::new(
        p1,
        vec![-1.0, -1.0],
        CsrMatrix::identity(2),
        vec![0.0, 0.0],
        vec![10.0, 10.0],
    )
    .unwrap();
    let mut s = Solver::new(&problem, tight_settings(LinSysKind::DirectLdlt)).unwrap();
    let r1 = s.solve().unwrap();
    assert!((r1.x[0] - 1.0).abs() < 1e-4);
    assert!((r1.x[1] - 0.5).abs() < 1e-4);

    s.update_matrices(Some(CsrMatrix::from_diag(&[4.0, 8.0])), None).unwrap();
    let r2 = s.solve().unwrap();
    assert_eq!(r2.status, Status::Solved);
    assert!((r2.x[0] - 0.25).abs() < 1e-4, "{}", r2.x[0]);
    assert!((r2.x[1] - 0.125).abs() < 1e-4);
}

#[test]
fn matrix_update_rejects_structure_changes() {
    let problem = QpProblem::new(
        CsrMatrix::from_diag(&[1.0, 2.0]),
        vec![0.0, 0.0],
        CsrMatrix::identity(2),
        vec![0.0, 0.0],
        vec![1.0, 1.0],
    )
    .unwrap();
    let mut s = Solver::new(&problem, Settings::default()).unwrap();
    // Different structure: off-diagonal entry appears.
    let bad = CsrMatrix::from_dense(&[vec![1.0, 0.5], vec![0.5, 2.0]]);
    assert!(s.update_matrices(Some(bad), None).is_err());
    // Different A structure.
    let bad_a = CsrMatrix::from_dense(&[vec![1.0, 1.0], vec![0.0, 1.0]]);
    assert!(s.update_matrices(None, Some(bad_a)).is_err());
}

#[test]
fn matrix_update_works_on_pcg_backend_too() {
    let problem = QpProblem::new(
        CsrMatrix::from_diag(&[1.0, 2.0]),
        vec![-1.0, -1.0],
        CsrMatrix::identity(2),
        vec![0.0, 0.0],
        vec![10.0, 10.0],
    )
    .unwrap();
    let mut s = Solver::new(&problem, tight_settings(LinSysKind::CpuPcg)).unwrap();
    s.solve().unwrap();
    s.update_matrices(Some(CsrMatrix::from_diag(&[2.0, 4.0])), None).unwrap();
    let r = s.solve().unwrap();
    assert_eq!(r.status, Status::Solved);
    assert!((r.x[0] - 0.5).abs() < 1e-4);
}

#[test]
fn solve_result_display_summarizes() {
    let mut s = Solver::new(box_qp(), Settings { polish: true, ..Default::default() }).unwrap();
    let r = s.solve().unwrap();
    let text = r.to_string();
    assert!(text.contains("status: solved"));
    assert!(text.contains("iters:"));
    assert!(text.contains("polished"));
}

#[test]
fn manual_rho_update_changes_backend_and_still_solves() {
    let problem = box_qp();
    let mut s = Solver::new(&problem, tight_settings(LinSysKind::DirectLdlt)).unwrap();
    s.update_rho(10.0).unwrap();
    let r = s.solve().unwrap();
    assert_eq!(r.status, Status::Solved);
    assert!((r.x[0] - 1.0).abs() < 1e-4);
    assert!(s.update_rho(0.0).is_err());
    assert!(s.update_rho(-1.0).is_err());
}

#[test]
fn update_rho_rejects_non_finite_values() {
    let problem = generate(Domain::Control, 2, 1);
    let mut s = Solver::new(&problem, Settings::default()).unwrap();
    let rho_bar = s.rho_bar();
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert!(matches!(s.update_rho(bad), Err(SolverError::InvalidSetting(_))), "rho {bad}");
    }
    assert_eq!(s.rho_bar(), rho_bar, "a rejected rho leaves the solver untouched");
    assert_eq!(s.solve().unwrap().status, Status::Solved);
}

#[test]
fn a_shared_problem_is_not_copied() {
    let arc = Arc::new(box_qp());
    let solver = Solver::new(arc.clone(), Settings::default()).unwrap();
    assert!(Arc::ptr_eq(&solver.problem_shared(), &arc));
    let solver =
        Solver::with_backend(arc.clone(), Settings::default(), &mut |p, a, sigma, rho, _| {
            Ok(Box::new(rsqp_solver::DirectLdltBackend::new(p, a, sigma, rho)?))
        })
        .unwrap();
    assert!(Arc::ptr_eq(&solver.problem_shared(), &arc));
}

#[test]
fn borrowed_and_shared_problems_solve_bit_identically() {
    let problem = generate(Domain::Control, 3, 1);
    for linsys in [LinSysKind::DirectLdlt, LinSysKind::CpuPcg] {
        let settings = Settings { linsys, ..Default::default() };
        let borrowed = Solver::new(&problem, settings.clone()).unwrap().solve().unwrap();
        let shared = Solver::new(Arc::new(problem.clone()), settings).unwrap().solve().unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(borrowed.status, Status::Solved, "{linsys:?}");
        assert_eq!(borrowed.iterations, shared.iterations, "{linsys:?}");
        assert_eq!(borrowed.backend, shared.backend, "{linsys:?}");
        assert_eq!(borrowed.objective.to_bits(), shared.objective.to_bits(), "{linsys:?}");
        assert_eq!(bits(&borrowed.x), bits(&shared.x), "{linsys:?}");
        assert_eq!(bits(&borrowed.y), bits(&shared.y), "{linsys:?}");
        assert_eq!(bits(&borrowed.z), bits(&shared.z), "{linsys:?}");
    }
}
