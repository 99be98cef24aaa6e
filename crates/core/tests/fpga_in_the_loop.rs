//! End-to-end: the OSQP ADMM loop converging with the KKT system solved on
//! the simulated RSQP accelerator, with cycle accounting.

use rsqp_arch::ArchConfig;
use rsqp_core::perf::fpga::FpgaPerfModel;
use rsqp_core::{customize, fpga_solver, FpgaSolver};
use rsqp_problems::{generate, Domain};
use rsqp_solver::{LinSysKind, QpProblem, Settings, Solver, Status};

fn settings() -> Settings {
    Settings { eps_abs: 1e-4, eps_rel: 1e-4, max_iter: 10_000, ..Default::default() }
}

fn solve_on_fpga(
    problem: &QpProblem,
    config: ArchConfig,
) -> (rsqp_solver::SolveResult, rsqp_arch::RunStats, u64) {
    let FpgaSolver { mut solver, machine, outer_cycles_per_iteration } =
        fpga_solver(problem, settings(), config).expect("setup succeeds");
    let result = solver.solve().expect("solve succeeds");
    let stats = machine.borrow().stats();
    (result, stats, outer_cycles_per_iteration)
}

#[test]
fn fpga_backend_converges_and_matches_cpu() {
    for (domain, size) in [(Domain::Control, 3), (Domain::Svm, 3), (Domain::Portfolio, 1)] {
        let qp = generate(domain, size, 11);
        // Reference CPU solve (direct LDLT).
        let mut cpu =
            Solver::new(&qp, Settings { linsys: LinSysKind::DirectLdlt, ..settings() }).unwrap();
        let cpu_result = cpu.solve().unwrap();
        assert_eq!(cpu_result.status, Status::Solved);

        // Simulated-FPGA solve with a customized architecture.
        let custom = customize(&qp, 16, 4);
        let (fpga_result, stats, _) = solve_on_fpga(&qp, custom.config.clone());
        assert_eq!(fpga_result.status, Status::Solved, "{domain}");
        assert!(
            (fpga_result.objective - cpu_result.objective).abs()
                < 1e-2 * (1.0 + cpu_result.objective.abs()),
            "{domain}: objectives {} vs {}",
            fpga_result.objective,
            cpu_result.objective
        );
        assert!(stats.cycles > 0, "cycles must accumulate");
        assert!(stats.breakdown.spmv > 0);
    }
}

#[test]
fn customized_architecture_needs_fewer_cycles_than_baseline() {
    let qp = generate(Domain::Svm, 3, 5);
    let custom = customize(&qp, 16, 4);

    let (r_base, s_base, outer_b) = solve_on_fpga(&qp, ArchConfig::baseline(16));
    let (r_custom, s_custom, outer_c) = solve_on_fpga(&qp, custom.config.clone());
    assert_eq!(r_base.status, Status::Solved);
    assert_eq!(r_custom.status, Status::Solved);

    // Same algorithm; cycle counts should favor the customized design
    // (Figure 10's customization speedup).
    let t_base = FpgaPerfModel::from_config(&ArchConfig::baseline(16)).solve_time(
        s_base,
        r_base.iterations,
        outer_b,
        qp.num_vars(),
        qp.num_constraints(),
    );
    let t_custom = FpgaPerfModel::from_config(&custom.config).solve_time(
        s_custom,
        r_custom.iterations,
        outer_c,
        qp.num_vars(),
        qp.num_constraints(),
    );
    assert!(t_custom < t_base, "customized {:?} should beat baseline {:?}", t_custom, t_base);
}

#[test]
fn fpga_backend_survives_rho_updates() {
    // An equality-heavy problem triggers rho boosting and adaptive updates.
    let qp = generate(Domain::Eqqp, 16, 3);
    let (result, _, _) = solve_on_fpga(&qp, ArchConfig::baseline(16));
    assert_eq!(result.status, Status::Solved);
}

#[test]
fn backend_reports_cg_iterations_and_factorizations() {
    // The budget QP's dense row over a tridiagonal P keeps PCG; the small
    // lasso takes the factor of K, formed at the first solve and
    // refactored after each ρ update, with no CG iteration.
    let qp = rsqp_problems::random::generate_budget(40);
    let (result, _, _) = solve_on_fpga(&qp, ArchConfig::baseline(16));
    assert_eq!(result.status, Status::Solved);
    assert!(result.backend.cg_iterations > 0);
    assert_eq!(result.backend.factorizations, 0);
    assert_eq!(result.backend.kkt_solves, result.iterations);
    let qp = generate(Domain::Lasso, 4, 2);
    let (result, _, _) = solve_on_fpga(&qp, ArchConfig::baseline(16));
    assert_eq!(result.status, Status::Solved);
    assert_eq!(result.backend.cg_iterations, 0);
    assert_eq!(result.backend.factorizations, result.rho_updates + 1);
    assert_eq!(result.backend.kkt_solves, result.iterations);
}

#[test]
fn matrix_value_update_reuses_the_architecture() {
    // Two numeric instances of the same structure: solve the first, swap in
    // the second instance's values through update_matrices, and re-solve on
    // the *same* simulated accelerator (HBM values refreshed, schedules and
    // CVB layouts untouched).
    let qp1 = generate(Domain::Control, 3, 1);
    let qp2 = generate(Domain::Control, 3, 2);
    let custom = customize(&qp1, 16, 4);
    let mut solver = fpga_solver(&qp1, settings(), custom.config).unwrap().solver;
    let r1 = solver.solve().unwrap();
    assert_eq!(r1.status, Status::Solved);

    solver.update_matrices(Some(qp2.p().clone()), Some(qp2.a().clone())).unwrap();
    solver.update_q(qp2.q().to_vec()).unwrap();
    solver.update_bounds(qp2.l().to_vec(), qp2.u().to_vec()).unwrap();
    let r2 = solver.solve().unwrap();
    assert_eq!(r2.status, Status::Solved);

    // Reference: a fresh CPU solve of instance 2.
    let mut cpu = Solver::new(&qp2, settings()).unwrap();
    let want = cpu.solve().unwrap();
    assert!(
        (r2.objective - want.objective).abs() < 1e-2 * (1.0 + want.objective.abs()),
        "updated-solve objective {} vs fresh {}",
        r2.objective,
        want.objective
    );
}
