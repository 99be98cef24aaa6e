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
fn the_kkt_solve_costs_the_same_cycles_on_every_datapath_of_one_width() {
    // The KKT solve runs no SpMV, so the customized MAC tree and CVB
    // layouts leave the machine's cycles as they are; the modeled time then
    // differs only by the designs' f_max estimates.
    let qp = generate(Domain::Svm, 3, 5);
    let custom = customize(&qp, 16, 4);

    let (r_base, s_base, outer_b) = solve_on_fpga(&qp, ArchConfig::baseline(16));
    let (r_custom, s_custom, outer_c) = solve_on_fpga(&qp, custom.config.clone());
    assert_eq!(r_base.status, Status::Solved);
    assert_eq!((r_custom.status, r_custom.iterations), (r_base.status, r_base.iterations));
    assert_eq!((s_custom, outer_c), (s_base, outer_b));
    let time = |config: &ArchConfig| {
        let model = FpgaPerfModel::from_config(config);
        let t = model.solve_time(s_base, r_base.iterations, outer_b, qp.num_vars(), 0);
        (model.fmax_hz, t)
    };
    let ((f_base, t_base), (f_custom, t_custom)) =
        (time(&ArchConfig::baseline(16)), time(&custom.config));
    assert_eq!(t_custom < t_base, f_custom > f_base, "{t_custom:?} vs {t_base:?}");
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
    // The KKT factor forms at the first solve and refactors at the first
    // solve after each ρ update, with no CG iteration: on the budget QP (a
    // dense row over a tridiagonal P) and on a small lasso.
    for qp in [rsqp_problems::random::generate_budget(40), generate(Domain::Lasso, 4, 2)] {
        let (result, _, _) = solve_on_fpga(&qp, ArchConfig::baseline(16));
        assert_eq!(result.status, Status::Solved, "{}", qp.name());
        assert_eq!(result.backend.cg_iterations, 0, "{}", qp.name());
        assert_eq!(result.backend.factorizations, result.rho_updates + 1, "{}", qp.name());
        assert_eq!(result.backend.kkt_solves, result.iterations, "{}", qp.name());
    }
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
