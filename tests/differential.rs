//! Cross-backend differential test suite.
//!
//! Every benchmark family is solved at its two smallest suite sizes, and
//! the smallest svm, lasso and huber instances whose dense columns the
//! reduced KKT solve eliminates, with four KKT paths:
//!
//! 1. sparse LDLᵀ direct factorization,
//! 2. matrix-free CPU PCG, serial,
//! 3. matrix-free CPU PCG on a 4-thread pool,
//! 4. the cycle-level simulated-FPGA machine (`rsqp-arch`).
//!
//! The direct backend factorizes the full quasi-definite KKT system; the
//! PCG backends solve the reduced one — with dense rows in `A` in OSQP's
//! augmented form over a diagonal `K_R` (by PCG over any other), by the
//! block elimination of its dense columns, or else through the sparse
//! LDLᵀ of the reduced `K` (which shares only the triangular sweeps with
//! the first path); and the machine executes the same solve instruction by
//! instruction on simulated hardware. Agreement between them is therefore
//! strong evidence that each is computing the right thing: identical
//! termination status, objectives matching to 1e-6, and final residuals
//! within the termination tolerance. The two PCG thread counts must
//! additionally agree **bit for bit** (the PR 3 determinism contract).
//! Serial CPU PCG and the machine run one KKT-solve specification (the PCG
//! loop of `rsqp_linsys::pcg_with`, the augmented dense-row solve of
//! `rsqp_linsys::DenseRowPrecond::solve_augmented`, or one factor solve
//! through `rsqp_sparse::ldl_solve_in_place`), so except under the
//! dense-column elimination they take the same steps: equal ADMM and CG
//! counts and bit-identical iterates. The infeasibility certificates are checked the
//! same way: every path must detect them on the random infeasible and
//! unbounded instances.

use rsqp::arch::ArchConfig;
use rsqp::core::fpga_solver;
use rsqp::linsys::KktPrecond;
use rsqp::problems::random::{generate_primal_infeasible, generate_unbounded};
use rsqp::problems::{generate, Domain};
use rsqp::solver::{CgTolerance, LinSysKind, QpProblem, Settings, SolveResult, Solver, Status};

/// Relative objective agreement demanded across backends.
const OBJ_TOL: f64 = 1e-6;
/// Unscaled residual bound every converged solve must meet.
const RES_TOL: f64 = 1e-5;
/// Termination tolerance (tight, so the objectives have converged well
/// past `OBJ_TOL` by the time the solver stops).
const EPS: f64 = 1e-8;

fn settings(kind: LinSysKind, threads: usize) -> Settings {
    Settings {
        linsys: kind,
        threads,
        eps_abs: EPS,
        eps_rel: EPS,
        max_iter: 200_000,
        cg_tolerance: CgTolerance::Fixed(1e-12),
        ..Default::default()
    }
}

fn solve_direct(problem: &QpProblem) -> SolveResult {
    let mut solver = Solver::new(problem, settings(LinSysKind::DirectLdlt, 1)).unwrap();
    solver.solve().unwrap()
}

fn solve_pcg(problem: &QpProblem, threads: usize) -> SolveResult {
    let mut solver = Solver::new(problem, settings(LinSysKind::CpuPcg, threads)).unwrap();
    solver.solve().unwrap()
}

fn solve_machine(problem: &QpProblem) -> SolveResult {
    let settings = settings(LinSysKind::CpuPcg, 1);
    let mut solver = fpga_solver(problem, settings, ArchConfig::baseline(16)).unwrap().solver;
    solver.solve().unwrap()
}

fn assert_agreement(problem: &QpProblem, results: &[(&str, SolveResult)]) {
    let name = problem.name();
    for (backend, r) in results {
        assert_eq!(
            r.status,
            Status::Solved,
            "{name} via {backend}: expected Solved, got {:?} after {} iterations",
            r.status,
            r.iterations
        );
        assert!(
            r.prim_res <= RES_TOL && r.dual_res <= RES_TOL,
            "{name} via {backend}: residuals ({:.3e}, {:.3e}) exceed {RES_TOL:.0e}",
            r.prim_res,
            r.dual_res
        );
        assert!(r.objective.is_finite(), "{name} via {backend}: non-finite objective");
    }
    let (ref_backend, reference) = &results[0];
    let scale = 1.0 + reference.objective.abs();
    for (backend, r) in &results[1..] {
        assert_eq!(
            r.status, reference.status,
            "{name}: {backend} and {ref_backend} disagree on termination status"
        );
        assert!(
            (r.objective - reference.objective).abs() <= OBJ_TOL * scale,
            "{name}: objective via {backend} ({:.12e}) differs from {ref_backend} \
             ({:.12e}) by more than {OBJ_TOL:.0e} relative",
            r.objective,
            reference.objective
        );
    }
}

/// The reduced-KKT `M⁻¹` of `problem`, whose kind `A`'s pattern decides.
fn kkt_precond(problem: &QpProblem) -> KktPrecond {
    let (p, a) = (problem.p(), problem.a());
    KktPrecond::new(p, a, &a.transpose(), 1e-6, &vec![0.1; a.nrows()])
}

/// Asserts that serial CPU PCG and the machine took the same steps: equal
/// ADMM and CG counts and, but for the dense-column elimination,
/// bit-identical `x` and `y`. (The elimination uses the factor of `S` on
/// the CPU and an explicit `S⁻¹` on the machine, so only its counts
/// agree.)
fn assert_same_steps(problem: &QpProblem, cpu: &SolveResult, machine: &SolveResult) {
    let name = problem.name();
    assert_eq!(
        (cpu.iterations, cpu.backend.cg_iterations),
        (machine.iterations, machine.backend.cg_iterations),
        "{name}: (ADMM, CG) on the CPU and on the machine"
    );
    if !matches!(kkt_precond(problem), KktPrecond::Cols(_)) {
        let bits = |v: &[f64]| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
        assert!(bits(&cpu.x) == bits(&machine.x), "{name}: x differs between CPU and machine");
        assert!(bits(&cpu.y) == bits(&machine.y), "{name}: y differs between CPU and machine");
    }
}

fn differential(domain: Domain) {
    let sizes = domain.size_schedule(20);
    for (index, &size) in sizes[..2].iter().enumerate() {
        differential_on(&generate(domain, size, 1000 + index as u64));
    }
}

/// Solves `problem` on the four paths and checks that they agree.
fn differential_on(problem: &QpProblem) {
    let direct = solve_direct(problem);
    let pcg_t1 = solve_pcg(problem, 1);
    let pcg_t4 = solve_pcg(problem, 4);
    let machine = solve_machine(problem);

    // The two pool sizes run the same reduction tree: bit-identical.
    assert_eq!(pcg_t1.iterations, pcg_t4.iterations, "{}", problem.name());
    for (i, (a, b)) in pcg_t1.x.iter().zip(&pcg_t4.x).enumerate() {
        assert!(
            a.to_bits() == b.to_bits(),
            "{}: x[{i}] differs between 1 and 4 threads: {a:?} vs {b:?}",
            problem.name()
        );
    }

    assert_same_steps(problem, &pcg_t1, &machine);

    assert_agreement(
        problem,
        &[
            ("direct-ldlt", direct),
            ("cpu-pcg/t1", pcg_t1),
            ("cpu-pcg/t4", pcg_t4),
            ("machine", machine),
        ],
    );
}

#[test]
fn control_backends_agree() {
    differential(Domain::Control);
}

#[test]
fn portfolio_backends_agree() {
    differential(Domain::Portfolio);
}

#[test]
fn lasso_backends_agree() {
    differential(Domain::Lasso);
}

#[test]
fn huber_backends_agree() {
    differential(Domain::Huber);
}

#[test]
fn svm_backends_agree() {
    differential(Domain::Svm);
}

#[test]
fn eqqp_backends_agree() {
    differential(Domain::Eqqp);
}

/// The smallest SVM, lasso and Huber instances whose dense feature columns
/// the PCG preconditioner eliminates (the suites' first sizes take the
/// factor of `K` instead).
#[test]
fn dense_column_backends_agree() {
    for (domain, size) in [(Domain::Svm, 21), (Domain::Lasso, 14), (Domain::Huber, 19)] {
        differential_on(&generate(domain, size, 1000));
    }
}

/// Solves control_0008, control_0020, eqqp_0100, portfolio_0005 and
/// portfolio_0020 on serial CPU PCG and on the machine under `settings`
/// and checks that they take the same steps, all direct with no CG
/// iteration: through the factor of `K` on control and eqqp, the augmented
/// dense-row solve on the portfolios.
fn same_steps_under(settings: Settings) {
    let instances = [
        (Domain::Control, 8),
        (Domain::Control, 20),
        (Domain::Eqqp, 100),
        (Domain::Portfolio, 5),
        (Domain::Portfolio, 20),
    ];
    for (domain, size) in instances {
        let problem = generate(domain, size, 1);
        let precond = kkt_precond(&problem);
        assert!(precond.is_exact(), "{}: direct path", problem.name());
        let rows = matches!(precond, KktPrecond::Rows(_));
        assert_eq!(rows, domain == Domain::Portfolio, "{}", problem.name());
        let cpu = Solver::new(&problem, settings.clone()).unwrap().solve().unwrap();
        let mut machine =
            fpga_solver(&problem, settings.clone(), ArchConfig::baseline(32)).unwrap();
        assert_same_steps(&problem, &cpu, &machine.solver.solve().unwrap());
        assert_eq!(cpu.backend.cg_iterations, 0, "{}: no CG iteration", problem.name());
    }
}

/// Serial CPU PCG and the machine take the same steps at default settings,
/// including control's cold first KKT solve (`q = 0` from a zero warm
/// start: `r₀ = 0`, no step on either).
#[test]
fn cpu_and_machine_take_the_same_steps() {
    same_steps_under(Settings { linsys: LinSysKind::CpuPcg, ..Default::default() });
}

/// The same at the suite's tight settings, where the machine simulates
/// the portfolios' augmented solves and control's and eqqp's factor
/// solves (about a second in release, minutes in a debug build;
/// `differential_on` checks these settings on the suite's smaller
/// instances in every build).
#[test]
#[ignore = "simulates the tight-settings solves; run in release with --ignored"]
fn cpu_and_machine_take_the_same_steps_at_tight_settings() {
    same_steps_under(settings(LinSysKind::CpuPcg, 1));
}

/// The portfolio's augmented dense-row solve on CPU PCG and the machine
/// (at the default inner tolerance, which it does not read) reaches eps
/// 1e-8 in LDLᵀ's ADMM count, with no CG iteration, and agrees with
/// LDLᵀ's objective.
#[test]
fn portfolio_pcg_reaches_tight_tolerance() {
    let problem = generate(Domain::Portfolio, 5, 1);
    assert!(matches!(Settings::default().cg_tolerance, CgTolerance::Adaptive { .. }));
    let tight = |kind| Settings {
        linsys: kind,
        eps_abs: EPS,
        eps_rel: EPS,
        max_iter: 20_000,
        ..Default::default()
    };
    let solve = |settings: Settings, machine: bool| {
        let mut solver = if machine {
            fpga_solver(&problem, settings, ArchConfig::baseline(16)).unwrap().solver
        } else {
            Solver::new(&problem, settings).unwrap()
        };
        solver.solve().unwrap()
    };
    let direct = solve(tight(LinSysKind::DirectLdlt), false);
    assert_eq!(direct.status, Status::Solved);
    for (name, r) in [
        ("cpu-pcg", solve(tight(LinSysKind::CpuPcg), false)),
        ("machine", solve(tight(LinSysKind::CpuPcg), true)),
    ] {
        assert_eq!(r.status, Status::Solved, "{name} after {} iterations", r.iterations);
        assert_eq!(r.iterations, direct.iterations, "{name}: ADMM iterations against LDLᵀ");
        assert_eq!(r.backend.cg_iterations, 0, "{name}");
        let rel = (r.objective - direct.objective).abs() / direct.objective.abs();
        assert!(rel <= 1e-5, "{name}: objective {} vs LDLᵀ {}", r.objective, direct.objective);
    }
}

/// Solves `problem` on LDLᵀ, CPU PCG and the machine with default
/// tolerances and checks that each returns the `expected` certificate.
fn certificate_on_every_backend(problem: &QpProblem, expected: Status) {
    let default = |linsys| Settings { linsys, ..Default::default() };
    let machine = fpga_solver(problem, default(LinSysKind::CpuPcg), ArchConfig::baseline(8));
    for (backend, mut solver) in [
        ("direct-ldlt", Solver::new(problem, default(LinSysKind::DirectLdlt)).unwrap()),
        ("cpu-pcg", Solver::new(problem, default(LinSysKind::CpuPcg)).unwrap()),
        ("machine", machine.unwrap().solver),
    ] {
        let r = solver.solve().unwrap();
        assert_eq!(
            r.status,
            expected,
            "{} via {backend}: got {:?} after {} iterations",
            problem.name(),
            r.status,
            r.iterations
        );
    }
}

#[test]
fn primal_infeasibility_is_certified_on_every_backend() {
    for n in [3, 8, 15] {
        certificate_on_every_backend(&generate_primal_infeasible(n, 1), Status::PrimalInfeasible);
    }
}

#[test]
fn dual_infeasibility_is_certified_on_every_backend() {
    for n in [2, 5, 12] {
        certificate_on_every_backend(&generate_unbounded(n, 1), Status::DualInfeasible);
    }
}
