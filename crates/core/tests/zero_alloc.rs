//! Asserts the simulated-FPGA path is allocation-free in steady state: a
//! repeated run of the PCG kernel on the cycle-level machine touches the
//! heap zero times, and an ADMM solve whose KKT systems run on the machine
//! allocates as often at 220 iterations as at 20, with the KKT factor
//! refactored on the host and re-uploaded after each of its ρ updates — on
//! a box QP, a portfolio, a budget QP (a dense row over a tridiagonal `P`)
//! and the smallest SVM, lasso and Huber fits with dense feature columns —
//! and neither a manual ρ update nor a matrix update, which write the KKT
//! matrix in place for the refactorization at the next solve, allocates.
//!
//! Strategy: a per-thread counting global allocator tallies allocation
//! calls and bytes, so tests running in parallel do not count each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rsqp_arch::kernels::build_pcg;
use rsqp_arch::{ArchConfig, Machine};
use rsqp_core::{customize, fpga_solver, FpgaPcgBackend};
use rsqp_problems::random::generate_budget;
use rsqp_problems::{generate, Domain};
use rsqp_solver::{CgTolerance, KktBackend, QpProblem, Settings, Solver, Status};
use rsqp_sparse::CsrMatrix;

struct CountingAlloc;

thread_local! {
    // A const-initialized `Cell` needs no allocation or destructor, so the
    // allocator may touch it.
    static ALLOCS: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

fn count(bytes: usize) {
    let _ = ALLOCS.try_with(|c| {
        let (calls, total) = c.get();
        c.set((calls + 1, total + bytes));
    });
}

// SAFETY: delegates verbatim to the system allocator; the counter is a
// side effect with no aliasing or layout implications.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `(allocation calls, bytes)` made on this thread so far.
fn allocs() -> (usize, usize) {
    ALLOCS.with(Cell::get)
}

fn since(before: (usize, usize)) -> (usize, usize) {
    let now = allocs();
    (now.0 - before.0, now.1 - before.1)
}

#[test]
fn repeated_pcg_kernel_runs_allocate_nothing() {
    let qp = generate(Domain::Control, 2, 1);
    let (p, a) = (qp.p(), qp.a());
    let at = a.transpose();
    let (n, m) = (p.nrows(), a.nrows());
    let config = customize(&qp, 8, 4).config;
    let mut machine = Machine::new(config);
    let (pid, aid, atid) = (machine.add_matrix(p), machine.add_matrix(a), machine.add_matrix(&at));
    let k = build_pcg(&mut machine, pid, aid, atid, n, m, 500);
    machine.write_vec(k.minv, &vec![0.5; n]);
    machine.write_vec(k.rho_vec, &vec![0.1; m]);
    machine.write_vec(k.z, &vec![0.2; m]);
    machine.write_vec(k.y, &vec![-0.1; m]);
    machine.write_scalar(k.sigma, 1e-6);
    machine.write_scalar(k.eps, 1e-8);
    let q: Vec<Vec<f64>> =
        (0..4).map(|s| (0..n).map(|i| ((i + s) as f64 * 0.3).sin()).collect()).collect();
    machine.write_vec(k.q, &q[0]);
    let warm = machine.run(&k.program).unwrap();
    assert!(warm.loop_trips > 0);

    let before = allocs();
    let mut trips = 0;
    for q in &q {
        machine.write_vec(k.q, q);
        trips += machine.run(&k.program).unwrap().loop_trips;
    }
    assert!(trips > 4, "the kernel must iterate ({trips} trips)");
    let (calls, bytes) = since(before);
    assert_eq!((calls, bytes), (0, 0), "Machine::run allocated {calls} times ({bytes} bytes)");
}

/// The strictly convex box-constrained QP of the solver's zero-allocation
/// proof: easy to iterate on forever at an unreachable tolerance.
fn problem() -> QpProblem {
    let n = 24;
    let mut p_rows = vec![vec![0.0; n]; n];
    for (i, row) in p_rows.iter_mut().enumerate() {
        row[i] = 2.0 + (i % 5) as f64;
        if i + 1 < n {
            row[i + 1] = -0.5;
        }
        if i > 0 {
            row[i - 1] = -0.5;
        }
    }
    let mut a_rows = vec![vec![0.0; n]; n + 2];
    for i in 0..n {
        a_rows[i][i] = 1.0;
        a_rows[n][i] = 1.0;
        a_rows[n + 1][i] = if i % 2 == 0 { 1.0 } else { -1.0 };
    }
    let p = CsrMatrix::from_dense(&p_rows);
    let a = rsqp_sparse::CsrMatrix::from_dense(&a_rows);
    let q: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.7).sin()).collect();
    QpProblem::new(p, q, a, vec![-1.0; n + 2], vec![1.0; n + 2]).unwrap()
}

/// An FPGA-backed solver on the baseline 8-wide machine.
fn baseline_solver(prob: &QpProblem, settings: Settings) -> Solver {
    fpga_solver(prob, settings, ArchConfig::baseline(8)).unwrap().solver
}

/// Settings that run exactly `max_iter` ADMM iterations with a ρ update at
/// every one.
fn churn_settings(max_iter: usize) -> Settings {
    Settings {
        max_iter,
        eps_abs: 1e-300,
        eps_rel: 1e-300,
        cg_tolerance: CgTolerance::Fixed(1e-10),
        polish: false,
        // ρ is re-evaluated every iteration and any proposed change is
        // taken; each update refreshes the device preconditioner in place.
        adaptive_rho: true,
        adaptive_rho_interval: 1,
        adaptive_rho_tolerance: 1.0,
        check_termination: 1,
        ..Settings::default()
    }
}

/// Allocations made by `solve` (set-up excluded) of an FPGA-backed solver
/// that runs exactly `max_iter` ADMM iterations, with its ρ updates.
fn fpga_solve_allocs(prob: &QpProblem, max_iter: usize) -> ((usize, usize), usize) {
    let mut solver = baseline_solver(prob, churn_settings(max_iter));
    let before = allocs();
    let result = solver.solve().unwrap();
    let during = since(before);
    assert_eq!(result.status, Status::MaxIterationsReached);
    assert_eq!(result.iterations, max_iter);
    assert_eq!(result.backend.kkt_solves, max_iter);
    (during, result.rho_updates)
}

#[test]
fn fpga_backed_admm_steady_state_is_allocation_free() {
    // The box QP refactors the KKT matrix at every ρ update and runs no
    // CG iteration.
    let mut box_qp = baseline_solver(&problem(), churn_settings(20));
    let backend = box_qp.solve().unwrap().backend;
    assert_eq!(backend.cg_iterations, 0, "the box QP solves through the KKT factor");
    assert!(backend.factorizations > 10, "{} factorizations", backend.factorizations);
    for prob in problems() {
        let _ = fpga_solve_allocs(&prob, 5);
        let (short, short_rho) = fpga_solve_allocs(&prob, 20);
        let (long, long_rho) = fpga_solve_allocs(&prob, 220);
        let name = prob.name();
        assert!(long_rho > short_rho, "{name}: {long_rho} vs {short_rho} ρ updates");
        assert_eq!(
            short, long,
            "{name}: a 220-iteration FPGA-backed solve ({long_rho} ρ updates) allocated \
             {long:?} (calls, bytes) vs {short:?} for 20 iterations ({short_rho} ρ updates) \
             — the machine or the backend is allocating per iteration"
        );
    }
}

/// The box QP, a portfolio, the budget QP, and the smallest SVM, lasso
/// and Huber instances with dense feature columns.
fn problems() -> [QpProblem; 6] {
    [
        problem(),
        generate(Domain::Portfolio, 2, 1),
        generate_budget(40),
        generate(Domain::Svm, 21, 1),
        generate(Domain::Lasso, 14, 1),
        generate(Domain::Huber, 19, 1),
    ]
}

#[test]
fn fpga_manual_rho_update_is_allocation_free() {
    for prob in problems() {
        let mut solver = baseline_solver(&prob, churn_settings(20));
        let _ = solver.solve().unwrap();
        let before = allocs();
        solver.update_rho(0.37).unwrap();
        solver.update_rho(1.93).unwrap();
        let (calls, bytes) = since(before);
        assert_eq!(
            (calls, bytes),
            (0, 0),
            "{}: update_rho allocated {calls} times ({bytes} bytes)",
            prob.name()
        );
    }
}

#[test]
fn fpga_matrix_update_is_allocation_free() {
    // New values for P and A (same patterns) are written into the host's
    // KKT matrix in place; the KKT solve that follows each update
    // refactors and re-uploads the factor.
    for prob in problems() {
        let (p, a) = (prob.p(), prob.a());
        let (n, m) = (p.nrows(), a.nrows());
        let rho = vec![0.1; m];
        let config = ArchConfig::baseline(8);
        let (mut backend, _) = FpgaPcgBackend::new(p, a, 1e-6, &rho, config, 1e-10, 100);
        let scaled: Vec<(CsrMatrix, CsrMatrix)> = [0.5, 2.0, 3.0]
            .iter()
            .map(|&f| (p.map_values(|v| f * v), a.map_values(|v| v / f)))
            .collect();
        let (x, z, y, q) = (vec![0.1; n], vec![0.2; m], vec![-0.1; m], vec![0.3; n]);
        let (mut xt, mut zt) = (vec![0.0; n], vec![0.0; m]);
        backend.update_matrices(&scaled[0].0, &scaled[0].1, &rho).unwrap();
        backend.solve_kkt(&x, &z, &y, &q, &mut xt, &mut zt).unwrap();
        let before = allocs();
        for (p2, a2) in &scaled[1..] {
            backend.update_matrices(p2, a2, &rho).unwrap();
            backend.solve_kkt(&x, &z, &y, &q, &mut xt, &mut zt).unwrap();
        }
        let (calls, bytes) = since(before);
        assert_eq!(
            (calls, bytes),
            (0, 0),
            "{}: update_matrices allocated {calls} times ({bytes} bytes)",
            prob.name()
        );
    }
}
