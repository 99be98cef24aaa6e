//! Asserts the ADMM steady state is allocation-free: once a solver is set
//! up, extra iterations must not touch the heap. Covered for both KKT
//! backends: the CPU-PCG kind, whose KKT factor is refactored in place at
//! the first solve after each ρ or matrix update, and LDLᵀ with the ρ
//! updates that refactorize it. The CPU-PCG kind runs on a box-constrained
//! QP, a portfolio (dense factor and budget rows), a budget QP (a dense row
//! over a tridiagonal `P`), and an SVM, a lasso and a Huber fit with dense
//! feature columns.
//!
//! Strategy: a counting global allocator tallies every allocation. Two
//! identical cold solvers run the same problem with a tiny tolerance (so
//! neither converges), one capped at a short iteration count and one at a
//! much longer count. If per-iteration work allocated anything, the longer
//! run would count more allocations; equality proves the steady state runs
//! entirely out of the pre-sized workspaces.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rsqp_problems::random::generate_budget;
use rsqp_problems::{generate, Domain};
use rsqp_solver::{
    CgTolerance, CpuPcgBackend, DirectLdltBackend, KktBackend, LinSysKind, QpProblem, Settings,
    SolveResult, Solver, Status,
};
use rsqp_sparse::CsrMatrix;

struct CountingAlloc;

thread_local! {
    // Per thread, so tests running in parallel do not count each other's
    // allocations. Every solver here runs on the test's own thread. A
    // const-initialized `Cell` needs no allocation or destructor, so the
    // allocator may touch it.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: delegates verbatim to the system allocator; the counter is a
// side effect with no aliasing or layout implications.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn alloc_count() -> usize {
    ALLOCS.with(Cell::get)
}

/// A small strictly convex QP with box constraints; easy to iterate on
/// forever without converging at an unreachable tolerance.
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
    let p = CsrMatrix::from_dense(&p_rows);
    let mut a_rows = vec![vec![0.0; n]; n + 2];
    for i in 0..n {
        a_rows[i][i] = 1.0;
    }
    for j in 0..n {
        a_rows[n][j] = 1.0;
        a_rows[n + 1][j] = if j % 2 == 0 { 1.0 } else { -1.0 };
    }
    let a = CsrMatrix::from_dense(&a_rows);
    let q: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.7).sin()).collect();
    let l = vec![-1.0; n + 2];
    let u = vec![1.0; n + 2];
    QpProblem::new(p, q, a, l, u).unwrap()
}

fn settings(max_iter: usize) -> Settings {
    Settings {
        linsys: LinSysKind::CpuPcg,
        max_iter,
        // Unreachable tolerance: every run ends at MaxIterationsReached, so
        // both solvers execute exactly `max_iter` full iterations.
        eps_abs: 1e-300,
        eps_rel: 1e-300,
        cg_tolerance: CgTolerance::Fixed(1e-10),
        polish: false,
        // Keep ρ adaptation on: its rebuild path must also be in-place.
        adaptive_rho: true,
        ..Settings::default()
    }
}

/// LDLᵀ settings that refactorize all the time: ρ is re-evaluated every
/// iteration and any proposed change is taken.
fn ldlt_settings(max_iter: usize) -> Settings {
    Settings {
        linsys: LinSysKind::DirectLdlt,
        adaptive_rho_interval: 1,
        adaptive_rho_tolerance: 1.0,
        check_termination: 1,
        ..settings(max_iter)
    }
}

/// A portfolio with 2 factors: its factor rows and budget row are dense.
fn portfolio() -> QpProblem {
    generate(Domain::Portfolio, 2, 1)
}

/// The problems the CPU-PCG kind runs on: the box QP, the portfolio, the
/// budget QP and the dense-column problems.
fn pcg_problems() -> Vec<QpProblem> {
    [problem(), portfolio(), generate_budget(40)]
        .into_iter()
        .chain(dense_column_problems())
        .collect()
}

/// The smallest SVM, lasso and Huber instances whose feature columns are
/// dense.
fn dense_column_problems() -> [QpProblem; 3] {
    [generate(Domain::Svm, 21, 1), generate(Domain::Lasso, 14, 1), generate(Domain::Huber, 19, 1)]
}

/// Runs a cold solve of `problem()` and returns the number of allocations
/// performed by `solve` itself (setup excluded) with the result.
fn counted_solve(settings: Settings) -> (usize, SolveResult) {
    counted_solve_of(&problem(), settings)
}

fn counted_solve_of(prob: &QpProblem, settings: Settings) -> (usize, SolveResult) {
    let max_iter = settings.max_iter;
    let mut solver = Solver::new(prob, settings).unwrap();
    let before = alloc_count();
    let result = solver.solve().unwrap();
    let during = alloc_count() - before;
    assert_eq!(result.status, Status::MaxIterationsReached);
    assert_eq!(result.iterations, max_iter);
    (during, result)
}

#[test]
fn admm_steady_state_is_allocation_free() {
    for prob in pcg_problems() {
        let allocs_for = |max_iter| counted_solve_of(&prob, settings(max_iter)).0;
        // Warm up lazy runtime allocations (stdout locks, etc.).
        let _ = allocs_for(5);
        let short = allocs_for(20);
        let (long, result) = counted_solve_of(&prob, settings(220));
        assert_eq!(
            short,
            long,
            "{}: a 220-iteration solve allocated {} times vs {} for 20 iterations — \
             the ADMM hot path is allocating per iteration",
            prob.name(),
            long,
            short
        );
        assert_eq!(result.backend.cg_iterations, 0, "{}: CG steps", prob.name());
    }
}

#[test]
fn manual_rho_update_is_allocation_free() {
    // `update_rho` rebuilds the per-constraint ρ vector into the existing
    // buffers and the backend writes its KKT matrix in place —
    // the whole call must never touch the heap once the solver exists.
    for prob in pcg_problems() {
        let mut solver = Solver::new(&prob, settings(20)).unwrap();
        let _ = solver.solve().unwrap();
        let before = alloc_count();
        solver.update_rho(0.37).unwrap();
        solver.update_rho(1.93).unwrap();
        let during = alloc_count() - before;
        assert_eq!(
            during,
            0,
            "{}: update_rho allocated {during} times — the in-place ρ rebuild is \
             allocating",
            prob.name()
        );
    }
}

/// Allocation count of an update→re-solve loop (setup and warm-up solve
/// excluded): three ρ updates, each followed by a full `max_iter` solve.
fn allocs_for_update_loop(max_iter: usize) -> usize {
    let prob = problem();
    let mut solver = Solver::new(&prob, settings(max_iter)).unwrap();
    let _ = solver.solve().unwrap();
    let before = alloc_count();
    for k in 0..3usize {
        solver.update_rho(0.1 * (k + 1) as f64).unwrap();
        let result = solver.solve().unwrap();
        assert_eq!(result.status, Status::MaxIterationsReached);
        assert_eq!(result.iterations, max_iter);
    }
    alloc_count() - before
}

#[test]
fn update_resolve_loop_is_allocation_free_per_iteration() {
    // The parametric repeated-solve loop (MPC-style: update, re-solve,
    // repeat) must not accumulate allocations with iteration count: the
    // per-solve totals at 20 and 220 iterations agree exactly, so neither
    // the updates nor the extra 200 iterations per solve touched the heap.
    let _ = allocs_for_update_loop(5);
    let short = allocs_for_update_loop(20);
    let long = allocs_for_update_loop(220);
    assert_eq!(
        short, long,
        "an update→re-solve loop at 220 iterations allocated {} times vs {} \
         at 20 iterations — the parametric path is allocating per iteration",
        long, short
    );
}

#[test]
fn backend_matrix_updates_are_allocation_free() {
    // New values for P and A (same patterns) and a new ρ are written into
    // the KKT matrix in place, through the positions recorded at assembly,
    // and the refactorization (at the update on LDLᵀ, at the KKT solve that
    // follows on the CPU-PCG kind) runs in place.
    for (prob, direct) in pcg_problems().into_iter().flat_map(|p| [(p.clone(), false), (p, true)]) {
        let (p, a) = (prob.p(), prob.a());
        let (n, m) = (p.nrows(), a.nrows());
        let rho = vec![0.1; m];
        let mut backend: Box<dyn KktBackend> = if direct {
            Box::new(DirectLdltBackend::new(p, a, 1e-6, &rho).unwrap())
        } else {
            Box::new(CpuPcgBackend::new(p, a, 1e-6, &rho))
        };
        let scaled: Vec<(CsrMatrix, CsrMatrix)> = [0.5, 2.0, 3.0]
            .iter()
            .map(|&f| (p.map_values(|v| f * v), a.map_values(|v| v / f)))
            .collect();
        let rhos: Vec<Vec<f64>> = [0.3, 1.7].iter().map(|&r| vec![r; m]).collect();
        let (x, z, y, q) = (vec![0.1; n], vec![0.2; m], vec![-0.1; m], vec![0.3; n]);
        let (mut xt, mut zt) = (vec![0.0; n], vec![0.0; m]);
        backend.update_matrices(&scaled[0].0, &scaled[0].1, &rho).unwrap();
        backend.solve_kkt(&x, &z, &y, &q, &mut xt, &mut zt).unwrap();
        let before = alloc_count();
        for ((p2, a2), rho) in scaled[1..].iter().zip(&rhos) {
            backend.update_matrices(p2, a2, rho).unwrap();
            backend.solve_kkt(&x, &z, &y, &q, &mut xt, &mut zt).unwrap();
            backend.update_rho(rho).unwrap();
            backend.solve_kkt(&x, &z, &y, &q, &mut xt, &mut zt).unwrap();
        }
        let during = alloc_count() - before;
        let name = format!("{} on {}", prob.name(), backend.name());
        assert_eq!(during, 0, "{name}: update_matrices allocated {during} times");
    }
}

#[test]
fn solver_matrix_update_is_allocation_free() {
    // `Solver::update_matrices` re-equilibrates into the solver's scaled
    // data, rescales the iterates and bounds in place and hands the values
    // to the backend, which writes its KKT matrix in place too. The
    // solver owns its problem here; a shared `Arc` would be copied once.
    let problems = [portfolio(), generate_budget(40), generate(Domain::Huber, 19, 1)];
    for (prob, settings) in problems.into_iter().flat_map(|p| {
        [
            (p.clone(), settings(20)),
            (p, Settings { linsys: LinSysKind::DirectLdlt, ..settings(20) }),
        ]
    }) {
        let mut solver = Solver::new(&prob, settings).unwrap();
        let _ = solver.solve().unwrap();
        let (p, a) = (prob.p(), prob.a());
        let updates: Vec<(CsrMatrix, CsrMatrix)> = [0.5, 2.0, 3.0]
            .iter()
            .map(|&f| (p.map_values(|v| f * v), a.map_values(|v| v / f)))
            .collect();
        let before = alloc_count();
        for (p2, a2) in updates {
            solver.update_matrices(Some(p2), Some(a2)).unwrap();
        }
        let during = alloc_count() - before;
        assert_eq!(during, 0, "{}: Solver::update_matrices allocated {during} times", prob.name());
        let result = solver.solve().unwrap();
        assert_eq!(result.status, Status::MaxIterationsReached);
    }
}

#[test]
fn solver_cost_and_bounds_updates_are_allocation_free() {
    // `Solver::update_q` and `Solver::update_bounds` move the new vectors
    // into the problem and scale them into the solver's buffers; a ρ
    // reclassification refreshes the backend in place. The new values come
    // from other seeds of the same structure, built outside the counted
    // region.
    for (domain, size) in [(Domain::Portfolio, 2), (Domain::Control, 4)] {
        let mut solver = Solver::new(generate(domain, size, 1), settings(20)).unwrap();
        let _ = solver.solve().unwrap();
        let updates: Vec<QpProblem> = (2..4).map(|seed| generate(domain, size, seed)).collect();
        let vectors: Vec<_> =
            updates.iter().map(|qp| (qp.q().to_vec(), qp.l().to_vec(), qp.u().to_vec())).collect();
        let before = alloc_count();
        for (q, l, u) in vectors {
            solver.update_q(q).unwrap();
            solver.update_bounds(l, u).unwrap();
        }
        let during = alloc_count() - before;
        assert_eq!(during, 0, "{domain}: update_q/update_bounds allocated {during} times");
        assert_eq!(solver.problem().q(), updates[1].q());
        assert_eq!(solver.problem().l(), updates[1].l());
        let result = solver.solve().unwrap();
        assert_eq!(result.status, Status::MaxIterationsReached);
    }
}

#[test]
fn ldlt_steady_state_with_refactorizations_is_allocation_free() {
    // Every ρ change refactorizes the permuted KKT matrix in place; the
    // 220-iteration solve does many more of them than the 20-iteration one
    // and still allocates exactly as often.
    let _ = counted_solve(ldlt_settings(5));
    let (short, short_result) = counted_solve(ldlt_settings(20));
    let (long, long_result) = counted_solve(ldlt_settings(220));
    let (short_f, long_f) =
        (short_result.backend.factorizations, long_result.backend.factorizations);
    assert!(short_f > 1, "the short solve must refactorize ({short_f} factorizations)");
    assert!(long_f > short_f, "{long_f} vs {short_f} factorizations");
    assert_eq!(
        short, long,
        "a 220-iteration LDLᵀ solve ({long_f} factorizations) allocated {long} times vs \
         {short} for 20 iterations ({short_f} factorizations) — refactorization or the \
         direct KKT solve is allocating"
    );
}

#[test]
fn manual_ldlt_rho_update_is_allocation_free() {
    // `update_rho` on the direct backend refreshes the KKT values,
    // refactorizes into the existing factor and refills ρ⁻¹ in place.
    let prob = problem();
    let mut solver = Solver::new(&prob, ldlt_settings(20)).unwrap();
    let _ = solver.solve().unwrap();
    let before = alloc_count();
    solver.update_rho(0.37).unwrap();
    solver.update_rho(1.93).unwrap();
    let during = alloc_count() - before;
    assert_eq!(during, 0, "LDLᵀ update_rho allocated {during} times");
}
