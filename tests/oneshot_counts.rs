//! Exact ADMM and CG iteration counts of the benchmark's one-shot CPU PCG
//! instances at default settings, and the ADMM counts of the instances
//! whose KKT solve is exact (the dense-column elimination or the factor of
//! `K`) at eps 1e-8.
//!
//! The counts are deterministic, so a preconditioner or PCG regression
//! shows here as a changed number even where a wall-clock gate cannot see
//! it. The instances are the benchmark's `ONESHOT_SUITE` (generator seed
//! 1). Solving all six takes a few seconds in release and minutes in a
//! debug build, so the test only exists in release builds and is
//! `#[ignore]`d; run it with
//!
//! ```text
//! cargo test --release --test oneshot_counts -- --ignored
//! ```

#![cfg(not(debug_assertions))]

use rsqp::problems::{generate, Domain};
use rsqp::solver::{LinSysKind, Settings, Solver, Status};

/// `(domain, size, ADMM iterations, CG iterations)`. Only the portfolio
/// runs PCG (its dense rows); the lasso, SVM and Huber instances solve
/// their KKT systems through the dense-column elimination and the control
/// and eqqp instances through the factor of `K`, so they take no CG
/// iteration.
const COUNTS: [(Domain, usize, usize, usize); 6] = [
    (Domain::Control, 60, 75, 0),
    (Domain::Lasso, 200, 175, 0),
    (Domain::Svm, 200, 800, 0),
    (Domain::Huber, 160, 50, 0),
    (Domain::Eqqp, 400, 50, 0),
    (Domain::Portfolio, 30, 300, 300),
];

#[test]
#[ignore = "solves the six benchmark instances; run in release with --ignored"]
fn oneshot_pcg_iteration_counts_are_pinned() {
    let settings = Settings { linsys: LinSysKind::CpuPcg, ..Settings::default() };
    let mut got = Vec::new();
    for (domain, size, _, _) in COUNTS {
        let qp = generate(domain, size, 1);
        let r = Solver::new(&qp, settings.clone()).unwrap().solve().unwrap();
        assert_eq!(r.status, Status::Solved, "{}", qp.name());
        got.push((domain, size, r.iterations, r.backend.cg_iterations));
    }
    assert_eq!(got, COUNTS, "(domain, size, ADMM, CG) per instance");
}

/// `(domain, size, ADMM iterations)` at eps 1e-8: the same counts as LDLᵀ.
const TIGHT_COUNTS: [(Domain, usize, usize); 5] = [
    (Domain::Huber, 61, 100),
    (Domain::Huber, 160, 125),
    (Domain::Lasso, 200, 250),
    (Domain::Control, 60, 225),
    (Domain::Eqqp, 400, 75),
];

#[test]
#[ignore = "solves five instances at eps 1e-8; run in release with --ignored"]
fn exact_kkt_instances_reach_tight_tolerances() {
    // An exact KKT solve leaves no inner tolerance to hold ADMM back, so
    // CPU PCG needs as many ADMM iterations as LDLᵀ at eps 1e-8.
    let settings = Settings {
        linsys: LinSysKind::CpuPcg,
        eps_abs: 1e-8,
        eps_rel: 1e-8,
        max_iter: 20_000,
        ..Settings::default()
    };
    let mut got = Vec::new();
    for (domain, size, _) in TIGHT_COUNTS {
        let qp = generate(domain, size, 1);
        let r = Solver::new(&qp, settings.clone()).unwrap().solve().unwrap();
        assert_eq!(r.status, Status::Solved, "{}", qp.name());
        assert_eq!(r.backend.cg_iterations, 0, "{}", qp.name());
        got.push((domain, size, r.iterations));
    }
    assert_eq!(got, TIGHT_COUNTS, "(domain, size, ADMM) per instance");
}
