//! Exact ADMM and CG iteration counts of the benchmark's one-shot CPU PCG
//! instances at default settings.
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

/// `(domain, size, ADMM iterations, CG iterations)`.
const COUNTS: [(Domain, usize, usize, usize); 6] = [
    (Domain::Control, 60, 75, 1968),
    (Domain::Lasso, 200, 225, 172),
    (Domain::Svm, 200, 800, 800),
    (Domain::Huber, 160, 150, 116),
    (Domain::Eqqp, 400, 75, 2185),
    (Domain::Portfolio, 30, 375, 300),
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
