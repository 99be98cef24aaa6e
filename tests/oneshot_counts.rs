//! Exact ADMM and CG iteration counts of the benchmark's one-shot CPU PCG
//! instances at default settings, and ADMM counts at eps 1e-8. The CPU-PCG
//! kind solves every KKT system through the LDLᵀ of the KKT matrix under
//! AMD, formed at its first solve, so it takes LDLᵀ's steps.
//!
//! The counts are deterministic, so a KKT-solve or ADMM regression shows
//! here as a changed number even where a wall-clock gate cannot see it. The instances are the benchmark's `ONESHOT_SUITE` (generator seed
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

/// `(domain, size, ADMM iterations, CG iterations)`. None runs PCG.
const COUNTS: [(Domain, usize, usize, usize); 6] = [
    (Domain::Control, 60, 75, 0),
    (Domain::Lasso, 200, 175, 0),
    (Domain::Svm, 200, 800, 0),
    (Domain::Huber, 160, 50, 0),
    (Domain::Eqqp, 400, 50, 0),
    (Domain::Portfolio, 30, 300, 0),
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
const TIGHT_COUNTS: [(Domain, usize, usize); 6] = [
    (Domain::Huber, 61, 100),
    (Domain::Huber, 160, 125),
    (Domain::Lasso, 200, 250),
    (Domain::Control, 60, 225),
    (Domain::Eqqp, 400, 75),
    (Domain::Portfolio, 30, 2050),
];

#[test]
#[ignore = "solves six instances at eps 1e-8; run in release with --ignored"]
fn exact_kkt_instances_reach_tight_tolerances() {
    // The direct KKT solve leaves no inner tolerance to hold ADMM back, so
    // the CPU-PCG kind needs as many ADMM iterations as LDLᵀ at eps 1e-8.
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

/// The CPU-PCG kind takes LDLᵀ's ADMM steps: on portfolio sizes 2 to 40
/// at eps 1e-3, 1e-5 and 1e-8, it (with no CG iteration) and `DirectLdlt`
/// need the same number of ADMM iterations.
#[test]
#[ignore = "solves 18 portfolios on two backends; run in release with --ignored"]
fn portfolios_take_ldlts_admm_counts() {
    let mut mismatches = Vec::new();
    for size in [2, 5, 10, 20, 30, 40] {
        let qp = generate(Domain::Portfolio, size, 1);
        for eps in [1e-3, 1e-5, 1e-8] {
            let solve = |linsys| {
                let settings = Settings {
                    linsys,
                    eps_abs: eps,
                    eps_rel: eps,
                    max_iter: 20_000,
                    ..Default::default()
                };
                Solver::new(&qp, settings).unwrap().solve().unwrap()
            };
            let (pcg, ldlt) = (solve(LinSysKind::CpuPcg), solve(LinSysKind::DirectLdlt));
            assert_eq!(
                (pcg.status, ldlt.status),
                (Status::Solved, Status::Solved),
                "{}",
                qp.name()
            );
            assert_eq!(pcg.backend.cg_iterations, 0, "{}", qp.name());
            if pcg.iterations != ldlt.iterations {
                mismatches.push(format!(
                    "{} at eps {eps:e}: {} ADMM vs LDLᵀ's {}",
                    qp.name(),
                    pcg.iterations,
                    ldlt.iterations
                ));
            }
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
