//! Fill-reducing ordering behaviour on real benchmark KKT matrices.

use rsqp::linsys::{amd_ordering, rcm_ordering, KktMatrix, Ldlt, SymmetricPermutation};
use rsqp::problems::{generate, Domain};
use rsqp::solver::{KktOrdering, Settings, Solver, Status};

fn kkt_fill(domain: Domain, size: usize, ordering: KktOrdering) -> usize {
    let qp = generate(domain, size, 1);
    let rho = vec![0.1; qp.num_constraints()];
    let kkt = KktMatrix::assemble(qp.p(), qp.a(), 1e-6, &rho).unwrap();
    let mat = match ordering {
        KktOrdering::Natural => kkt.matrix().clone(),
        KktOrdering::Rcm => {
            SymmetricPermutation::new(kkt.matrix(), rcm_ordering(kkt.matrix()).unwrap())
                .unwrap()
                .matrix()
                .clone()
        }
        KktOrdering::Amd => {
            SymmetricPermutation::new(kkt.matrix(), amd_ordering(kkt.matrix()).unwrap())
                .unwrap()
                .matrix()
                .clone()
        }
    };
    Ldlt::factor(&mat).expect("KKT is quasi-definite").l_nnz()
}

#[test]
fn amd_reduces_fill_on_benchmark_kkt() {
    for (domain, size) in [(Domain::Control, 6), (Domain::Lasso, 8), (Domain::Svm, 8)] {
        let natural = kkt_fill(domain, size, KktOrdering::Natural);
        let amd = kkt_fill(domain, size, KktOrdering::Amd);
        assert!(amd <= natural, "{domain}: AMD fill {amd} vs natural {natural}");
    }
}

/// `l_nnz` of the KKT factor (generator seed 1, σ = 1e-6, ρ = 0.1) under
/// the classical minimum-degree ordering AMD replaced, on the benchmark's
/// instances.
const MIN_DEGREE_FILL: [(Domain, usize, usize); 7] = [
    (Domain::Control, 60, 105_660),
    (Domain::Lasso, 200, 82_900),
    (Domain::Svm, 200, 83_900),
    (Domain::Huber, 160, 59_120),
    (Domain::Eqqp, 400, 91_800),
    (Domain::Portfolio, 30, 51_495),
    (Domain::Control, 40, 47_240),
];

/// AMD's `l_nnz` on the `MIN_DEGREE_FILL` instances, in the same order,
/// before the mean-relative dense threshold (feature columns still in the
/// quotient graph).
const FULL_GRAPH_AMD_FILL: [usize; 7] = [106_950, 82_900, 83_900, 59_120, 91_800, 51_495, 47_700];

/// AMD's `l_nnz` on the small suite (generator seed 1, σ = 1e-6, ρ = 0.1)
/// before the mean-relative dense threshold, per domain at sizes 4, 8, 20
/// and 50.
const SMALL_SUITE_SIZES: [usize; 4] = [4, 8, 20, 50];
const SMALL_SUITE_AMD_FILL: [(Domain, [usize; 4]); 6] = [
    (Domain::Control, [522, 1_988, 12_050, 74_375]),
    (Domain::Portfolio, [1_620, 4_865, 24_230, 136_325]),
    (Domain::Lasso, [88, 239, 1_090, 5_725]),
    (Domain::Huber, [225, 522, 1_790, 7_475]),
    (Domain::Svm, [108, 278, 1_190, 5_975]),
    (Domain::Eqqp, [1, 10, 143, 1_333]),
];

#[test]
fn amd_fill_stays_within_ten_percent_of_minimum_degree() {
    for (domain, size, min_degree) in MIN_DEGREE_FILL {
        let amd = kkt_fill(domain, size, KktOrdering::Amd);
        assert!(
            amd as f64 <= 1.10 * min_degree as f64,
            "{domain} {size}: AMD fill {amd} vs minimum-degree fill {min_degree}"
        );
    }
}

#[test]
fn amd_fill_does_not_exceed_full_graph_amd_on_benchmark_instances() {
    for ((domain, size, _), full_graph) in MIN_DEGREE_FILL.into_iter().zip(FULL_GRAPH_AMD_FILL) {
        let amd = kkt_fill(domain, size, KktOrdering::Amd);
        assert!(
            amd <= full_graph,
            "{domain} {size}: AMD fill {amd} vs full-graph AMD {full_graph}"
        );
    }
}

#[test]
fn amd_fill_stays_within_ten_percent_of_full_graph_amd_on_the_small_suite() {
    assert_eq!(SMALL_SUITE_AMD_FILL.map(|(d, _)| d), Domain::all());
    for (domain, fills) in SMALL_SUITE_AMD_FILL {
        for (size, full_graph) in SMALL_SUITE_SIZES.into_iter().zip(fills) {
            let amd = kkt_fill(domain, size, KktOrdering::Amd);
            assert!(
                amd as f64 <= 1.10 * full_graph as f64,
                "{domain} {size}: AMD fill {amd} vs full-graph AMD {full_graph}"
            );
        }
    }
}

#[test]
fn all_orderings_give_identical_solutions() {
    let qp = generate(Domain::Control, 4, 5);
    let mut objectives = Vec::new();
    for ordering in [KktOrdering::Natural, KktOrdering::Rcm, KktOrdering::Amd] {
        let settings = Settings { ordering, eps_abs: 1e-6, eps_rel: 1e-6, ..Default::default() };
        let mut s = Solver::new(&qp, settings).unwrap();
        let r = s.solve().unwrap();
        assert_eq!(r.status, Status::Solved, "{ordering:?}");
        objectives.push(r.objective);
    }
    for w in objectives.windows(2) {
        assert!((w[0] - w[1]).abs() < 1e-6, "objectives differ: {objectives:?}");
    }
}

#[test]
fn rho_update_refactorizes_correctly_under_permutation() {
    // An equality-heavy problem drives adaptive-rho updates through the
    // permuted refactorization path.
    let qp = generate(Domain::Eqqp, 20, 2);
    let settings =
        Settings { ordering: KktOrdering::Amd, eps_abs: 1e-6, eps_rel: 1e-6, ..Default::default() };
    let mut s = Solver::new(&qp, settings).unwrap();
    let r = s.solve().unwrap();
    assert_eq!(r.status, Status::Solved);
    assert!(qp.primal_infeasibility(&r.x) < 1e-4);
}
