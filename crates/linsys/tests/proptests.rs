//! Property-based tests: LDLᵀ and PCG must agree with each other and with
//! dense ground truth on randomly generated quasi-definite KKT systems, and
//! AMD must order any pattern.

use proptest::prelude::*;
use rsqp_linsys::{
    amd_ordering, pcg_with, KktMatrix, Ldlt, PcgSettings, PcgWorkspace, ReducedKktOp,
};
use rsqp_par::ThreadPool;
use rsqp_sparse::CsrMatrix;

/// Random sparse PSD matrix P = B·Bᵀ (dense-constructed, sparsified) and a
/// random constraint matrix A.
fn arb_qp_data() -> impl Strategy<Value = (CsrMatrix, CsrMatrix)> {
    (2usize..8, 1usize..8).prop_flat_map(|(n, m)| {
        let b_entries = prop::collection::vec(-2.0f64..2.0, n * n);
        let a_entries = prop::collection::vec((-2.0f64..2.0, 0.0f64..1.0), m * n);
        (Just(n), Just(m), b_entries, a_entries).prop_map(|(n, m, be, ae)| {
            // P = B Bᵀ with B lower triangular => PSD.
            let mut p = vec![vec![0.0; n]; n];
            for i in 0..n {
                for j in 0..n {
                    let mut acc = 0.0;
                    for k in 0..=i.min(j) {
                        acc += be[i * n + k] * be[j * n + k];
                    }
                    p[i][j] = acc;
                }
            }
            let p = CsrMatrix::from_dense(&p);
            let mut a = vec![vec![0.0; n]; m];
            for i in 0..m {
                for j in 0..n {
                    let (v, keep) = ae[i * n + j];
                    if keep < 0.5 {
                        a[i][j] = v;
                    }
                }
            }
            (p, CsrMatrix::from_dense(&a))
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ldlt_solves_kkt_systems((p, a) in arb_qp_data(), seed in 0u64..100) {
        let n = p.nrows();
        let m = a.nrows();
        let rho: Vec<f64> = (0..m).map(|i| 0.1 + (i as f64 % 3.0)).collect();
        let kkt = KktMatrix::assemble(&p, &a, 1e-6, &rho).unwrap();
        let f = Ldlt::factor(kkt.matrix()).unwrap();
        prop_assert_eq!(f.num_positive_d(), n);
        let b: Vec<f64> = (0..n + m).map(|i| (((seed + i as u64) % 11) as f64) - 5.0).collect();
        let x = f.solve(&b).unwrap();
        // Residual check against the full symmetric KKT.
        let mut full = rsqp_sparse::CooMatrix::new(n + m, n + m);
        let u = kkt.matrix();
        for j in 0..n + m {
            let (rows, vals) = u.col(j);
            for (&i, &v) in rows.iter().zip(vals) {
                full.push(i, j, v);
                if i != j {
                    full.push(j, i, v);
                }
            }
        }
        let full = full.to_csr();
        let mut ax = vec![0.0; n + m];
        full.spmv(&x, &mut ax).unwrap();
        let scale = 1.0 + rsqp_sparse::vec_ops::inf_norm(&x);
        for (got, want) in ax.iter().zip(&b) {
            prop_assert!((got - want).abs() < 1e-7 * scale, "res {} vs {}", got, want);
        }
    }

    #[test]
    fn pcg_agrees_with_direct_reduction((p, a) in arb_qp_data()) {
        let n = p.nrows();
        let m = a.nrows();
        let sigma = 1e-4;
        let rho = vec![0.7; m];
        // Direct: KKT solve with rhs [b1; b2].
        let kkt = KktMatrix::assemble(&p, &a, sigma, &rho).unwrap();
        let f = Ldlt::factor(kkt.matrix()).unwrap();
        let b1: Vec<f64> = (0..n).map(|i| (i as f64 * 1.3).cos()).collect();
        let b2: Vec<f64> = (0..m).map(|i| (i as f64 * 0.9).sin()).collect();
        let mut rhs: Vec<f64> = b1.iter().chain(b2.iter()).copied().collect();
        f.solve_in_place(&mut rhs).unwrap();
        // Indirect: reduced system with rhs b1 + Aᵀ(rho .* b2).
        let at = a.transpose();
        let mut reduced_b = b1.clone();
        let scaled: Vec<f64> = b2.iter().zip(&rho).map(|(v, r)| v * r).collect();
        at.spmv_acc(1.0, &scaled, &mut reduced_b).unwrap();
        let mut op = ReducedKktOp::new(&p, &a, sigma, &rho).unwrap();
        let mut x = vec![0.0; n];
        pcg_with(
            &mut op,
            &reduced_b,
            &mut x,
            &PcgSettings { eps: 1e-12, max_iter: 10_000 },
            &mut PcgWorkspace::new(n),
            &ThreadPool::serial(),
        )
        .unwrap();
        let scale = 1.0 + rsqp_sparse::vec_ops::inf_norm(&rhs[..n]);
        for i in 0..n {
            prop_assert!(
                (x[i] - rhs[i]).abs() < 1e-5 * scale,
                "component {}: pcg {} direct {}",
                i, x[i], rhs[i]
            );
        }
    }

    // Random patterns, with vertices above AMD's dense threshold once n > 16:
    // the ordering is a permutation and repeats bit for bit.
    #[test]
    fn amd_orders_random_patterns(
        n in 1usize..60,
        edges in prop::collection::vec((0usize..60, 0usize..60), 0..300),
    ) {
        let mut t: Vec<(usize, usize, f64)> = (0..n).map(|i| (i, i, 1.0)).collect();
        for (a, b) in edges {
            let (a, b) = (a % n, b % n);
            t.push((a.min(b), a.max(b), 1.0));
        }
        let upper = CsrMatrix::from_triplets(n, n, t).to_csc();
        let perm = amd_ordering(&upper).unwrap();
        let mut sorted = perm.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..n).collect::<Vec<_>>());
        prop_assert_eq!(perm, amd_ordering(&upper).unwrap());
    }
}
