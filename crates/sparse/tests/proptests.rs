//! Property-based tests for the sparse kernels.

use proptest::prelude::*;
use rsqp_sparse::{vec_ops, CooMatrix, CsrMatrix, TransposeCache};

/// Strategy: a random sparse matrix as (nrows, ncols, triplets).
fn arb_matrix() -> impl Strategy<Value = (usize, usize, Vec<(usize, usize, f64)>)> {
    (1usize..16, 1usize..16).prop_flat_map(|(r, c)| {
        let triplet = (0..r, 0..c, -10.0f64..10.0);
        (Just(r), Just(c), prop::collection::vec(triplet, 0..60))
    })
}

/// A random `nrows × ncols` CSR matrix with duplicates summed.
fn arb_csr(nrows: usize, ncols: usize) -> impl Strategy<Value = CsrMatrix> {
    prop::collection::vec((0..nrows, 0..ncols, -10.0f64..10.0), 1..(nrows * ncols).min(400))
        .prop_map(move |triplets| {
            let mut coo = CooMatrix::new(nrows, ncols);
            coo.extend(triplets);
            coo.to_csr()
        })
}

fn dense_of(triplets: &[(usize, usize, f64)], r: usize, c: usize) -> Vec<Vec<f64>> {
    let mut d = vec![vec![0.0; c]; r];
    for &(i, j, v) in triplets {
        d[i][j] += v;
    }
    d
}

proptest! {
    #[test]
    fn csr_matches_dense_spmv((r, c, ts) in arb_matrix(), seed in 0u64..1000) {
        let mut coo = CooMatrix::new(r, c);
        coo.extend(ts.iter().copied());
        let m = coo.to_csr();
        let dense = dense_of(&ts, r, c);
        // deterministic pseudo-random input vector
        let x: Vec<f64> = (0..c).map(|j| ((seed + j as u64) % 7) as f64 - 3.0).collect();
        let mut y = vec![0.0; r];
        m.spmv(&x, &mut y).unwrap();
        for i in 0..r {
            let want: f64 = (0..c).map(|j| dense[i][j] * x[j]).sum();
            prop_assert!((y[i] - want).abs() < 1e-9, "row {} got {} want {}", i, y[i], want);
        }
    }

    #[test]
    fn transpose_is_involutive((r, c, ts) in arb_matrix()) {
        let m = CsrMatrix::from_triplets(r, c, ts);
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn csc_roundtrip((r, c, ts) in arb_matrix()) {
        let m = CsrMatrix::from_triplets(r, c, ts);
        prop_assert_eq!(m.to_csc().to_csr(), m);
    }

    #[test]
    fn spmv_transpose_agrees_with_materialized((r, c, ts) in arb_matrix()) {
        let m = CsrMatrix::from_triplets(r, c, ts);
        let x: Vec<f64> = (0..r).map(|i| (i as f64) - 2.0).collect();
        let mut y1 = vec![0.0; c];
        let mut y2 = vec![0.0; c];
        m.spmv_transpose(&x, &mut y1).unwrap();
        m.transpose().spmv(&x, &mut y2).unwrap();
        for (a, b) in y1.iter().zip(&y2) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn row_permutation_preserves_multiset_of_rows((r, c, ts) in arb_matrix()) {
        let m = CsrMatrix::from_triplets(r, c, ts);
        let perm: Vec<usize> = (0..r).rev().collect();
        let p = m.permute_rows(&perm);
        for i in 0..r {
            prop_assert_eq!(p.row(i), m.row(perm[i]));
        }
    }

    #[test]
    fn vec_ops_lincomb_is_linear(x in prop::collection::vec(-10.0f64..10.0, 1..20), a in -3.0f64..3.0) {
        let y0: Vec<f64> = x.iter().map(|v| v * 2.0).collect();
        let mut y = y0.clone();
        vec_ops::lincomb(a, &x, 1.0, &mut y);
        for i in 0..x.len() {
            prop_assert!((y[i] - (y0[i] + a * x[i])).abs() < 1e-9);
        }
    }

    #[test]
    fn projection_is_idempotent(x in prop::collection::vec(-10.0f64..10.0, 1..20)) {
        let l: Vec<f64> = x.iter().map(|_| -1.0).collect();
        let u: Vec<f64> = x.iter().map(|_| 1.0).collect();
        let mut once = vec![0.0; x.len()];
        vec_ops::project_box(&x, &l, &u, &mut once);
        let mut twice = vec![0.0; x.len()];
        vec_ops::project_box(&once, &l, &u, &mut twice);
        prop_assert_eq!(once, twice);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // The gather transpose is bitwise equal to the scatter kernel and
    // tracks value updates through `refresh_values`.
    #[test]
    fn transpose_cache_bitwise_scatter(
        m in arb_csr(25, 35),
        x in prop::collection::vec(-100.0f64..100.0, 25),
    ) {
        let cache = TransposeCache::new(&m);
        let mut scatter = vec![0.0; m.ncols()];
        m.spmv_transpose(&x, &mut scatter).unwrap();
        let mut gather = vec![0.0; m.ncols()];
        cache.spmv(&x, &mut gather).unwrap();
        prop_assert!(scatter.iter().zip(&gather).all(|(s, g)| s.to_bits() == g.to_bits()));

        // Same pattern, new values: refresh must track exactly.
        let mut m2 = m.clone();
        for v in m2.data_mut() {
            *v *= -1.5;
        }
        let mut cache2 = cache.clone();
        cache2.refresh_values(&m2).unwrap();
        let mut scatter2 = vec![0.0; m.ncols()];
        m2.spmv_transpose(&x, &mut scatter2).unwrap();
        let mut gather2 = vec![0.0; m.ncols()];
        cache2.spmv(&x, &mut gather2).unwrap();
        prop_assert!(scatter2.iter().zip(&gather2).all(|(s, g)| s.to_bits() == g.to_bits()));
    }
}
