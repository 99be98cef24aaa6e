//! Property tests for the deterministic parallel kernel layer.
//!
//! Two guarantees are asserted:
//!
//! * **parallel == serial** — every `_par` kernel and partitioned SpMV
//!   produces the same result as its serial counterpart (bitwise where the
//!   contract promises it, within an ulp-scaled tolerance otherwise);
//! * **thread-count independence** — results are *bit-identical* across
//!   pools of 1, 2, and 8 threads, because chunk grids depend only on the
//!   input, never on the pool.

use proptest::prelude::*;
use rsqp_par::ThreadPool;
use rsqp_sparse::{vec_ops, CooMatrix, CsrMatrix, RowPartition, TransposeCache};

/// Pool sizes the determinism contract is checked over.
const POOLS: [usize; 3] = [1, 2, 8];

fn arb_vec(len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-100.0f64..100.0, len)
}

/// Random sparse matrix with `nrows x ncols` shape and ~`density` fill.
fn arb_csr(nrows: usize, ncols: usize) -> impl Strategy<Value = CsrMatrix> {
    prop::collection::vec((0..nrows, 0..ncols, -10.0f64..10.0), 1..(nrows * ncols).min(400))
        .prop_map(move |triplets| {
            let mut coo = CooMatrix::new(nrows, ncols);
            for (i, j, v) in triplets {
                coo.push(i, j, v);
            }
            coo.to_csr()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // `dot_par` is bit-identical across pool sizes, and within an
    // ulp-scaled tolerance of the serial left-to-right sum (the chunked
    // reduction reassociates, so bitwise equality with `dot` is not
    // promised above the serial-fallback threshold).
    #[test]
    fn dot_par_matches_serial_and_pools(len in 1usize..20_000, seed in 0u64..1000) {
        let x: Vec<f64> = (0..len).map(|i| ((seed + i as u64) % 17) as f64 - 8.0).collect();
        let y: Vec<f64> = (0..len).map(|i| ((seed + 3 * i as u64) % 13) as f64 - 6.0).collect();
        let serial = vec_ops::dot(&x, &y);
        let mut bits = Vec::new();
        for threads in POOLS {
            let pool = ThreadPool::new(threads);
            let par = vec_ops::dot_par(&x, &y, &pool);
            let scale = x.iter().zip(&y).map(|(a, b)| (a * b).abs()).sum::<f64>().max(1.0);
            prop_assert!(
                (par - serial).abs() <= 1e-12 * scale,
                "dot_par {} vs serial {} at len {}", par, serial, len
            );
            bits.push(par.to_bits());
        }
        prop_assert!(bits.windows(2).all(|w| w[0] == w[1]), "dot_par varies across pools");
    }

    // Elementwise `_par` kernels are *bitwise* equal to their serial
    // counterparts for any pool size (each element's arithmetic is
    // identical; only the writer thread differs).
    #[test]
    fn elementwise_par_bitwise_serial(
        x in arb_vec(300),
        y in arb_vec(300),
        a in -5.0f64..5.0,
        b in -5.0f64..5.0,
    ) {
        let mut want = y.clone();
        vec_ops::lincomb(a, &x, b, &mut want);
        for threads in POOLS {
            let pool = ThreadPool::new(threads);
            let mut got = y.clone();
            vec_ops::lincomb_par(a, &x, b, &mut got, &pool);
            prop_assert!(
                want.iter().zip(&got).all(|(w, g)| w.to_bits() == g.to_bits()),
                "lincomb_par differs from lincomb at {} threads", threads
            );
        }
    }

    // Partitioned SpMV is bitwise equal to the serial kernel: each output
    // row is an independent left-to-right dot product regardless of which
    // chunk computes it.
    #[test]
    fn spmv_partitioned_bitwise_serial(m in arb_csr(40, 30), x in arb_vec(30)) {
        let mut want = vec![0.0; m.nrows()];
        m.spmv(&x, &mut want).unwrap();
        for threads in POOLS {
            let pool = ThreadPool::new(threads);
            for chunks in [1usize, 3, 16] {
                let part = RowPartition::balanced(&m, chunks);
                let mut got = vec![0.0; m.nrows()];
                m.spmv_partitioned(&x, &mut got, &pool, &part).unwrap();
                prop_assert!(
                    want.iter().zip(&got).all(|(w, g)| w.to_bits() == g.to_bits()),
                    "spmv_partitioned differs at {} threads / {} chunks", threads, chunks
                );
            }
        }
    }

    // The gather transpose is bitwise equal to the scatter kernel and
    // tracks value updates through `refresh_values`.
    #[test]
    fn transpose_cache_bitwise_scatter(m in arb_csr(25, 35), x in arb_vec(25)) {
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
