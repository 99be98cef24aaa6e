//! Every row product equals an independent one-row reference loop, bit for
//! bit.
//!
//! The CSR row kernel sums several rows at once, but each row is still
//! summed left to right from `0.0`. The reference below is the plain loop
//! that contract describes, kept here and nowhere else, so the kernel is
//! compared with something other than itself. The matrices have empty
//! rows, every row count modulo four (and fewer than four rows), and
//! sometimes one very long row among short ones; `x` holds NaN, ±∞, −0.0
//! and subnormals.

use proptest::prelude::*;
use rsqp_sparse::{CooMatrix, CsrMatrix, TransposeCache};

/// Values that make a summation order visible: signed zeros, subnormals,
/// infinities, NaN, and magnitudes whose sums round.
const SPECIALS: [f64; 8] =
    [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 5e-324, -2.2e-308, 1e300, -1e-16];

/// Deterministic xorshift64* stream for the matrix and vector contents.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed | 1)
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn value(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * 200.0 - 100.0
    }

    /// A value, one time in `one_in` a special one.
    fn value_or_special(&mut self, one_in: usize) -> f64 {
        if self.below(one_in) == 0 {
            SPECIALS[self.below(SPECIALS.len())]
        } else {
            self.value()
        }
    }
}

/// A random `nrows × ncols` matrix: about a quarter of the rows empty, the
/// rest with up to eight entries, and with `long_row` one row holding
/// every column.
fn random_csr(rng: &mut Rng, nrows: usize, ncols: usize, long_row: bool) -> CsrMatrix {
    let mut coo = CooMatrix::new(nrows, ncols);
    let long = if long_row && nrows > 0 { Some(rng.below(nrows)) } else { None };
    for i in 0..nrows {
        if Some(i) == long {
            for j in 0..ncols {
                coo.push(i, j, rng.value_or_special(16));
            }
        } else if rng.below(4) != 0 {
            for _ in 0..=rng.below(8) {
                coo.push(i, rng.below(ncols), rng.value_or_special(16));
            }
        }
    }
    coo.to_csr()
}

/// The one-row loop: row `i` summed left to right from `0.0`.
fn reference_dots(m: &CsrMatrix, x: &[f64]) -> Vec<f64> {
    (0..m.nrows())
        .map(|i| {
            let (cols, vals) = m.row(i);
            let mut acc = 0.0;
            for (&j, &v) in cols.iter().zip(vals) {
                acc += v * x[j];
            }
            acc
        })
        .collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|e| e.to_bits()).collect()
}

/// Checks `spmv` and `spmv_acc` of `m` against the reference, from the
/// output `y0`.
fn check_all_forms(m: &CsrMatrix, x: &[f64], y0: &[f64]) -> Result<(), TestCaseError> {
    let dots = reference_dots(m, x);
    let mut y = y0.to_vec();
    m.spmv(x, &mut y).unwrap();
    prop_assert_eq!(bits(&y), bits(&dots), "spmv, {} rows", m.nrows());
    for alpha in [1.0, -1.0, 0.37, 0.0] {
        let want: Vec<f64> = y0.iter().zip(&dots).map(|(y, d)| y + alpha * d).collect();
        let mut y = y0.to_vec();
        m.spmv_acc(alpha, x, &mut y).unwrap();
        prop_assert_eq!(bits(&y), bits(&want), "spmv_acc alpha {}", alpha);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Each case runs row counts 4·blocks + 0, 1, 2 and 3, so every residue
    // modulo four is covered, and `blocks == 0` gives fewer than four rows.
    #[test]
    fn row_products_equal_the_one_row_loop(
        blocks in 0usize..7,
        ncols in 1usize..40,
        long_row in 0usize..2,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = Rng::new(seed);
        for extra in 0..4 {
            let nrows = 4 * blocks + extra;
            let m = random_csr(&mut rng, nrows, ncols, long_row == 1);
            let x: Vec<f64> = (0..ncols).map(|_| rng.value_or_special(4)).collect();
            let y0: Vec<f64> = (0..nrows).map(|_| rng.value_or_special(8)).collect();
            check_all_forms(&m, &x, &y0)?;

            // The gather transpose sums each row of the cached `Aᵀ` the same
            // way.
            let cache = TransposeCache::new(&m);
            let xt: Vec<f64> = (0..nrows).map(|_| rng.value_or_special(4)).collect();
            let yt0: Vec<f64> = (0..ncols).map(|_| rng.value_or_special(8)).collect();
            let dots = reference_dots(&m.transpose(), &xt);
            let mut yt = yt0.clone();
            cache.spmv(&xt, &mut yt).unwrap();
            prop_assert_eq!(bits(&yt), bits(&dots), "TransposeCache::spmv");
            for alpha in [1.0, -1.0, 0.37, 0.0] {
                let want: Vec<f64> = yt0.iter().zip(&dots).map(|(y, d)| y + alpha * d).collect();
                let mut yt = yt0.clone();
                cache.spmv_acc(alpha, &xt, &mut yt).unwrap();
                prop_assert_eq!(bits(&yt), bits(&want), "TransposeCache::spmv_acc alpha {}", alpha);
            }
            check_all_forms(cache.matrix(), &xt, &yt0)?;
        }
    }
}
