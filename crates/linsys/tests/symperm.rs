//! The symmetric permutation against the sort it replaces, and AMD's
//! orderings of the small suite's KKT matrices.
//!
//! `SymmetricPermutation::new` buckets the permuted entries by counting.
//! The factor reaches each column's rows in the order the permutation
//! leaves them, so its bits hold only if every array equals the sorted
//! reference's: `colptr`, `rowidx`, the source slots and the values.

use proptest::prelude::*;
use rsqp_linsys::{amd_ordering, KktMatrix, SymmetricPermutation};
use rsqp_problems::small_suite;
use rsqp_sparse::{CscMatrix, CsrMatrix};

/// The upper triangle of `PᵀMP` built by sorting every entry's permuted
/// `(column, row, source slot)` triple: `(colptr, rowidx, src)`.
fn sorted_reference(upper: &CscMatrix, perm: &[usize]) -> (Vec<usize>, Vec<usize>, Vec<usize>) {
    let n = perm.len();
    let mut new_of = vec![0; n];
    for (k, &p) in perm.iter().enumerate() {
        new_of[p] = k;
    }
    let mut entries = Vec::with_capacity(upper.nnz());
    for j in 0..n {
        for &i in upper.col(j).0 {
            let (a, b) = (new_of[i], new_of[j]);
            entries.push((a.max(b), a.min(b), entries.len()));
        }
    }
    entries.sort_unstable();
    let mut colptr = vec![0; n + 1];
    for &(col, _, _) in &entries {
        colptr[col + 1] += 1;
    }
    for j in 0..n {
        colptr[j + 1] += colptr[j];
    }
    (colptr, entries.iter().map(|e| e.1).collect(), entries.iter().map(|e| e.2).collect())
}

/// The reference's values, as bits.
fn reference_bits(upper: &CscMatrix, src: &[usize]) -> Vec<u64> {
    src.iter().map(|&d| upper.data()[d].to_bits()).collect()
}

fn bits(m: &CscMatrix) -> Vec<u64> {
    m.data().iter().map(|v| v.to_bits()).collect()
}

/// Builds the permutation of `upper` by `perm`, checks it against the
/// reference, then refreshes it from `refreshed` (same pattern) and checks
/// the values again.
fn assert_matches_reference(upper: &CscMatrix, refreshed: &CscMatrix, perm: Vec<usize>) {
    let (colptr, rowidx, src) = sorted_reference(upper, &perm);
    let mut sp = SymmetricPermutation::new(upper, perm).unwrap();
    assert_eq!(sp.matrix().colptr(), colptr);
    assert_eq!(sp.matrix().rowidx(), rowidx);
    assert_eq!(bits(sp.matrix()), reference_bits(upper, &src));
    sp.refresh_values(refreshed).unwrap();
    assert_eq!(bits(sp.matrix()), reference_bits(refreshed, &src));
}

/// An `n × n` upper triangle with the given entries (`(i, j)` folded to
/// `i ≤ j`; repeats merged), and the same pattern with other values.
fn upper_pair(n: usize, entries: &[(usize, usize, f64)]) -> (CscMatrix, CscMatrix) {
    let folded = |scale: f64| {
        let t = entries.iter().map(|&(i, j, v)| (i.min(j), i.max(j), scale * v + 1.5));
        CsrMatrix::from_triplets(n, n, t).to_csc()
    };
    (folded(1.0), folded(-0.25))
}

/// The permutation that sorts `keys`, ties by index.
fn argsort(keys: &[u64]) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..keys.len()).collect();
    perm.sort_by_key(|&k| (keys[k], k));
    perm
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // Random patterns, empty columns among them, under a random, the
    // identity and the reversed permutation.
    #[test]
    fn counting_sort_matches_the_sorted_reference(
        n in 0usize..40,
        raw in prop::collection::vec((0usize..40, 0usize..40, -4.0f64..4.0), 0..200),
        keys in prop::collection::vec(0u64..1_000, 40),
    ) {
        let entries: Vec<_> = raw.iter().filter(|e| e.0 < n && e.1 < n).copied().collect();
        let (upper, refreshed) = upper_pair(n, &entries);
        assert_matches_reference(&upper, &refreshed, argsort(&keys[..n]));
        assert_matches_reference(&upper, &refreshed, (0..n).collect());
        assert_matches_reference(&upper, &refreshed, (0..n).rev().collect());
    }
}

#[test]
fn trivial_sizes_match_the_sorted_reference() {
    let (empty, _) = upper_pair(0, &[]);
    assert_matches_reference(&empty, &empty, vec![]);
    for entries in [vec![], vec![(0, 0, 2.0)]] {
        let (upper, refreshed) = upper_pair(1, &entries);
        assert_matches_reference(&upper, &refreshed, vec![0]);
    }
    // Only the last column holds entries; the others are empty.
    let (upper, refreshed) = upper_pair(5, &[(0, 4, 1.0), (2, 4, 3.0), (4, 4, 5.0)]);
    assert_matches_reference(&upper, &refreshed, vec![4, 2, 0, 1, 3]);
}

/// FNV-1a over a permutation's entries.
fn digest(perm: &[usize]) -> u64 {
    perm.iter().fold(0xcbf2_9ce4_8422_2325, |h, &v| {
        (v as u64)
            .to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
    })
}

#[test]
fn amd_orders_the_small_suite_as_before() {
    // Digests of `amd_ordering` on each KKT matrix of `small_suite(1)`, in
    // suite order, as recorded when the postorder still bucketed its own
    // pattern; the permuted matrices match the sorted reference too.
    #[rustfmt::skip]
    let want: [u64; 18] = [
        0xf7d1e19968b59b84, 0x9570358b2d9bebf2, 0xaeb1f8bc608b9c25, 0xdc0d672cae52f18e,
        0xe4efc7667813873e, 0x0825ce04600ed5d8, 0xd324c63e529919e5, 0x9395befa69394c85,
        0x30d947d0b3df1965, 0xd53bb8a1165e5225, 0xd3c0b47efd6ba722, 0x567c6248c368f800,
        0x554e2d9924dfdf45, 0xd93434f86ad464de, 0x1da13c5683a96444, 0x7bddefa1053fcc6a,
        0xff5bc86a2d0f2b04, 0x6da73bfb29559a84,
    ];
    let mut got = Vec::new();
    for bp in small_suite(1) {
        let qp = &bp.problem;
        let rho = vec![0.1; qp.a().nrows()];
        let kkt = KktMatrix::assemble(qp.p(), qp.a(), 1e-6, &rho).unwrap();
        let perm = amd_ordering(kkt.matrix()).unwrap();
        got.push(digest(&perm));
        assert_matches_reference(kkt.matrix(), kkt.matrix(), perm);
    }
    assert_eq!(got, want);
}
