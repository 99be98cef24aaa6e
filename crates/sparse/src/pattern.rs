//! Sparsity-pattern helpers.
//!
//! The RSQP customization framework keys entirely on the *structure* of the
//! problem matrices (locations of non-zeros, not their values). This module
//! provides the structural fingerprint and comparisons the encoding layer
//! and the customization cache consume.

use crate::CsrMatrix;

/// Bucket index `⌈log₂(max(n, 1))⌉`: rows with 0 or 1 entries map to bucket
/// 0, 2 entries to bucket 1, 3–4 to bucket 2, 5–8 to bucket 3, …
pub fn log2_bucket(n: usize) -> usize {
    let n = n.max(1);
    (usize::BITS - (n - 1).leading_zeros()) as usize
}

/// True if two matrices have identical sparsity structure (shape and stored
/// coordinates), irrespective of values.
///
/// Architectures generated for one instance of a parametric problem apply to
/// every instance with the same structure — this predicate is the check that
/// gates architecture reuse.
pub fn same_structure(a: &CsrMatrix, b: &CsrMatrix) -> bool {
    a.nrows() == b.nrows()
        && a.ncols() == b.ncols()
        && a.indptr() == b.indptr()
        && a.indices() == b.indices()
}

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a_usize(mut h: u64, v: usize) -> u64 {
    for byte in (v as u64).to_le_bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

fn fnv1a_matrix(mut h: u64, m: &CsrMatrix) -> u64 {
    h = fnv1a_usize(h, m.nrows());
    h = fnv1a_usize(h, m.ncols());
    for &v in m.indptr() {
        h = fnv1a_usize(h, v);
    }
    for &v in m.indices() {
        h = fnv1a_usize(h, v);
    }
    h
}

/// A structure-only fingerprint of a `(P, A)` matrix pair: the dimensions,
/// entry counts, and an FNV-1a hash over both matrices' row pointers and
/// column indices. Values are deliberately excluded — two problems with the
/// same sparsity pattern but different numbers compare **equal**, which is
/// exactly the equivalence RSQP's customization pipeline (and the symbolic
/// half of the LDLᵀ factorization) keys on.
///
/// Equality of keys is necessary but, because of the hash, not strictly
/// sufficient for [`same_structure`]; with a 64-bit hash over both index
/// arrays, collisions are negligible for cache keying. Use
/// [`same_structure`] directly when an exact guarantee is required.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PatternKey {
    n: usize,
    m: usize,
    p_entries: usize,
    a_entries: usize,
    hash: u64,
}

impl PatternKey {
    /// Fingerprints the structure of a `(P, A)` pair.
    pub fn new(p: &CsrMatrix, a: &CsrMatrix) -> Self {
        let hash = fnv1a_matrix(fnv1a_matrix(FNV_OFFSET, p), a);
        PatternKey { n: p.nrows(), m: a.nrows(), p_entries: p.nnz(), a_entries: a.nnz(), hash }
    }

    /// Number of primal variables (`P` is `n × n`).
    pub fn num_vars(&self) -> usize {
        self.n
    }

    /// Number of constraints (`A` is `m × n`).
    pub fn num_constraints(&self) -> usize {
        self.m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_buckets() {
        assert_eq!(log2_bucket(0), 0);
        assert_eq!(log2_bucket(1), 0);
        assert_eq!(log2_bucket(2), 1);
        assert_eq!(log2_bucket(3), 2);
        assert_eq!(log2_bucket(4), 2);
        assert_eq!(log2_bucket(5), 3);
        assert_eq!(log2_bucket(8), 3);
        assert_eq!(log2_bucket(9), 4);
        assert_eq!(log2_bucket(64), 6);
        assert_eq!(log2_bucket(65), 7);
    }

    #[test]
    fn pattern_key_ignores_values() {
        let p1 = CsrMatrix::from_triplets(2, 2, vec![(0, 0, 1.0), (1, 1, 2.0)]);
        let p2 = CsrMatrix::from_triplets(2, 2, vec![(0, 0, 9.0), (1, 1, -3.0)]);
        let a1 = CsrMatrix::from_triplets(1, 2, vec![(0, 0, 1.0), (0, 1, 1.0)]);
        let a2 = CsrMatrix::from_triplets(1, 2, vec![(0, 0, 5.0), (0, 1, 7.0)]);
        assert_eq!(PatternKey::new(&p1, &a1), PatternKey::new(&p2, &a2));
    }

    #[test]
    fn pattern_key_distinguishes_structures() {
        let p = CsrMatrix::from_triplets(2, 2, vec![(0, 0, 1.0), (1, 1, 2.0)]);
        let a = CsrMatrix::from_triplets(1, 2, vec![(0, 0, 1.0)]);
        let a_moved = CsrMatrix::from_triplets(1, 2, vec![(0, 1, 1.0)]);
        let a_more = CsrMatrix::from_triplets(1, 2, vec![(0, 0, 1.0), (0, 1, 1.0)]);
        let key = PatternKey::new(&p, &a);
        assert_ne!(key, PatternKey::new(&p, &a_moved), "moved entry must change the key");
        assert_ne!(key, PatternKey::new(&p, &a_more), "extra entry must change the key");
        // Swapping which matrix holds a pattern must also change the key.
        let p3 = CsrMatrix::from_triplets(2, 2, vec![(0, 0, 1.0)]);
        assert_ne!(PatternKey::new(&p, &a), PatternKey::new(&p3, &a));
    }

    #[test]
    fn pattern_key_reports_shape() {
        let p = CsrMatrix::identity(3);
        let a = CsrMatrix::from_triplets(2, 3, vec![(0, 0, 1.0), (1, 2, 1.0)]);
        let key = PatternKey::new(&p, &a);
        assert_eq!(key.num_vars(), 3);
        assert_eq!(key.num_constraints(), 2);
    }

    #[test]
    fn structure_comparison_ignores_values() {
        let a = CsrMatrix::from_triplets(2, 2, vec![(0, 0, 1.0), (1, 1, 2.0)]);
        let b = CsrMatrix::from_triplets(2, 2, vec![(0, 0, 9.0), (1, 1, -1.0)]);
        let c = CsrMatrix::from_triplets(2, 2, vec![(0, 1, 1.0), (1, 1, 2.0)]);
        assert!(same_structure(&a, &b));
        assert!(!same_structure(&a, &c));
    }
}
