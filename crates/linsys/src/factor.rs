//! The sparse LDLᵀ of the reduced KKT matrix, the KKT solve of every
//! problem without dense rows or eliminable dense columns.
//!
//! `K = P + σI + Aᵀ diag(ρ) A` is formed explicitly (its upper triangle,
//! by columns), ordered by [`amd_ordering`] and factored by [`Ldlt`], so
//! `M = K` and a KKT solve is `x = K⁻¹b`
//! ([`crate::ReducedKktOp::exact_solve`]). On the problems that reach it
//! (control, eqqp and the small data-fitting instances) AMD keeps `L`
//! within a few tenths of `triu(K)`.
//!
//! Nothing is formed at construction. The pattern of `K`, its ordering and
//! the symbolic analysis run at the first [`KktFactor::prepare`], and each
//! later `prepare` after a [`KktFactor::refresh`] (a ρ or value update)
//! refills `K`'s values and refactors in place, without allocating. A
//! pivot that is not positive and finite is recorded
//! ([`KktFactor::failed_pivot`]) and reported as PCG's breakdown at
//! iteration 0 until a later refactor succeeds.

use rsqp_sparse::{CscMatrix, CsrMatrix};

use crate::{amd_ordering, Ldlt, SymmetricPermutation};

/// The LDLᵀ factorization of `P + σI + Aᵀ diag(ρ) A` under AMD, formed
/// when first needed.
#[derive(Debug, Clone)]
pub struct KktFactor {
    sigma: f64,
    /// The factorization, absent until the first [`Self::prepare`].
    state: Option<Factored>,
    /// Whether the values changed since the last factorization.
    stale: bool,
    /// The pivot the last factorization met that was not positive and
    /// finite, if any.
    failed: Option<f64>,
    /// Numeric factorizations run so far.
    factorizations: usize,
    /// The permuted right-hand side of [`Self::apply`].
    work: Vec<f64>,
}

/// What the first [`KktFactor::prepare`] builds.
#[derive(Debug, Clone)]
struct Factored {
    /// `triu(K)` in the problem's order.
    k: CscMatrix,
    /// `triu(PᵀKP)` under AMD.
    permuted: SymmetricPermutation,
    ldlt: Ldlt,
    /// One column of `K` being summed, zero between columns.
    column: Vec<f64>,
}

impl KktFactor {
    /// A factor for the `n × n` reduced KKT matrix with shift `sigma`;
    /// nothing is formed until [`Self::prepare`].
    pub fn new(n: usize, sigma: f64) -> Self {
        KktFactor {
            sigma,
            state: None,
            stale: true,
            failed: None,
            factorizations: 0,
            work: vec![0.0; n],
        }
    }

    /// Marks the values of `P`, `A` or ρ as changed: the next
    /// [`Self::prepare`] refactors.
    pub fn refresh(&mut self) {
        self.stale = true;
    }

    /// Factors `K` for `p`, `a` (with transpose `at`) and `rho` unless it
    /// is up to date: at the first call it forms the pattern of `K`, orders
    /// it and runs the symbolic analysis; after that it refills the values
    /// and refactors in place. The patterns must stay those of the first
    /// call.
    ///
    /// Returns the failed pivot ([`Self::failed_pivot`]) if the
    /// factorization met one.
    ///
    /// # Panics
    ///
    /// Panics if the shapes disagree with each other or with `n`.
    pub fn prepare(
        &mut self,
        p: &CsrMatrix,
        a: &CsrMatrix,
        at: &CsrMatrix,
        rho: &[f64],
    ) -> Result<(), f64> {
        if self.stale {
            self.stale = false;
            self.factorizations += 1;
            let state = self.state.get_or_insert_with(|| Factored::new(p, a, at));
            self.failed = state.refactor(p, a, at, self.sigma, rho).err();
        }
        match self.failed {
            Some(pivot) => Err(pivot),
            None => Ok(()),
        }
    }

    /// `d = K⁻¹ r`: `r` permuted, the sweeps of [`Ldlt::solve_in_place`],
    /// and the result permuted back.
    ///
    /// # Panics
    ///
    /// Panics if `r` or `d` is not of length `n`, or unless the last
    /// [`Self::prepare`] succeeded and no refresh followed it.
    pub fn apply(&mut self, r: &[f64], d: &mut [f64]) {
        assert!(!self.stale && self.failed.is_none(), "no current factor of K to apply");
        let state = self.state.as_ref().expect("a prepared factor");
        state.permuted.permute_into(r, &mut self.work);
        state.ldlt.solve_in_place(&mut self.work).expect("the factor has dimension n");
        state.permuted.unpermute_into(&self.work, d);
    }

    /// The pivot the last factorization met that was not positive and
    /// finite (`0` for an exactly zero one), or `None`.
    pub fn failed_pivot(&self) -> Option<f64> {
        self.failed
    }

    /// Numeric factorizations run so far.
    pub fn factorizations(&self) -> usize {
        self.factorizations
    }

    /// The AMD permutation (new → old), once factored.
    pub fn perm(&self) -> Option<&[usize]> {
        self.state.as_ref().map(|s| s.permuted.perm())
    }

    /// The factorization of the permuted `K`, once formed.
    pub fn ldlt(&self) -> Option<&Ldlt> {
        self.state.as_ref().map(|s| &s.ldlt)
    }

    /// `triu(K)` in the problem's order, once formed.
    pub fn upper(&self) -> Option<&CscMatrix> {
        self.state.as_ref().map(|s| &s.k)
    }
}

impl Factored {
    /// The pattern of `triu(K)`, its AMD ordering and the symbolic
    /// analysis of the permuted matrix.
    fn new(p: &CsrMatrix, a: &CsrMatrix, at: &CsrMatrix) -> Self {
        let k = upper_pattern(p, a, at);
        let perm = amd_ordering(&k).expect("K is square");
        let permuted = SymmetricPermutation::new(&k, perm).expect("AMD returns a permutation");
        let ldlt = Ldlt::symbolic(permuted.matrix()).expect("a permuted upper triangle");
        Factored { column: vec![0.0; k.ncols()], k, permuted, ldlt }
    }

    /// Refills `K` for new values and refactors; fails with the first
    /// pivot that is not positive and finite.
    fn refactor(
        &mut self,
        p: &CsrMatrix,
        a: &CsrMatrix,
        at: &CsrMatrix,
        sigma: f64,
        rho: &[f64],
    ) -> Result<(), f64> {
        assert_eq!(rho.len(), a.nrows(), "rho length mismatch");
        fill_upper(&mut self.k, &mut self.column, p, a, at, sigma, rho);
        self.permuted.refresh_values(&self.k).expect("K keeps its pattern");
        if self.ldlt.refactor(self.permuted.matrix()).is_err() {
            return Err(0.0);
        }
        match self.ldlt.d().iter().find(|&&d| !(d > 0.0 && d.is_finite())) {
            Some(&d) => Err(d),
            None => Ok(()),
        }
    }
}

/// The pattern of `triu(P + σI + AᵀA)` by columns, with every diagonal
/// entry stored and zero values. `P` is stored in full, so its row `j` up
/// to the diagonal is column `j` of its upper triangle; `at` is `Aᵀ`. Rows
/// are sorted, so each is read only up to its first column past `j`.
fn upper_pattern(p: &CsrMatrix, a: &CsrMatrix, at: &CsrMatrix) -> CscMatrix {
    let n = p.nrows();
    let mut mark = vec![usize::MAX; n];
    let mut colptr = vec![0];
    let mut rowidx = Vec::new();
    for j in 0..n {
        let start = rowidx.len();
        let mut add = |&i: &usize| {
            if mark[i] != j {
                mark[i] = j;
                rowidx.push(i);
            }
        };
        add(&j);
        p.row(j).0.iter().take_while(|&&i| i <= j).for_each(&mut add);
        for &r in at.row(j).0 {
            a.row(r).0.iter().take_while(|&&i| i <= j).for_each(&mut add);
        }
        rowidx[start..].sort_unstable();
        colptr.push(rowidx.len());
    }
    let data = vec![0.0; rowidx.len()];
    CscMatrix::from_raw_parts(n, n, colptr, rowidx, data).expect("sorted columns in range")
}

/// Writes the values of `triu(P + σI + Aᵀ diag(ρ) A)` into `k`, whose
/// pattern [`upper_pattern`] built. Column `j` is summed in `column` (zero
/// on entry and on exit): `P`'s entries, then `σ`, then
/// `ρ_r A_rj A_ri` over the rows `r` of column `j` of `A` in increasing
/// order, each row read up to its first column past `j`. Allocates
/// nothing.
fn fill_upper(
    k: &mut CscMatrix,
    column: &mut [f64],
    p: &CsrMatrix,
    a: &CsrMatrix,
    at: &CsrMatrix,
    sigma: f64,
    rho: &[f64],
) {
    for j in 0..column.len() {
        let (cols, vals) = p.row(j);
        for (&i, &v) in cols.iter().zip(vals).take_while(|(&i, _)| i <= j) {
            column[i] += v;
        }
        column[j] += sigma;
        let (rows, avals) = at.row(j);
        for (&r, &arj) in rows.iter().zip(avals) {
            let w = rho[r] * arj;
            let (cols, vals) = a.row(r);
            for (&i, &ari) in cols.iter().zip(vals).take_while(|(&i, _)| i <= j) {
                column[i] += w * ari;
            }
        }
        let (start, end) = (k.colptr()[j], k.colptr()[j + 1]);
        for e in start..end {
            let i = k.rowidx()[e];
            k.data_mut()[e] = column[i];
            column[i] = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `K` summed densely: `P + σI + Σ_r ρ_r a_r a_rᵀ`.
    fn dense_k(p: &CsrMatrix, a: &CsrMatrix, sigma: f64, rho: &[f64]) -> Vec<Vec<f64>> {
        let n = p.nrows();
        let mut k: Vec<Vec<f64>> = (0..n).map(|i| (0..n).map(|j| p.get(i, j)).collect()).collect();
        for (i, row) in k.iter_mut().enumerate() {
            row[i] += sigma;
        }
        for (r, &rr) in rho.iter().enumerate() {
            let (cols, vals) = a.row(r);
            for (&i, &vi) in cols.iter().zip(vals) {
                for (&j, &vj) in cols.iter().zip(vals) {
                    k[i][j] += rr * vi * vj;
                }
            }
        }
        k
    }

    #[test]
    fn forms_the_upper_triangle_of_k_and_solves_with_it() {
        let p =
            CsrMatrix::from_dense(&[vec![4.0, 1.0, 0.0], vec![1.0, 3.0, 0.0], vec![0.0, 0.0, 2.0]]);
        let a = CsrMatrix::from_dense(&[vec![1.0, 0.0, 1.0], vec![0.0, 2.0, 1.0]]);
        let (sigma, rho) = (0.5, [0.3, 2.0]);
        let mut f = KktFactor::new(3, sigma);
        assert!(f.upper().is_none(), "nothing is formed before the first prepare");
        f.prepare(&p, &a, &a.transpose(), &rho).unwrap();
        let want = dense_k(&p, &a, sigma, &rho);
        let k = f.upper().unwrap();
        assert!(k.is_upper_triangular());
        for (i, row) in want.iter().enumerate() {
            for (j, &v) in row.iter().enumerate().skip(i) {
                assert!((k.get(i, j) - v).abs() < 1e-15, "K[{i}][{j}]");
            }
        }
        let r = [1.0, -2.0, 0.5];
        let mut x = [0.0; 3];
        f.apply(&r, &mut x);
        for (i, row) in want.iter().enumerate() {
            let kx: f64 = row.iter().zip(&x).map(|(k, x)| k * x).sum();
            assert!((kx - r[i]).abs() < 1e-12, "row {i}: {kx} vs {}", r[i]);
        }
        assert_eq!(f.factorizations(), 1);
        // Prepared again without a refresh, nothing is refactored.
        f.prepare(&p, &a, &a.transpose(), &rho).unwrap();
        assert_eq!(f.factorizations(), 1);
    }

    #[test]
    fn a_negative_pivot_is_recorded_until_a_refactor_succeeds() {
        let a = CsrMatrix::from_dense(&[vec![1.0, 1.0]]);
        let at = a.transpose();
        let good = CsrMatrix::from_diag(&[1.0, 1.0]);
        let bad = CsrMatrix::from_diag(&[-3.0, 1.0]);
        let mut f = KktFactor::new(2, 1e-6);
        f.prepare(&good, &a, &at, &[0.1]).unwrap();
        f.refresh();
        let pivot = f.prepare(&bad, &a, &at, &[0.1]).unwrap_err();
        assert!(pivot < 0.0, "{pivot}");
        assert_eq!(f.failed_pivot(), Some(pivot));
        assert_eq!(f.prepare(&bad, &a, &at, &[0.1]), Err(pivot), "recorded, not refactored");
        f.refresh();
        f.prepare(&good, &a, &at, &[0.1]).unwrap();
        assert_eq!((f.failed_pivot(), f.factorizations()), (None, 3));
    }
}
