//! The direct KKT solve: OSQP's quasi-definite LDLᵀ of the ADMM KKT matrix
//! (Eq. 2), the one exact KKT solve every backend runs.
//!
//! [`KktLdlt`] holds the assembled [`KktMatrix`], its fill-reducing
//! permutation, the [`Ldlt`] of the permuted matrix and the buffers of a
//! solve. A solve writes the right-hand side straight into the factor's
//! order, runs the two sweeps of [`Ldlt::solve_in_place`] and reads the
//! result straight out of it:
//!
//! ```text
//! [P + σI   Aᵀ  ] [x̃]   [σx − q     ]
//! [A      −ρ⁻¹  ] [ν ] = [z − ρ⁻¹∘y  ],    z̃ = z + ρ⁻¹∘(ν − y)
//! ```
//!
//! ρ and value updates rewrite the matrix in place and mark the factor
//! stale; the next [`KktLdlt::refactor`] (which a solve runs first)
//! refactors without allocating. Like OSQP, a factorization whose `D` does
//! not have exactly `n` positive pivots is an error
//! ([`LinsysError::NonConvex`]): for the quasi-definite KKT matrix that
//! means `P + σI + Aᵀ diag(ρ) A` is not positive definite, so `P` is not
//! positive semidefinite. A failed factorization is kept, and every solve
//! returns its error without solving until an update refactors it.

use crate::{
    amd_ordering, inverse_permutation, KktMatrix, Ldlt, LinsysError, SymmetricPermutation,
};
use rsqp_sparse::CsrMatrix;

/// The LDLᵀ factorization of the KKT matrix and the KKT solve through it.
#[derive(Debug, Clone)]
pub struct KktLdlt {
    kkt: KktMatrix,
    permutation: Option<SymmetricPermutation>,
    ldlt: Ldlt,
    /// Where each KKT unknown sits in the factor's order (`x` first, then
    /// `ν`): the inverse of the permutation, or the identity without one.
    new_of: Vec<usize>,
    /// The right-hand side and then the solution, in the factor's order.
    rhs: Vec<f64>,
    /// Whether the permuted copy holds the matrix's current values: it is
    /// gathered at construction, then once per update, by the refactor.
    gathered: bool,
    /// Whether the matrix changed since the last numeric factorization.
    stale: bool,
    /// The error of the last numeric factorization, if it failed.
    failed: Option<LinsysError>,
    /// Numeric factorizations run so far.
    factorizations: usize,
}

impl KktLdlt {
    /// Permutes `kkt` by `perm` (new → old; `None` keeps its order) and
    /// runs the symbolic analysis. The numeric factorization waits for the
    /// first [`Self::refactor`] or solve.
    ///
    /// # Errors
    ///
    /// [`LinsysError::Dimension`] or [`LinsysError::InvalidPermutation`] if
    /// `perm` is not a permutation of the KKT dimension `n + m`.
    pub fn new(kkt: KktMatrix, perm: Option<Vec<usize>>) -> Result<Self, LinsysError> {
        let (permutation, new_of) = match perm {
            Some(perm) => {
                let new_of = inverse_permutation(&perm)?;
                (Some(SymmetricPermutation::with_inverse(kkt.matrix(), perm, &new_of)?), new_of)
            }
            None => (None, (0..kkt.matrix().ncols()).collect()),
        };
        let ldlt = Ldlt::symbolic(
            permutation.as_ref().map_or(kkt.matrix(), SymmetricPermutation::matrix),
        )?;
        Ok(KktLdlt {
            rhs: vec![0.0; new_of.len()],
            kkt,
            permutation,
            ldlt,
            new_of,
            gathered: true,
            stale: true,
            failed: None,
            factorizations: 0,
        })
    }

    /// Assembles the KKT matrix of `(P, A)` at `sigma` and `rho`, orders
    /// it by AMD and runs the symbolic analysis ([`Self::new`]).
    ///
    /// # Errors
    ///
    /// As [`KktMatrix::assemble`].
    pub fn with_amd(
        p: &CsrMatrix,
        a: &CsrMatrix,
        sigma: f64,
        rho: &[f64],
    ) -> Result<Self, LinsysError> {
        let kkt = KktMatrix::assemble(p, a, sigma, rho)?;
        let perm = amd_ordering(kkt.matrix())?;
        Self::new(kkt, Some(perm))
    }

    /// Installs a new ρ vector; the next [`Self::refactor`] refactors.
    ///
    /// # Errors
    ///
    /// As [`KktMatrix::update_rho`]; the factor is then unchanged.
    pub fn update_rho(&mut self, rho: &[f64]) -> Result<(), LinsysError> {
        self.kkt.update_rho(rho)?;
        self.mark_changed();
        Ok(())
    }

    /// Installs new values of `P` and `A` (same patterns) and ρ; the next
    /// [`Self::refactor`] refactors.
    ///
    /// # Errors
    ///
    /// As [`KktMatrix::update_values`] and [`KktMatrix::update_rho`].
    pub fn update_values(
        &mut self,
        p: &CsrMatrix,
        a: &CsrMatrix,
        rho: &[f64],
    ) -> Result<(), LinsysError> {
        self.kkt.update_values(p, a)?;
        self.mark_changed();
        self.kkt.update_rho(rho)
    }

    /// Records that the KKT matrix's values changed.
    fn mark_changed(&mut self) {
        self.gathered = false;
        self.stale = true;
    }

    /// Refactors the KKT matrix if it changed since the last numeric
    /// factorization, without allocating. Returns whether it refactored.
    ///
    /// # Errors
    ///
    /// The error of the last factorization while it stands:
    /// [`LinsysError::ZeroPivot`], or [`LinsysError::NonConvex`] when `D`
    /// does not have exactly `n` positive pivots.
    pub fn refactor(&mut self) -> Result<bool, LinsysError> {
        if !std::mem::take(&mut self.stale) {
            return match &self.failed {
                Some(e) => Err(e.clone()),
                None => Ok(false),
            };
        }
        self.factorizations += 1;
        let factored = match &mut self.permutation {
            Some(sp) => {
                if !self.gathered {
                    sp.refresh_values(self.kkt.matrix())?;
                    self.gathered = true;
                }
                self.ldlt.refactor(sp.matrix())
            }
            None => self.ldlt.refactor(self.kkt.matrix()),
        };
        let n = self.kkt.num_vars();
        self.failed = match factored {
            Err(e) => Some(e),
            Ok(()) if self.ldlt.num_positive_d() != n => {
                Some(LinsysError::NonConvex { positive: self.ldlt.num_positive_d(), n })
            }
            Ok(()) => None,
        };
        match &self.failed {
            Some(e) => Err(e.clone()),
            None => Ok(true),
        }
    }

    /// Solves Eq. (2) for the ADMM iterates `x`, `z`, `y` and the cost `q`
    /// (module docs), refactoring first if the matrix changed. Performs no
    /// heap allocation.
    ///
    /// # Errors
    ///
    /// As [`Self::refactor`], and [`LinsysError::Dimension`] when a length
    /// differs from `n` (`x`, `q`, `xtilde`) or `m` (`z`, `y`, `ztilde`).
    pub fn solve(
        &mut self,
        x: &[f64],
        z: &[f64],
        y: &[f64],
        q: &[f64],
        xtilde: &mut [f64],
        ztilde: &mut [f64],
    ) -> Result<(), LinsysError> {
        let (n, m) = (self.kkt.num_vars(), self.kkt.num_constraints());
        if [x.len(), q.len(), xtilde.len()] != [n; 3] || [z.len(), y.len(), ztilde.len()] != [m; 3]
        {
            return Err(LinsysError::Dimension(format!(
                "KKT solve: x, q, x̃ need length {n} and z, y, z̃ length {m}"
            )));
        }
        self.refactor()?;
        let sigma = self.kkt.sigma();
        let rho_inv = self.kkt.rho_inv();
        let (x_at, nu_at) = self.new_of.split_at(n);
        let rhs = &mut self.rhs;
        for ((&at, &xj), &qj) in x_at.iter().zip(x).zip(q) {
            rhs[at] = sigma * xj - qj;
        }
        for (((&at, &zi), &ri), &yi) in nu_at.iter().zip(z).zip(rho_inv).zip(y) {
            rhs[at] = zi - ri * yi;
        }
        self.ldlt.solve_in_place(rhs)?;
        for (xt, &at) in xtilde.iter_mut().zip(x_at) {
            *xt = rhs[at];
        }
        for ((((zt, &at), &zi), &ri), &yi) in
            ztilde.iter_mut().zip(nu_at).zip(z).zip(rho_inv).zip(y)
        {
            *zt = zi + ri * (rhs[at] - yi);
        }
        Ok(())
    }

    /// The assembled KKT matrix, in the problem's order.
    pub fn kkt(&self) -> &KktMatrix {
        &self.kkt
    }

    /// The factorization of the permuted KKT matrix (stale or failed until
    /// [`Self::refactor`] succeeds).
    pub fn ldlt(&self) -> &Ldlt {
        &self.ldlt
    }

    /// The permutation (new → old), if the factor has one.
    pub fn perm(&self) -> Option<&[usize]> {
        self.permutation.as_ref().map(SymmetricPermutation::perm)
    }

    /// Numeric factorizations run so far.
    pub fn factorizations(&self) -> usize {
        self.factorizations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data() -> (CsrMatrix, CsrMatrix) {
        let p = CsrMatrix::from_dense(&[vec![4.0, 1.0], vec![1.0, 2.0]]);
        let a = CsrMatrix::from_dense(&[vec![1.0, 1.0], vec![1.0, 0.0], vec![0.0, 1.0]]);
        (p, a)
    }

    fn factor(p: &CsrMatrix, a: &CsrMatrix, rho: &[f64]) -> KktLdlt {
        KktLdlt::with_amd(p, a, 1e-6, rho).unwrap()
    }

    fn solve(f: &mut KktLdlt) -> Vec<u64> {
        let (mut xt, mut zt) = ([0.0; 2], [0.0; 3]);
        f.solve(&[0.1, -0.2], &[0.3, 0.4, -0.5], &[-0.1, 0.2, 0.3], &[1.0, -1.0], &mut xt, &mut zt)
            .unwrap();
        xt.iter().chain(&zt).map(|v| v.to_bits()).collect()
    }

    #[test]
    fn solves_the_kkt_system() {
        let (p, a) = data();
        let rho = [0.5, 0.25, 2.0];
        let mut f = factor(&p, &a, &rho);
        assert_eq!(f.factorizations(), 0, "nothing is factored before the first solve");
        let (x, z, y, q) = ([0.1, -0.2], [0.3, 0.4, -0.5], [-0.1, 0.2, 0.3], [1.0, -1.0]);
        let (mut xt, mut zt) = ([0.0; 2], [0.0; 3]);
        f.solve(&x, &z, &y, &q, &mut xt, &mut zt).unwrap();
        // ν = y + ρ∘(z̃ − z); (P + σI) x̃ + Aᵀν = σx − q and A x̃ − ν/ρ = z − y/ρ.
        let nu: Vec<f64> = (0..3).map(|i| y[i] + rho[i] * (zt[i] - z[i])).collect();
        for j in 0..2 {
            let lhs = (0..2)
                .map(|k| (p.get(j, k) + if j == k { 1e-6 } else { 0.0 }) * xt[k])
                .sum::<f64>()
                + (0..3).map(|i| a.get(i, j) * nu[i]).sum::<f64>();
            assert!((lhs - (1e-6 * x[j] - q[j])).abs() < 1e-12, "row {j}");
        }
        for i in 0..3 {
            let lhs = (0..2).map(|k| a.get(i, k) * xt[k]).sum::<f64>() - nu[i] / rho[i];
            assert!((lhs - (z[i] - y[i] / rho[i])).abs() < 1e-12, "row {}", 2 + i);
        }
        assert_eq!(f.factorizations(), 1);
    }

    #[test]
    fn updates_refactor_to_the_bits_of_a_fresh_factor() {
        let (p, a) = data();
        let mut f = factor(&p, &a, &[0.1, 0.2, 0.4]);
        solve(&mut f);
        f.update_rho(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(solve(&mut f), solve(&mut factor(&p, &a, &[1.0, 2.0, 3.0])));
        let (p2, a2) = (p.map_values(|v| 2.0 * v), a.map_values(|v| 0.5 * v));
        f.update_values(&p2, &a2, &[0.3, 0.2, 0.1]).unwrap();
        assert_eq!(solve(&mut f), solve(&mut factor(&p2, &a2, &[0.3, 0.2, 0.1])));
        assert_eq!(f.factorizations(), 3);
        // A solve without an update does not refactor.
        solve(&mut f);
        assert_eq!(f.factorizations(), 3);
    }

    #[test]
    fn a_non_convex_p_fails_until_an_update_refactors() {
        let (p, a) = data();
        let rho = [0.1, 0.1, 0.1];
        let bad = CsrMatrix::from_dense(&[vec![-3.0, 1.0], vec![1.0, 2.0]]);
        let mut f = factor(&p, &a, &rho);
        f.update_values(&bad, &a, &rho).unwrap();
        let err = LinsysError::NonConvex { positive: 1, n: 2 };
        assert_eq!(f.refactor(), Err(err.clone()));
        let (mut xt, mut zt) = ([0.0; 2], [0.0; 3]);
        let solved = f.solve(&[0.0; 2], &[0.0; 3], &[0.0; 3], &[1.0; 2], &mut xt, &mut zt);
        assert_eq!(solved, Err(err), "kept, not refactored");
        assert_eq!(f.factorizations(), 1);
        f.update_values(&p, &a, &rho).unwrap();
        assert_eq!(solve(&mut f), solve(&mut factor(&p, &a, &rho)));
    }

    #[test]
    fn a_pattern_change_is_rejected_without_writing() {
        let (p, a) = data();
        let rho = [0.1, 0.1, 0.1];
        let mut f = factor(&p, &a, &rho);
        let fresh = solve(&mut f);
        // Same shape and nonzero count, one entry of A moved.
        let moved = CsrMatrix::from_dense(&[vec![1.0, 1.0], vec![0.0, 1.0], vec![0.0, 1.0]]);
        assert!(f.update_values(&p, &moved, &rho).is_err());
        let diagonal = CsrMatrix::from_dense(&[vec![4.0, 0.0], vec![0.0, 2.0]]);
        assert!(f.update_values(&diagonal, &a, &rho).is_err());
        assert_eq!(solve(&mut f), fresh);
    }
}
