//! The reduced-KKT solve's `M⁻¹`, one of three kinds fixed by the
//! patterns of `P` and `A` ([`KktPrecond`]), and the first of them: Jacobi
//! plus an exact Woodbury correction for the dense rows of `A`.
//!
//! PCG on `K = P + σI + Aᵀ diag(ρ) A` (Eq. 3) is preconditioned with
//!
//! ```text
//! M  = D' + A_Sᵀ R_S A_S,      D' = diag(P) + σ + Σ_{i∉S} ρ_i A_{i,·}²
//! ```
//!
//! where `S` is the (non-empty) set of dense rows of `A` and
//! `R_S = diag(ρ_S)`. A dense row adds a rank-one term to `K` that no
//! diagonal approximates (a portfolio's factor and budget rows span
//! thousands of columns). With `k = |S|`, Woodbury's identity inverts `M`
//! through a `k × k` system:
//!
//! ```text
//! M⁻¹ r = D'⁻¹r − D'⁻¹ A_Sᵀ C⁻¹ A_S D'⁻¹r,   C = R_S⁻¹ + A_S D'⁻¹ A_Sᵀ  (SPD)
//! ```
//!
//! `C⁻¹` is kept as an explicit dense matrix, from an LDLᵀ factorization
//! whose pivots must all be positive (a Cholesky factorization), so
//! applying `M⁻¹` takes three sparse products — with `A_S`, `C⁻¹` and
//! `A_Sᵀ` — and the accelerator's PCG kernel runs the same operator with
//! the instructions it already has. A refresh whose `C` meets a pivot that
//! is not positive and finite records it ([`DenseRowPrecond::failed_pivot`]),
//! and the KKT solve reports it as a PCG breakdown until the next refresh
//! succeeds. Only a non-convex `P` can do that: a convex one gives
//! `D' ≥ σ > 0`, so `C` is SPD.
//!
//! When `P` is diagonal and every row outside `S` has at most one entry,
//! `D'` is `K_R = P + σI + A_Rᵀ R_R A_R` itself (`R` the rows outside `S`),
//! so `M = K`, and the KKT solve takes the dense rows in OSQP's augmented
//! form instead of running PCG ([`DenseRowPrecond::is_exact`],
//! [`DenseRowPrecond::solve_augmented`]): with multipliers `ν` for the rows
//! of `S`,
//!
//! ```text
//! [K_R   A_Sᵀ  ] [x̃]   [b                ]     b = (σx − q) + A_Rᵀ(ρ_R∘z_R − y_R)
//! [A_S  −R_S⁻¹ ] [ν ] = [u_S = z_S − ρ_S⁻¹∘y_S]
//! ```
//!
//! is `ν = C⁻¹(A_S D'⁻¹b − u_S)`, `x̃ = D'⁻¹(b − A_Sᵀν)`, and
//! `z̃_S = u_S + ρ_S⁻¹∘ν`. Unlike `x̃ = M⁻¹b` on the reduced right-hand side,
//! which carries `A_Sᵀ R_S z_S` and loses the stiff equality rows to
//! cancellation, this keeps LDLᵀ's accuracy.
//!
//! [`KktPrecond`] picks a problem's kind: this correction when `A` has
//! dense rows, else the block elimination of its dense columns
//! (`crate::schur`) when their structure admits it, else the sparse LDLᵀ
//! of `K` under AMD (`crate::factor`). The last two are exact (`M = K`),
//! so with them, as with the augmented dense-row solve, the KKT solve is
//! direct ([`crate::ReducedKktOp::exact_solve`]) and PCG never runs. There
//! is no plain-Jacobi kind.

use std::cmp::Reverse;

use rsqp_sparse::{CscMatrix, CsrMatrix};

use crate::factor::KktFactor;
use crate::ordering::dense_threshold;
use crate::schur::DenseColPrecond;
use crate::{Ldlt, PcgError};

/// [`DenseRowPrecond`]'s slot of a row of `A` outside `S`.
const NOT_DENSE: usize = usize::MAX;

/// The reduced-KKT solve's `M⁻¹` for one problem: the dense-row Woodbury
/// correction when `A` has dense rows, else the block elimination of its
/// dense columns when their structure admits it, else the sparse LDLᵀ of
/// `K` itself.
#[derive(Debug, Clone)]
pub enum KktPrecond {
    /// Jacobi, with the Woodbury correction for the dense rows of `A`.
    Rows(DenseRowPrecond),
    /// Block elimination of the dense columns of `A`.
    Cols(DenseColPrecond),
    /// The sparse LDLᵀ of `K` under AMD.
    Factor(KktFactor),
}

impl KktPrecond {
    /// Chooses and builds the preconditioner for `P + σI + Aᵀ diag(ρ) A`;
    /// `at` is `Aᵀ`. Dense rows take precedence over dense columns. The
    /// factor of `K` is formed later, at the first [`Self::prepare`].
    ///
    /// # Panics
    ///
    /// As [`DenseRowPrecond::new`].
    pub fn new(p: &CsrMatrix, a: &CsrMatrix, at: &CsrMatrix, sigma: f64, rho: &[f64]) -> Self {
        let rows = dense_rows(a);
        if !rows.is_empty() {
            return KktPrecond::Rows(DenseRowPrecond::with_rows(p, a, at, sigma, rho, rows));
        }
        match DenseColPrecond::new(p, a, sigma, rho) {
            Some(cols) => KktPrecond::Cols(cols),
            None => KktPrecond::Factor(KktFactor::new(p.nrows(), sigma)),
        }
    }

    /// Takes new values of `P`, `A` (and its transpose `at`) or ρ: the
    /// dense-row and dense-column kinds recompute every value in place,
    /// the factor refactors at the next [`Self::prepare`]. The patterns
    /// must be the ones given at construction.
    pub fn refresh(&mut self, p: &CsrMatrix, a: &CsrMatrix, at: &CsrMatrix, rho: &[f64]) {
        match self {
            KktPrecond::Rows(pre) => pre.refresh(p, a, at, rho),
            KktPrecond::Cols(pre) => pre.refresh(p, a, rho),
            KktPrecond::Factor(pre) => pre.refresh(),
        }
    }

    /// Readies `M⁻¹` for the current `P`, `A`, `at = Aᵀ` and ρ — the
    /// factor of `K` is (re)factored here if its values changed — and
    /// returns `Ok` unless a pivot was not positive and finite, in the
    /// dense-row `C`, in the dense-column elimination or in `K`'s factor.
    /// A KKT solve then returns PCG's [`PcgError::Breakdown`] at iteration
    /// 0 with that pivot as the curvature, without solving, until a
    /// refresh succeeds, for the solver's guard ladder.
    ///
    /// # Errors
    ///
    /// That breakdown.
    pub fn prepare(
        &mut self,
        p: &CsrMatrix,
        a: &CsrMatrix,
        at: &CsrMatrix,
        rho: &[f64],
    ) -> Result<(), PcgError> {
        let failed = match self {
            KktPrecond::Rows(pre) => pre.failed_pivot(),
            KktPrecond::Cols(pre) => pre.failed_pivot(),
            KktPrecond::Factor(pre) => pre.prepare(p, a, at, rho).err(),
        };
        match failed {
            Some(curvature) => Err(PcgError::Breakdown { iteration: 0, curvature }),
            None => Ok(()),
        }
    }

    /// `d = M⁻¹ r`.
    ///
    /// # Panics
    ///
    /// As [`DenseRowPrecond::apply`], [`DenseColPrecond::apply`] and
    /// [`KktFactor::apply`] unless the last [`Self::prepare`] succeeded.
    pub fn apply(&mut self, r: &[f64], d: &mut [f64]) {
        match self {
            KktPrecond::Rows(pre) => pre.apply(r, d),
            KktPrecond::Cols(pre) => pre.apply(r, d),
            KktPrecond::Factor(pre) => pre.apply(r, d),
        }
    }

    /// Whether the KKT solve is direct, with no CG iteration
    /// ([`crate::ReducedKktOp::exact_solve`]): always for the dense-column
    /// elimination and the factor of `K` (`x = M⁻¹ b`), and for the
    /// dense-row correction when `K_R` is diagonal
    /// ([`DenseRowPrecond::is_exact`]), which then solves the dense rows in
    /// OSQP's augmented form.
    pub fn is_exact(&self) -> bool {
        match self {
            KktPrecond::Rows(pre) => pre.is_exact(),
            KktPrecond::Cols(_) | KktPrecond::Factor(_) => true,
        }
    }

    /// Sparse products one [`Self::apply`] (or one augmented dense-row
    /// solve) runs beyond the diagonal: `A_S`, `C⁻¹` and `A_Sᵀ` with dense
    /// rows; `H`, `S⁻¹`, `Hᵀ` (and a non-diagonal `G`) with dense columns;
    /// the two sweeps through `L` with the factor.
    pub fn products(&self) -> usize {
        match self {
            KktPrecond::Rows(_) => 3,
            KktPrecond::Cols(pre) => pre.products(),
            KktPrecond::Factor(_) => 2,
        }
    }

    /// The diagonal the kernel's `minv` register holds: `D'⁻¹` or the
    /// diagonal of `G`; the factor has none.
    pub fn inv_diag(&self) -> Option<&[f64]> {
        match self {
            KktPrecond::Rows(pre) => Some(pre.inv_diag()),
            KktPrecond::Cols(pre) => Some(pre.inv_diag()),
            KktPrecond::Factor(_) => None,
        }
    }

    /// Numeric factorizations of `K` run so far (none but with the
    /// factor).
    pub fn factorizations(&self) -> usize {
        match self {
            KktPrecond::Factor(pre) => pre.factorizations(),
            _ => 0,
        }
    }
}

/// The dense rows of `a`, in increasing order: a row is dense when its
/// nonzero count exceeds AMD's threshold `min(max(16, 10·√n), max(16,
/// 10·d̄))` with `d̄ = nnz(A)/m`. At most `⌊√nnz(A)⌋` rows are kept, the
/// densest (ties by index), so `C` never holds more entries than `A`.
fn dense_rows(a: &CsrMatrix) -> Vec<usize> {
    let threshold = dense_threshold(a.ncols(), a.nnz(), a.nrows());
    let mut rows: Vec<usize> = (0..a.nrows()).filter(|&i| a.row_nnz(i) > threshold).collect();
    rows.sort_by_key(|&i| Reverse(a.row_nnz(i)));
    rows.truncate(a.nnz().isqrt());
    rows.sort_unstable();
    rows
}

/// Jacobi preconditioner with a Woodbury correction for the dense rows of
/// `A`, for the reduced KKT operator `P + σI + Aᵀ diag(ρ) A`, and, when
/// `K_R` is diagonal, the direct KKT solve in OSQP's augmented form.
///
/// The dense-row set, and whether `K_R` is diagonal, are decided once from
/// the patterns of `P` and `A`; [`Self::refresh`] recomputes every value
/// for new matrices or ρ into the buffers sized at construction, without
/// allocating. `A_S` is the only copy of matrix data it keeps: `C` is
/// formed from the caller's `Aᵀ`, and `A_Sᵀ` is applied by scattering the
/// rows of `A_S`.
#[derive(Debug, Clone)]
pub struct DenseRowPrecond {
    sigma: f64,
    /// Rows of `A` in `S`, in increasing order.
    rows: Vec<usize>,
    /// `slot[i]` is the position of row `i` of `A` in `rows`, or
    /// [`NOT_DENSE`].
    slot: Vec<usize>,
    /// `mask_R`: 1 on the rows of `A` outside `S`, 0 on `S`.
    mask: Vec<f64>,
    /// Whether `P` is diagonal and every row outside `S` has at most one
    /// entry, so that `D' = K_R`.
    exact: bool,
    /// `1/D'` (`1` where `D'` is zero).
    inv_diag: Vec<f64>,
    /// `ρ_S⁻¹`, in the order of `rows`.
    rho_s_inv: Vec<f64>,
    /// `A_S`: the rows of `A` in `S` (`k × n`).
    a_s: CsrMatrix,
    /// `C⁻¹` with every one of its `k²` entries stored (`k × k`).
    cinv: CsrMatrix,
    /// The pivot of `C` the last refresh met that was not positive and
    /// finite, if any.
    failed: Option<f64>,
    /// `C`'s upper triangle (every entry stored) and its LDLᵀ
    /// factorization, absent until `C` first factorizes.
    c: CscMatrix,
    c_ldlt: Option<Ldlt>,
    s: Vec<f64>,
    /// `C⁻¹ s`; after [`Self::solve_augmented`], `ν`.
    t: Vec<f64>,
    /// `u_S = z_S − ρ_S⁻¹∘y_S` of the last [`Self::solve_augmented`].
    u_s: Vec<f64>,
    w: Vec<f64>,
}

impl DenseRowPrecond {
    /// Picks the dense rows of `a` (by the rule of `dense_rows`: AMD's
    /// dense threshold, at most `⌊√nnz(A)⌋` rows) and computes the
    /// preconditioner for `P + σI + Aᵀ diag(ρ) A`; `at` is `Aᵀ`. Returns
    /// `None` when `A` has no dense row.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not `n × n` for `n = a.ncols()`, `at` is not `a`'s
    /// transpose, or `rho.len()` is not `a.nrows()`.
    pub fn new(
        p: &CsrMatrix,
        a: &CsrMatrix,
        at: &CsrMatrix,
        sigma: f64,
        rho: &[f64],
    ) -> Option<Self> {
        let rows = dense_rows(a);
        (!rows.is_empty()).then(|| Self::with_rows(p, a, at, sigma, rho, rows))
    }

    /// [`Self::new`] for the dense rows `rows` (increasing, not empty).
    fn with_rows(
        p: &CsrMatrix,
        a: &CsrMatrix,
        at: &CsrMatrix,
        sigma: f64,
        rho: &[f64],
        rows: Vec<usize>,
    ) -> Self {
        let (n, m) = (a.ncols(), a.nrows());
        let k = rows.len();
        let mut slot = vec![NOT_DENSE; m];
        let mut mask = vec![1.0; m];
        let mut indptr = Vec::with_capacity(k + 1);
        let mut indices = Vec::new();
        indptr.push(0);
        for (r, &i) in rows.iter().enumerate() {
            slot[i] = r;
            mask[i] = 0.0;
            indices.extend_from_slice(a.row(i).0);
            indptr.push(indices.len());
        }
        let data = vec![0.0; indices.len()];
        let a_s = CsrMatrix::from_raw_parts(k, n, indptr, indices, data)
            .expect("rows of a valid CSR matrix form a valid CSR matrix");
        let dense_indices = (0..k * k).map(|e| e % k).collect();
        let cinv = CsrMatrix::from_raw_parts(
            k,
            k,
            (0..=k).map(|i| i * k).collect(),
            dense_indices,
            vec![0.0; k * k],
        )
        .expect("a full pattern is a valid CSR matrix");
        let c = CscMatrix::from_raw_parts(
            k,
            k,
            (0..=k).map(|j| j * (j + 1) / 2).collect(),
            (0..k).flat_map(|j| 0..=j).collect(),
            vec![0.0; k * (k + 1) / 2],
        )
        .expect("a full upper triangle is a valid CSC matrix");
        let exact = (0..n).all(|j| p.row(j).0.iter().all(|&c| c == j))
            && (0..m).all(|i| slot[i] != NOT_DENSE || a.row_nnz(i) <= 1);
        let mut pre = DenseRowPrecond {
            sigma,
            rows,
            slot,
            mask,
            exact,
            inv_diag: vec![0.0; n],
            rho_s_inv: vec![0.0; k],
            a_s,
            cinv,
            failed: None,
            c,
            c_ldlt: None,
            s: vec![0.0; k],
            t: vec![0.0; k],
            u_s: vec![0.0; k],
            w: vec![0.0; n],
        };
        pre.refresh(p, a, at, rho);
        pre
    }

    /// Recomputes `D'⁻¹`, `A_S`, `ρ_S⁻¹` and `C⁻¹` for new values of `P`,
    /// `A` (and its transpose `at`) or ρ, in place. The patterns must be
    /// the ones given at construction.
    ///
    /// If `C` is not numerically positive definite the refresh records
    /// the failing pivot ([`Self::failed_pivot`]), and [`Self::apply`] must
    /// not be called until a later refresh succeeds.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ from the ones at construction.
    pub fn refresh(&mut self, p: &CsrMatrix, a: &CsrMatrix, at: &CsrMatrix, rho: &[f64]) {
        assert_eq!(rho.len(), self.slot.len(), "rho length mismatch");
        for (r, &i) in self.rows.iter().enumerate() {
            let (start, end) = (self.a_s.indptr()[r], self.a_s.indptr()[r + 1]);
            self.a_s.data_mut()[start..end].copy_from_slice(a.row(i).1);
            self.rho_s_inv[r] = 1.0 / rho[i];
        }
        // D' = diag(P) + σ + Σ_{i∉S} ρ_i A_{i,·}², over the rows of A in
        // increasing order; D'⁻¹ is 1 where D' is zero.
        for (j, d) in self.inv_diag.iter_mut().enumerate() {
            *d = p.get(j, j) + self.sigma;
        }
        for (i, &ri) in rho.iter().enumerate().filter(|&(i, _)| self.slot[i] == NOT_DENSE) {
            let (cols, vals) = a.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                self.inv_diag[j] += ri * v * v;
            }
        }
        for d in &mut self.inv_diag {
            *d = if *d != 0.0 { 1.0 / *d } else { 1.0 };
        }
        self.failed = self.invert_c(at).err();
    }

    /// Forms `C = R_S⁻¹ + A_S D'⁻¹ A_Sᵀ`, factorizes it and writes `C⁻¹`.
    /// Fails with the first pivot that is not positive and finite (`0` for
    /// an exactly zero one).
    fn invert_c(&mut self, at: &CsrMatrix) -> Result<(), f64> {
        let k = self.rows.len();
        // The upper triangle of C, column by column: entry (i, j), i ≤ j,
        // sits at j(j+1)/2 + i.
        let pos = |i: usize, j: usize| j * (j + 1) / 2 + i;
        let c = self.c.data_mut();
        c.fill(0.0);
        for (r, &rinv) in self.rho_s_inv.iter().enumerate() {
            c[pos(r, r)] = rinv;
        }
        // One column of A (row of Aᵀ) at a time: its entries in dense rows
        // add their outer product, weighted by D'⁻¹. Row indices increase
        // along a row of Aᵀ, and so do their slots, so `ri ≤ rj`.
        for (col, &dinv) in self.inv_diag.iter().enumerate() {
            let (idx, vals) = at.row(col);
            for (e, (&i, &vi)) in idx.iter().zip(vals).enumerate() {
                let ri = self.slot[i];
                if ri == NOT_DENSE {
                    continue;
                }
                let wv = vi * dinv;
                for (&j, &vj) in idx[e..].iter().zip(&vals[e..]) {
                    let rj = self.slot[j];
                    if rj != NOT_DENSE {
                        c[pos(ri, rj)] += wv * vj;
                    }
                }
            }
        }
        let factored = match &mut self.c_ldlt {
            Some(f) => f.refactor(&self.c),
            None => Ldlt::factor(&self.c).map(|f| self.c_ldlt = Some(f)),
        };
        let Some(f) = self.c_ldlt.as_ref().filter(|_| factored.is_ok()) else {
            return Err(0.0);
        };
        if let Some(&d) = f.d().iter().find(|&&d| !(d > 0.0 && d.is_finite())) {
            return Err(d);
        }
        // C⁻¹ column by column. Only the upper triangle is kept, then
        // mirrored, so C⁻¹ is exactly symmetric.
        let cinv = self.cinv.data_mut();
        let y = &mut self.s;
        for j in 0..k {
            y.fill(0.0);
            y[j] = 1.0;
            f.solve_in_place(y).expect("y has length k");
            for i in 0..=j {
                cinv[i * k + j] = y[i];
            }
        }
        for i in 0..k {
            for j in 0..i {
                cinv[i * k + j] = cinv[j * k + i];
            }
        }
        Ok(())
    }

    /// `d = M⁻¹ r`: `d = D'⁻¹∘r`, then `s = A_S d`, `t = C⁻¹ s` and
    /// `d ← d − D'⁻¹∘(A_Sᵀ t)`.
    ///
    /// # Panics
    ///
    /// Panics if `r` or `d` is not of length `n`, or while a failed refresh
    /// stands ([`Self::failed_pivot`]).
    pub fn apply(&mut self, r: &[f64], d: &mut [f64]) {
        self.apply_diag_then_a_s(r, d);
        self.subtract_correction(d);
    }

    /// Steps 3–7 of the augmented direct solve (module docs), for a `b`
    /// whose right-hand side left out the rows of `S` (`b = (σx − q) +
    /// Aᵀ(mask_R∘(ρ∘z − y))`): `w = D'⁻¹∘b`, `u_S = z_S − ρ_S⁻¹∘y_S`,
    /// `t = A_S w − u_S`, `ν = C⁻¹t` and `x = w − D'⁻¹∘(A_Sᵀν)`. Keeps `u_S`
    /// and `ν` for [`Self::write_dense_ztilde`].
    ///
    /// # Panics
    ///
    /// Panics unless [`Self::is_exact`], if `b` or `x` is not of length `n`
    /// or `z` or `y` not of length `m`, or while a failed refresh stands.
    pub fn solve_augmented(&mut self, b: &[f64], z: &[f64], y: &[f64], x: &mut [f64]) {
        assert!(self.exact, "the augmented solve needs a diagonal K_R");
        assert_eq!(z.len(), self.slot.len(), "z length mismatch");
        assert_eq!(y.len(), self.slot.len(), "y length mismatch");
        self.apply_diag_then_a_s(b, x);
        for ((s, u), (&i, &rinv)) in
            self.s.iter_mut().zip(&mut self.u_s).zip(self.rows.iter().zip(&self.rho_s_inv))
        {
            *u = z[i] - rinv * y[i];
            *s -= *u;
        }
        self.subtract_correction(x);
    }

    /// Step 8 on the rows of `S`: `z̃_S = u_S + ρ_S⁻¹∘ν` of the last
    /// [`Self::solve_augmented`], into `ztilde` (length `m`), whose other
    /// rows the caller fills with `A x̃`.
    pub fn write_dense_ztilde(&self, ztilde: &mut [f64]) {
        for ((&i, &u), (&rinv, &nu)) in
            self.rows.iter().zip(&self.u_s).zip(self.rho_s_inv.iter().zip(&self.t))
        {
            ztilde[i] = u + rinv * nu;
        }
    }

    /// `d = D'⁻¹∘r` and `s = A_S d`.
    fn apply_diag_then_a_s(&mut self, r: &[f64], d: &mut [f64]) {
        assert_eq!(r.len(), self.inv_diag.len(), "preconditioner input length mismatch");
        assert_eq!(d.len(), self.inv_diag.len(), "preconditioner output length mismatch");
        assert!(self.failed.is_none(), "the last refresh left no C⁻¹ to apply");
        for ((di, &ri), &inv) in d.iter_mut().zip(r).zip(&self.inv_diag) {
            *di = ri * inv;
        }
        self.a_s.spmv(d, &mut self.s).expect("A_S is k × n");
    }

    /// `t = C⁻¹ s` and `d ← d − D'⁻¹∘(A_Sᵀ t)`.
    fn subtract_correction(&mut self, d: &mut [f64]) {
        self.cinv.spmv(&self.s, &mut self.t).expect("C⁻¹ is k × k");
        // w = A_Sᵀ t, scattered row by row of A_S: each w[j] sums its terms
        // in increasing row order, as a gather over A_Sᵀ would.
        self.w.fill(0.0);
        for (r, &tr) in self.t.iter().enumerate() {
            let (cols, vals) = self.a_s.row(r);
            for (&j, &v) in cols.iter().zip(vals) {
                self.w[j] += v * tr;
            }
        }
        for ((di, &wi), &inv) in d.iter_mut().zip(&self.w).zip(&self.inv_diag) {
            *di -= inv * wi;
        }
    }

    /// The pivot of `C` the last refresh met that was not positive and
    /// finite, or `None` when it factored `C`.
    pub fn failed_pivot(&self) -> Option<f64> {
        self.failed
    }

    /// The rows of `A` in `S`, in increasing order.
    pub fn dense_rows(&self) -> &[usize] {
        &self.rows
    }

    /// Whether `K_R` is diagonal (`P` diagonal, at most one entry in every
    /// row outside `S`), so that `D' = K_R`, `M = K`, and the KKT solve is
    /// [`Self::solve_augmented`] instead of PCG. Decided from the patterns
    /// at construction.
    pub fn is_exact(&self) -> bool {
        self.exact
    }

    /// `mask_R`: 1 on the rows of `A` outside `S`, 0 on `S` (length `m`).
    pub fn mask(&self) -> &[f64] {
        &self.mask
    }

    /// `ρ_S⁻¹`, in the order of [`Self::dense_rows`].
    pub fn rho_s_inv(&self) -> &[f64] {
        &self.rho_s_inv
    }

    /// `D'⁻¹`, the inverse of the Jacobi diagonal without the dense rows.
    pub fn inv_diag(&self) -> &[f64] {
        &self.inv_diag
    }

    /// `A_S` (`k × n`).
    pub fn a_s(&self) -> &CsrMatrix {
        &self.a_s
    }

    /// `C⁻¹` (`k × k`, every entry stored; stale while a failed refresh
    /// stands).
    pub fn cinv(&self) -> &CsrMatrix {
        &self.cinv
    }
}
