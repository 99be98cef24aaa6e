//! Modified Ruiz equilibration (OSQP §5.1 of Stellato et al. 2020).
//!
//! The problem data is rescaled as `P̄ = c·D·P·D`, `q̄ = c·D·q`,
//! `Ā = E·A·D`, `l̄ = E·l`, `ū = E·u` with positive diagonal `D`, `E` and
//! cost scalar `c`, chosen to equilibrate the column infinity norms of the
//! stacked KKT matrix. Iterates map back as `x = D·x̄`, `z = E⁻¹·z̄`,
//! `y = c⁻¹·E·ȳ`.

use rsqp_sparse::{vec_ops, CsrMatrix};

/// Scaling-norm clamp, matching OSQP's `MIN_SCALING`/`MAX_SCALING`.
const MIN_SCALING: f64 = 1e-4;
/// Upper clamp for equilibration norms.
const MAX_SCALING: f64 = 1e4;

/// The diagonal scaling produced by Ruiz equilibration.
#[derive(Debug, Clone, PartialEq)]
pub struct Scaling {
    d: Vec<f64>,
    e: Vec<f64>,
    dinv: Vec<f64>,
    einv: Vec<f64>,
    c: f64,
    cinv: f64,
}

/// The scaled problem data returned by [`Scaling::ruiz`].
#[derive(Debug, Clone)]
pub struct ScaledData {
    /// `P̄ = c·D·P·D`.
    pub p: CsrMatrix,
    /// `q̄ = c·D·q`.
    pub q: Vec<f64>,
    /// `Ā = E·A·D`.
    pub a: CsrMatrix,
}

/// Scratch for [`Scaling::equilibrate`]: the infinity norms of the rows
/// and columns of the scaled `P` and `A`.
#[derive(Debug, Clone)]
pub(crate) struct RuizWorkspace {
    p_cols: Vec<f64>,
    p_rows: Vec<f64>,
    a_cols: Vec<f64>,
    a_rows: Vec<f64>,
}

impl RuizWorkspace {
    /// Scratch for `n` variables and `m` constraints.
    pub(crate) fn new(n: usize, m: usize) -> Self {
        RuizWorkspace {
            p_cols: vec![0.0; n],
            p_rows: vec![0.0; n],
            a_cols: vec![0.0; n],
            a_rows: vec![0.0; m],
        }
    }
}

impl Scaling {
    /// The identity scaling (used when `scaling_iters == 0`).
    pub fn identity(n: usize, m: usize) -> Self {
        Scaling {
            d: vec![1.0; n],
            e: vec![1.0; m],
            dinv: vec![1.0; n],
            einv: vec![1.0; m],
            c: 1.0,
            cinv: 1.0,
        }
    }

    /// Runs `iters` Ruiz iterations on `(P, q, A)` and returns the scaling
    /// together with the scaled matrices.
    pub fn ruiz(p: &CsrMatrix, q: &[f64], a: &CsrMatrix, iters: usize) -> (Self, ScaledData) {
        let (n, m) = (p.nrows(), a.nrows());
        let mut sc = Scaling::identity(n, m);
        let mut data = ScaledData { p: p.clone(), q: q.to_vec(), a: a.clone() };
        sc.equilibrate(&mut data.p, &mut data.q, &mut data.a, iters, &mut RuizWorkspace::new(n, m));
        (sc, data)
    }

    /// [`Self::ruiz`] in place, without allocating: `p`, `q` and `a` hold
    /// the unscaled data on entry and the scaled data on return, and `self`
    /// (of the same dimensions) becomes their scaling. The result is bit
    /// for bit that of [`Self::ruiz`].
    pub(crate) fn equilibrate(
        &mut self,
        p: &mut CsrMatrix,
        q: &mut [f64],
        a: &mut CsrMatrix,
        iters: usize,
        ws: &mut RuizWorkspace,
    ) {
        let n = p.nrows();
        // D and E of one iteration live in the buffers that take D⁻¹ and
        // E⁻¹ at the end.
        let Scaling { d, e, dinv: dx, einv: dz, c, cinv } = self;
        d.fill(1.0);
        e.fill(1.0);
        *c = 1.0;

        // Column infinity norms of the stacked matrix [P; A] for the
        // variable block, row norms of A for the constraint block; each
        // scaling pass below leaves the norms of its result for the next
        // iteration.
        let RuizWorkspace { p_cols, p_rows, a_cols, a_rows } = ws;
        p.column_inf_norms_into(p_cols);
        a.column_inf_norms_into(a_cols);
        a.row_inf_norms_into(a_rows);
        for _ in 0..iters {
            for (s, (&pc, &ac)) in dx.iter_mut().zip(p_cols.iter().zip(a_cols.iter())) {
                *s = inv_sqrt_clamped(pc.max(ac));
            }
            for (s, &ar) in dz.iter_mut().zip(a_rows.iter()) {
                *s = inv_sqrt_clamped(ar);
            }

            p.scale_with_inf_norms(dx, dx, p_rows, p_cols);
            a.scale_with_inf_norms(dz, dx, a_rows, a_cols);
            for (qi, &s) in q.iter_mut().zip(dx.iter()) {
                *qi *= s;
            }
            for (di, &s) in d.iter_mut().zip(dx.iter()) {
                *di *= s;
            }
            for (ei, &s) in e.iter_mut().zip(dz.iter()) {
                *ei *= s;
            }

            // Cost normalization.
            let mean_p = if n == 0 { 0.0 } else { p_cols.iter().sum::<f64>() / n as f64 };
            let norm_q = vec_ops::inf_norm(q);
            let denom = mean_p.max(norm_q);
            let gamma = if denom > MIN_SCALING {
                (1.0 / denom).clamp(1.0 / MAX_SCALING, 1.0 / MIN_SCALING)
            } else {
                1.0
            };
            for v in p.data_mut() {
                *v *= gamma;
            }
            // Rounding is monotone, so the largest scaled entry of a column
            // is its largest entry, scaled: the norms of c·P stay exact.
            for v in p_cols.iter_mut() {
                *v *= gamma;
            }
            for v in q.iter_mut() {
                *v *= gamma;
            }
            *c *= gamma;
        }

        for (inv, &v) in dx.iter_mut().zip(d.iter()) {
            *inv = 1.0 / v;
        }
        for (inv, &v) in dz.iter_mut().zip(e.iter()) {
            *inv = 1.0 / v;
        }
        *cinv = 1.0 / *c;
    }

    /// Variable scaling `D` (length `n`).
    pub fn d(&self) -> &[f64] {
        &self.d
    }

    /// Constraint scaling `E` (length `m`).
    pub fn e(&self) -> &[f64] {
        &self.e
    }

    /// `D⁻¹`.
    pub fn dinv(&self) -> &[f64] {
        &self.dinv
    }

    /// `E⁻¹`.
    pub fn einv(&self) -> &[f64] {
        &self.einv
    }

    /// Cost scaling `c`.
    pub fn c(&self) -> f64 {
        self.c
    }

    /// `c⁻¹`.
    pub fn cinv(&self) -> f64 {
        self.cinv
    }

    /// Scales bound vectors: `l̄ = E·l`, `ū = E·u` (infinities survive).
    pub fn scale_bounds(&self, l: &[f64], u: &[f64]) -> (Vec<f64>, Vec<f64>) {
        (mapped(l, |v| mul(v, &self.e)), mapped(u, |v| mul(v, &self.e)))
    }

    /// The scaled linear cost `q̄ = c·D·q` into `qs`, without allocating.
    pub(crate) fn scale_q_into(&self, q: &[f64], qs: &mut [f64]) {
        qs.copy_from_slice(q);
        mul_by(qs, &self.d, self.c);
    }

    /// [`Self::scale_bounds`] into `ls` and `us`, without allocating.
    pub(crate) fn scale_bounds_into(&self, l: &[f64], u: &[f64], ls: &mut [f64], us: &mut [f64]) {
        ls.copy_from_slice(l);
        us.copy_from_slice(u);
        mul(ls, &self.e);
        mul(us, &self.e);
    }

    /// [`Self::unscale_x`], [`Self::unscale_z`] and [`Self::unscale_y`] in
    /// place.
    pub(crate) fn unscale_in_place(&self, x: &mut [f64], z: &mut [f64], y: &mut [f64]) {
        mul(x, &self.d);
        mul(z, &self.einv);
        mul_by(y, &self.e, self.cinv);
    }

    /// [`Self::scale_x`], [`Self::scale_z`] and [`Self::scale_y`] in place.
    pub(crate) fn scale_in_place(&self, x: &mut [f64], z: &mut [f64], y: &mut [f64]) {
        mul(x, &self.dinv);
        mul(z, &self.e);
        mul_by(y, &self.einv, self.c);
    }

    /// Maps a scaled primal iterate back: `x = D·x̄`.
    pub fn unscale_x(&self, x: &[f64]) -> Vec<f64> {
        mapped(x, |v| mul(v, &self.d))
    }

    /// Maps a scaled slack iterate back: `z = E⁻¹·z̄`.
    pub fn unscale_z(&self, z: &[f64]) -> Vec<f64> {
        mapped(z, |v| mul(v, &self.einv))
    }

    /// Maps a scaled dual iterate back: `y = c⁻¹·E·ȳ`.
    pub fn unscale_y(&self, y: &[f64]) -> Vec<f64> {
        mapped(y, |v| mul_by(v, &self.e, self.cinv))
    }

    /// Maps an unscaled primal point into scaled space: `x̄ = D⁻¹·x`.
    pub fn scale_x(&self, x: &[f64]) -> Vec<f64> {
        mapped(x, |v| mul(v, &self.dinv))
    }

    /// Maps an unscaled dual point into scaled space: `ȳ = c·E⁻¹·y`.
    pub fn scale_y(&self, y: &[f64]) -> Vec<f64> {
        mapped(y, |v| mul_by(v, &self.einv, self.c))
    }

    /// Maps an unscaled slack point into scaled space: `z̄ = E·z` (the
    /// inverse of [`Scaling::unscale_z`], used by checkpoint restore).
    pub fn scale_z(&self, z: &[f64]) -> Vec<f64> {
        mapped(z, |v| mul(v, &self.e))
    }
}

/// A copy of `v` with `f` applied in place.
fn mapped(v: &[f64], f: impl FnOnce(&mut [f64])) -> Vec<f64> {
    let mut out = v.to_vec();
    f(&mut out);
    out
}

/// `v ← v∘s`.
fn mul(v: &mut [f64], s: &[f64]) {
    v.iter_mut().zip(s).for_each(|(v, &s)| *v *= s);
}

/// `v ← (v∘s)·k`, rounded as `v * s * k`.
fn mul_by(v: &mut [f64], s: &[f64], k: f64) {
    v.iter_mut().zip(s).for_each(|(v, &s)| *v = *v * s * k);
}

fn inv_sqrt_clamped(norm: f64) -> f64 {
    if norm == 0.0 {
        1.0
    } else {
        1.0 / norm.clamp(MIN_SCALING, MAX_SCALING).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn badly_scaled() -> (CsrMatrix, Vec<f64>, CsrMatrix) {
        let p = CsrMatrix::from_dense(&[vec![1e4, 0.0], vec![0.0, 1e-3]]);
        let q = vec![100.0, -1e-2];
        let a = CsrMatrix::from_dense(&[vec![1e3, 0.0], vec![0.0, 1e-2]]);
        (p, q, a)
    }

    #[test]
    fn identity_scaling_is_noop() {
        let sc = Scaling::identity(2, 3);
        assert_eq!(sc.unscale_x(&[1.0, 2.0]), vec![1.0, 2.0]);
        assert_eq!(sc.c(), 1.0);
        let (l, u) = sc.scale_bounds(&[0.0, 1.0, 2.0], &[1.0, 2.0, 3.0]);
        assert_eq!(l, vec![0.0, 1.0, 2.0]);
        assert_eq!(u, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn zero_ruiz_iterations_are_the_identity_and_copy_the_data() {
        let (p, q, a) = badly_scaled();
        let (sc, data) = Scaling::ruiz(&p, &q, &a, 0);
        assert_eq!(sc, Scaling::identity(2, 2));
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (scaled, orig) in [(&data.p, &p), (&data.a, &a)] {
            assert_eq!(scaled.indptr(), orig.indptr());
            assert_eq!(scaled.indices(), orig.indices());
            assert_eq!(bits(scaled.data()), bits(orig.data()));
        }
        assert_eq!(bits(&data.q), bits(&q));
    }

    #[test]
    fn equilibrating_in_place_forgets_the_old_scaling() {
        // A scaling of other data, re-run in place on new values, is bit
        // for bit the scaling of the new values.
        let (p, q, a) = badly_scaled();
        let (mut sc, mut data) = Scaling::ruiz(&p, &q, &a, 4);
        let (p2, q2, a2) = (p.map_values(|v| 3.0 * v), vec![1.0, 2.0], a.map_values(|v| v / 7.0));
        let (want, want_data) = Scaling::ruiz(&p2, &q2, &a2, 4);
        data.p.data_mut().copy_from_slice(p2.data());
        data.q.copy_from_slice(&q2);
        data.a.data_mut().copy_from_slice(a2.data());
        sc.equilibrate(&mut data.p, &mut data.q, &mut data.a, 4, &mut RuizWorkspace::new(2, 2));
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(sc, want);
        assert_eq!(bits(data.p.data()), bits(want_data.p.data()));
        assert_eq!(bits(data.a.data()), bits(want_data.a.data()));
        assert_eq!(bits(&data.q), bits(&want_data.q));
    }

    #[test]
    fn ruiz_equilibrates_norms() {
        let (p, q, a) = badly_scaled();
        let (_sc, data) = Scaling::ruiz(&p, &q, &a, 10);
        // After equilibration all column norms of [P; A] should be close to
        // each other (within a factor of ~10 rather than 1e6).
        let pc = data.p.column_inf_norms();
        let ac = data.a.column_inf_norms();
        let col0 = pc[0].max(ac[0]);
        let col1 = pc[1].max(ac[1]);
        let ratio = col0.max(col1) / col0.min(col1);
        assert!(ratio < 10.0, "ratio {ratio}");
    }

    #[test]
    fn scaled_matrices_match_scaling_vectors() {
        let (p, q, a) = badly_scaled();
        let (sc, data) = Scaling::ruiz(&p, &q, &a, 6);
        // P̄ must equal c·D·P·D entry-wise.
        for i in 0..2 {
            for j in 0..2 {
                let want = sc.c() * sc.d()[i] * p.get(i, j) * sc.d()[j];
                assert!((data.p.get(i, j) - want).abs() < 1e-12 * (1.0 + want.abs()));
            }
        }
        // Ā = E·A·D.
        for i in 0..2 {
            for j in 0..2 {
                let want = sc.e()[i] * a.get(i, j) * sc.d()[j];
                assert!((data.a.get(i, j) - want).abs() < 1e-12 * (1.0 + want.abs()));
            }
        }
        // q̄ = c·D·q.
        for j in 0..2 {
            let want = sc.c() * sc.d()[j] * q[j];
            assert!((data.q[j] - want).abs() < 1e-12 * (1.0 + want.abs()));
        }
    }

    #[test]
    fn unscale_roundtrips() {
        let (p, q, a) = badly_scaled();
        let (sc, _) = Scaling::ruiz(&p, &q, &a, 4);
        let x = vec![1.5, -2.5];
        assert!((sc.unscale_x(&sc.scale_x(&x))[0] - x[0]).abs() < 1e-12);
        let y = vec![0.25, 4.0];
        let back = sc.unscale_y(&sc.scale_y(&y));
        assert!((back[0] - y[0]).abs() < 1e-12);
        assert!((back[1] - y[1]).abs() < 1e-12);
        let z = vec![-3.0, 0.5];
        let back = sc.unscale_z(&sc.scale_z(&z));
        assert!((back[0] - z[0]).abs() < 1e-12);
        assert!((back[1] - z[1]).abs() < 1e-12);
    }

    #[test]
    fn infinite_bounds_survive_scaling() {
        let (p, q, a) = badly_scaled();
        let (sc, _) = Scaling::ruiz(&p, &q, &a, 4);
        let (l, u) = sc.scale_bounds(&[f64::NEG_INFINITY, 0.0], &[f64::INFINITY, 1.0]);
        assert!(l[0].is_infinite() && l[0] < 0.0);
        assert!(u[0].is_infinite() && u[0] > 0.0);
        assert!(u[1].is_finite());
    }

    #[test]
    fn zero_column_is_left_alone() {
        // A variable that appears nowhere must not produce NaNs.
        let p = CsrMatrix::zeros(2, 2);
        let q = vec![0.0, 0.0];
        let a = CsrMatrix::from_triplets(1, 2, vec![(0, 0, 1.0)]);
        let (sc, data) = Scaling::ruiz(&p, &q, &a, 10);
        assert!(sc.d().iter().all(|v| v.is_finite() && *v > 0.0));
        assert!(data.q.iter().all(|v| v.is_finite()));
    }
}
