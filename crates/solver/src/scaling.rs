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
        let n = p.nrows();
        let m = a.nrows();
        let mut sc = Scaling::identity(n, m);
        let mut ps = p.clone();
        let mut qs = q.to_vec();
        let mut as_ = a.clone();

        // Column infinity norms of the stacked matrix [P; A] for the
        // variable block, row norms of A for the constraint block; each
        // scaling pass below leaves the norms of its result for the next
        // iteration.
        let mut p_cols = ps.column_inf_norms();
        let mut p_rows = vec![0.0; n];
        let mut a_cols = as_.column_inf_norms();
        let mut a_rows = as_.row_inf_norms();
        let mut dx = vec![0.0; n];
        let mut dz = vec![0.0; m];
        for _ in 0..iters {
            for (s, (&pc, &ac)) in dx.iter_mut().zip(p_cols.iter().zip(&a_cols)) {
                *s = inv_sqrt_clamped(pc.max(ac));
            }
            for (s, &ar) in dz.iter_mut().zip(&a_rows) {
                *s = inv_sqrt_clamped(ar);
            }

            ps.scale_with_inf_norms(&dx, &dx, &mut p_rows, &mut p_cols);
            as_.scale_with_inf_norms(&dz, &dx, &mut a_rows, &mut a_cols);
            for (qi, &s) in qs.iter_mut().zip(&dx) {
                *qi *= s;
            }
            for (di, &s) in sc.d.iter_mut().zip(&dx) {
                *di *= s;
            }
            for (ei, &s) in sc.e.iter_mut().zip(&dz) {
                *ei *= s;
            }

            // Cost normalization.
            let mean_p = if n == 0 { 0.0 } else { p_cols.iter().sum::<f64>() / n as f64 };
            let norm_q = vec_ops::inf_norm(&qs);
            let denom = mean_p.max(norm_q);
            let gamma = if denom > MIN_SCALING {
                (1.0 / denom).clamp(1.0 / MAX_SCALING, 1.0 / MIN_SCALING)
            } else {
                1.0
            };
            for v in ps.data_mut() {
                *v *= gamma;
            }
            // Rounding is monotone, so the largest scaled entry of a column
            // is its largest entry, scaled: the norms of c·P stay exact.
            for v in &mut p_cols {
                *v *= gamma;
            }
            for v in &mut qs {
                *v *= gamma;
            }
            sc.c *= gamma;
        }

        sc.dinv = sc.d.iter().map(|&v| 1.0 / v).collect();
        sc.einv = sc.e.iter().map(|&v| 1.0 / v).collect();
        sc.cinv = 1.0 / sc.c;
        (sc, ScaledData { p: ps, q: qs, a: as_ })
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
        let ls = l.iter().zip(&self.e).map(|(&v, &s)| v * s).collect();
        let us = u.iter().zip(&self.e).map(|(&v, &s)| v * s).collect();
        (ls, us)
    }

    /// Maps a scaled primal iterate back: `x = D·x̄`.
    pub fn unscale_x(&self, x: &[f64]) -> Vec<f64> {
        x.iter().zip(&self.d).map(|(&v, &s)| v * s).collect()
    }

    /// Maps a scaled slack iterate back: `z = E⁻¹·z̄`.
    pub fn unscale_z(&self, z: &[f64]) -> Vec<f64> {
        z.iter().zip(&self.einv).map(|(&v, &s)| v * s).collect()
    }

    /// Maps a scaled dual iterate back: `y = c⁻¹·E·ȳ`.
    pub fn unscale_y(&self, y: &[f64]) -> Vec<f64> {
        y.iter().zip(&self.e).map(|(&v, &s)| v * s * self.cinv).collect()
    }

    /// Maps an unscaled primal point into scaled space: `x̄ = D⁻¹·x`.
    pub fn scale_x(&self, x: &[f64]) -> Vec<f64> {
        x.iter().zip(&self.dinv).map(|(&v, &s)| v * s).collect()
    }

    /// Maps an unscaled dual point into scaled space: `ȳ = c·E⁻¹·y`.
    pub fn scale_y(&self, y: &[f64]) -> Vec<f64> {
        y.iter().zip(&self.einv).map(|(&v, &s)| v * s * self.c).collect()
    }

    /// Maps an unscaled slack point into scaled space: `z̄ = E·z` (the
    /// inverse of [`Scaling::unscale_z`], used by checkpoint restore).
    pub fn scale_z(&self, z: &[f64]) -> Vec<f64> {
        z.iter().zip(&self.e).map(|(&v, &s)| v * s).collect()
    }
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
