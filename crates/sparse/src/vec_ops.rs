//! Dense vector kernels.
//!
//! These functions correspond one-to-one with the vector-engine instruction
//! class of the RSQP architecture (Table 1 in the paper): linear combination
//! of two vectors, element-wise comparison / reciprocal / multiplication, and
//! dot products. The ADMM outer loop and PCG inner loop are written entirely
//! in terms of these kernels plus SpMV, which is what makes the instruction
//! compilation in `rsqp-arch` a mechanical translation.

/// Absolute floor of the PCG stopping test `r·r < max(ε²·(b·b), PCG_EPS_ABS²)`,
/// shared by `rsqp_linsys::pcg_with` and the machine's PCG kernel.
pub const PCG_EPS_ABS: f64 = 1e-15;

/// Dot product `xᵀy`.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot length mismatch");
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

/// Infinity norm `max |x_i|` (0 for an empty vector).
pub fn inf_norm(x: &[f64]) -> f64 {
    x.iter().fold(0.0f64, |m, v| m.max(v.abs()))
}

/// `y = a*x + b*y` (general linear combination, in place on `y`).
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn lincomb(a: f64, x: &[f64], b: f64, y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "lincomb length mismatch");
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi = a * xi + b * *yi;
    }
}

/// `y += a*x`, summed as [`lincomb`] with `b = 1`.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
    lincomb(a, x, 1.0, y);
}

/// `out = x - y`.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn sub(x: &[f64], y: &[f64], out: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "sub length mismatch");
    assert_eq!(x.len(), out.len(), "sub output length mismatch");
    for ((o, &a), &b) in out.iter_mut().zip(x).zip(y) {
        *o = a - b;
    }
}

/// Element-wise Euclidean projection onto the box `[l, u]`:
/// `out_i = min(max(x_i, l_i), u_i)` — the `Π` operator of Algorithm 1.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn project_box(x: &[f64], l: &[f64], u: &[f64], out: &mut [f64]) {
    assert_eq!(x.len(), l.len(), "project_box lower length mismatch");
    assert_eq!(x.len(), u.len(), "project_box upper length mismatch");
    assert_eq!(x.len(), out.len(), "project_box output length mismatch");
    for i in 0..x.len() {
        out[i] = x[i].max(l[i]).min(u[i]);
    }
}

/// Scaled infinity norm `max |d_i * x_i|`, used by the unscaled termination
/// criteria of OSQP.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn scaled_inf_norm(d: &[f64], x: &[f64]) -> f64 {
    assert_eq!(d.len(), x.len(), "scaled_inf_norm length mismatch");
    d.iter().zip(x).fold(0.0f64, |m, (a, b)| m.max((a * b).abs()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norms() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert_eq!(inf_norm(&[-3.0, 2.0]), 3.0);
        assert_eq!(inf_norm(&[]), 0.0);
    }

    #[test]
    fn lincomb_general() {
        let mut y = vec![1.0, 1.0];
        lincomb(2.0, &[1.0, 2.0], -1.0, &mut y);
        assert_eq!(y, vec![1.0, 3.0]);
    }

    #[test]
    fn sub_is_elementwise() {
        let mut out = vec![0.0; 2];
        sub(&[3.0, 1.0], &[1.0, 1.0], &mut out);
        assert_eq!(out, vec![2.0, 0.0]);
    }

    #[test]
    fn projection_clamps_both_sides() {
        let mut out = vec![0.0; 3];
        project_box(&[-5.0, 0.5, 5.0], &[0.0, 0.0, 0.0], &[1.0, 1.0, 1.0], &mut out);
        assert_eq!(out, vec![0.0, 0.5, 1.0]);
    }

    #[test]
    fn projection_handles_infinite_bounds() {
        let mut out = vec![0.0; 2];
        project_box(
            &[-1e30, 1e30],
            &[f64::NEG_INFINITY, f64::NEG_INFINITY],
            &[f64::INFINITY, f64::INFINITY],
            &mut out,
        );
        assert_eq!(out, vec![-1e30, 1e30]);
    }

    #[test]
    fn scaled_norm() {
        assert_eq!(scaled_inf_norm(&[2.0, 1.0], &[1.0, -5.0]), 5.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }
}
