//! The triangular sweeps of an LDLᵀ solve.
//!
//! [`ldl_solve_in_place`] is the one copy of the solve `x = L⁻ᵀ D⁻¹ L⁻¹ b`
//! in the workspace: `rsqp-linsys`'s `Ldlt` calls it, and so does the
//! simulated accelerator's factor-solve instruction, so both return the
//! same bits for the same factor.

/// Solves `L·D·Lᵀ x = b` in place (`b` becomes `x`) for a unit lower
/// triangular `L` stored by columns without its diagonal (`colptr`,
/// `rowidx`, `l`) and `dinv = D⁻¹`.
///
/// The forward sweep scatters column `j` of `L` times `b[j]` into the rows
/// below it, the middle step scales by `D⁻¹`, and the backward sweep
/// subtracts column `j`'s dot product with the solved rows from `b[j]`,
/// each in increasing storage order.
///
/// # Panics
///
/// Panics if `b` is shorter than `dinv`, `colptr` has fewer than
/// `dinv.len() + 1` entries, or a row index lies outside `b`.
pub fn ldl_solve_in_place(
    colptr: &[usize],
    rowidx: &[usize],
    l: &[f64],
    dinv: &[f64],
    b: &mut [f64],
) {
    let n = dinv.len();
    // x = L⁻¹ b
    for j in 0..n {
        let bj = b[j];
        for p in colptr[j]..colptr[j + 1] {
            b[rowidx[p]] -= l[p] * bj;
        }
    }
    // x = D⁻¹ x
    for (bi, &di) in b[..n].iter_mut().zip(dinv) {
        *bi *= di;
    }
    // x = L⁻ᵀ x
    for j in (0..n).rev() {
        let mut bj = b[j];
        for p in colptr[j]..colptr[j + 1] {
            bj -= l[p] * b[rowidx[p]];
        }
        b[j] = bj;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_a_two_by_two_factor() {
        // K = [[4, 2], [2, 5]] = L D Lᵀ with L = [[1, 0], [0.5, 1]], D = (4, 4).
        let (colptr, rowidx, l, dinv) = ([0, 1, 1], [1], [0.5], [0.25, 0.25]);
        let mut b = [6.0, 7.0];
        ldl_solve_in_place(&colptr, &rowidx, &l, &dinv, &mut b);
        assert_eq!(b, [1.0, 1.0]);
    }
}
