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
/// below it and scales `b[j]` by `D⁻¹`, and the backward sweep subtracts
/// column `j`'s products with the solved rows from `b[j]` one at a time,
/// each in increasing storage order. Both sweeps walk a column's row
/// indices and values as one zipped pair of slices, so only the writes and
/// reads of `b` are bounds-checked.
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
    let column = |j: usize| {
        let range = colptr[j]..colptr[j + 1];
        rowidx[range.clone()].iter().zip(&l[range])
    };
    // x = D⁻¹ L⁻¹ b: row j is final when column j is reached, so it is
    // scaled there; the scatter takes its unscaled value.
    for (j, &dj) in dinv.iter().enumerate() {
        let bj = b[j];
        b[j] = bj * dj;
        for (&r, &v) in column(j) {
            b[r] -= v * bj;
        }
    }
    // x = L⁻ᵀ x
    for j in (0..n).rev() {
        b[j] = column(j).fold(b[j], |bj, (&r, &v)| bj - v * b[r]);
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    use super::*;

    /// The solve as three passes, the sweeps indexed over
    /// `colptr[j]..colptr[j + 1]` and `D⁻¹` applied between them: the
    /// reference [`ldl_solve_in_place`] must match bit for bit.
    fn indexed_ldl_solve(
        colptr: &[usize],
        rowidx: &[usize],
        l: &[f64],
        dinv: &[f64],
        b: &mut [f64],
    ) {
        let n = dinv.len();
        for j in 0..n {
            let bj = b[j];
            for p in colptr[j]..colptr[j + 1] {
                b[rowidx[p]] -= l[p] * bj;
            }
        }
        for (bi, &di) in b[..n].iter_mut().zip(dinv) {
            *bi *= di;
        }
        for j in (0..n).rev() {
            let mut bj = b[j];
            for p in colptr[j]..colptr[j + 1] {
                bj -= l[p] * b[rowidx[p]];
            }
            b[j] = bj;
        }
    }

    /// The factor of a random sparse quasi-definite `[[H, Bᵀ], [B, −G]]`
    /// (`H`, `G` diagonally dominant), by a dense LDLᵀ that keeps the
    /// nonzeros of `L`: `(colptr, rowidx, l, dinv)`.
    fn random_factor(
        rng: &mut SmallRng,
        n: usize,
        m: usize,
    ) -> (Vec<usize>, Vec<usize>, Vec<f64>, Vec<f64>) {
        let dim = n + m;
        let mut k = vec![vec![0.0; dim]; dim];
        for i in 0..dim {
            for j in 0..i {
                let coupled = if j >= n { false } else { i < n || rng.gen_bool(0.3) };
                if coupled && rng.gen_bool(0.4) {
                    let v = rng.gen_range(-1.0..1.0);
                    (k[i][j], k[j][i]) = (v, v);
                }
            }
            k[i][i] = if i < n { 1.0 } else { -1.0 } * rng.gen_range(dim as f64..2.0 * dim as f64);
        }
        // Column by column: L[i][j] = (K[i][j] − Σ_q L[i][q] D[q] L[j][q]) / D[j].
        let (mut lower, mut d) = (vec![vec![0.0; dim]; dim], vec![0.0; dim]);
        for j in 0..dim {
            d[j] = k[j][j] - (0..j).map(|q| lower[j][q] * lower[j][q] * d[q]).sum::<f64>();
            for i in j + 1..dim {
                let s: f64 = (0..j).map(|q| lower[i][q] * d[q] * lower[j][q]).sum();
                lower[i][j] = (k[i][j] - s) / d[j];
            }
        }
        let (mut colptr, mut rowidx, mut l) = (vec![0], Vec::new(), Vec::new());
        for j in 0..dim {
            for (i, row) in lower.iter().enumerate().skip(j + 1) {
                if row[j] != 0.0 {
                    rowidx.push(i);
                    l.push(row[j]);
                }
            }
            colptr.push(rowidx.len());
        }
        (colptr, rowidx, l, d.iter().map(|d| 1.0 / d).collect())
    }

    #[test]
    fn zipped_sweeps_match_the_indexed_loops_bit_for_bit() {
        let mut rng = SmallRng::seed_from_u64(7);
        for (n, m) in [(1, 0), (3, 2), (12, 7), (30, 25), (60, 40)] {
            let (colptr, rowidx, l, dinv) = random_factor(&mut rng, n, m);
            let b: Vec<f64> = (0..n + m).map(|_| rng.gen_range(-10.0..10.0)).collect();
            let (mut got, mut want) = (b.clone(), b);
            ldl_solve_in_place(&colptr, &rowidx, &l, &dinv, &mut got);
            indexed_ldl_solve(&colptr, &rowidx, &l, &dinv, &mut want);
            let bits = |v: &[f64]| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "n = {n}, m = {m}, nnz(L) = {}", l.len());
        }
    }

    #[test]
    fn solves_a_two_by_two_factor() {
        // K = [[4, 2], [2, 5]] = L D Lᵀ with L = [[1, 0], [0.5, 1]], D = (4, 4).
        let (colptr, rowidx, l, dinv) = ([0, 1, 1], [1], [0.5], [0.25, 0.25]);
        let mut b = [6.0, 7.0];
        ldl_solve_in_place(&colptr, &rowidx, &l, &dinv, &mut b);
        assert_eq!(b, [1.0, 1.0]);
    }
}
