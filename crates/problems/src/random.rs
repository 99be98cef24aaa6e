//! Random strictly convex box-constrained QPs, used by tests and examples
//! (not part of the paper's 6-domain benchmark).

use rand::Rng;
use rsqp_solver::QpProblem;
use rsqp_sparse::CooMatrix;

use crate::util::{randn, rng_for, sprandn};

/// Generates a random strictly convex QP with `n` variables and `m`
/// two-sided inequality constraints.
///
/// `P` is a diagonally-dominant symmetric matrix (hence positive definite),
/// `A` is 15 % dense, and the bounds always contain `Ax₀` for a random
/// feasible point `x₀`, so the problem is feasible by construction.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn generate(n: usize, m: usize, seed: u64) -> QpProblem {
    assert!(n > 0, "random QP needs at least one variable");
    let mut prng = rng_for("random-pattern", n + 1000 * m, 0);
    let mut vrng = rng_for("random-values", n + 1000 * m, seed);

    // Symmetric off-diagonal part + dominant diagonal.
    let off = sprandn(n, n, (4.0 / n as f64).min(0.3), &mut prng, &mut vrng);
    let mut coo = CooMatrix::new(n, n);
    let mut rowsum = vec![0.0; n];
    for i in 0..n {
        let (cols, vals) = off.row(i);
        for (&j, &v) in cols.iter().zip(vals) {
            if j > i {
                coo.push(i, j, v);
                coo.push(j, i, v);
                rowsum[i] += v.abs();
                rowsum[j] += v.abs();
            }
        }
    }
    for (i, &rs) in rowsum.iter().enumerate() {
        coo.push(i, i, rs + 1.0 + vrng.gen_range(0.0..2.0));
    }
    let p = coo.to_csr();
    let q: Vec<f64> = (0..n).map(|_| randn(&mut vrng)).collect();

    let a = sprandn(m, n, 0.15_f64.max((2.0 / n as f64).min(1.0)), &mut prng, &mut vrng);
    let x0: Vec<f64> = (0..n).map(|_| randn(&mut vrng)).collect();
    let mut ax0 = vec![0.0; m];
    a.spmv(&x0, &mut ax0).expect("generator shapes are consistent");
    let l: Vec<f64> = ax0.iter().map(|&v| v - vrng.gen_range(0.1..2.0)).collect();
    let u: Vec<f64> = ax0.iter().map(|&v| v + vrng.gen_range(0.1..2.0)).collect();

    QpProblem::new(p, q, a, l, u)
        .expect("random generator produces valid problems")
        .with_name(format!("random_{n}x{m}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsqp_solver::{Settings, Solver, Status};

    #[test]
    fn random_qp_is_feasible_and_solvable() {
        let qp = generate(15, 10, 3);
        let mut s = Solver::new(&qp, Settings::default()).unwrap();
        let r = s.solve().unwrap();
        assert_eq!(r.status, Status::Solved);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = generate(10, 5, 1);
        let b = generate(10, 5, 1);
        assert_eq!(a.p(), b.p());
        assert_eq!(a.q(), b.q());
    }

    #[test]
    fn handles_zero_constraints() {
        let qp = generate(8, 0, 1);
        assert_eq!(qp.num_constraints(), 0);
        let mut s = Solver::new(&qp, Settings::default()).unwrap();
        assert_eq!(s.solve().unwrap().status, Status::Solved);
    }
}

/// Generates a primal-infeasible QP: two copies of a random constraint row
/// pinned to different right-hand sides.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn generate_primal_infeasible(n: usize, seed: u64) -> QpProblem {
    assert!(n > 0, "needs at least one variable");
    let base = generate(n, 3, seed);
    let mut prng = rng_for("infeasible-pattern", n, 0);
    let mut vrng = rng_for("infeasible-values", n, seed);
    let row = sprandn(1, n, (4.0 / n as f64).min(1.0), &mut prng, &mut vrng);
    let row = if row.nnz() == 0 { ones_row(n) } else { row };
    let a = rsqp_sparse::stack::vstack(&[base.a(), &row, &row]);
    let mut l = base.l().to_vec();
    let mut u = base.u().to_vec();
    l.push(0.0);
    u.push(0.0);
    l.push(1.0);
    u.push(1.0);
    QpProblem::new(base.p().clone(), base.q().to_vec(), a, l, u)
        .expect("structurally valid")
        .with_name(format!("infeasible_{n}"))
}

/// Generates a dual-infeasible (unbounded) QP: a zero-curvature direction
/// with strictly decreasing cost and one-sided constraints.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn generate_unbounded(n: usize, seed: u64) -> QpProblem {
    assert!(n > 0, "needs at least one variable");
    let mut vrng = rng_for("unbounded-values", n, seed);
    // P is PSD but singular: zero block on the last variable.
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n - 1 {
        coo.push(i, i, 1.0 + vrng.gen_range(0.0..1.0));
    }
    if n >= 1 {
        coo.push(n - 1, n - 1, 0.0);
    }
    let p = coo.to_csr();
    let mut q = vec![0.0; n];
    q[n - 1] = -1.0; // decreasing along the free direction
                     // Constraints: x_i bounded below only.
    let a = rsqp_sparse::CsrMatrix::identity(n);
    let l = vec![0.0; n];
    let u = vec![f64::INFINITY; n];
    QpProblem::new(p, q, a, l, u).expect("structurally valid").with_name(format!("unbounded_{n}"))
}

/// Generates a budget-constrained QP over `n` variables: a tridiagonal `P`
/// (`2 + i mod 3` on the diagonal, −0.9 beside it), the cost
/// `q_i = sin(0.37 i + 5)`, the box `−1 ≤ x ≤ 1` and one budget row
/// `1ᵀx = 1`. The budget row is dense while `P` is not diagonal, so the
/// reduced KKT solve keeps PCG with the dense-row correction.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn generate_budget(n: usize) -> QpProblem {
    assert!(n > 0, "needs at least one variable");
    let p = rsqp_sparse::CsrMatrix::from_triplets(
        n,
        n,
        (0..n).flat_map(|i| {
            let off = [(i > 0).then(|| (i, i - 1, -0.9)), (i + 1 < n).then(|| (i, i + 1, -0.9))];
            std::iter::once((i, i, 2.0 + (i % 3) as f64)).chain(off.into_iter().flatten())
        }),
    );
    let a = rsqp_sparse::CsrMatrix::from_triplets(
        n + 1,
        n,
        (0..n).flat_map(|j| [(j, j, 1.0), (n, j, 1.0)]),
    );
    let q = (0..n).map(|i| ((i as f64) * 0.37 + 5.0).sin()).collect();
    let (mut l, mut u) = (vec![-1.0; n + 1], vec![1.0; n + 1]);
    (l[n], u[n]) = (1.0, 1.0);
    QpProblem::new(p, q, a, l, u).expect("structurally valid").with_name(format!("budget_{n}"))
}

/// A 1×n all-ones row, used when the random constraint row came out empty.
fn ones_row(n: usize) -> rsqp_sparse::CsrMatrix {
    rsqp_sparse::CsrMatrix::from_triplets(1, n, (0..n).map(|j| (0, j, 1.0)).collect::<Vec<_>>())
}

#[cfg(test)]
mod degenerate_tests {
    use super::*;
    use rsqp_solver::{Settings, Solver, Status};

    #[test]
    fn infeasible_instances_are_detected() {
        for n in [3, 8, 15] {
            let qp = generate_primal_infeasible(n, n as u64);
            let mut s = Solver::new(&qp, Settings::default()).unwrap();
            let r = s.solve().unwrap();
            assert_eq!(r.status, Status::PrimalInfeasible, "n = {n}");
        }
    }

    #[test]
    fn unbounded_instances_are_detected() {
        for n in [2, 5, 12] {
            let qp = generate_unbounded(n, n as u64);
            let mut s = Solver::new(&qp, Settings::default()).unwrap();
            let r = s.solve().unwrap();
            assert_eq!(r.status, Status::DualInfeasible, "n = {n}");
        }
    }
}
