//! Seeded workload inputs, generated before any clock starts.
//!
//! Problem *structures* and base values come from the `rsqp-problems`
//! generators at a fixed generator seed; `--seed` decides what varies
//! between runs:
//!
//! * `oneshot_ldlt` solves the suite instances under a seeded relabelling
//!   of variables and constraints. Relabelling leaves the optimum and, in
//!   exact arithmetic, every ADMM iteration count unchanged, so run-to-run
//!   cost stays comparable across seeds while the fill-reducing ordering
//!   sees a different labelling each seed;
//! * `oneshot_pcg` solves the instances as generated, for every seed: PCG
//!   orders nothing, and a relabelling only changes its summation order,
//!   which moves the CG counts of huber_0160 and portfolio_0030 by up to
//!   ±20 %;
//! * the MPC session starts from a fixed plant and draws the initial state
//!   of every warm step from the seed;
//! * the backtest replays a fixed sequence of days and the seed only
//!   reorders the assets' box rows, so its per-step work is the same for
//!   every seed.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rsqp_problems::portfolio::ASSETS_PER_FACTOR;
use rsqp_problems::{control, generate, portfolio, Domain};
use rsqp_runtime::StepUpdate;
use rsqp_solver::QpProblem;
use rsqp_sparse::{CooMatrix, CsrMatrix};

/// Generator seed of the problem values that do not vary with `--seed`.
pub const GEN_SEED: u64 = 1;

/// The largest suite instance of each domain solved by the one-shot
/// workloads (portfolio is capped at 30 factors to keep a pass short).
pub const ONESHOT_SUITE: [(Domain, usize); 6] = [
    (Domain::Control, 60),
    (Domain::Lasso, 200),
    (Domain::Svm, 200),
    (Domain::Huber, 160),
    (Domain::Eqqp, 400),
    (Domain::Portfolio, 30),
];

/// State dimension of the MPC session's plant.
pub const MPC_STATES: usize = 40;
/// Factor count of the backtest session's portfolio.
pub const BACKTEST_FACTORS: usize = 4;

/// Standard normal (Box–Muller).
fn normal(rng: &mut SmallRng) -> f64 {
    let u1 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// A uniformly random permutation of `0..n` (Fisher–Yates).
fn permutation(rng: &mut SmallRng, n: usize) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.gen_range(0..=i));
    }
    p
}

/// Relabels a problem: variable `j` becomes `var[j]`, constraint `i`
/// becomes `con[i]`. The optimum value is unchanged.
pub fn relabel(qp: &QpProblem, var: &[usize], con: &[usize]) -> QpProblem {
    let permute = |m: &CsrMatrix, rows: &[usize]| {
        let mut coo = CooMatrix::with_capacity(m.nrows(), m.ncols(), m.nnz());
        for (i, &new_row) in rows.iter().enumerate() {
            let (cols, vals) = m.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                coo.push(new_row, var[j], v);
            }
        }
        coo.to_csr()
    };
    let scatter = |v: &[f64], map: &[usize]| {
        let mut out = vec![0.0; v.len()];
        for (i, &x) in v.iter().enumerate() {
            out[map[i]] = x;
        }
        out
    };
    QpProblem::new(
        permute(qp.p(), var),
        scatter(qp.q(), var),
        permute(qp.a(), con),
        scatter(qp.l(), con),
        scatter(qp.u(), con),
    )
    .expect("a relabelled valid problem stays valid")
    .with_name(qp.name())
}

/// The one-shot instances as generated.
pub fn suite_instances() -> Vec<QpProblem> {
    ONESHOT_SUITE.iter().map(|&(domain, size)| generate(domain, size, GEN_SEED)).collect()
}

/// The one-shot instances for `seed`, each under its own relabelling.
pub fn relabelled_instances(seed: u64) -> Vec<QpProblem> {
    let mut rng = SmallRng::seed_from_u64(seed);
    suite_instances()
        .iter()
        .map(|base| {
            let var = permutation(&mut rng, base.num_vars());
            let con = permutation(&mut rng, base.num_constraints());
            relabel(base, &var, &con)
        })
        .collect()
}

/// The MPC plant and, per warm step, the bounds carrying a new initial
/// state (the first `MPC_STATES` rows pin `x_0`).
pub fn mpc_inputs(seed: u64, steps: usize) -> (QpProblem, Vec<StepUpdate>) {
    let plant = control::generate(MPC_STATES, GEN_SEED);
    let mut rng = SmallRng::seed_from_u64(seed);
    let updates = (0..steps)
        .map(|_| {
            let mut l = plant.l().to_vec();
            let mut u = plant.u().to_vec();
            for i in 0..MPC_STATES {
                let x0 = 0.5 * normal(&mut rng);
                l[i] = x0;
                u[i] = x0;
            }
            StepUpdate::Bounds { l, u }
        })
        .collect();
    (plant, updates)
}

/// The backtest's first day and, per warm step, a new day's factor
/// loadings `F`, idiosyncratic risks `D` and expected returns `μ` (same
/// structure, new values). Day `d` is the portfolio generator at seed
/// `GEN_SEED + d` for every `seed`; the seed only reorders the assets' box
/// rows `0 ≤ x_j ≤ 1`. A box row holds one entry and stays the last entry
/// of its column, so every sum the solver forms keeps its order: each step
/// does the same arithmetic, with the same iteration counts, for every
/// seed.
pub fn backtest_inputs(seed: u64, steps: usize) -> (QpProblem, Vec<Vec<StepUpdate>>) {
    let k = BACKTEST_FACTORS;
    let n = k * ASSETS_PER_FACTOR;
    let boxes = permutation(&mut SmallRng::seed_from_u64(seed), n);
    // Rows are the k factor rows, the budget row, then one box row per asset.
    let var: Vec<usize> = (0..n + k).collect();
    let con: Vec<usize> = (0..=k).chain(boxes.iter().map(|&j| k + 1 + j)).collect();
    let day = |d: usize| relabel(&portfolio::generate(k, GEN_SEED + d as u64), &var, &con);
    let updates = (1..=steps)
        .map(|d| {
            let qp = day(d);
            vec![
                StepUpdate::Matrices { p: Some(qp.p().clone()), a: Some(qp.a().clone()) },
                StepUpdate::LinearCost(qp.q().to_vec()),
            ]
        })
        .collect();
    (day(0), updates)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = relabelled_instances(7);
        let b = relabelled_instances(7);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.q(), y.q());
            assert_eq!(x.a().indices(), y.a().indices());
        }
        let other = relabelled_instances(8);
        assert_ne!(other[0].a().indices(), a[0].a().indices(), "another seed relabels");
    }

    #[test]
    fn relabelling_preserves_the_objective() {
        let base = generate(Domain::Svm, 4, 1);
        let mut rng = SmallRng::seed_from_u64(3);
        let var = permutation(&mut rng, base.num_vars());
        let con = permutation(&mut rng, base.num_constraints());
        let moved = relabel(&base, &var, &con);
        let x: Vec<f64> = (0..base.num_vars()).map(|j| j as f64 * 0.1 - 1.0).collect();
        let mut xm = vec![0.0; x.len()];
        for j in 0..x.len() {
            xm[var[j]] = x[j];
        }
        assert!((base.objective(&x) - moved.objective(&xm)).abs() < 1e-9);
    }

    #[test]
    fn backtest_seed_only_reorders_the_box_rows() {
        let (first_a, days_a) = backtest_inputs(1, 2);
        let (first_b, days_b) = backtest_inputs(2, 2);
        assert_ne!(first_a.a().indices(), first_b.a().indices(), "another seed reorders");
        assert_eq!(first_a.q(), first_b.q());
        assert_eq!(first_a.p().data(), first_b.p().data());
        // Every column keeps its entries, in the same order, with the box
        // row last.
        let (at_a, at_b) = (first_a.a().transpose(), first_b.a().transpose());
        assert_eq!(at_a.indptr(), at_b.indptr());
        assert_eq!(at_a.data(), at_b.data());
        for (a, b) in days_a.iter().zip(&days_b) {
            let (StepUpdate::LinearCost(qa), StepUpdate::LinearCost(qb)) = (&a[1], &b[1]) else {
                panic!("the second update of a day is its cost");
            };
            assert_eq!(qa, qb, "every seed replays the same days");
        }
    }
}
