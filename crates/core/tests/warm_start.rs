//! The warm-start contract of `KktBackend::solve_kkt`: `xtilde` is in/out.
//! Where the KKT solve runs PCG (dense rows in `A`), both PCG backends —
//! the CPU one and the simulated machine — start from its entry value:
//! seeded with the exact solution (from LDLᵀ) a solve takes at most one CG
//! iteration; seeded with zeros it takes several. Where it is the factor
//! of `K`, the entry value is not read.

use rsqp_arch::ArchConfig;
use rsqp_core::FpgaPcgBackend;
use rsqp_problems::{small_suite, Domain};
use rsqp_solver::{CpuPcgBackend, DirectLdltBackend, KktBackend, QpProblem};
use rsqp_sparse::CsrMatrix;

const SIGMA: f64 = 1e-6;
const CG_EPS: f64 = 1e-10;

fn wave(len: usize, phase: f64) -> Vec<f64> {
    (0..len).map(|i| ((i as f64) * 0.37 + phase).sin()).collect()
}

/// Runs one KKT solve from the warm start `seed` and returns `(x̃, z̃)` and
/// the CG iterations it took.
fn solve_from(
    backend: &mut dyn KktBackend,
    iterates: &[Vec<f64>; 4],
    seed: &[f64],
) -> (Vec<f64>, Vec<f64>, usize) {
    let [x, z, y, q] = iterates;
    let mut xtilde = seed.to_vec();
    let mut ztilde = vec![0.0; z.len()];
    let before = backend.stats().cg_iterations;
    backend.solve_kkt(x, z, y, q, &mut xtilde, &mut ztilde).unwrap();
    (xtilde, ztilde, backend.stats().cg_iterations - before)
}

fn max_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(u, v)| (u - v).abs()).fold(0.0, f64::max)
}

/// A tridiagonal `P` over 40 variables with box rows and one budget row:
/// the budget row is dense, so the KKT solve runs PCG with the dense-row
/// correction, and `P`'s off-diagonal entries keep `M ≠ K`.
fn budget_qp() -> QpProblem {
    let n = 40;
    let p = CsrMatrix::from_triplets(
        n,
        n,
        (0..n).flat_map(|i| {
            let off = [(i > 0).then(|| (i, i - 1, -0.9)), (i + 1 < n).then(|| (i, i + 1, -0.9))];
            std::iter::once((i, i, 2.0 + (i % 3) as f64)).chain(off.into_iter().flatten())
        }),
    );
    let a = CsrMatrix::from_triplets(n + 1, n, (0..n).flat_map(|j| [(j, j, 1.0), (n, j, 1.0)]));
    let (mut l, mut u) = (vec![-1.0; n + 1], vec![1.0; n + 1]);
    (l[n], u[n]) = (1.0, 1.0);
    QpProblem::new(p, wave(n, 5.0), a, l, u).unwrap()
}

#[test]
fn pcg_backends_start_from_the_entry_xtilde() {
    let qp = &budget_qp();
    let (p, a) = (qp.p(), qp.a());
    let (n, m) = (qp.num_vars(), qp.num_constraints());
    let rho = vec![0.1; m];
    let iterates = [wave(n, 0.0), wave(m, 1.0), wave(m, 2.0), wave(n, 3.0)];

    let mut direct = DirectLdltBackend::new(p, a, SIGMA, &rho).unwrap();
    let (x_exact, z_exact, _) = solve_from(&mut direct, &iterates, &vec![0.0; n]);

    let cpu = CpuPcgBackend::new(p, a, SIGMA, &rho, CG_EPS, 500);
    let baseline = ArchConfig::baseline(8);
    let (fpga, _machine) = FpgaPcgBackend::new(p, a, SIGMA, &rho, baseline, CG_EPS, 500);
    let backends: [Box<dyn KktBackend>; 2] = [Box::new(cpu), Box::new(fpga)];
    for mut backend in backends {
        let name = backend.name().to_string();
        let (xt, zt, exact_iters) = solve_from(backend.as_mut(), &iterates, &x_exact);
        assert!(exact_iters <= 1, "{name}: {exact_iters} CG iterations from the exact solution");
        assert!(max_diff(&xt, &x_exact) < 1e-8, "{name}: x̃ {}", max_diff(&xt, &x_exact));
        assert!(max_diff(&zt, &z_exact) < 1e-8, "{name}: z̃ {}", max_diff(&zt, &z_exact));

        let (_, _, cold_iters) = solve_from(backend.as_mut(), &iterates, &vec![0.0; n]);
        assert!(cold_iters >= 3, "{name}: only {cold_iters} CG iterations from zeros");
    }
}

#[test]
fn the_factored_solve_ignores_the_entry_xtilde() {
    let instance = &small_suite(1)[0];
    assert_eq!(instance.domain, Domain::Control);
    let qp = &instance.problem;
    let (p, a) = (qp.p(), qp.a());
    let (n, m) = (qp.num_vars(), qp.num_constraints());
    let rho = vec![0.1; m];
    let iterates = [wave(n, 0.0), wave(m, 1.0), wave(m, 2.0), wave(n, 3.0)];
    let mut direct = DirectLdltBackend::new(p, a, SIGMA, &rho).unwrap();
    let (x_exact, z_exact, _) = solve_from(&mut direct, &iterates, &vec![0.0; n]);

    let cpu = CpuPcgBackend::new(p, a, SIGMA, &rho, CG_EPS, 500);
    let baseline = ArchConfig::baseline(8);
    let (fpga, _machine) = FpgaPcgBackend::new(p, a, SIGMA, &rho, baseline, CG_EPS, 500);
    let backends: [Box<dyn KktBackend>; 2] = [Box::new(cpu), Box::new(fpga)];
    for mut backend in backends {
        let name = backend.name().to_string();
        let (xt, zt, iters) = solve_from(backend.as_mut(), &iterates, &x_exact);
        assert!(max_diff(&xt, &x_exact) < 1e-8, "{name}: x̃ {}", max_diff(&xt, &x_exact));
        assert!(max_diff(&zt, &z_exact) < 1e-8, "{name}: z̃ {}", max_diff(&zt, &z_exact));
        let cold = solve_from(backend.as_mut(), &iterates, &vec![f64::NAN; n]);
        assert_eq!((cold.0, cold.1, iters, cold.2), (xt, zt, 0, 0), "{name}");
    }
}
