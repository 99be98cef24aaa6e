//! The warm-start contract of `KktBackend::solve_kkt`: `xtilde` is in/out.
//! Where the KKT solve runs PCG (dense rows in `A` over a non-diagonal
//! `K_R`, as in the budget QP), both PCG backends — the CPU one and the
//! simulated machine — start from its entry value: seeded with the exact
//! solution (from LDLᵀ) a solve takes at most one CG iteration; seeded
//! with zeros it takes several. Where it is direct (the factor of `K`, the
//! augmented dense-row solve), the entry value is not read.

use rsqp_arch::ArchConfig;
use rsqp_core::FpgaPcgBackend;
use rsqp_problems::random::generate_budget;
use rsqp_problems::{small_suite, Domain};
use rsqp_solver::{CpuPcgBackend, DirectLdltBackend, KktBackend, QpProblem};

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

/// The 40-variable budget QP: its budget row is dense, so the KKT solve
/// runs PCG with the dense-row correction, and `P`'s off-diagonal entries
/// keep `M ≠ K`.
fn budget_qp() -> QpProblem {
    generate_budget(40)
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
fn direct_solves_ignore_the_entry_xtilde() {
    // Control takes the factor of K, the portfolio the augmented
    // dense-row solve.
    let suite = small_suite(1);
    for domain in [Domain::Control, Domain::Portfolio] {
        let qp = &suite.iter().find(|bp| bp.domain == domain).unwrap().problem;
        direct_solve_ignores_the_entry_xtilde(qp);
    }
}

fn direct_solve_ignores_the_entry_xtilde(qp: &QpProblem) {
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
        let name = format!("{} on {}", qp.name(), backend.name());
        let (xt, zt, iters) = solve_from(backend.as_mut(), &iterates, &x_exact);
        assert!(max_diff(&xt, &x_exact) < 1e-8, "{name}: x̃ {}", max_diff(&xt, &x_exact));
        assert!(max_diff(&zt, &z_exact) < 1e-8, "{name}: z̃ {}", max_diff(&zt, &z_exact));
        let cold = solve_from(backend.as_mut(), &iterates, &vec![f64::NAN; n]);
        assert_eq!((cold.0, cold.1, iters, cold.2), (xt, zt, 0, 0), "{name}");
    }
}
