//! The warm-start contract of `KktBackend::solve_kkt`: `xtilde` is in/out,
//! and every backend solves the KKT system directly, so none reads its
//! entry value. Seeded with LDLᵀ's solution or with NaN, the CPU kind and
//! the machine return the bits of `DirectLdltBackend` under AMD.

use rsqp_arch::ArchConfig;
use rsqp_core::FpgaPcgBackend;
use rsqp_problems::random::generate_budget;
use rsqp_problems::small_suite;
use rsqp_solver::{CpuPcgBackend, DirectLdltBackend, KktBackend, QpProblem};

const SIGMA: f64 = 1e-6;

fn wave(len: usize, phase: f64) -> Vec<f64> {
    (0..len).map(|i| ((i as f64) * 0.37 + phase).sin()).collect()
}

/// Runs one KKT solve from the warm start `seed` and returns the bits of
/// `(x̃, z̃)`.
fn solve_from(backend: &mut dyn KktBackend, iterates: &[Vec<f64>; 4], seed: &[f64]) -> Vec<u64> {
    let [x, z, y, q] = iterates;
    let mut xtilde = seed.to_vec();
    let mut ztilde = vec![0.0; z.len()];
    backend.solve_kkt(x, z, y, q, &mut xtilde, &mut ztilde).unwrap();
    xtilde.iter().chain(&ztilde).map(|v| v.to_bits()).collect()
}

fn ignores_the_entry_xtilde(qp: &QpProblem) {
    let (p, a) = (qp.p(), qp.a());
    let (n, m) = (qp.num_vars(), qp.num_constraints());
    let rho = vec![0.1; m];
    let iterates = [wave(n, 0.0), wave(m, 1.0), wave(m, 2.0), wave(n, 3.0)];
    let mut direct = DirectLdltBackend::new(p, a, SIGMA, &rho).unwrap();
    let exact = solve_from(&mut direct, &iterates, &vec![0.0; n]);
    let x_exact: Vec<f64> = exact[..n].iter().map(|&b| f64::from_bits(b)).collect();

    let cpu = CpuPcgBackend::new(p, a, SIGMA, &rho);
    let (fpga, _machine) =
        FpgaPcgBackend::new(p, a, SIGMA, &rho, ArchConfig::baseline(8), 1e-10, 500);
    let backends: [Box<dyn KktBackend>; 3] = [Box::new(direct), Box::new(cpu), Box::new(fpga)];
    for mut backend in backends {
        let name = format!("{} on {}", qp.name(), backend.name());
        assert_eq!(solve_from(backend.as_mut(), &iterates, &x_exact), exact, "{name}");
        assert_eq!(solve_from(backend.as_mut(), &iterates, &vec![f64::NAN; n]), exact, "{name}");
        assert_eq!(backend.stats().cg_iterations, 0, "{name}");
    }
}

#[test]
fn kkt_solves_ignore_the_entry_xtilde() {
    // The first small-suite instance of every domain, and the budget QP
    // (a dense row over a tridiagonal P).
    let mut seen = Vec::new();
    for bp in small_suite(1) {
        if !seen.contains(&bp.domain) {
            seen.push(bp.domain);
            ignores_the_entry_xtilde(&bp.problem);
        }
    }
    ignores_the_entry_xtilde(&generate_budget(40));
}
