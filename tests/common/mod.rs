//! The full KKT residual check shared by `factored_kkt.rs` and
//! `augmented_rows.rs`: one KKT system of a problem solved on the CPU and on
//! the simulated machine, with both backends' bits compared.

use rsqp::arch::ArchConfig;
use rsqp::core::FpgaPcgBackend;
use rsqp::solver::{CpuPcgBackend, KktBackend, QpProblem};

pub const SIGMA: f64 = 1e-6;
/// The relative residual every KKT solve must reach.
pub const RESIDUAL_PIN: f64 = 1e-10;

pub fn wave(len: usize, phase: f64) -> Vec<f64> {
    (0..len).map(|i| ((i as f64) * 0.37 + phase).sin()).collect()
}

/// ρ as the solver sets it at its default: 0.1, and 100 on equality rows.
pub fn solver_rho(qp: &QpProblem) -> Vec<f64> {
    qp.l().iter().zip(qp.u()).map(|(l, u)| if l == u { 100.0 } else { 0.1 }).collect()
}

pub fn norm(v: &[f64]) -> f64 {
    v.iter().map(|e| e * e).sum::<f64>().sqrt()
}

/// Solves one KKT system of `qp` on the CPU and on the machine, checks that
/// both return the same bits with no CG iteration and one factorization,
/// and returns the relative residual of the full KKT system
///
/// ```text
/// [P + σI   Aᵀ  ] [x̃]   [σx − q     ]
/// [A      −R⁻¹  ] [ν ] = [z − R⁻¹y   ],   ν = y + R(z̃ − z).
/// ```
pub fn kkt_residual(qp: &QpProblem) -> f64 {
    let (p, a) = (qp.p(), qp.a());
    let (n, m) = (qp.num_vars(), qp.num_constraints());
    let rho = solver_rho(qp);
    let (x, z, y, q) = (wave(n, 0.0), wave(m, 1.0), wave(m, 2.0), wave(n, 3.0));
    let config = ArchConfig::baseline(32);
    let backends: [Box<dyn KktBackend>; 2] = [
        Box::new(CpuPcgBackend::new(p, a, SIGMA, &rho)),
        Box::new(FpgaPcgBackend::new(p, a, SIGMA, &rho, config, 1e-7, 200).0),
    ];
    let mut solutions = Vec::new();
    for mut backend in backends {
        let (mut xt, mut zt) = (vec![f64::NAN; n], vec![0.0; m]);
        backend.solve_kkt(&x, &z, &y, &q, &mut xt, &mut zt).unwrap();
        let stats = backend.stats();
        assert_eq!((stats.cg_iterations, stats.factorizations), (0, 1), "{}", qp.name());
        solutions.push((xt, zt));
    }
    let bits = |v: &[f64]| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
    let [(xt, zt), (xm, zm)] = <[_; 2]>::try_from(solutions).unwrap();
    assert_eq!(bits(&xt), bits(&xm), "{}: x̃ on the CPU and the machine", qp.name());
    assert_eq!(bits(&zt), bits(&zm), "{}: z̃ on the CPU and the machine", qp.name());

    let nu: Vec<f64> = (0..m).map(|i| y[i] + rho[i] * (zt[i] - z[i])).collect();
    // (P + σI) x̃ + Aᵀν − (σx − q), and A x̃ − R⁻¹ν − (z − R⁻¹y).
    let mut r1: Vec<f64> = (0..n).map(|j| SIGMA * xt[j] - (SIGMA * x[j] - q[j])).collect();
    p.spmv_acc(1.0, &xt, &mut r1).unwrap();
    a.transpose().spmv_acc(1.0, &nu, &mut r1).unwrap();
    let mut r2: Vec<f64> = (0..m).map(|i| -nu[i] / rho[i] - (z[i] - y[i] / rho[i])).collect();
    a.spmv_acc(1.0, &xt, &mut r2).unwrap();
    let rhs: Vec<f64> =
        (0..n).map(|j| SIGMA * x[j] - q[j]).chain((0..m).map(|i| z[i] - y[i] / rho[i])).collect();
    r1.extend(r2);
    norm(&r1) / norm(&rhs)
}
