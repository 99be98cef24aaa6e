//! The direct KKT solve of the dense-column instances, on the CPU and on
//! the machine, against a refined LDLᵀ reference.
//!
//! With the dense-column elimination `M = K`, and both PCG backends
//! solve `K x̃ = b` as `x̃ = M⁻¹ b`. The reference is the `x` block of an
//! LDLᵀ solve of the full KKT system plus one step of iterative refinement,
//! computed here: LDLᵀ alone leaves a relative residual near 1e-6 on the
//! Huber fit (stiff equality rows, ρ = 100 against σ = 1e-6).

use rsqp_arch::{ArchConfig, CycleBreakdown, RunStats};
use rsqp_core::FpgaPcgBackend;
use rsqp_linsys::{KktMatrix, Ldlt};
use rsqp_problems::{generate, Domain};
use rsqp_solver::{CpuPcgBackend, KktBackend};
use rsqp_sparse::CsrMatrix;

const SIGMA: f64 = 1e-6;

/// The smallest instances of each domain whose dense columns are
/// eliminated.
const INSTANCES: [(Domain, usize); 3] =
    [(Domain::Svm, 21), (Domain::Lasso, 14), (Domain::Huber, 19)];

/// A KKT right-hand side: `x`, `z`, `y`, `q`.
struct Inputs {
    x: Vec<f64>,
    z: Vec<f64>,
    y: Vec<f64>,
    q: Vec<f64>,
}

fn wave(len: usize, phase: f64) -> Vec<f64> {
    (0..len).map(|i| ((i as f64) * 0.37 + phase).sin()).collect()
}

fn norm(v: &[f64]) -> f64 {
    v.iter().map(|e| e * e).sum::<f64>().sqrt()
}

/// `K v = (P + σI + Aᵀ diag(ρ) A) v`.
fn k_apply(p: &CsrMatrix, a: &CsrMatrix, rho: &[f64], v: &[f64]) -> Vec<f64> {
    let mut av = vec![0.0; a.nrows()];
    a.spmv(v, &mut av).unwrap();
    av.iter_mut().zip(rho).for_each(|(e, r)| *e *= r);
    let mut kv: Vec<f64> = v.iter().map(|e| SIGMA * e).collect();
    p.spmv_acc(1.0, v, &mut kv).unwrap();
    let mut atav = vec![0.0; a.ncols()];
    a.spmv_transpose(&av, &mut atav).unwrap();
    kv.iter_mut().zip(&atav).for_each(|(k, t)| *k += t);
    kv
}

/// The `x` block of the LDLᵀ solve of the KKT system, refined once: each
/// LDLᵀ solve of `[r; 0]` yields the `x` that solves `K x = r`.
fn refined_reference(p: &CsrMatrix, a: &CsrMatrix, rho: &[f64], b: &[f64]) -> Vec<f64> {
    let (n, m) = (a.ncols(), a.nrows());
    let ldlt = Ldlt::factor(KktMatrix::assemble(p, a, SIGMA, rho).unwrap().matrix()).unwrap();
    let solve_x = |r: &[f64]| {
        let mut full = r.to_vec();
        full.resize(n + m, 0.0);
        ldlt.solve_in_place(&mut full).unwrap();
        full.truncate(n);
        full
    };
    let mut x = solve_x(b);
    let r: Vec<f64> = b.iter().zip(k_apply(p, a, rho, &x)).map(|(b, kx)| b - kx).collect();
    x.iter_mut().zip(solve_x(&r)).for_each(|(x, d)| *x += d);
    x
}

/// ρ as the solver sets it: 100 on equality rows, 0.1 elsewhere.
fn rho_of(qp: &rsqp_solver::QpProblem) -> Vec<f64> {
    qp.l().iter().zip(qp.u()).map(|(l, u)| if l == u { 100.0 } else { 0.1 }).collect()
}

/// Solves one KKT system on `backend`, from a zero warm start, and checks
/// that it took no CG iteration.
fn solve(backend: &mut dyn KktBackend, inp: &Inputs, m: usize) -> Vec<f64> {
    let (mut xt, mut zt) = (vec![0.0; inp.x.len()], vec![0.0; m]);
    backend.solve_kkt(&inp.x, &inp.z, &inp.y, &inp.q, &mut xt, &mut zt).unwrap();
    assert_eq!(backend.stats().cg_iterations, 0, "{}", backend.name());
    xt
}

/// `‖x̃ − x_ref‖ / ‖x_ref‖` of the CPU and the machine on each instance.
fn errors() -> Vec<(Domain, f64, f64)> {
    INSTANCES
        .iter()
        .map(|&(domain, size)| {
            let qp = generate(domain, size, 1);
            let (p, a) = (qp.p(), qp.a());
            let (n, m) = (qp.num_vars(), qp.num_constraints());
            let rho = rho_of(&qp);
            let inp = Inputs { x: wave(n, 0.0), z: wave(m, 1.0), y: wave(m, 2.0), q: wave(n, 3.0) };
            // b = σx − q + Aᵀ(ρ∘z − y)
            let w: Vec<f64> = (0..m).map(|i| rho[i] * inp.z[i] - inp.y[i]).collect();
            let mut b: Vec<f64> = (0..n).map(|j| SIGMA * inp.x[j] - inp.q[j]).collect();
            let mut atw = vec![0.0; n];
            a.spmv_transpose(&w, &mut atw).unwrap();
            b.iter_mut().zip(&atw).for_each(|(b, t)| *b += t);
            let want = refined_reference(p, a, &rho, &b);
            let err = |got: &[f64]| {
                let d: Vec<f64> = got.iter().zip(&want).map(|(g, w)| g - w).collect();
                norm(&d) / norm(&want)
            };
            let mut cpu = CpuPcgBackend::new(p, a, SIGMA, &rho, 1e-7, 200);
            let (mut fpga, _) =
                FpgaPcgBackend::new(p, a, SIGMA, &rho, ArchConfig::baseline(8), 1e-7, 200);
            (domain, err(&solve(&mut cpu, &inp, m)), err(&solve(&mut fpga, &inp, m)))
        })
        .collect()
}

#[test]
fn direct_solves_match_a_refined_ldlt_reference() {
    // Measured relative errors, CPU and machine alike: 1.7e-16 (SVM),
    // 3.0e-14 (lasso) and 6.4e-11 (Huber). The machine's explicit S⁻¹
    // loses nothing measurable against the CPU's Cholesky solves; on the
    // Huber fit the error is K's conditioning, and a second refinement
    // step of the reference leaves it unchanged.
    for (domain, cpu, machine) in errors() {
        assert!(cpu <= 1e-10, "{domain}: CPU x̃ relative error {cpu:e}");
        assert!(machine <= 1e-10, "{domain}: machine x̃ relative error {machine:e}");
    }
}

#[test]
fn one_kkt_solve_costs_the_loop_free_program() {
    // The machine's counters for one solve on the baseline C = 8: the
    // loop-free program of Aᵀ, G (or `minv`), H, S⁻¹, Hᵀ and A, with no
    // loop trip and no HBM traffic.
    let want = [
        (
            Domain::Svm,
            RunStats {
                cycles: 2584,
                breakdown: CycleBreakdown {
                    spmv: 1306,
                    vector: 294,
                    duplication: 984,
                    ..CycleBreakdown::default()
                },
                instructions: 18,
                ..RunStats::default()
            },
        ),
        (
            Domain::Lasso,
            RunStats {
                cycles: 1588,
                breakdown: CycleBreakdown {
                    spmv: 798,
                    vector: 198,
                    duplication: 592,
                    ..CycleBreakdown::default()
                },
                instructions: 18,
                ..RunStats::default()
            },
        ),
        (
            Domain::Huber,
            RunStats {
                cycles: 5762,
                breakdown: CycleBreakdown {
                    spmv: 2889,
                    vector: 426,
                    duplication: 2447,
                    ..CycleBreakdown::default()
                },
                instructions: 19,
                ..RunStats::default()
            },
        ),
    ];
    for (&(domain, size), (want_domain, want)) in INSTANCES.iter().zip(want) {
        assert_eq!(domain, want_domain);
        let qp = generate(domain, size, 1);
        let (n, m) = (qp.num_vars(), qp.num_constraints());
        let inp = Inputs { x: wave(n, 0.0), z: wave(m, 1.0), y: wave(m, 2.0), q: wave(n, 3.0) };
        let (mut fpga, _) = FpgaPcgBackend::new(
            qp.p(),
            qp.a(),
            SIGMA,
            &rho_of(&qp),
            ArchConfig::baseline(8),
            1e-7,
            200,
        );
        let _ = solve(&mut fpga, &inp, m);
        assert_eq!(fpga.machine_stats(), want, "{domain}");
    }
}
