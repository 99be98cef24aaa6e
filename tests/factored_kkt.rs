//! The reduced KKT solve through the sparse LDLᵀ of `K = P + σI + AᵀRA`,
//! on the CPU and on the simulated machine.
//!
//! Every problem without dense rows in `A` whose dense columns the block
//! elimination declines takes the factor of `K` under AMD
//! (`KktPrecond::Factor`), and both backends solve `x̃ = K⁻¹b` with no CG
//! iteration. These tests pin, on each such instance, the relative
//! residual `‖Kx̃ − b‖/‖b‖ ≤ 1e-10` of both backends' `x̃` (which are the
//! same bits), and over the 120-problem suite the kind every instance
//! takes and the fill of every factor: `l_nnz ≤ 1.2·nnz(triu K)`.
//!
//! The suite-wide checks solve instances of up to a few thousand
//! variables, so they only exist in release builds and are `#[ignore]`d;
//! run them with
//!
//! ```text
//! cargo test --release --test factored_kkt -- --ignored
//! ```

use rsqp::arch::ArchConfig;
use rsqp::core::FpgaPcgBackend;
use rsqp::linsys::{KktPrecond, LinearOperator, ReducedKktOp};
use rsqp::problems::small_suite;
use rsqp::solver::{CpuPcgBackend, KktBackend, QpProblem};

const SIGMA: f64 = 1e-6;
/// The relative residual every factored KKT solve must reach.
const RESIDUAL_PIN: f64 = 1e-10;

fn wave(len: usize, phase: f64) -> Vec<f64> {
    (0..len).map(|i| ((i as f64) * 0.37 + phase).sin()).collect()
}

/// ρ as the solver sets it at its default: 0.1, and 100 on equality rows.
fn solver_rho(qp: &QpProblem) -> Vec<f64> {
    qp.l().iter().zip(qp.u()).map(|(l, u)| if l == u { 100.0 } else { 0.1 }).collect()
}

/// The KKT-solve kind of `qp` at the solver's ρ.
fn precond(qp: &QpProblem) -> KktPrecond {
    let a = qp.a();
    KktPrecond::new(qp.p(), a, &a.transpose(), SIGMA, &solver_rho(qp))
}

/// Solves one KKT system of `qp` on the CPU and, with `machine`, on the
/// simulated machine, checks that both return the same bits with no CG
/// iteration, and returns `‖Kx̃ − b‖/‖b‖`.
fn factored_residual(qp: &QpProblem, machine: bool) -> f64 {
    let (p, a) = (qp.p(), qp.a());
    let (n, m) = (qp.num_vars(), qp.num_constraints());
    let rho = solver_rho(qp);
    let (x, z, y, q) = (wave(n, 0.0), wave(m, 1.0), wave(m, 2.0), wave(n, 3.0));
    let mut backends: Vec<Box<dyn KktBackend>> =
        vec![Box::new(CpuPcgBackend::new(p, a, SIGMA, &rho, 1e-7, 200))];
    if machine {
        let config = ArchConfig::baseline(32);
        backends.push(Box::new(FpgaPcgBackend::new(p, a, SIGMA, &rho, config, 1e-7, 200).0));
    }
    let mut solutions = Vec::new();
    for backend in &mut backends {
        let (mut xt, mut zt) = (vec![0.0; n], vec![0.0; m]);
        backend.solve_kkt(&x, &z, &y, &q, &mut xt, &mut zt).unwrap();
        let stats = backend.stats();
        assert_eq!((stats.cg_iterations, stats.factorizations), (0, 1), "{}", qp.name());
        solutions.push(xt.iter().chain(&zt).map(|v| v.to_bits()).collect::<Vec<_>>());
    }
    assert!(solutions.windows(2).all(|w| w[0] == w[1]), "{}: CPU and machine bits", qp.name());
    let xt: Vec<f64> = solutions[0][..n].iter().map(|&b| f64::from_bits(b)).collect();

    // b = σx − q + Aᵀ(ρ∘z − y) and K x̃, on the CPU.
    let mut op = ReducedKktOp::new(p, a, SIGMA, &rho).unwrap();
    let mut b = vec![0.0; n];
    op.rhs(&x, &z, &y, &q, &mut b).unwrap();
    let mut kx = vec![0.0; n];
    op.apply(&xt, &mut kx).unwrap();
    let norm = |v: &mut dyn Iterator<Item = f64>| v.map(|e| e * e).sum::<f64>().sqrt();
    norm(&mut kx.iter().zip(&b).map(|(k, b)| k - b)) / norm(&mut b.iter().copied())
}

#[test]
fn factored_kkt_solves_are_exact_on_the_small_suite() {
    let mut factored = 0;
    for bp in small_suite(1) {
        let qp = &bp.problem;
        if !matches!(precond(qp), KktPrecond::Factor(_)) {
            continue;
        }
        factored += 1;
        let rel = factored_residual(qp, true);
        assert!(rel <= RESIDUAL_PIN, "{}: ‖Kx̃ − b‖/‖b‖ = {rel:e}", qp.name());
    }
    // Control and eqqp, and the data-fitting instances too small for the
    // dense-column elimination.
    assert_eq!(factored, 15, "factored small-suite instances");
}

#[cfg(not(debug_assertions))]
mod suite {
    use super::*;
    use rsqp::problems::{benchmark_suite, Domain};

    #[test]
    #[ignore = "solves a KKT system of every factored suite instance up to n = 1000; run in \
                release with --ignored"]
    fn factored_kkt_solves_are_exact_on_the_suite() {
        for bp in benchmark_suite(1) {
            let qp = &bp.problem;
            if qp.num_vars() > 1000 || !matches!(precond(qp), KktPrecond::Factor(_)) {
                continue;
            }
            let rel = factored_residual(qp, true);
            assert!(rel <= RESIDUAL_PIN, "{}: ‖Kx̃ − b‖/‖b‖ = {rel:e}", qp.name());
        }
    }

    /// How many suite instances of each domain take each KKT-solve kind:
    /// `(domain, dense rows, dense columns, factor of K)`.
    const KINDS: [(Domain, usize, usize, usize); 6] = [
        (Domain::Control, 0, 0, 20),
        (Domain::Portfolio, 20, 0, 0),
        (Domain::Lasso, 0, 14, 6),
        (Domain::Huber, 0, 12, 8),
        (Domain::Svm, 0, 12, 8),
        (Domain::Eqqp, 0, 0, 20),
    ];

    /// The fill every factor of `K` must stay within (the largest at
    /// generator seed 1 is 1.138, on eqqp_0047).
    const MAX_FILL: f64 = 1.2;

    #[test]
    #[ignore = "factors K of every factored instance of the 120-problem suite; run in release \
                with --ignored"]
    fn the_suite_takes_the_pinned_kkt_kinds_without_fill() {
        let mut kinds: Vec<(Domain, usize, usize, usize)> =
            Domain::all().iter().map(|&d| (d, 0, 0, 0)).collect();
        let (mut worst, mut least) = ((0.0, String::new()), f64::INFINITY);
        for bp in benchmark_suite(1) {
            let qp = &bp.problem;
            let slot = kinds.iter_mut().find(|k| k.0 == bp.domain).unwrap();
            let a = qp.a();
            let mut op = ReducedKktOp::new(qp.p(), a, SIGMA, &solver_rho(qp)).unwrap();
            match op.preconditioner() {
                KktPrecond::Rows(_) => slot.1 += 1,
                KktPrecond::Cols(_) => slot.2 += 1,
                KktPrecond::Factor(_) => slot.3 += 1,
            }
            let KktPrecond::Factor(_) = op.preconditioner() else { continue };
            op.prepare().unwrap();
            let KktPrecond::Factor(f) = op.preconditioner() else { unreachable!() };
            let (l_nnz, k_nnz) = (f.ldlt().unwrap().l_nnz(), f.upper().unwrap().nnz());
            let fill = l_nnz as f64 / k_nnz as f64;
            if fill > worst.0 {
                worst = (fill, qp.name().to_string());
            }
            least = least.min(fill);
            assert!(
                fill <= MAX_FILL,
                "{}: l_nnz {l_nnz} > {MAX_FILL}·nnz(triu K) = {MAX_FILL}·{k_nnz}",
                qp.name()
            );
        }
        eprintln!("l_nnz/nnz(triu K) from {least:.3} to {:.3} ({})", worst.0, worst.1);
        assert_eq!(kinds, KINDS, "(domain, dense rows, dense columns, factor) instance counts");
    }
}
