//! The KKT solve through OSQP's quasi-definite LDLᵀ of the KKT matrix
//! under AMD, on the CPU and on the simulated machine.
//!
//! Every problem takes the one factor, and both backends return the same
//! `(x̃, z̃)` bits with no CG iteration. These tests pin, on every
//! small-suite instance and (ignored, release only) on every suite
//! instance up to n = 1000, the relative residual of the full KKT system
//! (Eq. 2) that those bits leave, and report the fill of every factor:
//!
//! ```text
//! cargo test --release --test factored_kkt -- --ignored --nocapture
//! ```

mod common;

use common::{kkt_residual, RESIDUAL_PIN};
use rsqp::problems::small_suite;

#[test]
fn factored_kkt_solves_are_exact_on_the_small_suite() {
    let suite = small_suite(1);
    assert_eq!(suite.len(), 18, "small-suite instances");
    for bp in suite {
        let qp = &bp.problem;
        let rel = kkt_residual(qp);
        assert!(rel <= RESIDUAL_PIN, "{}: relative KKT residual {rel:e}", qp.name());
    }
}

#[cfg(not(debug_assertions))]
mod suite {
    use super::*;
    use common::{solver_rho, SIGMA};
    use rsqp::linsys::KktLdlt;
    use rsqp::problems::benchmark_suite;

    #[test]
    #[ignore = "solves a KKT system of every suite instance up to n = 1000 and factors every \
                instance; run in release with --ignored"]
    fn factored_kkt_solves_are_exact_on_the_suite() {
        let mut fill = Vec::new();
        for bp in benchmark_suite(1) {
            let qp = &bp.problem;
            if qp.num_vars() <= 1000 {
                let rel = kkt_residual(qp);
                assert!(rel <= RESIDUAL_PIN, "{}: relative KKT residual {rel:e}", qp.name());
            }
            let mut f = KktLdlt::with_amd(qp.p(), qp.a(), SIGMA, &solver_rho(qp)).unwrap();
            f.refactor().unwrap();
            let k_nnz = f.kkt().matrix().nnz();
            fill.push((f.ldlt().l_nnz() as f64 / k_nnz as f64, qp.name().to_string()));
        }
        fill.sort_by(|a, b| a.0.total_cmp(&b.0));
        let (least, worst) = (&fill[0], &fill[fill.len() - 1]);
        eprintln!(
            "l_nnz/nnz(triu KKT) from {:.3} ({}) to {:.3} ({})",
            least.0, least.1, worst.0, worst.1
        );
    }
}
