//! The dense rows of `A` through OSQP's augmented (quasi-definite) KKT
//! form, on the CPU and on the simulated machine.
//!
//! Every portfolio carries the dense budget row `1ᵀx = 1`. Its KKT system
//! solves through the one LDLᵀ factor of the augmented matrix
//! `[P + σI, Aᵀ; A, −R⁻¹]` with no CG iteration, and both backends return
//! the same `(x̃, z̃)` bits. This test pins, on every small-suite portfolio,
//! that the budget row is the one row over at least 90 % of the columns,
//! and the relative residual of the full KKT system (Eq. 2) of those bits.

mod common;

use common::{kkt_residual, RESIDUAL_PIN};
use rsqp::problems::{small_suite, Domain};

#[test]
fn augmented_kkt_solves_are_exact_on_the_small_suite() {
    let mut portfolios = 0;
    for bp in small_suite(1).into_iter().filter(|bp| bp.domain == Domain::Portfolio) {
        let qp = &bp.problem;
        let a = qp.a();
        let dense = (0..a.nrows()).filter(|&i| 10 * a.row_nnz(i) >= 9 * a.ncols()).count();
        assert_eq!(dense, 1, "{}: the budget row is the one dense row", qp.name());
        portfolios += 1;
        let rel = kkt_residual(qp);
        assert!(rel <= RESIDUAL_PIN, "{}: relative KKT residual {rel:e}", qp.name());
    }
    assert_eq!(portfolios, 3, "small-suite portfolios");
}
