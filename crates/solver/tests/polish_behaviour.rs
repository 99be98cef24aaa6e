//! Behaviour of the solution-polishing extension.

use rsqp_solver::{QpProblem, Settings, Solver, Status};
use rsqp_sparse::CsrMatrix;

fn box_qp() -> QpProblem {
    QpProblem::new(
        CsrMatrix::identity(3),
        vec![-2.0, -0.5, 1.0],
        CsrMatrix::identity(3),
        vec![0.0, 0.0, 0.0],
        vec![1.0, 1.0, 1.0],
    )
    .unwrap()
}

#[test]
fn polish_tightens_residuals() {
    // Loose ADMM tolerances + polish should still land near machine
    // precision.
    let settings = Settings { eps_abs: 1e-3, eps_rel: 1e-3, polish: true, ..Default::default() };
    let mut s = Solver::new(box_qp(), settings).unwrap();
    let r = s.solve().unwrap();
    assert_eq!(r.status, Status::Solved);
    assert!(r.polished, "polish should succeed on this problem");
    assert!(r.prim_res < 1e-8, "prim {}", r.prim_res);
    assert!(r.dual_res < 1e-8, "dual {}", r.dual_res);
    let want = [1.0, 0.5, 0.0];
    for (got, want) in r.x.iter().zip(&want) {
        assert!((got - want).abs() < 1e-8, "{got} vs {want}");
    }
}

#[test]
fn polish_off_keeps_admm_iterate() {
    let settings = Settings { polish: false, ..Default::default() };
    let mut s = Solver::new(box_qp(), settings).unwrap();
    let r = s.solve().unwrap();
    assert!(!r.polished);
}

#[test]
fn polish_improves_objective_accuracy() {
    let qp = box_qp();
    let loose = Settings { eps_abs: 5e-3, eps_rel: 5e-3, ..Default::default() };
    let mut plain = Solver::new(&qp, loose.clone()).unwrap();
    let rp = plain.solve().unwrap();
    let mut polished = Solver::new(&qp, Settings { polish: true, ..loose }).unwrap();
    let rq = polished.solve().unwrap();
    // True optimum: x = (1, 0.5, 0): obj = 0.5*(1+0.25) - 2 - 0.25 = -1.625.
    let exact = -1.625;
    assert!((rq.objective - exact).abs() <= (rp.objective - exact).abs() + 1e-12);
    assert!((rq.objective - exact).abs() < 1e-9);
}

#[test]
fn polish_works_on_equality_constrained_problems() {
    let qp = QpProblem::new(
        CsrMatrix::identity(2),
        vec![0.0, 0.0],
        CsrMatrix::from_dense(&[vec![1.0, 1.0]]),
        vec![1.0],
        vec![1.0],
    )
    .unwrap();
    let mut s = Solver::new(&qp, Settings { polish: true, ..Default::default() }).unwrap();
    let r = s.solve().unwrap();
    assert_eq!(r.status, Status::Solved);
    assert!(r.polished);
    assert!((r.x[0] - 0.5).abs() < 1e-9);
    assert!((r.x[1] - 0.5).abs() < 1e-9);
}
