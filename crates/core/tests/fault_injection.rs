//! End-to-end fault tolerance: bit flips injected inside the cycle-level
//! machine must be detected by the solve pipeline's numerical guard and
//! either recovered (iterate reset, then the machine's fallback to the
//! host's LDLᵀ) or reported as `NumericalError` — never silently returned
//! as a bogus `Solved`.

use std::cell::RefCell;
use std::rc::Rc;

use rsqp_arch::{ArchConfig, FaultConfig, Machine};
use rsqp_core::{fpga_solver, FpgaSolver};
use rsqp_problems::{generate, Domain};
use rsqp_solver::{QpProblem, Settings, SolveResult, Status};

fn settings() -> Settings {
    Settings { eps_abs: 1e-4, eps_rel: 1e-4, max_iter: 4000, ..Default::default() }
}

fn solve_with_faults(
    problem: &QpProblem,
    fault: FaultConfig,
) -> (SolveResult, Rc<RefCell<Machine>>, String) {
    let config = ArchConfig::baseline(16).with_fault_injection(Some(fault));
    let FpgaSolver { mut solver, machine, .. } =
        fpga_solver(problem, settings(), config).expect("setup succeeds");
    let result = solver.solve().expect("recoverable faults must not surface as Err");
    let final_backend = solver.backend_name().to_string();
    (result, machine, final_backend)
}

/// Worst constraint violation of `x`: `max(l - Ax, Ax - u, 0)`.
fn primal_violation(qp: &QpProblem, x: &[f64]) -> f64 {
    let mut ax = vec![0.0; qp.num_constraints()];
    qp.a().spmv(x, &mut ax).expect("dimensions match");
    let mut worst = 0.0f64;
    for i in 0..ax.len() {
        worst = worst.max(qp.l()[i] - ax[i]).max(ax[i] - qp.u()[i]);
    }
    worst
}

fn assert_no_bogus_solved(qp: &QpProblem, r: &SolveResult) {
    if r.status == Status::Solved {
        assert!(
            r.x.iter().chain(&r.y).chain(&r.z).all(|v| v.is_finite()),
            "Solved with a non-finite solution"
        );
        let viol = primal_violation(qp, &r.x);
        assert!(viol <= 10.0 * 1e-3, "Solved but infeasible by {viol:.3e} (>10x the tolerance)");
    }
}

#[test]
fn heavy_mac_faults_trigger_the_recovery_ladder() {
    // Every MAC output corrupted: no device KKT solve can be trusted, so
    // the ladder must degrade to the host's direct LDLᵀ backend (or, at
    // worst, diagnose a NumericalError).
    let qp = generate(Domain::Control, 3, 11);
    let fault = FaultConfig::new(2024).with_mac_output_flips(1.0);
    let (r, machine, final_backend) = solve_with_faults(&qp, fault);

    assert!(machine.borrow().stats().faults > 0, "harness never struck");
    assert_no_bogus_solved(&qp, &r);
    match r.status {
        Status::Solved => {
            assert!(
                r.guard.backend_fallbacks >= 1,
                "solved under total MAC corruption without falling back: {:?}",
                r.guard
            );
            assert_eq!(final_backend, "ldlt");
        }
        Status::NumericalError => assert!(r.guard.faults_detected >= 1),
        other => panic!("undiagnosed outcome {other:?} (guard {:?})", r.guard),
    }
}

#[test]
fn fault_sweep_never_yields_a_bogus_solved() {
    let qp = generate(Domain::Control, 3, 11);
    for seed in [1u64, 2, 3] {
        for prob in [0.002, 0.05, 1.0] {
            let fault = FaultConfig::new(seed).with_mac_output_flips(prob);
            let (r, _machine, _) = solve_with_faults(&qp, fault);
            assert_no_bogus_solved(&qp, &r);
            assert!(
                matches!(
                    r.status,
                    Status::Solved | Status::MaxIterationsReached | Status::NumericalError
                ),
                "seed {seed} prob {prob}: unexpected status {:?}",
                r.status
            );
        }
    }
}

#[test]
fn disarmed_fault_harness_is_inert() {
    // Armed with zero probabilities: identical to a fault-free machine.
    let qp = generate(Domain::Control, 3, 11);
    let (r, machine, _) = solve_with_faults(&qp, FaultConfig::new(99));
    assert_eq!(r.status, Status::Solved);
    assert_eq!(machine.borrow().stats().faults, 0);
    assert!(!r.guard.intervened(), "guard intervened on a clean solve: {:?}", r.guard);
}
