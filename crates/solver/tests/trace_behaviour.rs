//! Behaviour of the `Settings::trace` telemetry hook: the trace is absent
//! when disabled, complete when enabled, and deterministic across runs.

use rsqp_problems::{generate, Domain};
use rsqp_solver::{LinSysKind, Settings, Solver, Status};

fn traced_settings(kind: LinSysKind) -> Settings {
    Settings { linsys: kind, trace: true, ..Default::default() }
}

#[test]
fn trace_is_none_when_disabled() {
    let problem = generate(Domain::Control, 4, 7);
    let mut solver = Solver::new(&problem, Settings::default()).unwrap();
    let result = solver.solve().unwrap();
    assert!(result.trace.is_none(), "default settings must not collect a trace");
}

#[test]
fn trace_records_every_iteration() {
    let problem = generate(Domain::Control, 4, 7);
    let mut solver = Solver::new(&problem, traced_settings(LinSysKind::CpuPcg)).unwrap();
    let result = solver.solve().unwrap();
    assert_eq!(result.status, Status::Solved);
    let trace = result.trace.expect("trace requested");
    assert_eq!(trace.problem, problem.name());
    assert_eq!(trace.n, problem.num_vars());
    assert_eq!(trace.m, problem.num_constraints());
    assert_eq!(trace.status, result.status.to_string());
    assert_eq!(trace.iterations, result.iterations as u64);
    // No guard recoveries in a clean solve, so one record per iteration,
    // numbered 1..=iterations.
    assert_eq!(trace.records.len(), result.iterations);
    for (i, r) in trace.records.iter().enumerate() {
        assert_eq!(r.iter, i as u64 + 1);
    }
    // The final iteration converged, so its record carries the residuals
    // the solver reported.
    let last = trace.records.last().unwrap();
    assert_eq!(last.prim_res, result.prim_res);
    assert_eq!(last.dual_res, result.dual_res);
    // Residuals are only present on termination-check iterations.
    let checks = trace.checked_records().count();
    assert!(checks >= 1 && checks <= trace.records.len());
}

#[test]
fn trace_spans_cover_the_phase_hierarchy() {
    let problem = generate(Domain::Lasso, 8, 3);
    let mut solver = Solver::new(&problem, traced_settings(LinSysKind::DirectLdlt)).unwrap();
    let result = solver.solve().unwrap();
    let trace = result.trace.unwrap();
    let names: Vec<&str> = trace.spans.iter().map(|s| s.name.as_str()).collect();
    for phase in ["setup", "scaling", "admm_loop", "solve"] {
        assert!(names.contains(&phase), "missing span {phase} in {names:?}");
    }
    let setup = trace.spans.iter().find(|s| s.name == "setup").unwrap();
    let solve = trace.spans.iter().find(|s| s.name == "solve").unwrap();
    let scaling = trace.spans.iter().find(|s| s.name == "scaling").unwrap();
    // One shared time axis: setup precedes solve, scaling nests in setup.
    assert!(solve.start_ns >= setup.end_ns);
    assert_eq!(scaling.depth, 1);
    assert!(scaling.end_ns <= setup.end_ns);
    // Per-iteration KKT time lives on the records and sums to (at most)
    // the solve span.
    let kkt_total: u64 = trace.records.iter().map(|r| r.kkt_ns).sum();
    assert!(kkt_total <= solve.duration_ns());
}

#[test]
fn polish_outcome_is_an_event() {
    let problem = generate(Domain::Eqqp, 12, 5);
    let settings = Settings { polish: true, ..traced_settings(LinSysKind::DirectLdlt) };
    let mut solver = Solver::new(&problem, settings).unwrap();
    let result = solver.solve().unwrap();
    assert_eq!(result.status, Status::Solved);
    let trace = result.trace.unwrap();
    let polish = trace
        .events
        .iter()
        .find(|e| e.kind == "polish")
        .expect("polish ran, so the trace must carry its outcome");
    let expected = if result.polished { "accepted" } else { "rejected" };
    assert_eq!(polish.detail, expected);
}

#[test]
fn golden_json_is_stable_across_runs() {
    let problem = generate(Domain::Huber, 10, 11);
    let goldens: Vec<String> = (0..2)
        .map(|_| {
            let mut solver = Solver::new(&problem, traced_settings(LinSysKind::CpuPcg)).unwrap();
            solver.solve().unwrap().trace.unwrap().golden_json()
        })
        .collect();
    assert_eq!(goldens[1], goldens[0], "golden trace must be byte-identical across runs");
    // The timing-free export really is timing-free.
    assert!(!goldens[0].contains("kkt_ns"));
    assert!(!goldens[0].contains("start_ns"));
}
