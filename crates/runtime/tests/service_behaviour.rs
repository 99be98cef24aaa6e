//! End-to-end behaviour of the solve service: backpressure, budgets,
//! cancellation, panic isolation, and the direct-LDLᵀ retry.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Once};
use std::time::{Duration, Instant};

use rsqp_runtime::{
    ChaosPlan, JobBudget, JobError, JobSpec, RetryPolicy, ServiceConfig, SolveService, SubmitError,
};
use rsqp_solver::{CpuPcgBackend, DirectLdltBackend, LinSysKind, QpProblem, Settings, Status};
use rsqp_sparse::CsrMatrix;

/// Silences the default "thread panicked" spew for *injected* panics, which
/// are expected by design in these tests; everything else still prints.
fn quiet_injected_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        std::panic::set_hook(Box::new(|info| {
            let msg = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied());
            if !msg.is_some_and(|m| m.contains("chaos:")) {
                eprintln!("{info}");
            }
        }));
    });
}

fn box_qp(n: usize) -> QpProblem {
    QpProblem::new(
        CsrMatrix::identity(n),
        vec![-1.0; n],
        CsrMatrix::identity(n),
        vec![0.0; n],
        vec![10.0; n],
    )
    .expect("valid problem")
}

/// A problem whose residuals never reach exactly zero (a box QP's do, which
/// would beat even the absurd tolerances of [`endless_settings`]).
fn endless_problem() -> QpProblem {
    rsqp_problems::generate(rsqp_problems::Domain::Control, 4, 1)
}

/// Settings under which ADMM never reaches the tolerances (used to hold a
/// job in-flight until a budget or cancellation stops it).
fn endless_settings() -> Settings {
    Settings {
        eps_abs: 1e-300,
        eps_rel: 1e-300,
        max_iter: usize::MAX / 2,
        check_termination: 1,
        adaptive_rho: false,
        ..Default::default()
    }
}

#[test]
fn a_batch_of_jobs_all_solve() {
    let service = SolveService::new(ServiceConfig { workers: 4, queue_capacity: 32 });
    let handles: Vec<_> = (0..16)
        .map(|i| service.submit(JobSpec::new(box_qp(2 + i % 5))).expect("queue has room"))
        .collect();
    for handle in handles {
        let report = handle.wait();
        assert_eq!(report.status(), Some(Status::Solved), "{:?}", report.outcome);
        assert_eq!(report.attempts_used(), 1);
    }
}

#[test]
fn queue_full_is_explicit_backpressure() {
    let service = SolveService::new(ServiceConfig { workers: 1, queue_capacity: 1 });
    // Gate the single worker inside a backend factory so the queue state is
    // deterministic: one job running (blocked), one queued, the next must
    // be rejected.
    let gate = Arc::new(AtomicBool::new(false));
    let gate_in_factory = Arc::clone(&gate);
    let blocker =
        JobSpec::new(box_qp(2)).with_backend_factory(Box::new(move |p, a, sigma, rho, _s| {
            while !gate_in_factory.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(1));
            }
            Ok(Box::new(DirectLdltBackend::new(p, a, sigma, rho)?))
        }));
    let running = service.submit(blocker).expect("first job accepted");
    // Give the worker time to dequeue the blocker; then one job fits in the
    // queue and the next one must bounce.
    std::thread::sleep(Duration::from_millis(50));
    let queued = service.submit(JobSpec::new(box_qp(2))).expect("second job queued");
    let rejected = service.submit(JobSpec::new(box_qp(3)));
    let Err(SubmitError::QueueFull { spec, capacity }) = rejected else {
        panic!("expected QueueFull, got {:?}", rejected.map(|h| h.id()));
    };
    assert_eq!(capacity, 1);
    assert_eq!(spec.problem.num_vars(), 3, "the rejected spec comes back intact");

    gate.store(true, Ordering::Release);
    assert_eq!(running.wait().status(), Some(Status::Solved));
    assert_eq!(queued.wait().status(), Some(Status::Solved));
    // With the worker idle again the recovered spec can be resubmitted.
    let retried = service.submit(spec).expect("capacity freed");
    assert_eq!(retried.wait().status(), Some(Status::Solved));
}

#[test]
fn cancellation_mid_solve_returns_promptly_with_definite_status() {
    let service = SolveService::new(ServiceConfig { workers: 1, queue_capacity: 4 });
    let spec = JobSpec::new(endless_problem()).with_settings(endless_settings());
    let handle = service.submit(spec).expect("queue has room");
    std::thread::sleep(Duration::from_millis(40));
    let t = Instant::now();
    handle.cancel();
    let report = handle.wait_timeout(Duration::from_secs(20)).expect("job not hung");
    assert!(t.elapsed() < Duration::from_secs(10), "cancellation must land promptly");
    assert_eq!(report.status(), Some(Status::Cancelled));
    let result = report.outcome.expect("cancellation is a status, not an error");
    assert!(result.x.iter().all(|v| v.is_finite()), "iterates stay well-defined");
}

#[test]
fn deadline_budget_yields_time_limit_status() {
    let service = SolveService::new(ServiceConfig { workers: 1, queue_capacity: 4 });
    let spec = JobSpec::new(endless_problem())
        .with_settings(endless_settings())
        .with_budget(JobBudget::unbounded().with_timeout(Duration::from_millis(30)));
    let handle = service.submit(spec).expect("queue has room");
    let report = handle.wait_timeout(Duration::from_secs(20)).expect("job not hung");
    assert_eq!(report.status(), Some(Status::TimeLimitReached));
}

#[test]
fn iteration_cap_budget_is_enforced() {
    let service = SolveService::new(ServiceConfig { workers: 1, queue_capacity: 4 });
    let spec = JobSpec::new(endless_problem())
        .with_settings(endless_settings())
        .with_budget(JobBudget::unbounded().with_iter_cap(7))
        .with_retry(RetryPolicy::no_retries());
    let report = service.submit(spec).expect("queue has room").wait();
    let result = report.outcome.expect("definite result");
    assert_eq!(result.status, Status::MaxIterationsReached);
    assert_eq!(result.iterations, 7);
}

#[test]
fn panicking_backend_is_isolated_and_ladder_recovers() {
    quiet_injected_panics();
    let service = SolveService::new(ServiceConfig { workers: 2, queue_capacity: 8 });
    // Every chaos-wrapped KKT solve panics; the one retry drops the factory
    // for direct LDLᵀ and the job still solves.
    let spec = JobSpec::new(box_qp(4)).with_backend_factory(Box::new(|p, a, sigma, rho, _| {
        let inner = Box::new(CpuPcgBackend::new(p, a, sigma, rho));
        Ok(ChaosPlan::new(11).with_panics(1.0).wrap(inner))
    }));
    let report = service.submit(spec).expect("queue has room").wait();
    assert_eq!(report.status(), Some(Status::Solved), "{:?}", report.outcome);
    assert_eq!(report.attempts_used(), 2, "panic, then direct fallback");
    assert!(report.attempts[0].error.as_deref().is_some_and(|e| e.contains("panic")));
    assert!(report.attempts[1].status.is_some_and(Status::is_solved));
}

#[test]
fn exhausted_ladder_reports_panicked_and_worker_survives() {
    quiet_injected_panics();
    let service = SolveService::new(ServiceConfig { workers: 1, queue_capacity: 8 });
    let spec = JobSpec::new(box_qp(4)).with_retry(RetryPolicy::no_retries()).with_backend_factory(
        Box::new(|p, a, sigma, rho, _| {
            let inner = Box::new(CpuPcgBackend::new(p, a, sigma, rho));
            Ok(ChaosPlan::new(5).with_panics(1.0).wrap(inner))
        }),
    );
    let report = service.submit(spec).expect("queue has room").wait();
    match report.outcome {
        Err(JobError::Panicked(msg)) => assert!(msg.contains("chaos"), "{msg}"),
        other => panic!("expected Panicked, got {other:?}"),
    }
    // The (only) worker took the panic and must still be serving.
    let clean = service.submit(JobSpec::new(box_qp(3))).expect("worker alive");
    assert_eq!(clean.wait().status(), Some(Status::Solved));
}

#[test]
fn injected_backend_errors_ride_the_guard_and_retry_ladders() {
    let service = SolveService::new(ServiceConfig { workers: 2, queue_capacity: 8 });
    // A high error rate defeats the in-solve guard ladder eventually, but
    // the runtime's direct-LDLᵀ retry (which drops the chaos wrapper
    // with the factory) always lands the job.
    let spec = JobSpec::new(box_qp(6)).with_backend_factory(Box::new(|p, a, sigma, rho, _| {
        let inner = Box::new(CpuPcgBackend::new(p, a, sigma, rho));
        Ok(ChaosPlan::new(9).with_errors(0.9).wrap(inner))
    }));
    let report = service.submit(spec).expect("queue has room").wait();
    assert_eq!(report.status(), Some(Status::Solved), "{:?}", report.outcome);
}

#[test]
fn shutdown_completes_queued_jobs() {
    let service = SolveService::new(ServiceConfig { workers: 2, queue_capacity: 16 });
    let handles: Vec<_> =
        (0..6).map(|_| service.submit(JobSpec::new(box_qp(3))).expect("room")).collect();
    service.shutdown();
    for handle in handles {
        assert_eq!(handle.wait().status(), Some(Status::Solved));
    }
}

#[test]
fn submitting_after_shutdown_is_rejected() {
    let mut service = Some(SolveService::new(ServiceConfig { workers: 1, queue_capacity: 2 }));
    service.take().unwrap().shutdown();
    // A fresh service is needed per handle; this checks the drop path too.
    let service = SolveService::new(ServiceConfig { workers: 1, queue_capacity: 2 });
    drop(service); // Drop joins workers without deadlock.
}

#[test]
fn checkpointed_resume_flows_through_the_service() {
    let service = SolveService::new(ServiceConfig { workers: 1, queue_capacity: 4 });
    let problem = box_qp(6);
    let settings = Settings {
        eps_abs: 1e-9,
        eps_rel: 1e-9,
        check_termination: 1,
        adaptive_rho: false,
        linsys: LinSysKind::DirectLdlt,
        ..Default::default()
    };

    // Phase 1: run a few iterations only, then capture the endpoint.
    let phase1 = JobSpec::new(problem.clone())
        .with_settings(settings.clone())
        .with_budget(JobBudget::unbounded().with_iter_cap(5))
        .with_retry(RetryPolicy::no_retries());
    let r1 = service.submit(phase1).expect("room").wait();
    let partial = r1.outcome.expect("definite");
    assert_eq!(partial.status, Status::MaxIterationsReached);

    // Rebuild the checkpoint from the reported iterates (what an external
    // coordinator would persist) and resume to convergence.
    let ckpt = rsqp_solver::Checkpoint {
        x: partial.x.clone(),
        y: partial.y.clone(),
        z: partial.z.clone(),
        rho_bar: 0.1,
        iterations: partial.iterations as u64,
    };
    let phase2 = JobSpec::new(problem).with_settings(settings).with_checkpoint(ckpt);
    let r2 = service.submit(phase2).expect("room").wait();
    let done = r2.outcome.expect("definite");
    assert_eq!(done.status, Status::Solved);
    for (v, want) in done.x.iter().zip([1.0f64; 6]) {
        assert!((v - want).abs() < 1e-6, "{v}");
    }
}

#[test]
fn metrics_snapshot_tracks_the_job_lifecycle() {
    let service = SolveService::new(ServiceConfig { workers: 2, queue_capacity: 16 });
    let handles: Vec<_> = (0..8)
        .map(|i| service.submit(JobSpec::new(box_qp(2 + i % 3))).expect("queue has room"))
        .collect();
    for handle in handles {
        assert_eq!(handle.wait().status(), Some(Status::Solved));
    }
    let snap = service.metrics_snapshot();
    assert_eq!(snap.counter("jobs_submitted"), 8);
    assert_eq!(snap.counter("jobs_completed"), 8);
    assert_eq!(snap.counter("jobs_failed"), 0);
    assert_eq!(snap.counter("jobs_cancelled"), 0);
    assert_eq!(snap.counter("jobs_rejected"), 0);
    // Every accepted job has reported, so the ledger balances and nothing
    // is queued or in flight.
    assert_eq!(
        snap.counter("jobs_submitted"),
        snap.counter("jobs_completed")
            + snap.counter("jobs_failed")
            + snap.counter("jobs_cancelled")
    );
    assert_eq!(snap.gauge("queue_depth"), 0);
    assert_eq!(snap.gauge("jobs_in_flight"), 0);
    // One latency sample per executed job, on both histograms.
    assert_eq!(snap.histograms["queue_wait_us"].count(), 8);
    assert_eq!(snap.histograms["exec_time_us"].count(), 8);
}

#[test]
fn metrics_classify_cancelled_jobs_separately() {
    let service = SolveService::new(ServiceConfig { workers: 1, queue_capacity: 4 });
    let handle = service
        .submit(JobSpec::new(endless_problem()).with_settings(endless_settings()))
        .expect("queue has room");
    std::thread::sleep(Duration::from_millis(20));
    handle.cancel();
    let report = handle.wait();
    assert_eq!(report.status(), Some(Status::Cancelled));
    let snap = service.metrics_snapshot();
    assert_eq!(snap.counter("jobs_cancelled"), 1);
    assert_eq!(snap.counter("jobs_completed"), 0);
    assert_eq!(snap.counter("jobs_failed"), 0);
    assert_eq!(snap.counter("jobs_submitted"), 1);
}
