//! Concurrent chaos smoke test for the resilient solve runtime.
//!
//! Pushes a mixed fleet of ≥64 jobs through a [`SolveService`] while every
//! failure mode the runtime defends against is armed at once:
//!
//! * **backend chaos** — [`ChaosPlan`]-wrapped CPU PCG backends injecting
//!   delays, recoverable errors, and panics per KKT solve;
//! * **bit-level faults** — simulated-FPGA jobs with `FaultConfig` single-
//!   event upsets in the cycle-level machine (composing PR 1's fault
//!   harness with this PR's runtime);
//! * **deadline pressure** — never-converging jobs with tiny budgets;
//! * **cancellation** — in-flight jobs cancelled from outside;
//! * **backpressure** — the queue is deliberately smaller than the fleet,
//!   so [`SubmitError::QueueFull`] rejections must occur and be retried.
//!
//! Pass criteria (asserted; a violation exits nonzero):
//!
//! 1. zero hung jobs — every handle reports within a generous timeout;
//! 2. every job ends with a definite outcome (terminal status or typed
//!    error), never a poisoned/indeterminate state;
//! 3. zero worker deaths — after the storm, one clean job per worker must
//!    still solve;
//! 4. the telemetry ledger balances;
//! 5. no job panics twice — the retry after a panic runs without the
//!    backend that raised it.
//!
//! Fully deterministic per `--seed` (default 42) up to OS scheduling; the
//! fault schedules themselves replay exactly. Budgeted to finish well
//! under 60 s for CI (`cargo run -p rsqp-bench --bin chaos_smoke`).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use rsqp_arch::{ArchConfig, FaultConfig};
use rsqp_bench::HarnessOptions;
use rsqp_core::FpgaPcgBackend;
use rsqp_problems::{generate, Domain};
use rsqp_runtime::{
    ChaosPlan, JobBudget, JobHandle, JobSpec, ServiceConfig, SolveService, SubmitError,
};
use rsqp_solver::{CpuPcgBackend, Settings, Status};

const WORKERS: usize = 4;
/// Deliberately smaller than the fleet so backpressure must engage.
const QUEUE_CAPACITY: usize = 24;
const CPU_CHAOS_JOBS: u64 = 48;
const FPGA_FAULT_JOBS: u64 = 6;
const DEADLINE_JOBS: u64 = 6;
const CANCEL_JOBS: u64 = 4;
const REPORT_TIMEOUT: Duration = Duration::from_secs(45);

/// Silences the default panic spew for *injected* panics only; anything
/// else (a genuine bug) still prints its backtrace message.
fn quiet_injected_panics() {
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
}

/// Submits with bounded retry on queue-full: backpressure is expected by
/// design here, so the producer backs off and tries again.
fn submit_with_backoff(
    service: &SolveService,
    mut spec: JobSpec,
    rejections: &mut usize,
) -> JobHandle {
    loop {
        match service.submit(spec) {
            Ok(handle) => return handle,
            Err(SubmitError::QueueFull { spec: returned, .. }) => {
                *rejections += 1;
                spec = returned;
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(other) => panic!("unexpected submit failure: {other}"),
        }
    }
}

fn chaos_settings() -> Settings {
    Settings { eps_abs: 1e-5, eps_rel: 1e-5, max_iter: 2_000, ..Default::default() }
}

/// Settings under which ADMM never converges (used with control-family
/// problems, whose residuals never hit exactly zero).
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

fn main() {
    let opts = HarnessOptions::from_args();
    let master = opts.seed;
    quiet_injected_panics();
    let t0 = Instant::now();

    let service =
        SolveService::new(ServiceConfig { workers: WORKERS, queue_capacity: QUEUE_CAPACITY });
    let mut handles: Vec<(String, JobHandle)> = Vec::new();
    let mut rejections = 0usize;

    // --- CPU jobs with chaos-wrapped backends -------------------------
    let chaos = ChaosPlan::new(master)
        .with_delays(0.15, Duration::from_millis(3))
        .with_errors(0.25)
        .with_panics(0.10);
    let domains = Domain::all();
    for job in 0..CPU_CHAOS_JOBS {
        let domain = domains[job as usize % domains.len()];
        let size = 2 + (job as usize % 3);
        let plan = chaos.derive(job);
        let spec = JobSpec::new(generate(domain, size, master ^ job))
            .with_settings(chaos_settings())
            .with_budget(JobBudget::unbounded().with_timeout(Duration::from_secs(20)))
            .with_backend_factory(Box::new(move |p, a, sigma, rho, s| {
                let eps = s.cg_tolerance.initial();
                let inner = Box::new(CpuPcgBackend::new(p, a, sigma, rho, eps, s.cg_max_iter));
                Ok(plan.wrap(inner))
            }));
        let handle = submit_with_backoff(&service, spec, &mut rejections);
        handles.push((format!("cpu-chaos/{domain:?}/{job}"), handle));
    }

    // --- simulated-FPGA jobs with bit-flip fault injection ------------
    let fault = FaultConfig::new(master).with_hbm_read_flips(2e-3).with_mac_output_flips(1e-3);
    for job in 0..FPGA_FAULT_JOBS {
        let cfg = ArchConfig::baseline(8).with_fault_injection(Some(fault.derive(job)));
        let spec = JobSpec::new(generate(Domain::Control, 2, 100 + job))
            .with_settings(chaos_settings())
            .with_budget(JobBudget::unbounded().with_timeout(Duration::from_secs(20)))
            .with_backend_factory(Box::new(move |p, a, sigma, rho, s| {
                let eps = s.cg_tolerance.initial();
                let (backend, _machine) =
                    FpgaPcgBackend::new(p, a, sigma, rho, cfg.clone(), eps, s.cg_max_iter);
                Ok(Box::new(backend))
            }));
        let handle = submit_with_backoff(&service, spec, &mut rejections);
        handles.push((format!("fpga-fault/{job}"), handle));
    }

    // --- never-converging jobs under deadline pressure ----------------
    for job in 0..DEADLINE_JOBS {
        let spec = JobSpec::new(generate(Domain::Control, 3, 200 + job))
            .with_settings(endless_settings())
            .with_budget(JobBudget::unbounded().with_timeout(Duration::from_millis(150)));
        let handle = submit_with_backoff(&service, spec, &mut rejections);
        handles.push((format!("deadline/{job}"), handle));
    }

    // --- in-flight jobs cancelled from outside ------------------------
    let mut cancels = Vec::new();
    for job in 0..CANCEL_JOBS {
        let spec = JobSpec::new(generate(Domain::Control, 3, 300 + job))
            .with_settings(endless_settings())
            .with_budget(JobBudget::unbounded().with_timeout(Duration::from_secs(20)));
        let handle = submit_with_backoff(&service, spec, &mut rejections);
        cancels.push(handle.cancel_token());
        handles.push((format!("cancel/{job}"), handle));
    }
    std::thread::sleep(Duration::from_millis(60));
    for token in &cancels {
        token.cancel();
    }

    let fleet = handles.len();
    assert!(fleet >= 64, "fleet of {fleet} jobs is below the 64-job floor");

    // --- criterion 1 & 2: every job reports a definite outcome --------
    let mut by_outcome: BTreeMap<String, usize> = BTreeMap::new();
    let mut max_attempts = 0usize;
    let mut hung = Vec::new();
    for (label, handle) in handles {
        match handle.wait_timeout(REPORT_TIMEOUT) {
            None => hung.push(label),
            Some(report) => {
                max_attempts = max_attempts.max(report.attempts_used());
                // A panic drops the backend that raised it, so no job can
                // panic twice.
                let panics = report
                    .attempts
                    .iter()
                    .filter(|a| a.error.as_deref().is_some_and(|e| e.starts_with("panic:")))
                    .count();
                // (The message must not quote the injected panics: the
                // quiet hook would swallow it.)
                assert!(panics <= 1, "{label}: {panics} of its attempts panicked");
                let key = match (&report.outcome, report.status()) {
                    (_, Some(status)) => format!("{status}"),
                    (Err(e), None) => format!("error: {e}"),
                    (Ok(_), None) => unreachable!("Ok outcome always has a status"),
                };
                *by_outcome.entry(key).or_default() += 1;
                if label.starts_with("deadline/") {
                    assert_eq!(
                        report.status(),
                        Some(Status::TimeLimitReached),
                        "{label}: deadline jobs must time out, got {:?}",
                        report.outcome
                    );
                }
                if label.starts_with("cancel/") {
                    assert_eq!(
                        report.status(),
                        Some(Status::Cancelled),
                        "{label}: cancelled jobs must report Cancelled, got {:?}",
                        report.outcome
                    );
                }
            }
        }
    }
    assert!(hung.is_empty(), "hung jobs (no report within {REPORT_TIMEOUT:?}): {hung:?}");

    // --- criterion 3: every worker is still alive and serving ---------
    let clean: Vec<_> = (0..WORKERS)
        .map(|i| {
            let spec = JobSpec::new(generate(Domain::Control, 2, 400 + i as u64))
                .with_settings(chaos_settings());
            submit_with_backoff(&service, spec, &mut rejections)
        })
        .collect();
    for handle in clean {
        let report = handle.wait_timeout(REPORT_TIMEOUT).expect("post-storm job must report");
        assert_eq!(
            report.status(),
            Some(Status::Solved),
            "post-storm clean job must solve: {:?}",
            report.outcome
        );
    }
    // --- criterion 4: the telemetry ledger balances -------------------
    // Every accepted job has reported, so the lifecycle counters must
    // account for every job exactly once.
    let snap = service.metrics_snapshot();
    let accepted = (fleet + WORKERS) as u64;
    assert_eq!(snap.counter("jobs_submitted"), accepted, "one submit counted per accepted job");
    assert_eq!(snap.counter("jobs_rejected"), rejections as u64);
    assert_eq!(
        snap.counter("jobs_submitted"),
        snap.counter("jobs_completed")
            + snap.counter("jobs_failed")
            + snap.counter("jobs_cancelled"),
        "submitted = completed + failed + cancelled must hold once all jobs reported"
    );
    assert_eq!(snap.counter("jobs_cancelled"), CANCEL_JOBS, "only the cancel/ jobs are cancelled");
    assert_eq!(snap.gauge("queue_depth"), 0, "nothing left queued");
    assert_eq!(snap.gauge("jobs_in_flight"), 0, "nothing left running");
    assert_eq!(snap.histograms["exec_time_us"].count(), accepted);
    assert_eq!(snap.histograms["queue_wait_us"].count(), accepted);
    service.shutdown();

    println!("chaos_smoke: seed={master} fleet={fleet} workers={WORKERS} queue={QUEUE_CAPACITY}");
    println!("  queue-full rejections retried: {rejections}");
    println!("  max retry attempts on one job: {max_attempts}");
    for (outcome, count) in &by_outcome {
        println!("  {count:>3} × {outcome}");
    }
    println!(
        "  metrics: submitted={} completed={} failed={} cancelled={} rejected={} retries={} panics={}",
        snap.counter("jobs_submitted"),
        snap.counter("jobs_completed"),
        snap.counter("jobs_failed"),
        snap.counter("jobs_cancelled"),
        snap.counter("jobs_rejected"),
        snap.counter("retries"),
        snap.counter("panics"),
    );
    for name in ["queue_wait_us", "exec_time_us"] {
        let h = &snap.histograms[name];
        println!("  {name}: count={} mean={:.0}us max<={}us", h.count(), h.mean(), h.max_bound());
    }
    println!(
        "  all {fleet} jobs reported, all {WORKERS} workers alive — ok in {:.1?}",
        t0.elapsed()
    );
}
