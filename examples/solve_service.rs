//! Serving a stream of QPs through the resilient runtime.
//!
//! Submits a batch of benchmark problems to a [`SolveService`] worker
//! pool, plus one job with a deliberately impossible deadline and one job
//! cancelled mid-flight — every job still ends with a definite outcome.
//!
//! ```sh
//! cargo run --release --example solve_service
//! ```

use std::time::Duration;

use rsqp::problems::{generate, Domain};
use rsqp::runtime::{JobBudget, JobSpec, RetryPolicy, ServiceConfig, SolveService};
use rsqp::solver::{Settings, Status};

fn main() {
    let service = SolveService::new(ServiceConfig { workers: 2, queue_capacity: 16 });
    println!("service up: {} workers\n", service.worker_count());

    // A healthy batch across three problem domains.
    let mut handles = Vec::new();
    for (i, domain) in
        [Domain::Control, Domain::Lasso, Domain::Portfolio].into_iter().cycle().take(9).enumerate()
    {
        let spec = JobSpec::new(generate(domain, 2 + i % 3, i as u64))
            .with_budget(JobBudget::unbounded().with_timeout(Duration::from_secs(10)))
            .with_retry(RetryPolicy::default());
        handles.push((format!("{domain:?}#{i}"), service.submit(spec).expect("queue has room")));
    }

    // One job that cannot finish in time…
    let strict = Settings {
        eps_abs: 1e-300,
        eps_rel: 1e-300,
        max_iter: usize::MAX / 2,
        check_termination: 1,
        adaptive_rho: false,
        ..Default::default()
    };
    let hopeless = JobSpec::new(generate(Domain::Control, 3, 99))
        .with_settings(strict.clone())
        .with_budget(JobBudget::unbounded().with_timeout(Duration::from_millis(50)));
    handles.push(("deadline".into(), service.submit(hopeless).expect("room")));

    // …and one cancelled from outside while it runs.
    let endless = JobSpec::new(generate(Domain::Control, 3, 7)).with_settings(strict);
    let handle = service.submit(endless).expect("room");
    let token = handle.cancel_token();
    handles.push(("cancelled".into(), handle));
    std::thread::sleep(Duration::from_millis(30));
    token.cancel();

    for (label, handle) in handles {
        let report = handle.wait();
        match &report.outcome {
            Ok(result) => println!(
                "{label:>12}: {} in {} iterations ({} attempt(s))",
                result.status,
                result.iterations,
                report.attempts_used()
            ),
            Err(e) => println!("{label:>12}: error: {e}"),
        }
        match label.as_str() {
            "deadline" => assert_eq!(report.status(), Some(Status::TimeLimitReached)),
            "cancelled" => assert_eq!(report.status(), Some(Status::Cancelled)),
            _ => assert_eq!(report.status(), Some(Status::Solved)),
        }
    }
    service.shutdown();
    println!("\nall jobs reported definite outcomes; service drained cleanly");
}
