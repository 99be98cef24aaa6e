//! Property: no fault schedule — whatever the seed, panic rate, and error
//! rate — can kill a worker or leave a job without a definite outcome.

use std::sync::Once;
use std::time::Duration;

use proptest::prelude::*;
use rsqp_runtime::{ChaosPlan, JobSpec, ServiceConfig, SolveService};
use rsqp_solver::{CpuPcgBackend, QpProblem, Status};
use rsqp_sparse::CsrMatrix;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn panicking_backends_never_take_down_the_pool(
        seed in 0u64..1_000_000,
        panic_prob in 0.2f64..=1.0,
        error_prob in 0.0f64..=1.0,
    ) {
        quiet_injected_panics();
        let service = SolveService::new(ServiceConfig { workers: 2, queue_capacity: 16 });
        let plan = ChaosPlan::new(seed).with_panics(panic_prob).with_errors(error_prob);

        let handles: Vec<_> = (0..6)
            .map(|job| {
                let job_plan = plan.derive(job);
                let spec = JobSpec::new(box_qp(3 + job as usize % 3)).with_backend_factory(
                    Box::new(move |p, a, sigma, rho, _| {
                        let inner =
                            Box::new(CpuPcgBackend::new(p, a, sigma, rho));
                        Ok(job_plan.wrap(inner))
                    }),
                );
                service.submit(spec).expect("queue has room")
            })
            .collect();

        // Every job must report — a missing report within the generous
        // timeout means a hung or dead worker.
        for handle in handles {
            let report = handle
                .wait_timeout(Duration::from_secs(60))
                .expect("job must produce a report: no hung jobs, no dead workers");
            // The outcome type itself is the "definite status" guarantee:
            // either a SolveResult with a terminal status or a typed error.
            if let Ok(result) = &report.outcome {
                prop_assert!(result.x.iter().all(|v| v.is_finite() || result.status != Status::Solved));
            }
        }

        // Both workers must still be alive and serving.
        for _ in 0..2 {
            let clean = service.submit(JobSpec::new(box_qp(2))).expect("pool alive");
            let report = clean.wait_timeout(Duration::from_secs(60)).expect("pool alive");
            prop_assert_eq!(report.status(), Some(Status::Solved));
        }
    }
}
