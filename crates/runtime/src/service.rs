//! The concurrent solve service: bounded queue, worker pool, and panic
//! isolation around the shared attempt loop.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::Instant;

use rsqp_obs::{MetricsRegistry, MetricsSnapshot};
use rsqp_solver::{CancelToken, SolveControl, SolverError, Status};

use crate::job::{JobError, JobHandle, JobReport, JobSpec};
use crate::retry::{build_solver, run_attempts};
use crate::session::{SessionConfig, SolveSession};

/// Sizing of a [`SolveService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Worker threads. Each runs one job at a time, on its own thread.
    pub workers: usize,
    /// Bounded queue depth. A submit beyond `workers` in-flight jobs plus
    /// this many queued ones is rejected with
    /// [`SubmitError::QueueFull`] — explicit backpressure instead of
    /// unbounded memory growth.
    pub queue_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        let cores = thread::available_parallelism().map_or(4, |p| p.get());
        ServiceConfig { workers: cores.min(8), queue_capacity: 64 }
    }
}

/// Why a submission was rejected. The spec is handed back so the caller can
/// retry later (backpressure, not data loss).
pub enum SubmitError {
    /// The bounded queue is at capacity.
    QueueFull {
        /// The rejected job, returned to the caller.
        spec: JobSpec,
        /// The configured queue depth that was exceeded.
        capacity: usize,
    },
    /// The service has been shut down.
    ShuttingDown {
        /// The rejected job, returned to the caller.
        spec: JobSpec,
    },
}

impl fmt::Debug for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::QueueFull { capacity, .. } => {
                f.debug_struct("QueueFull").field("capacity", capacity).finish_non_exhaustive()
            }
            SubmitError::ShuttingDown { .. } => {
                f.debug_struct("ShuttingDown").finish_non_exhaustive()
            }
        }
    }
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::QueueFull { capacity, .. } => {
                write!(f, "job queue full (capacity {capacity})")
            }
            SubmitError::ShuttingDown { .. } => f.write_str("service is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

struct QueuedJob {
    id: u64,
    spec: JobSpec,
    cancel: CancelToken,
    deadline: Option<Instant>,
    submitted_at: Instant,
    result_tx: mpsc::Sender<JobReport>,
}

/// Telemetry handles a worker holds for its whole lifetime, so the per-job
/// hot path is pure atomic updates (no registry lookups).
struct WorkerMetrics {
    queue_depth: rsqp_obs::Gauge,
    in_flight: rsqp_obs::Gauge,
    queue_wait_us: rsqp_obs::Histogram,
    exec_time_us: rsqp_obs::Histogram,
    completed: rsqp_obs::Counter,
    failed: rsqp_obs::Counter,
    cancelled: rsqp_obs::Counter,
    retries: rsqp_obs::Counter,
    panics: rsqp_obs::Counter,
}

impl WorkerMetrics {
    fn new(registry: &MetricsRegistry) -> Self {
        WorkerMetrics {
            queue_depth: registry.gauge("queue_depth"),
            in_flight: registry.gauge("jobs_in_flight"),
            queue_wait_us: registry.histogram("queue_wait_us"),
            exec_time_us: registry.histogram("exec_time_us"),
            completed: registry.counter("jobs_completed"),
            failed: registry.counter("jobs_failed"),
            cancelled: registry.counter("jobs_cancelled"),
            retries: registry.counter("retries"),
            panics: registry.counter("panics"),
        }
    }

    /// Folds one finished job's report into the counters. The status
    /// classification is exhaustive and disjoint, so
    /// `jobs_submitted == jobs_completed + jobs_failed + jobs_cancelled`
    /// holds once every accepted job has reported (the invariant
    /// `chaos_smoke` asserts).
    fn record_outcome(&self, report: &JobReport) {
        self.retries.add(report.attempts.len().saturating_sub(1) as u64);
        self.panics.add(
            report
                .attempts
                .iter()
                .filter(|a| a.error.as_deref().is_some_and(|e| e.starts_with("panic:")))
                .count() as u64,
        );
        match &report.outcome {
            Ok(result) if result.status == Status::Cancelled => self.cancelled.inc(),
            Ok(_) => self.completed.inc(),
            Err(_) => self.failed.inc(),
        }
    }
}

/// A fixed pool of solver workers behind a bounded job queue.
///
/// Guarantees, by construction:
///
/// * **Backpressure** — `submit` never blocks and never buffers beyond the
///   configured capacity; saturation is an error the caller sees.
/// * **Definite outcomes** — every accepted job produces exactly one
///   [`JobReport`], whatever happens: convergence, divergence, budget
///   expiry, cancellation, backend errors, or a panicking backend.
/// * **Panic isolation** — a panic inside a solve is caught and converted
///   to [`JobError::Panicked`]; the worker thread survives and takes the
///   next job.
pub struct SolveService {
    tx: Option<SyncSender<QueuedJob>>,
    workers: Vec<JoinHandle<()>>,
    next_id: AtomicU64,
    capacity: usize,
    metrics: MetricsRegistry,
    submitted: rsqp_obs::Counter,
    rejected: rsqp_obs::Counter,
    queue_depth: rsqp_obs::Gauge,
}

impl fmt::Debug for SolveService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SolveService")
            .field("workers", &self.workers.len())
            .field("queue_capacity", &self.capacity)
            .finish_non_exhaustive()
    }
}

impl SolveService {
    /// Starts `config.workers` worker threads sharing one bounded queue.
    pub fn new(config: ServiceConfig) -> Self {
        let workers = config.workers.max(1);
        let capacity = config.queue_capacity.max(1);
        let (tx, rx) = mpsc::sync_channel::<QueuedJob>(capacity);
        let rx = Arc::new(Mutex::new(rx));
        let metrics = MetricsRegistry::new();
        let handles = (0..workers)
            .map(|i| {
                let rx = Arc::clone(&rx);
                let registry = metrics.clone();
                thread::Builder::new()
                    .name(format!("rsqp-worker-{i}"))
                    .spawn(move || worker_loop(&rx, &registry))
                    .expect("spawning a worker thread")
            })
            .collect();
        let submitted = metrics.counter("jobs_submitted");
        let rejected = metrics.counter("jobs_rejected");
        let queue_depth = metrics.gauge("queue_depth");
        SolveService {
            tx: Some(tx),
            workers: handles,
            next_id: AtomicU64::new(0),
            capacity,
            metrics,
            submitted,
            rejected,
            queue_depth,
        }
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Enqueues a job without blocking.
    ///
    /// The job's wall-clock budget starts now — queue wait included.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] when the bounded queue is at capacity,
    /// [`SubmitError::ShuttingDown`] after [`SolveService::shutdown`]. Both
    /// return the spec to the caller.
    // The error variants carry the rejected JobSpec by design (backpressure
    // hands the job back instead of dropping it), so the error type is as
    // large as a spec.
    #[allow(clippy::result_large_err)]
    pub fn submit(&self, spec: JobSpec) -> Result<JobHandle, SubmitError> {
        let Some(tx) = &self.tx else {
            return Err(SubmitError::ShuttingDown { spec });
        };
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let cancel = CancelToken::new();
        let now = Instant::now();
        let deadline = spec.budget.timeout.map(|t| now + t);
        let (result_tx, result_rx) = mpsc::channel();
        let queued =
            QueuedJob { id, spec, cancel: cancel.clone(), deadline, submitted_at: now, result_tx };
        match tx.try_send(queued) {
            Ok(()) => {
                self.submitted.inc();
                self.queue_depth.add(1);
                Ok(JobHandle { id, cancel, rx: result_rx })
            }
            Err(TrySendError::Full(job)) => {
                self.rejected.inc();
                Err(SubmitError::QueueFull { spec: job.spec, capacity: self.capacity })
            }
            Err(TrySendError::Disconnected(job)) => {
                self.rejected.inc();
                Err(SubmitError::ShuttingDown { spec: job.spec })
            }
        }
    }

    /// The service's live metrics registry. Counters and gauges cover the
    /// queue (`jobs_submitted`, `jobs_rejected`, `queue_depth`), execution
    /// (`jobs_in_flight`, `jobs_completed`, `jobs_failed`,
    /// `jobs_cancelled`, `retries`, `panics`), and latency histograms
    /// (`queue_wait_us`, `exec_time_us`). Callers may also register their
    /// own metrics here (e.g. folding `rsqp-arch` machine stats into the
    /// same snapshot).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// A point-in-time copy of every service metric. Safe to call at any
    /// moment — including while workers are mid-job; once every accepted
    /// job's report has been received,
    /// `jobs_submitted == jobs_completed + jobs_failed + jobs_cancelled`.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Opens an MPC-style [`SolveSession`] recording into this service's
    /// metrics registry (`session_steps`, `cache_hits`, `cache_misses`,
    /// `session_step_us` land in the same snapshot as the queue metrics).
    /// The session runs on the caller's thread — the worker pool is for
    /// independent throughput jobs, a session is a latency-bound sequential
    /// loop.
    pub fn open_session(
        &self,
        problem: impl Into<Arc<rsqp_solver::QpProblem>>,
        config: SessionConfig,
    ) -> SolveSession {
        SolveSession::with_metrics(problem, config, self.metrics.clone())
    }

    /// Stops accepting jobs, drains the queue, and joins the workers.
    /// Already-queued jobs still run to completion and report normally.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        self.tx = None; // closes the channel; workers exit after draining
        for handle in self.workers.drain(..) {
            // Workers never panic (every job runs under catch_unwind), but
            // a join error must not propagate out of shutdown/drop.
            let _ = handle.join();
        }
    }
}

impl Drop for SolveService {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

fn worker_loop(rx: &Arc<Mutex<Receiver<QueuedJob>>>, registry: &MetricsRegistry) {
    let metrics = WorkerMetrics::new(registry);
    loop {
        // Hold the lock only to dequeue, never while solving. A poisoned
        // lock cannot happen (recv does not panic) but is survived anyway.
        let job = rx.lock().unwrap_or_else(PoisonError::into_inner).recv();
        let Ok(job) = job else { break };
        let started = Instant::now();
        metrics.queue_depth.sub(1);
        metrics.in_flight.add(1);
        metrics.queue_wait_us.observe(job.submitted_at.elapsed().as_micros() as u64);
        let report = run_job(job.id, job.spec, &job.cancel, job.deadline);
        metrics.exec_time_us.observe(started.elapsed().as_micros() as u64);
        metrics.record_outcome(&report);
        metrics.in_flight.sub(1);
        // The submitter may have dropped the handle; that is not an error.
        let _ = job.result_tx.send(report);
    }
}

/// Drives one job through the attempt loop to a definite report. Every
/// attempt builds a fresh solver under `catch_unwind`, so a panicking
/// backend becomes a retryable [`JobError::Panicked`].
fn run_job(id: u64, spec: JobSpec, cancel: &CancelToken, deadline: Option<Instant>) -> JobReport {
    let JobSpec { problem, mut settings, budget, retry, resume_from, mut factory } = spec;
    let mut control = SolveControl::unbounded().with_cancel(cancel.clone());
    if let Some(d) = deadline {
        control = control.with_deadline(d);
    }
    if let Some(cap) = budget.iter_cap {
        control = control.with_iter_cap(cap);
    }

    let (attempts, outcome) =
        run_attempts(retry, &mut settings, &mut factory, resume_from, |attempt| {
            let run = catch_unwind(AssertUnwindSafe(|| -> Result<_, SolverError> {
                let mut solver = build_solver(&problem, attempt.settings, attempt.factory, None)?;
                if let Some(ckpt) = attempt.resume {
                    solver.restore(ckpt)?;
                }
                Ok((solver.solve_with_control(&control)?, solver))
            }));
            match run {
                Ok(run) => run.map_err(JobError::Solver),
                Err(payload) => Err(JobError::Panicked(panic_message(payload.as_ref()))),
            }
        });
    JobReport { id, attempts, outcome: outcome.map(|(result, _)| result) }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
