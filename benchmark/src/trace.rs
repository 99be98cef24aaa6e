//! Spans recorded from outside the crates.
//!
//! The traced pass wraps the backend a workload would build in [`Timed`],
//! which times every call across the [`KktBackend`] boundary, and the
//! harness opens spans around the public calls it makes itself. Spans stay
//! in memory and are written once, when the run ends.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use rsqp_arch::RunStats;
use rsqp_core::FpgaPcgBackend;
use rsqp_solver::{BackendStats, KktBackend, SolverError};
use rsqp_sparse::CsrMatrix;

/// One timed interval. `parent` indexes the enclosing span, if any.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name (`solver.kkt`, `runtime.step`, ...).
    pub name: &'static str,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// In-memory span store plus the latest machine counters seen by a
/// wrapped simulated-FPGA backend.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    /// Every span recorded so far, in start order.
    pub spans: Vec<Span>,
    open: Vec<usize>,
    /// Cumulative machine statistics after the latest backend call.
    pub machine: RunStats,
    /// Analytic outer-loop cycles per ADMM iteration of the FPGA backend.
    pub outer_cycles: u64,
    /// Stored entries of `L` reported by the latest LDLᵀ backend built.
    pub l_nnz: usize,
    totals: Vec<(&'static str, f64)>,
}

/// A tracer shared between the harness and backend wrappers (the session
/// factory must be `Send`, hence the mutex).
pub type SharedTracer = Arc<Mutex<Tracer>>;

/// Locks a shared tracer.
pub fn lock(t: &SharedTracer) -> MutexGuard<'_, Tracer> {
    t.lock().expect("a tracer user panicked")
}

impl Tracer {
    /// A fresh tracer behind a shared handle.
    pub fn shared() -> SharedTracer {
        Arc::new(Mutex::new(Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            machine: RunStats::default(),
            outer_cycles: 0,
            l_nnz: 0,
            totals: Vec::new(),
        }))
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span under the innermost open span; returns its index.
    pub fn open(&mut self, name: &'static str) -> usize {
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns: now,
            end_ns: now,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes span `id` (and any span left open inside it); returns its
    /// duration in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let now = self.ns(Instant::now());
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            let span = self.spans[top].clone();
            self.add(span.name, span.secs());
            if top == id {
                break;
            }
        }
        self.spans[id].secs()
    }

    /// Records a finished interval under the innermost open span.
    pub fn leaf(&mut self, name: &'static str, start: Instant, end: Instant) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        let span = Span { name, parent: self.open.last().copied(), start_ns, end_ns };
        self.add(name, span.secs());
        self.spans.push(span);
    }

    fn add(&mut self, name: &'static str, secs: f64) {
        match self.totals.iter_mut().find(|(n, _)| *n == name) {
            Some((_, total)) => *total += secs,
            None => self.totals.push((name, secs)),
        }
    }

    /// Seconds recorded so far in spans named `name`; differences of two
    /// readings attribute a layer's time to the interval between them.
    pub fn total(&self, name: &str) -> f64 {
        self.totals.iter().find(|(n, _)| *n == name).map_or(0.0, |&(_, t)| t)
    }
}

/// Backends whose counters the tracer samples after each call.
pub trait Sampled: KktBackend {
    /// Cumulative machine statistics, for backends that run the machine.
    fn machine_stats(&self) -> Option<RunStats> {
        None
    }
}

impl Sampled for rsqp_solver::DirectLdltBackend {}
impl Sampled for rsqp_solver::CpuPcgBackend {}
impl Sampled for FpgaPcgBackend {
    fn machine_stats(&self) -> Option<RunStats> {
        Some(FpgaPcgBackend::machine_stats(self))
    }
}

/// Times every call into the wrapped backend and forwards it unchanged.
pub struct Timed<B> {
    inner: B,
    tracer: SharedTracer,
}

impl<B: Sampled> Timed<B> {
    /// Wraps `inner`, recording into `tracer`.
    pub fn new(inner: B, tracer: SharedTracer) -> Self {
        Timed { inner, tracer }
    }

    fn record(&self, name: &'static str, start: Instant) {
        let end = Instant::now();
        let mut t = lock(&self.tracer);
        t.leaf(name, start, end);
        if let Some(stats) = self.inner.machine_stats() {
            t.machine = stats;
        }
    }
}

impl<B: Sampled> KktBackend for Timed<B> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn update_rho(&mut self, rho: &[f64]) -> Result<(), SolverError> {
        let start = Instant::now();
        let out = self.inner.update_rho(rho);
        self.record("solver.rho_refresh", start);
        out
    }

    fn set_cg_tolerance(&mut self, eps: f64) {
        self.inner.set_cg_tolerance(eps);
    }

    fn solve_kkt(
        &mut self,
        x: &[f64],
        z: &[f64],
        y: &[f64],
        q: &[f64],
        xtilde: &mut [f64],
        ztilde: &mut [f64],
    ) -> Result<(), SolverError> {
        let start = Instant::now();
        let out = self.inner.solve_kkt(x, z, y, q, xtilde, ztilde);
        self.record("solver.kkt", start);
        out
    }

    fn update_matrices(
        &mut self,
        p: &CsrMatrix,
        a: &CsrMatrix,
        rho: &[f64],
    ) -> Result<(), SolverError> {
        let start = Instant::now();
        let out = self.inner.update_matrices(p, a, rho);
        self.record("solver.backend_update", start);
        out
    }

    fn stats(&self) -> BackendStats {
        self.inner.stats()
    }
}

/// Writes the spans as JSON lines: `[name, parent, start_ns, end_ns]`.
pub fn spans_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let sep = if i + 1 == spans.len() { "" } else { "," };
        out.push_str(&format!("  [\"{}\", {parent}, {}, {}]{sep}\n", s.name, s.start_ns, s.end_ns));
    }
    out.push(']');
    out
}
