//! The four workloads: closed loops, one caller, one thread.
//!
//! A run repeats *units* (a pass over the one-shot instances, or one whole
//! session) until its time is up. With tracing off every unit is plain
//! public-API calls. With tracing on, units alternate between plain and
//! traced (backend wrapped in [`Timed`], harness spans around each call),
//! so the run also reports the traced/untraced ratio; the standalone
//! replays run after each traced unit. Untraced samples are normalized to
//! the reference speed of [`crate::reference`].

use std::sync::Arc;
use std::time::Instant;

use rsqp_arch::RunStats;
use rsqp_core::perf::fpga::FpgaPerfModel;
use rsqp_core::FpgaPcgBackend;
use rsqp_runtime::{
    BackendFactory, CustomizationCache, SessionConfig, SolveSession, StepReport, StepUpdate,
};
use rsqp_solver::{
    CgTolerance, CpuPcgBackend, DirectLdltBackend, KktBackend, LinSysKind, QpProblem, Settings,
    SolveResult, Solver, SolverError, Status,
};
use rsqp_sparse::{CsrMatrix, PatternKey};

use crate::check::{objectives_agree, residuals};
use crate::inputs::{backtest_inputs, mpc_inputs, relabelled_instances, suite_instances};
use crate::reference::Probe;
use crate::replay::{replay, Replays};
use crate::report::{best, median, quantile, ratio, Exactness, Outcome};
use crate::trace::{lock, SharedTracer, Timed, Tracer};

/// Units every untraced run completes, whatever its time budget.
const MIN_UNITS: usize = 3;
/// Units of each kind (plain, traced) every traced run completes.
const MIN_TRACED_UNITS: usize = 2;
/// `Solver::new` calls per instance in an untraced one-shot pass with the
/// PCG backend, whose set-up is short and would otherwise get only one
/// sample per pass of its multi-second solves.
const PCG_SETUPS: usize = 4;
/// Warm steps per session.
pub const SESSION_STEPS: usize = 100;
/// Band the set-up closure and the traced/untraced ratio should lie in;
/// outside it the run prints a warning. Its width covers host slow phases
/// that fall on the replays or on the plain units alone.
const RATIO_BAND: (f64, f64) = (0.75, 1.33);

/// What a run was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    /// Input seed.
    pub seed: u64,
    /// Measurement time in seconds.
    pub seconds: f64,
    /// Whether to run the traced pass.
    pub trace: bool,
}

impl RunSpec {
    /// Whether unit `k` of a run started at `start` should run, and traced.
    fn next_unit(&self, k: usize, start: Instant) -> Option<bool> {
        let min = if self.trace { 2 * MIN_TRACED_UNITS } else { MIN_UNITS };
        let more = k < min || start.elapsed().as_secs_f64() < self.seconds;
        more.then_some(self.trace && k % 2 == 1)
    }
}

/// The inner-PCG start tolerance `Solver::new` hands its backends.
fn cg_start(s: &Settings) -> f64 {
    match s.cg_tolerance {
        CgTolerance::Fixed(e) => e,
        CgTolerance::Adaptive { start, .. } => start,
    }
}

/// Checks one finished solve against the problem it solved; returns the
/// duality gap of the answer.
fn verify(out: &mut Outcome, label: &str, qp: &QpProblem, r: &SolveResult, s: &Settings) -> f64 {
    if r.status != Status::Solved {
        out.fail(format!("{label}: status {}", r.status));
        return f64::INFINITY;
    }
    let res = residuals(qp, &r.x, &r.y, s.eps_abs, s.eps_rel);
    if !res.ok() {
        out.fail(format!("{label}: answer check failed {res:?}"));
    }
    res.gap
}

/// The deterministic counts of a solve (cumulative for a session solver).
fn solve_counts(r: &SolveResult) -> Vec<(&'static str, u64)> {
    vec![
        ("admm_iters", r.iterations as u64),
        ("rho_updates", r.rho_updates as u64),
        ("kkt_solves", r.backend.kkt_solves as u64),
        ("factorizations", r.backend.factorizations as u64),
        ("cg_iters", r.backend.cg_iterations as u64),
        ("objective_bits", r.objective.to_bits()),
    ]
}

/// Layer times read from the tracer's running totals.
const LAYERS: [&str; 4] =
    ["solver.kkt", "solver.rho_refresh", "solver.backend_update", "linsys.backend_build"];

fn layer_totals(t: &SharedTracer) -> [f64; LAYERS.len()] {
    let t = lock(t);
    LAYERS.map(|name| t.total(name))
}

fn layer_delta(t: &SharedTracer, before: &[f64; LAYERS.len()]) -> [f64; LAYERS.len()] {
    let now = layer_totals(t);
    std::array::from_fn(|i| now[i] - before[i])
}

/// Builds the backend `Solver::new` would build for `s`, wrapped in
/// [`Timed`], and records its build time and factor size.
fn timed_default_backend(
    tracer: &SharedTracer,
    p: &CsrMatrix,
    a: &CsrMatrix,
    sigma: f64,
    rho: &[f64],
    s: &Settings,
) -> Result<Box<dyn KktBackend>, SolverError> {
    let start = Instant::now();
    let backend: Box<dyn KktBackend> = match s.linsys {
        LinSysKind::DirectLdlt => {
            let b = DirectLdltBackend::with_ordering(p, a, sigma, rho, s.ordering)?;
            lock(tracer).l_nnz += b.l_nnz();
            Box::new(Timed::new(b, Arc::clone(tracer)))
        }
        LinSysKind::CpuPcg => {
            let b = CpuPcgBackend::with_threads(
                p,
                a,
                sigma,
                rho,
                cg_start(s),
                s.cg_max_iter,
                s.resolved_threads(),
            );
            Box::new(Timed::new(b, Arc::clone(tracer)))
        }
    };
    lock(tracer).leaf("linsys.backend_build", start, Instant::now());
    Ok(backend)
}

/// `setups` timed `Solver::new` calls, then one timed `solve` of the last
/// solver built: set-up and solve samples (normalized by `probe`, if given)
/// and the result.
fn one_solve(
    qp: &QpProblem,
    settings: &Settings,
    tracer: Option<&SharedTracer>,
    mut probe: Option<&mut Probe>,
    setups: usize,
) -> Result<(Vec<Sample>, Sample, SolveResult), SolverError> {
    let mut samples = Vec::with_capacity(setups);
    for _ in 1..setups {
        let t0 = Instant::now();
        let solver = Solver::new(qp, settings.clone())?;
        samples.push(Sample::new(t0.elapsed().as_secs_f64(), probe.as_deref_mut()));
        drop(solver);
    }
    let t0 = Instant::now();
    let mut solver = match tracer {
        None => Solver::new(qp, settings.clone())?,
        Some(tr) => {
            let span = lock(tr).open("solver.setup");
            let built = Solver::with_backend(qp, settings.clone(), &mut |p, a, sigma, rho, s| {
                timed_default_backend(tr, p, a, sigma, rho, s)
            });
            lock(tr).close(span);
            built?
        }
    };
    samples.push(Sample::new(t0.elapsed().as_secs_f64(), probe.as_deref_mut()));
    let span = tracer.map(|tr| lock(tr).open("solver.solve"));
    let t1 = Instant::now();
    let result = solver.solve();
    let solve = t1.elapsed().as_secs_f64();
    if let (Some(tr), Some(id)) = (tracer, span) {
        lock(tr).close(id);
    }
    Ok((samples, Sample::new(solve, probe), result?))
}

/// One timed sample: seconds as measured, and normalized to the reference
/// speed (equal to the measured seconds when no probe ran).
#[derive(Debug, Clone, Copy)]
struct Sample {
    raw: f64,
    norm: f64,
}

impl Sample {
    fn new(raw: f64, probe: Option<&mut Probe>) -> Self {
        Sample { raw, norm: probe.map_or(raw, |p| p.sample(raw)) }
    }
}

/// Untraced samples of the same work: the best measured time, for the
/// set-up closure and the notes, and the median normalized time, for the
/// end-to-end metrics.
#[derive(Debug, Default, Clone)]
struct Samples(Vec<Sample>);

impl Samples {
    fn best_raw(&self) -> f64 {
        best(&self.0.iter().map(|s| s.raw).collect::<Vec<_>>())
    }

    fn median_norm(&self) -> f64 {
        median(&self.0.iter().map(|s| s.norm).collect::<Vec<_>>())
    }
}

/// Untraced samples of one one-shot instance, and its iteration counts.
#[derive(Debug, Default, Clone)]
struct InstanceSamples {
    setup: Samples,
    solve: Samples,
    iters: usize,
    cg: usize,
}

/// Layer readings of one traced unit. Times and counts are per pass for
/// one-shot workloads and per warm step for sessions.
#[derive(Debug, Default, Clone)]
struct TracedUnit {
    /// Wall time of the whole unit.
    wall: f64,
    /// Time inside `Solver::solve`.
    solve: f64,
    kkt: f64,
    rho: f64,
    update: f64,
    /// Backend construction inside set-up (whole unit).
    build: f64,
    /// Solve time of a session's first step.
    first_solve: f64,
    admm_iters: f64,
    rho_updates: f64,
    cg_iters: f64,
    kkt_solves: f64,
    factorizations: f64,
    /// Median of step wall time minus solve time.
    step_overhead: f64,
    /// Machine counters summed over `steps` warm steps.
    arch: RunStats,
    steps: f64,
    fpga_modeled: f64,
}

fn best_of(units: &[TracedUnit], f: impl Fn(&TracedUnit) -> f64) -> f64 {
    best(&units.iter().map(f).collect::<Vec<_>>())
}

/// The per-layer metrics shared by every workload, with the set-up closure
/// and the traced/untraced ratio.
fn layer_metrics(
    out: &mut Outcome,
    units: &[TracedUnit],
    plain_walls: &[f64],
    replays: &Replays,
    setup_layers: f64,
    plain_setup: f64,
    plain_solve: f64,
) {
    let m = |f: &dyn Fn(&TracedUnit) -> f64| best_of(units, f);
    let (kkt, rho, update, solve) =
        (m(&|u| u.kkt), m(&|u| u.rho), m(&|u| u.update), m(&|u| u.solve));
    let cg_iters = m(&|u| u.cg_iters);
    out.metric("solver.admm_iters", m(&|u| u.admm_iters), "count");
    out.metric("solver.rho_updates", m(&|u| u.rho_updates), "count");
    out.metric("solver.kkt_s", kkt, "s");
    out.metric("solver.rho_refresh_s", rho, "s");
    out.metric("solver.backend_update_s", update, "s");
    out.metric("solver.kkt_frac", ratio(kkt, solve), "ratio");
    // Backend updates run in `update_matrices`, before `Solver::solve`, so
    // they are step overhead; only KKT solves and ρ refreshes are inside.
    out.metric("solver.driver_self_s", solve - kkt - rho, "s");
    out.metric("solver.scaling_s", replays.scaling_s, "s");
    out.metric("linsys.backend_build_s", m(&|u| u.build), "s");
    out.metric("linsys.ordering_s", replays.ordering_s, "s");
    out.metric("linsys.l_nnz", replays.l_nnz as f64, "count");
    out.metric("linsys.factor_s", replays.factor_s, "s");
    out.metric("linsys.refactor_s", replays.refactor_s, "s");
    out.metric("linsys.ldlt_solve_s", replays.ldlt_solve_s, "s");
    out.metric("linsys.factorizations", m(&|u| u.factorizations), "count");
    out.metric("linsys.cg_iters", cg_iters, "count");
    out.metric("linsys.cg_per_kkt", ratio(cg_iters, m(&|u| u.kkt_solves)), "count");
    out.metric("linsys.cg_iter_s", ratio(kkt, cg_iters), "s");
    out.metric("linsys.kkt_apply_s", replays.kkt_apply_s, "s");
    out.metric("sparse.spmv_s", replays.spmv_s, "s");
    out.metric("sparse.at_spmv_s", replays.at_spmv_s, "s");
    out.metric("runtime.step_overhead_s", m(&|u| u.step_overhead), "s");
    // Driver self time is the rest of the traced solve, so KKT + ρ + driver
    // self meets the untraced solve exactly when tracing leaves the work
    // unchanged, which is what the traced/untraced ratio checks.
    let traced_wall = m(&|u| u.wall);
    let plain_wall = best(plain_walls);
    out.banded("trace.overhead_ratio", ratio(traced_wall, plain_wall), RATIO_BAND);
    out.banded("closure.setup", ratio(setup_layers, plain_setup), RATIO_BAND);
    out.notes.push(format!(
        "closure: set-up layers {setup_layers:.6} s vs untraced set-up {plain_setup:.6} s; \
         traced solve {solve:.6} s = kkt {kkt:.6} + rho {rho:.6} + driver self {:.6}, \
         untraced solve {plain_solve:.6} s; traced/untraced unit {traced_wall:.6}/{plain_wall:.6} s",
        solve - kkt - rho
    ));
}

/// Zero-valued metrics for layers a workload never enters.
fn absent_layers(out: &mut Outcome, session: bool) {
    if !session {
        out.metric("core.customize_s", 0.0, "s");
        out.metric("core.eta_custom", 0.0, "ratio");
        out.metric("core.cache_hits", 0.0, "count");
        out.metric("core.cache_misses", 0.0, "count");
    }
    arch_metrics(out, &[]);
}

fn arch_metrics(out: &mut Outcome, units: &[TracedUnit]) {
    // Machine counters per warm step.
    let m = |f: &dyn Fn(&RunStats) -> u64| best_of(units, |u| ratio(f(&u.arch) as f64, u.steps));
    let cycles = m(&|a| a.cycles);
    out.metric("arch.cycles", cycles, "count");
    out.metric("arch.cycles.spmv", m(&|a| a.breakdown.spmv), "count");
    out.metric("arch.cycles.vector", m(&|a| a.breakdown.vector), "count");
    out.metric("arch.cycles.duplication", m(&|a| a.breakdown.duplication), "count");
    out.metric("arch.cycles.scalar", m(&|a| a.breakdown.scalar), "count");
    out.metric("arch.cycles.transfer", m(&|a| a.breakdown.transfer), "count");
    out.metric("arch.cycles.control", m(&|a| a.breakdown.control), "count");
    out.metric("arch.hbm_bytes", m(&|a| a.hbm_bytes), "bytes");
    out.metric("arch.loop_trips", m(&|a| a.loop_trips), "count");
    let m = |f: &dyn Fn(&TracedUnit) -> f64| best_of(units, f);
    let sim = if units.is_empty() { 0.0 } else { m(&|u| u.kkt) };
    out.metric("arch.sim_s", sim, "s");
    out.metric("arch.sim_ns_per_cycle", ratio(sim * 1e9, cycles), "ns");
    out.metric("arch.fpga_modeled_s", m(&|u| u.fpga_modeled), "model_s");
}

/// Replays the public calls once more, keeping each call's best round.
fn replay_round(
    best: &mut Option<Replays>,
    problems: &[&QpProblem],
    settings: &Settings,
    with_customize: bool,
) {
    let r = replay(problems, settings, with_customize);
    *best = Some(best.map_or(r, |b| b.best(r)));
}

/// `oneshot_ldlt` / `oneshot_pcg`: cold `Solver::new` + `solve` on each
/// suite instance, repeated in passes.
pub fn oneshot(spec: RunSpec, kind: LinSysKind) -> (Outcome, Option<Tracer>) {
    let instances = match kind {
        LinSysKind::DirectLdlt => relabelled_instances(spec.seed),
        LinSysKind::CpuPcg => suite_instances(),
    };
    let settings = Settings { linsys: kind, ..Settings::default() };
    let setups = if kind == LinSysKind::CpuPcg { PCG_SETUPS } else { 1 };
    let mut out = Outcome::default();
    let mut exact = Exactness::default();
    let tracer = Tracer::shared();
    let mut plain_walls = Vec::new();
    let mut traced_units = Vec::new();
    let mut objectives = vec![(f64::NAN, f64::INFINITY); instances.len()];
    // Untraced set-up and solve samples of each instance, and its counts.
    let mut per_instance = vec![InstanceSamples::default(); instances.len()];
    let problems: Vec<&QpProblem> = instances.iter().collect();
    let mut replays = None;
    let mut probe = Probe::default();
    let start = Instant::now();
    let mut k = 0;
    while let Some(traced) = spec.next_unit(k, start) {
        k += 1;
        let tr = traced.then_some(&tracer);
        let unit_span = tr.map(|t| lock(t).open("bench.pass"));
        let before = layer_totals(&tracer);
        let l_nnz_before = lock(&tracer).l_nnz;
        if !traced {
            probe.start();
        }
        let probe_before = probe.spent;
        // Time of the extra set-ups a plain pass makes, left out of its wall.
        let mut extra_setups = 0.0;
        let unit_start = Instant::now();
        let mut u = TracedUnit { steps: 1.0, ..TracedUnit::default() };
        for (i, qp) in instances.iter().enumerate() {
            out.attempted += 1;
            let (probe, setups) = if traced { (None, 1) } else { (Some(&mut probe), setups) };
            match one_solve(qp, &settings, tr, probe, setups) {
                Ok((setup, solve, r)) => {
                    let (_, extras) = setup.split_last().expect("at least one set-up");
                    extra_setups += extras.iter().map(|s| s.raw).sum::<f64>();
                    u.solve += solve.raw;
                    let gap = verify(&mut out, qp.name(), qp, &r, &settings);
                    exact.check(qp.name(), solve_counts(&r), &mut out);
                    objectives[i] = (r.objective, gap);
                    if !traced {
                        let row = &mut per_instance[i];
                        row.setup.0.extend(setup);
                        row.solve.0.push(solve);
                        (row.iters, row.cg) = (r.iterations, r.backend.cg_iterations);
                    }
                    u.admm_iters += r.iterations as f64;
                    u.rho_updates += r.rho_updates as f64;
                    u.cg_iters += r.backend.cg_iterations as f64;
                    u.kkt_solves += r.backend.kkt_solves as f64;
                    u.factorizations += r.backend.factorizations as f64;
                }
                Err(e) => out.fail(format!("{}: {e}", qp.name())),
            }
        }
        u.wall = unit_start.elapsed().as_secs_f64() - (probe.spent - probe_before) - extra_setups;
        if let Some(id) = unit_span {
            lock(&tracer).close(id);
        }
        if traced {
            let d = layer_delta(&tracer, &before);
            (u.kkt, u.rho, u.update, u.build) = (d[0], d[1], d[2], d[3]);
            let l_nnz = lock(&tracer).l_nnz - l_nnz_before;
            exact.check("pass", vec![("l_nnz", l_nnz as u64)], &mut out);
            traced_units.push(u);
            replay_round(&mut replays, &problems, &settings, false);
        } else {
            plain_walls.push(u.wall);
        }
    }
    for ((qp, InstanceSamples { setup, solve, iters, cg }), (f, gap)) in
        instances.iter().zip(&per_instance).zip(&objectives)
    {
        out.notes.push(format!(
            "{}: set-up {:.6} s, solve {:.6} s (best measured), {:.6} s, {:.6} s (median \
             normalized), {iters} ADMM / {cg} CG iterations, objective {f:.9e}, duality gap {gap:.3e}",
            qp.name(),
            setup.best_raw(),
            solve.best_raw(),
            setup.median_norm(),
            solve.median_norm(),
        ));
    }
    cross_check(&mut out, &instances, kind, &objectives);

    if spec.trace {
        let replays = replays.unwrap_or_default();
        // `Solver::new`: copy the problem, scale it, build the backend and
        // the Aᵀ cache.
        let setup_layers = replays.copy_s
            + replays.scaling_s
            + replays.at_build_s
            + match kind {
                LinSysKind::DirectLdlt => {
                    replays.ordering_s + replays.assembly_s + replays.factor_s
                }
                LinSysKind::CpuPcg => best_of(&traced_units, |u| u.build),
            };
        layer_metrics(
            &mut out,
            &traced_units,
            &plain_walls,
            &replays,
            setup_layers,
            per_instance.iter().map(|row| row.setup.best_raw()).sum(),
            per_instance.iter().map(|row| row.solve.best_raw()).sum(),
        );
        absent_layers(&mut out, false);
    } else {
        // Each instance's median; the one-shot "steps" are its solves.
        let setup_s = per_instance.iter().map(|row| row.setup.median_norm()).sum();
        let solves: Vec<f64> = per_instance.iter().map(|row| row.solve.median_norm()).collect();
        out.metric("setup_s", setup_s, "s");
        out.metric("solve_s", solves.iter().sum(), "s");
        out.metric("step_p50_s", quantile(&solves, 0.5), "s");
        out.metric("step_p90_s", quantile(&solves, 0.9), "s");
    }
    out.notes.push(format!("{} passes ({} traced)", k, traced_units.len()));
    let spans = spec.trace.then(|| Arc::try_unwrap(tracer).ok()).flatten();
    (out, spans.map(|m| m.into_inner().expect("no tracer user panicked")))
}

/// Solves every instance once with the other CPU backend, outside the
/// clock, and requires the objectives to agree.
fn cross_check(
    out: &mut Outcome,
    instances: &[QpProblem],
    kind: LinSysKind,
    objectives: &[(f64, f64)],
) {
    let other = match kind {
        LinSysKind::DirectLdlt => LinSysKind::CpuPcg,
        LinSysKind::CpuPcg => LinSysKind::DirectLdlt,
    };
    let settings = Settings { linsys: other, ..Settings::default() };
    for (qp, &(f, gap)) in instances.iter().zip(objectives) {
        match Solver::new(qp, settings.clone()).and_then(|mut s| s.solve()) {
            Ok(r) => {
                let other_gap = residuals(qp, &r.x, &r.y, settings.eps_abs, settings.eps_rel).gap;
                if r.status != Status::Solved || !objectives_agree(f, gap, r.objective, other_gap) {
                    out.fail(format!(
                        "{}: objective {f} (gap {gap:.3e}) disagrees with the other backend's {} \
                         (gap {other_gap:.3e}, {})",
                        qp.name(),
                        r.objective,
                        r.status
                    ));
                }
            }
            Err(e) => out.fail(format!("{}: cross-check solve failed: {e}", qp.name())),
        }
    }
}

/// Which session workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionKind {
    /// `mpc_session`: default LDLᵀ backend, bounds updates.
    Mpc,
    /// `backtest_fpga`: simulated-FPGA backend, matrix and cost updates.
    Backtest,
}

/// The backend factory a session workload installs: the simulated FPGA
/// for the backtest (plain or timed), or for a traced MPC session the
/// timed replica of the session's cached-ordering LDLᵀ path. `None` keeps
/// the session's own backend choice.
fn session_factory(
    kind: SessionKind,
    cache: &Arc<CustomizationCache>,
    tracer: Option<&SharedTracer>,
) -> Option<BackendFactory> {
    let cache = Arc::clone(cache);
    let tracer = tracer.cloned();
    let artifacts = move |p: &CsrMatrix, a: &CsrMatrix| {
        cache
            .peek(&PatternKey::new(p, a))
            .ok_or_else(|| SolverError::Backend("pattern missing from the cache".into()))
    };
    match (kind, tracer) {
        (SessionKind::Mpc, None) => None,
        (SessionKind::Mpc, Some(tr)) => Some(Box::new(move |p, a, sigma, rho, _s| {
            let start = Instant::now();
            let perm = artifacts(p, a)?
                .kkt_perm
                .clone()
                .ok_or_else(|| SolverError::Backend("no cached ordering".into()))?;
            let b = DirectLdltBackend::with_permutation(p, a, sigma, rho, perm)?;
            let mut t = lock(&tr);
            t.l_nnz += b.l_nnz();
            t.leaf("linsys.backend_build", start, Instant::now());
            drop(t);
            Ok(Box::new(Timed::new(b, Arc::clone(&tr))) as Box<dyn KktBackend>)
        })),
        (SessionKind::Backtest, tr) => Some(Box::new(move |p, a, sigma, rho, s| {
            let start = Instant::now();
            let config = artifacts(p, a)?.customization.config.clone();
            let (b, _machine) =
                FpgaPcgBackend::new(p, a, sigma, rho, config, cg_start(s), s.cg_max_iter);
            Ok(match &tr {
                None => Box::new(b) as Box<dyn KktBackend>,
                Some(tr) => {
                    let mut t = lock(tr);
                    t.outer_cycles = b.outer_cycles_per_iteration();
                    t.machine = b.machine_stats();
                    t.leaf("linsys.backend_build", start, Instant::now());
                    drop(t);
                    Box::new(Timed::new(b, Arc::clone(tr)))
                }
            })
        })),
    }
}

/// Checks one session step; returns the solve result when it ran.
fn verify_step(
    out: &mut Outcome,
    label: &str,
    session: &SolveSession,
    report: Result<StepReport, SolverError>,
    settings: &Settings,
    expect_hit: bool,
) -> Option<SolveResult> {
    match report {
        Ok(rep) => {
            verify(out, label, session.problem(), &rep.result, settings);
            if rep.attempts.len() != 1 || rep.cache_hit != expect_hit {
                out.fail(format!(
                    "{label}: {} attempts, cache hit {} (expected {expect_hit})",
                    rep.attempts.len(),
                    rep.cache_hit
                ));
            }
            Some(rep.result)
        }
        Err(e) => {
            out.fail(format!("{label}: {e}"));
            None
        }
    }
}

/// `mpc_session` / `backtest_fpga`: whole sessions (open, first step,
/// [`SESSION_STEPS`] warm steps), each on a fresh cache.
pub fn session(spec: RunSpec, kind: SessionKind) -> (Outcome, Option<Tracer>) {
    let (problem, updates): (QpProblem, Vec<Vec<StepUpdate>>) = match kind {
        SessionKind::Mpc => {
            let (plant, steps) = mpc_inputs(spec.seed, SESSION_STEPS);
            (plant, steps.into_iter().map(|u| vec![u]).collect())
        }
        SessionKind::Backtest => backtest_inputs(spec.seed, SESSION_STEPS),
    };
    let problem = Arc::new(problem);
    let settings = Settings::default();
    let (n, m) = (problem.num_vars(), problem.num_constraints());
    let mut out = Outcome::default();
    let mut exact = Exactness::default();
    let tracer = Tracer::shared();
    // Untraced first-step samples, samples of each warm step and session
    // wall times.
    let (mut setups, mut plain_walls) = (Samples::default(), vec![]);
    let mut per_step = vec![Samples::default(); updates.len()];
    let mut traced_units = Vec::new();
    let mut eta_custom = 0.0;
    let mut cache_ledger = (0, 0);
    let mut iteration_counts = std::collections::BTreeMap::new();
    let mut session_work = (0, 0);
    let mut replays = None;
    let mut probe = Probe::default();
    let start = Instant::now();
    let mut k = 0;
    while let Some(traced) = spec.next_unit(k, start) {
        k += 1;
        let tr = traced.then_some(&tracer);
        let cache = Arc::new(CustomizationCache::new(4));
        let config =
            SessionConfig::default().with_settings(settings.clone()).with_cache(Arc::clone(&cache));
        let factory = session_factory(kind, &cache, tr);
        let unit_span = tr.map(|t| lock(t).open("runtime.session"));
        let first_span = tr.map(|t| lock(t).open("runtime.first_step"));
        let before_first = layer_totals(&tracer);
        if !traced {
            probe.start();
        }
        let probe_before = probe.spent;

        let t0 = Instant::now();
        let mut session = SolveSession::new(Arc::clone(&problem), config);
        if let Some(f) = factory {
            session = session.with_backend_factory(f);
        }
        let first = session.step(Vec::new());
        let setup = Sample::new(t0.elapsed().as_secs_f64(), (!traced).then_some(&mut probe));
        if let Some(id) = first_span {
            lock(&tracer).close(id);
        }
        out.attempted += 1;
        let first_build = layer_delta(&tracer, &before_first)[3];
        let Some(first) = verify_step(&mut out, "step 0", &session, first, &settings, false) else {
            continue;
        };
        exact.check("step 0", solve_counts(&first), &mut out);
        let artifacts = session.cached_artifacts().cloned();
        let model = artifacts.as_ref().map(|a| FpgaPerfModel::from_config(&a.customization.config));
        eta_custom = artifacts.as_ref().map_or(0.0, |a| a.customization.eta_custom);

        let mut u = TracedUnit {
            build: first_build,
            first_solve: first.timings.solve.as_secs_f64(),
            ..TracedUnit::default()
        };
        let before = layer_totals(&tracer);
        let mut warm = 0;
        let mut overhead = Vec::with_capacity(updates.len());
        let mut prev = first;
        for (i, step_updates) in updates.iter().enumerate() {
            let label = format!("step {}", i + 1);
            let batch = step_updates.clone();
            let machine_before = lock(&tracer).machine;
            let step_span = tr.map(|t| lock(t).open("runtime.step"));
            let t = Instant::now();
            let report = session.step(batch);
            let wall = t.elapsed().as_secs_f64();
            if let Some(id) = step_span {
                lock(&tracer).close(id);
            }
            let sample = Sample::new(wall, (!traced).then_some(&mut probe));
            out.attempted += 1;
            let Some(r) = verify_step(&mut out, &label, &session, report, &settings, true) else {
                continue;
            };
            exact.check(&label, solve_counts(&r), &mut out);
            warm += 1;
            if !traced {
                per_step[i].0.push(sample);
            }
            overhead.push(wall - r.timings.solve.as_secs_f64());
            u.solve += r.timings.solve.as_secs_f64();
            u.admm_iters += r.iterations as f64;
            if k == 1 {
                *iteration_counts.entry(r.iterations).or_insert(0usize) += 1;
            }
            // Solver and backend counters are cumulative over the session.
            u.rho_updates += (r.rho_updates - prev.rho_updates) as f64;
            let (b, pb) = (r.backend, prev.backend);
            u.cg_iters += (b.cg_iterations - pb.cg_iterations) as f64;
            u.kkt_solves += (b.kkt_solves - pb.kkt_solves) as f64;
            u.factorizations += (b.factorizations - pb.factorizations) as f64;
            if traced && kind == SessionKind::Backtest {
                let (machine, outer) = {
                    let t = lock(&tracer);
                    (t.machine, t.outer_cycles)
                };
                let delta = machine.since(machine_before);
                let modeled = model.map_or(0.0, |model| {
                    model.solve_time(delta, r.iterations, outer, n, m).as_secs_f64()
                });
                let c = delta.breakdown;
                exact.check(
                    &format!("{label} machine"),
                    vec![
                        ("cycles", delta.cycles),
                        ("spmv", c.spmv),
                        ("vector", c.vector),
                        ("duplication", c.duplication),
                        ("scalar", c.scalar),
                        ("transfer", c.transfer),
                        ("control", c.control),
                        ("loop_trips", delta.loop_trips),
                        ("hbm_bytes", delta.hbm_bytes),
                        ("fpga_modeled_bits", modeled.to_bits()),
                    ],
                    &mut out,
                );
                add_stats(&mut u.arch, delta);
                u.fpga_modeled += modeled;
            }
            prev = r;
        }
        session_work = (prev.backend.kkt_solves, prev.backend.cg_iterations);
        u.wall = t0.elapsed().as_secs_f64() - (probe.spent - probe_before);
        if let Some(id) = unit_span {
            lock(&tracer).close(id);
        }
        cache_ledger = (cache.hits(), cache.misses());
        exact.check(
            "cache",
            vec![
                ("hits", cache.hits()),
                ("misses", cache.misses()),
                ("eta_bits", eta_custom.to_bits()),
            ],
            &mut out,
        );
        if traced {
            // Everything per warm step.
            let d = layer_delta(&tracer, &before);
            let w = warm.max(1) as f64;
            (u.kkt, u.rho, u.update) = (d[0] / w, d[1] / w, d[2] / w);
            u.solve /= w;
            u.admm_iters /= w;
            u.rho_updates /= w;
            u.cg_iters /= w;
            u.kkt_solves /= w;
            u.factorizations /= w;
            u.step_overhead = median(&overhead);
            u.steps = w;
            u.fpga_modeled /= w;
            traced_units.push(u);
            replay_round(&mut replays, &[&problem], &settings, true);
        } else {
            setups.0.push(setup);
            plain_walls.push(u.wall);
        }
    }

    // Every session replays the same steps: take each step's median.
    let steps: Vec<f64> = per_step.iter().map(Samples::median_norm).collect();
    if spec.trace {
        let replays = replays.unwrap_or_default();
        // Set-up of a session is the cache miss (customize + ordering), the
        // solver's scaling, backend and Aᵀ cache, and the first solve.
        let first_solve = best_of(&traced_units, |u| u.first_solve);
        let build = best_of(&traced_units, |u| u.build);
        let setup_layers = replays.customize_s
            + replays.ordering_s
            + replays.scaling_s
            + replays.at_build_s
            + build
            + first_solve;
        layer_metrics(
            &mut out,
            &traced_units,
            &plain_walls,
            &replays,
            setup_layers,
            setups.best_raw(),
            per_step.iter().map(Samples::best_raw).sum::<f64>() / SESSION_STEPS as f64,
        );
        out.metric("core.customize_s", replays.customize_s, "s");
        out.metric("core.eta_custom", eta_custom, "ratio");
        out.metric("core.cache_hits", cache_ledger.0 as f64, "count");
        out.metric("core.cache_misses", cache_ledger.1 as f64, "count");
        if kind == SessionKind::Backtest {
            arch_metrics(&mut out, &traced_units);
        } else {
            absent_layers(&mut out, true);
        }
    } else {
        out.metric("setup_s", setups.median_norm(), "s");
        out.metric("solve_s", steps.iter().sum(), "s");
        out.metric("step_p50_s", quantile(&steps, 0.5), "s");
        out.metric("step_p90_s", quantile(&steps, 0.9), "s");
    }
    out.notes.push(format!(
        "{k} sessions of {SESSION_STEPS} warm steps ({} traced); warm steps by ADMM \
         iterations {iteration_counts:?}; a session solves {} KKT systems with {} CG iterations",
        traced_units.len(),
        session_work.0,
        session_work.1
    ));
    let spans = spec.trace.then(|| Arc::try_unwrap(tracer).ok()).flatten();
    (out, spans.map(|m| m.into_inner().expect("no tracer user panicked")))
}

fn add_stats(acc: &mut RunStats, d: RunStats) {
    acc.cycles += d.cycles;
    acc.instructions += d.instructions;
    acc.loop_trips += d.loop_trips;
    acc.hbm_bytes += d.hbm_bytes;
    let (b, e) = (&mut acc.breakdown, d.breakdown);
    b.spmv += e.spmv;
    b.vector += e.vector;
    b.duplication += e.duplication;
    b.scalar += e.scalar;
    b.transfer += e.transfer;
    b.control += e.control;
}
