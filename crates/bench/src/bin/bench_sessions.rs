//! Repeated-solve (MPC session) benchmark with a regression gate.
//!
//! Runs the paper's flagship repeated-solve workload — a 40-step linear MPC
//! sequence on the control family, where each step carries a new initial
//! state in through the bounds — two ways:
//!
//! * **session**: one [`SolveSession`] with a shared
//!   [`CustomizationCache`]: the solver, its equilibration, and the cached
//!   customization + symbolic LDLᵀ ordering persist across steps, and every
//!   step warm-starts from the previous solution;
//! * **cold**: a fresh [`Solver`] per step (re-running setup, symbolic
//!   analysis, and the full ADMM iteration from zero) — the cost a caller
//!   pays without the session layer.
//!
//! Each run measures 9 interleaved session/cold pairs (5 with `--quick`),
//! alternating which half of a pair runs first, and reports the median
//! over the pairs.
//! Both modes measure the control size recorded in the committed baseline
//! (8 when there is none), so the gate compares the same problem the
//! baseline measured.
//!
//! The exactly-once customization contract is asserted **on every
//! session** (with or without `--check`): a 40-step single-pattern sequence
//! must record `cache_misses == 1` and `cache_hits == 39`, and the session's
//! median per-step wall time must beat the cold baseline. Output is a flat
//! JSON map written to `BENCH_sessions.json`; with `--check`, the run
//! instead gates its dimensionless `speedup_*` metrics against that
//! committed baseline (25% regression band — raw nanoseconds are recorded
//! for inspection but not gated, since CI hosts differ).

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use rsqp_bench::median;
use rsqp_problems::control;
use rsqp_runtime::{CustomizationCache, SessionConfig, SolveSession, StepUpdate};
use rsqp_solver::{QpProblem, Settings, Solver, Status};

/// Baseline/output location, relative to the workspace root CI runs from.
const BASELINE: &str = "BENCH_sessions.json";
/// Gate: a speedup metric may not fall below this fraction of baseline.
const TOLERANCE: f64 = 0.75;
/// Steps in the MPC sequence; the ledger gate is tied to this.
const STEPS: u64 = 40;
/// Control-family size measured when no baseline names one.
const DEFAULT_SIZE: usize = 8;
/// Interleaved session/cold pairs the reported figures are medians over.
const QUICK_PAIRS: usize = 5;
const FULL_PAIRS: usize = 9;

struct Options {
    check: bool,
    quick: bool,
    update: bool,
}

fn parse_args() -> Options {
    let mut o = Options { check: false, quick: false, update: false };
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--check" => o.check = true,
            "--quick" => o.quick = true,
            "--update" => o.update = true,
            other => panic!("unknown option {other} (expected --check / --quick / --update)"),
        }
    }
    o
}

/// One benchmark report: insertion-ordered `(name, value)` pairs.
#[derive(Default)]
struct Report(Vec<(String, f64)>);

impl Report {
    fn push(&mut self, name: &str, value: f64) {
        self.0.push((name.to_string(), value));
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        for (i, (name, value)) in self.0.iter().enumerate() {
            let sep = if i + 1 == self.0.len() { "" } else { "," };
            out.push_str(&format!("  \"{name}\": {value:.3}{sep}\n"));
        }
        out.push_str("}\n");
        out
    }

    /// Minimal parser for the flat `{"name": number, ...}` maps this
    /// binary writes.
    fn from_json(text: &str) -> Report {
        let mut report = Report::default();
        for piece in text.split(',') {
            let Some((key, value)) = piece.split_once(':') else { continue };
            let key = key.trim().trim_start_matches(['{', '\n', ' ']).trim_matches('"');
            let value = value.trim().trim_end_matches(['}', '\n', ' ']);
            if let Ok(v) = value.parse::<f64>() {
                if !key.is_empty() {
                    report.push(key, v);
                }
            }
        }
        report
    }
}

/// The MPC step inputs: step `k` is control instance 1 with instance `k`'s
/// bounds, which carry its initial state (the first `nx` rows). Only bound
/// values change, so the pattern key is stable and the session and the cold
/// solves face the same 40 QPs. Step 1 is the instance the session opens
/// with.
fn step_problems(size: usize) -> Vec<QpProblem> {
    let base = control::generate(size, 1);
    (1..=STEPS)
        .map(|seed| {
            let mut problem = base.clone();
            if seed > 1 {
                let target = control::generate(size, seed);
                problem.update_bounds(target.l().to_vec(), target.u().to_vec()).unwrap();
            }
            problem
        })
        .collect()
}

/// Wall times and iteration totals of one session/cold pair.
#[derive(Default)]
struct Pair {
    session_ns: f64,
    session_first_step_ns: f64,
    session_iters: u64,
    cold_ns: f64,
    cold_iters: u64,
}

/// One session/cold pair: the 40 steps through one session (fresh
/// [`CustomizationCache`], persistent warm solver) and the same 40 steps
/// with a fresh [`Solver`] each. `session_first` picks which half runs
/// first, so warm-up and frequency drift do not always favour one side.
/// Only the steps themselves are timed; all inputs exist before the pair
/// starts.
fn run_pair(problems: &[QpProblem], settings: &Settings, session_first: bool) -> Pair {
    let mut pair = Pair::default();
    if session_first {
        run_session(problems, settings, &mut pair);
        run_cold(problems, settings, &mut pair);
    } else {
        run_cold(problems, settings, &mut pair);
        run_session(problems, settings, &mut pair);
    }
    pair
}

/// The session half of a pair. Asserts the exactly-once ledger: 40 steps
/// of one pattern touch the customization pipeline and the symbolic
/// analysis exactly once.
fn run_session(problems: &[QpProblem], settings: &Settings, pair: &mut Pair) {
    let cache = Arc::new(CustomizationCache::new(4));
    let config =
        SessionConfig::default().with_settings(settings.clone()).with_cache(Arc::clone(&cache));
    let mut session = SolveSession::new(problems[0].clone(), config);
    for (k, problem) in problems.iter().enumerate() {
        let updates = if k == 0 {
            Vec::new()
        } else {
            vec![StepUpdate::Bounds { l: problem.l().to_vec(), u: problem.u().to_vec() }]
        };
        let t = Instant::now();
        let step = session.step(updates).expect("session step");
        let ns = t.elapsed().as_nanos() as f64;
        pair.session_ns += ns;
        if k == 0 {
            pair.session_first_step_ns = ns;
        }
        assert_eq!(step.result.status, Status::Solved, "session step {} did not solve", k + 1);
        pair.session_iters += step.result.iterations as u64;
    }
    let snap = session.metrics().snapshot();
    assert_eq!(snap.counter("session_steps"), STEPS);
    assert_eq!(
        snap.counter("cache_misses"),
        1,
        "a single-pattern {STEPS}-step sequence must customize exactly once"
    );
    assert_eq!(snap.counter("cache_hits"), STEPS - 1);
    assert_eq!(cache.misses(), 1);
    assert_eq!(cache.hits(), STEPS - 1);
}

/// The cold half of a pair: a fresh solver per step.
fn run_cold(problems: &[QpProblem], settings: &Settings, pair: &mut Pair) {
    for (k, problem) in problems.iter().enumerate() {
        let t = Instant::now();
        let mut solver = Solver::new(problem, settings.clone()).expect("cold solver");
        let result = solver.solve().expect("cold solve");
        pair.cold_ns += t.elapsed().as_nanos() as f64;
        assert_eq!(result.status, Status::Solved, "cold step {} did not solve", k + 1);
        pair.cold_iters += result.iterations as u64;
    }
}

fn main() -> ExitCode {
    let opts = parse_args();
    // Both modes measure the control size of the committed baseline, so
    // the gate compares the same problem; quick mode only repeats less.
    let baseline = std::fs::read_to_string(BASELINE).ok().map(|text| Report::from_json(&text));
    let size =
        baseline.as_ref().and_then(|b| b.get("control_size")).map_or(DEFAULT_SIZE, |s| s as usize);
    let n_pairs = if opts.quick { QUICK_PAIRS } else { FULL_PAIRS };
    let settings = Settings::default();

    let problems = step_problems(size);
    let pairs: Vec<Pair> =
        (0..n_pairs).map(|i| run_pair(&problems, &settings, i % 2 == 0)).collect();
    let med = |f: &dyn Fn(&Pair) -> f64| median(pairs.iter().map(f).collect());
    let steps = STEPS as f64;
    // Iteration counts are deterministic: every pair repeats them exactly.
    let (session_iters, cold_iters) = (pairs[0].session_iters, pairs[0].cold_iters);
    assert!(
        pairs.iter().all(|p| (p.session_iters, p.cold_iters) == (session_iters, cold_iters)),
        "iteration counts varied between pairs"
    );

    let mut report = Report::default();
    report.push("steps", steps);
    report.push("control_size", size as f64);
    let session_total_ns = med(&|p| p.session_ns);
    report.push("session_total_ns", session_total_ns);
    report.push("session_first_step_ns", med(&|p| p.session_first_step_ns));
    report.push("session_mean_step_ns", session_total_ns / steps);
    // Steady state excludes the one miss step that pays customization.
    report.push(
        "session_steady_step_ns",
        med(&|p| (p.session_ns - p.session_first_step_ns) / (steps - 1.0)),
    );
    report.push("session_mean_iters", session_iters as f64 / steps);
    report.push("cache_misses", 1.0);
    report.push("cache_hits", steps - 1.0);
    let cold_total_ns = med(&|p| p.cold_ns);
    report.push("cold_total_ns", cold_total_ns);
    report.push("cold_mean_step_ns", cold_total_ns / steps);
    report.push("cold_mean_iters", cold_iters as f64 / steps);
    report.push("speedup_session_vs_cold", med(&|p| p.cold_ns / p.session_ns));

    // Sessions must pay off on their flagship workload, on every host.
    let (session_mean, cold_mean) = (session_total_ns / steps, cold_total_ns / steps);
    assert!(
        session_mean < cold_mean,
        "session mean step ({session_mean:.0} ns) is not below the cold baseline \
         ({cold_mean:.0} ns)"
    );

    println!(
        "bench_sessions results (control_{size:04}, {STEPS} steps, median of {n_pairs} \
         interleaved session/cold pairs):"
    );
    for (name, value) in &report.0 {
        println!("  {name:>26}: {value:.3}");
    }

    if opts.check && !opts.update {
        let Some(baseline) = baseline else {
            eprintln!("no committed baseline at {BASELINE}; run bench_sessions to create one");
            return ExitCode::FAILURE;
        };
        return check(&report, &baseline);
    }
    std::fs::write(BASELINE, report.to_json()).expect("write baseline");
    println!("wrote {BASELINE}");
    ExitCode::SUCCESS
}

fn check(current: &Report, baseline: &Report) -> ExitCode {
    let mut failures = 0;
    for (name, base) in &baseline.0 {
        if !name.starts_with("speedup_") || *base <= 0.0 {
            continue;
        }
        match current.get(name) {
            Some(now) if now >= base * TOLERANCE => {
                println!("OK   {name}: {now:.3} (baseline {base:.3})");
            }
            Some(now) => {
                eprintln!(
                    "FAIL {name}: {now:.3} fell below {:.3} (baseline {base:.3} x {TOLERANCE})",
                    base * TOLERANCE
                );
                failures += 1;
            }
            None => {
                println!("SKIP {name}: not measured in this run");
            }
        }
    }
    if failures > 0 {
        eprintln!("{failures} session speedup metric(s) regressed past the {TOLERANCE} band");
        ExitCode::FAILURE
    } else {
        println!("all gated metrics within tolerance");
        ExitCode::SUCCESS
    }
}
