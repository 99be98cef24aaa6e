//! Kernel and end-to-end benchmarks for the CPU hot path, with a
//! regression gate.
//!
//! Measures the layers the ADMM iteration spends its time in:
//!
//! * CSR SpMV, serial vs. pool-partitioned;
//! * `Aᵀx`, scatter kernel vs. the cached gather transpose;
//! * the reduced-KKT operator apply (Eq. 3), serial vs. 4-thread pool;
//! * a full Jacobi-preconditioned PCG solve, a fresh iterate and workspace
//!   per call vs. a reused workspace (both `pcg_with`);
//! * end-to-end PCG-backend solves of the largest control/lasso suite
//!   instances at 1 and 4 kernel threads;
//! * a telemetry-overhead check: the disabled-tracing solve path must stay
//!   within 2% of the default-settings baseline path (asserted in-process,
//!   same host, median of interleaved pairs), the traced path reported.
//!
//! Every parallel result is asserted **bit-identical** across pools of
//! 1, 2, and 8 threads before any number is reported.
//!
//! Output is a flat JSON map written to `BENCH_kernels.json`. With
//! `--check`, the run instead compares its dimensionless `speedup_*`
//! metrics against that committed baseline and fails when one falls below
//! 75% of its recorded value (a 25% regression band — raw nanosecond
//! metrics are recorded for inspection but not gated, since CI hosts
//! differ). Speedup metrics that need more cores than the host has are
//! recorded as absent and skipped by the gate.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use rsqp_bench::median;
use rsqp_linsys::{pcg_with, LinearOperator, LinsysError, PcgSettings, PcgWorkspace, ReducedKktOp};
use rsqp_par::{available_threads, ThreadPool};
use rsqp_problems::{generate, Domain};
use rsqp_solver::{CgTolerance, LinSysKind, QpProblem, Settings, Solver};
use rsqp_sparse::{CooMatrix, CsrMatrix, RowPartition, TransposeCache};

/// Baseline/output location, relative to the workspace root CI runs from.
const BASELINE: &str = "BENCH_kernels.json";
/// Gate: a speedup metric may not fall below this fraction of baseline.
const TOLERANCE: f64 = 0.75;
/// Gate: the disabled-telemetry solve may not stray more than this
/// fraction from the default-settings baseline path (same process, same
/// host, median ratio of interleaved pairs — so the band can be tight).
const TRACE_OVERHEAD_TOLERANCE: f64 = 0.02;
/// Pool sizes every kernel result must be bit-identical across.
const DETERMINISM_POOLS: [usize; 3] = [1, 2, 8];

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

/// Deterministic xorshift64* generator (the bench must not depend on an
/// RNG crate).
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Random sparse matrix with ~`per_row` entries per row.
fn random_csr(nrows: usize, ncols: usize, per_row: usize, rng: &mut Rng) -> CsrMatrix {
    let mut coo = CooMatrix::new(nrows, ncols);
    for i in 0..nrows {
        for _ in 0..per_row {
            coo.push(i, rng.below(ncols), rng.next_f64());
        }
    }
    coo.to_csr()
}

/// The reduced-KKT operator with Algorithm 2's Jacobi preconditioner
/// `diag(P) + σ + Σ_i ρ_i A_{i,·}²`, so the PCG timings measure CG
/// iterations rather than the factor of `K` the operator's own `M⁻¹`
/// would form on this matrix.
struct JacobiKkt {
    op: ReducedKktOp,
    inv_diag: Vec<f64>,
}

impl JacobiKkt {
    fn new(p: &CsrMatrix, a: &CsrMatrix, sigma: f64, rho: &[f64]) -> Self {
        let mut diag: Vec<f64> = (0..p.nrows()).map(|j| p.get(j, j) + sigma).collect();
        for (i, &r) in rho.iter().enumerate() {
            let (cols, vals) = a.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                diag[j] += r * v * v;
            }
        }
        let op = ReducedKktOp::new(p, a, sigma, rho).unwrap();
        JacobiKkt { op, inv_diag: diag.iter().map(|d| 1.0 / d).collect() }
    }
}

impl LinearOperator for JacobiKkt {
    fn dim(&self) -> usize {
        self.op.dim()
    }

    fn apply(&mut self, x: &[f64], y: &mut [f64]) -> Result<(), LinsysError> {
        self.op.apply(x, y)
    }

    fn precondition(&mut self, r: &[f64], d: &mut [f64]) {
        for ((di, &ri), &inv) in d.iter_mut().zip(r).zip(&self.inv_diag) {
            *di = ri * inv;
        }
    }
}

/// Diagonally dominant PSD band matrix (a well-conditioned `P`).
fn band_psd(n: usize, rng: &mut Rng) -> CsrMatrix {
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        coo.push(i, i, 4.0 + rng.next_f64().abs());
        if i + 1 < n {
            let v = 0.5 * rng.next_f64();
            coo.push(i, i + 1, v);
            coo.push(i + 1, i, v);
        }
    }
    coo.to_csr()
}

/// Best-of-`reps` wall time of `f`, in nanoseconds.
fn time_ns<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_nanos() as f64);
    }
    best
}

fn assert_bits_equal(name: &str, runs: &[Vec<f64>]) {
    for (i, run) in runs.iter().enumerate().skip(1) {
        assert_eq!(run.len(), runs[0].len(), "{name}: length mismatch across pools");
        for (j, (a, b)) in runs[0].iter().zip(run).enumerate() {
            assert!(
                a.to_bits() == b.to_bits(),
                "{name}: element {j} differs between pool sizes {} and {}: {a:?} vs {b:?}",
                DETERMINISM_POOLS[0],
                DETERMINISM_POOLS[i],
            );
        }
    }
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

fn main() -> ExitCode {
    let opts = parse_args();
    let cores = available_threads();
    let mut report = Report::default();
    report.push("host_cores", cores as f64);

    let (n, m, per_row, reps) =
        if opts.quick { (12_000, 14_000, 5, 5) } else { (20_000, 24_000, 7, 20) };

    let mut rng = Rng(0x5eed_cafe_f00d_beef);
    let a = random_csr(m, n, per_row, &mut rng);
    let p = band_psd(n, &mut rng);
    let x: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.37).sin()).collect();
    let xm: Vec<f64> = (0..m).map(|i| ((i as f64) * 0.53).cos()).collect();
    let rho = vec![0.1; m];

    // --- SpMV: serial vs. partitioned on a pool -------------------------
    let mut y = vec![0.0; m];
    let spmv_serial = time_ns(reps, || a.spmv(&x, &mut y).unwrap());
    report.push("spmv_serial_ns", spmv_serial);
    let par_threads = cores.clamp(1, 8);
    {
        let pool = ThreadPool::new(par_threads);
        let part = RowPartition::balanced(&a, par_threads * 2);
        let spmv_par = time_ns(reps, || a.spmv_partitioned(&x, &mut y, &pool, &part).unwrap());
        report.push("spmv_pool_ns", spmv_par);
        if cores >= 2 {
            report.push("speedup_spmv_pool", spmv_serial / spmv_par);
        }
    }

    // Determinism: partitioned SpMV across pools.
    let runs: Vec<Vec<f64>> = DETERMINISM_POOLS
        .iter()
        .map(|&t| {
            let pool = ThreadPool::new(t);
            let part = RowPartition::balanced(&a, 8);
            let mut out = vec![0.0; m];
            a.spmv_partitioned(&x, &mut out, &pool, &part).unwrap();
            out
        })
        .collect();
    assert_bits_equal("spmv_partitioned", &runs);

    // --- Aᵀx: scatter kernel vs. cached gather transpose ----------------
    let mut yt = vec![0.0; n];
    let at_scatter = time_ns(reps, || a.spmv_transpose(&xm, &mut yt).unwrap());
    report.push("at_scatter_ns", at_scatter);
    let cache = TransposeCache::new(&a);
    let at_gather = time_ns(reps, || cache.spmv(&xm, &mut yt).unwrap());
    report.push("at_gather_ns", at_gather);
    report.push("speedup_at_gather", at_scatter / at_gather);

    // --- Reduced-KKT apply: serial vs. 4-thread pool --------------------
    let kkt_serial = {
        let mut op = ReducedKktOp::new(&p, &a, 1e-6, &rho).unwrap();
        let mut out = vec![0.0; n];
        time_ns(reps, || op.apply(&x, &mut out).unwrap())
    };
    report.push("kkt_apply_serial_ns", kkt_serial);
    {
        let pool = Arc::new(ThreadPool::new(4.min(cores.max(1))));
        let mut op =
            ReducedKktOp::with_pool(Arc::new(p.clone()), Arc::new(a.clone()), 1e-6, &rho, pool)
                .unwrap();
        let mut out = vec![0.0; n];
        let kkt_pool = time_ns(reps, || op.apply(&x, &mut out).unwrap());
        report.push("kkt_apply_pool4_ns", kkt_pool);
        if cores >= 4 {
            report.push("speedup_kkt_apply_pool4", kkt_serial / kkt_pool);
        }
    }

    // Determinism: the operator apply across pools.
    let runs: Vec<Vec<f64>> = DETERMINISM_POOLS
        .iter()
        .map(|&t| {
            let pool = Arc::new(ThreadPool::new(t));
            let mut op =
                ReducedKktOp::with_pool(Arc::new(p.clone()), Arc::new(a.clone()), 1e-6, &rho, pool)
                    .unwrap();
            let mut out = vec![0.0; n];
            op.apply(&x, &mut out).unwrap();
            out
        })
        .collect();
    assert_bits_equal("reduced_kkt_apply", &runs);

    // --- Full PCG: per-call allocation vs. reused workspace -------------
    {
        let pcg_iters = if opts.quick { 30 } else { 60 };
        let settings = PcgSettings { eps: 1e-30, max_iter: pcg_iters };
        let mut op = JacobiKkt::new(&p, &a, 1e-6, &rho);
        let b: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.11).sin()).collect();
        let x0 = vec![0.0; n];
        let serial = ThreadPool::serial();
        // A fresh iterate and workspace per call, as a caller without a
        // long-lived workspace would pay.
        let pcg_alloc = time_ns(reps.min(8), || {
            let mut x = x0.clone();
            let mut ws = PcgWorkspace::new(n);
            pcg_with(&mut op, &b, &mut x, &settings, &mut ws, &serial).unwrap();
        });
        report.push("pcg_alloc_ns", pcg_alloc);
        let mut ws = PcgWorkspace::new(n);
        let mut xw = vec![0.0; n];
        let pcg_ws = time_ns(reps.min(8), || {
            xw.fill(0.0);
            pcg_with(&mut op, &b, &mut xw, &settings, &mut ws, &serial).unwrap();
        });
        report.push("pcg_ws_ns", pcg_ws);
        report.push("speedup_pcg_workspace", pcg_alloc / pcg_ws);
    }

    // --- End to end: largest control / lasso suite instances ------------
    for (domain, size, tag) in
        [(Domain::Control, 60usize, "control60"), (Domain::Lasso, 200usize, "lasso200")]
    {
        let problem = generate(domain, size, 7);
        let e2e_reps = if opts.quick { 1 } else { 3 };
        let mut times = [0.0f64; 2];
        let mut solutions: Vec<Vec<f64>> = Vec::new();
        for (slot, threads) in [(0usize, 1usize), (1, 4)] {
            let settings = Settings {
                linsys: LinSysKind::CpuPcg,
                threads,
                cg_tolerance: CgTolerance::Fixed(1e-7),
                adaptive_rho: false,
                ..Settings::default()
            };
            times[slot] = time_ns(e2e_reps, || {
                let mut solver = solve_setup(&problem, settings.clone());
                let result = solver.solve().expect("benchmark solve");
                if solutions.len() <= slot {
                    solutions.push(result.x);
                }
            });
        }
        report.push(&format!("e2e_{tag}_t1_ns"), times[0]);
        report.push(&format!("e2e_{tag}_t4_ns"), times[1]);
        if cores >= 4 {
            report.push(&format!("speedup_e2e_{tag}"), times[0] / times[1]);
        }
        assert_bits_equal(&format!("e2e_{tag}_solution"), &solutions);
    }

    // --- Telemetry overhead: disabled tracing rides the baseline path ---
    //
    // `Settings::default()` is exactly how the e2e baselines above were
    // measured before telemetry existed; `trace: false` names the
    // disabled-telemetry path explicitly. The two must be the same code
    // within measurement noise — if they ever diverge past the band (for
    // example because tracing became enabled by default, or the disabled
    // branch grew real work), this assert fires. `trace: true` is also
    // measured and reported for visibility, but not gated: enabling
    // telemetry legitimately costs a little.
    {
        let problem = generate(Domain::Lasso, 100, 7);
        let overhead_reps = if opts.quick { 12 } else { 18 };
        let with_trace = |trace: bool| Settings {
            linsys: LinSysKind::CpuPcg,
            threads: 1,
            cg_tolerance: CgTolerance::Fixed(1e-7),
            adaptive_rho: false,
            trace,
            ..Settings::default()
        };
        let baseline_settings = Settings {
            linsys: LinSysKind::CpuPcg,
            threads: 1,
            cg_tolerance: CgTolerance::Fixed(1e-7),
            adaptive_rho: false,
            ..Settings::default()
        };
        // One unmeasured warmup so neither gated slot pays first-touch
        // costs (page faults, allocator growth) on the clock.
        drop(solve_setup(&problem, baseline_settings.clone()).solve().expect("warmup solve"));
        // Each rep times the gated pair back to back, alternating which
        // runs first, then the traced slot; the gate reads the median of
        // the per-pair ratios, from which the host's slow phases cancel.
        let settings = [baseline_settings, with_trace(false), with_trace(true)];
        let mut ns = [Vec::new(), Vec::new(), Vec::new()];
        let mut traced = None;
        for rep in 0..overhead_reps {
            for slot in if rep % 2 == 0 { [0, 1, 2] } else { [1, 0, 2] } {
                let t = Instant::now();
                let mut solver = solve_setup(&problem, settings[slot].clone());
                let result = solver.solve().expect("overhead solve");
                ns[slot].push(t.elapsed().as_nanos() as f64);
                if slot == 2 {
                    traced = result.trace;
                }
            }
        }
        for (slot, name) in
            ["trace_baseline_ns", "trace_disabled_ns", "trace_enabled_ns"].iter().enumerate()
        {
            report.push(name, median(ns[slot].clone()));
        }
        let ratio = |slot: usize| median(ns[slot].iter().zip(&ns[0]).map(|(t, b)| t / b).collect());
        let overhead = ratio(1);
        report.push("trace_overhead_disabled", overhead);
        report.push("trace_overhead_enabled", ratio(2));
        assert!(
            (overhead - 1.0).abs() <= TRACE_OVERHEAD_TOLERANCE,
            "disabled-telemetry solve strayed more than {:.0}% from the baseline path: \
             median ratio of {overhead_reps} interleaved pairs {overhead:.4}",
            TRACE_OVERHEAD_TOLERANCE * 100.0,
        );
        let trace = traced.expect("trace: true must yield a SolveTrace");
        println!(
            "trace summary ({}): backend={} status={} iterations={} cg_total={} \
             spans={} events={}",
            trace.problem,
            trace.backend,
            trace.status,
            trace.iterations,
            trace.total_cg_iterations(),
            trace.spans.len(),
            trace.events.len(),
        );
    }

    println!("bench_kernels results ({} cores):", cores);
    for (name, value) in &report.0 {
        println!("  {name:>28}: {value:.3}");
    }

    if opts.check && !opts.update {
        return check(&report);
    }
    std::fs::write(BASELINE, report.to_json()).expect("write baseline");
    println!("wrote {BASELINE}");
    ExitCode::SUCCESS
}

fn solve_setup(problem: &QpProblem, settings: Settings) -> Solver {
    Solver::new(problem, settings).expect("benchmark problems are valid")
}

fn check(current: &Report) -> ExitCode {
    let Ok(text) = std::fs::read_to_string(BASELINE) else {
        eprintln!("no committed baseline at {BASELINE}; run bench_kernels to create one");
        return ExitCode::FAILURE;
    };
    let baseline = Report::from_json(&text);
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
                // Absent on this host (not enough cores) — recorded, not a
                // regression.
                println!("SKIP {name}: not measurable on this host");
            }
        }
    }
    if failures > 0 {
        eprintln!("{failures} kernel speedup metric(s) regressed past the {TOLERANCE} band");
        ExitCode::FAILURE
    } else {
        println!("all gated metrics within tolerance");
        ExitCode::SUCCESS
    }
}
