//! Kernel and end-to-end benchmarks for the CPU hot path, with a
//! regression gate.
//!
//! Measures the layers the ADMM iteration spends its time in:
//!
//! * CSR SpMV;
//! * `Aᵀx`, scatter kernel vs. the cached gather transpose;
//! * the reduced-KKT operator apply (Eq. 3);
//! * a full Jacobi-preconditioned PCG solve, a fresh iterate and workspace
//!   per call vs. a reused workspace (both `pcg_with`);
//! * the symmetric permutation of eqqp_0400's KKT matrix under AMD, a
//!   sort of every entry vs. the counting sort `SymmetricPermutation::new`
//!   runs;
//! * end-to-end PCG-backend solves of the largest control/lasso suite
//!   instances;
//! * a telemetry-overhead check: the disabled-tracing solve path may cost
//!   at most 2% more than the default-settings baseline path (asserted
//!   in-process, same host, median of interleaved pairs), the traced path
//!   reported.
//!
//! Output is a flat JSON map written to `BENCH_kernels.json`. With
//! `--check`, the run instead compares its dimensionless `speedup_*`
//! metrics against that committed baseline and fails when one falls below
//! 75% of its recorded value (a 25% regression band — raw nanosecond
//! metrics are recorded for inspection but not gated, since CI hosts
//! differ). A baseline speedup this build does not measure is skipped.

use std::process::ExitCode;
use std::time::Instant;

use rsqp_bench::median;
use rsqp_linsys::{
    amd_ordering, inverse_permutation, pcg_with, KktMatrix, LinearOperator, PcgSettings,
    PcgWorkspace, ReducedKktOp, SymmetricPermutation,
};
use rsqp_problems::{generate, Domain};
use rsqp_solver::{CgTolerance, LinSysKind, QpProblem, Settings, Solver};
use rsqp_sparse::{CooMatrix, CscMatrix, CsrMatrix, TransposeCache};

/// Baseline/output location, relative to the workspace root CI runs from.
const BASELINE: &str = "BENCH_kernels.json";
/// Gate: a speedup metric may not fall below this fraction of baseline.
const TOLERANCE: f64 = 0.75;
/// Gate: the disabled-telemetry solve may not cost more than this fraction
/// over the default-settings baseline path (same process, same host,
/// median ratio of interleaved pairs — so the band can be tight). Running
/// faster is not a regression.
const TRACE_OVERHEAD_TOLERANCE: f64 = 0.02;

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

/// `PᵀMP`'s upper triangle by sorting every entry's permuted `(column,
/// row, source slot)` triple, the reference the counting sort of
/// `SymmetricPermutation::new` replaced (the same arrays, slower).
fn sorted_symperm(upper: &CscMatrix, perm: &[usize]) -> CscMatrix {
    let n = perm.len();
    let new_of = inverse_permutation(perm).expect("a permutation");
    let mut entries = Vec::with_capacity(upper.nnz());
    for j in 0..n {
        for &i in upper.col(j).0 {
            let (a, b) = (new_of[i], new_of[j]);
            entries.push((a.max(b), a.min(b), entries.len()));
        }
    }
    entries.sort_unstable();
    let mut colptr = vec![0; n + 1];
    for &(col, _, _) in &entries {
        colptr[col + 1] += 1;
    }
    for j in 0..n {
        colptr[j + 1] += colptr[j];
    }
    let rowidx = entries.iter().map(|e| e.1).collect();
    let data = entries.iter().map(|e| upper.data()[e.2]).collect();
    CscMatrix::from_raw_parts(n, n, colptr, rowidx, data).expect("a valid permuted pattern")
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
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
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

    // --- SpMV ------------------------------------------------------------
    let mut y = vec![0.0; m];
    let spmv_serial = time_ns(reps, || a.spmv(&x, &mut y).unwrap());
    report.push("spmv_serial_ns", spmv_serial);

    // --- Aᵀx: scatter kernel vs. cached gather transpose ----------------
    let mut yt = vec![0.0; n];
    let at_scatter = time_ns(reps, || a.spmv_transpose(&xm, &mut yt).unwrap());
    report.push("at_scatter_ns", at_scatter);
    let cache = TransposeCache::new(&a);
    let at_gather = time_ns(reps, || cache.spmv(&xm, &mut yt).unwrap());
    report.push("at_gather_ns", at_gather);
    report.push("speedup_at_gather", at_scatter / at_gather);

    // --- Reduced-KKT apply ------------------------------------------------
    let kkt_serial = {
        let mut op = ReducedKktOp::new(&p, &a, 1e-6, &rho).unwrap();
        let mut out = vec![0.0; n];
        time_ns(reps, || op.apply(&x, &mut out).unwrap())
    };
    report.push("kkt_apply_serial_ns", kkt_serial);

    // --- Full PCG: per-call allocation vs. reused workspace -------------
    {
        let pcg_iters = if opts.quick { 30 } else { 60 };
        let settings = PcgSettings { eps: 1e-30, max_iter: pcg_iters };
        let mut op = ReducedKktOp::new(&p, &a, 1e-6, &rho).unwrap();
        let b: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.11).sin()).collect();
        let x0 = vec![0.0; n];
        // A fresh iterate and workspace per call, as a caller without a
        // long-lived workspace would pay.
        let pcg_alloc = time_ns(reps.min(8), || {
            let mut x = x0.clone();
            let mut ws = PcgWorkspace::new(n);
            pcg_with(&mut op, &b, &mut x, &settings, &mut ws).unwrap();
        });
        report.push("pcg_alloc_ns", pcg_alloc);
        let mut ws = PcgWorkspace::new(n);
        let mut xw = vec![0.0; n];
        let pcg_ws = time_ns(reps.min(8), || {
            xw.fill(0.0);
            pcg_with(&mut op, &b, &mut xw, &settings, &mut ws).unwrap();
        });
        report.push("pcg_ws_ns", pcg_ws);
        report.push("speedup_pcg_workspace", pcg_alloc / pcg_ws);
    }

    // --- Symmetric permutation: sort vs. counting sort -----------------
    {
        let qp = generate(Domain::Eqqp, 400, 1);
        let rho = vec![0.1; qp.a().nrows()];
        let kkt = KktMatrix::assemble(qp.p(), qp.a(), 1e-6, &rho).expect("a valid KKT matrix");
        let perm = amd_ordering(kkt.matrix()).expect("a square KKT matrix");
        let counted = SymmetricPermutation::new(kkt.matrix(), perm.clone()).expect("a permutation");
        assert_eq!(counted.matrix(), &sorted_symperm(kkt.matrix(), &perm), "the same arrays");
        // Each rep times the two back to back, and the gate reads the median
        // of the per-rep ratios, from which the host's slow phases cancel. A
        // rep costs about 10 ms, so both modes take the full count.
        let (mut sorted, mut counting) = (Vec::new(), Vec::new());
        for _ in 0..21 {
            sorted.push(time_ns(1, || drop(sorted_symperm(kkt.matrix(), &perm))));
            counting.push(time_ns(1, || {
                drop(SymmetricPermutation::new(kkt.matrix(), perm.clone()).expect("a permutation"));
            }));
        }
        let ratios = sorted.iter().zip(&counting).map(|(s, c)| s / c).collect();
        report.push("symperm_sort_ns", median(sorted));
        report.push("symperm_counting_ns", median(counting));
        report.push("speedup_symperm", median(ratios));
    }

    // --- End to end: largest control / lasso suite instances ------------
    for (domain, size, tag) in
        [(Domain::Control, 60usize, "control60"), (Domain::Lasso, 200usize, "lasso200")]
    {
        let problem = generate(domain, size, 7);
        let e2e_reps = if opts.quick { 1 } else { 3 };
        let settings = Settings {
            linsys: LinSysKind::CpuPcg,
            cg_tolerance: CgTolerance::Fixed(1e-7),
            adaptive_rho: false,
            ..Settings::default()
        };
        let time = time_ns(e2e_reps, || {
            let mut solver = solve_setup(&problem, settings.clone());
            solver.solve().expect("benchmark solve");
        });
        report.push(&format!("e2e_{tag}_t1_ns"), time);
    }

    // --- Telemetry overhead: disabled tracing rides the baseline path ---
    //
    // `Settings::default()` is exactly how the e2e baselines above were
    // measured before telemetry existed; `trace: false` names the
    // disabled-telemetry path explicitly. The two must be the same code
    // within measurement noise — if the disabled path ever costs more than
    // the band (for example because tracing became enabled by default, or
    // the disabled branch grew real work), this assert fires. A faster
    // disabled path is noise, not a regression, so the bound is one-sided.
    // `trace: true` is also measured and reported for visibility, but not
    // gated: enabling telemetry legitimately costs a little.
    {
        let problem = generate(Domain::Lasso, 100, 7);
        let overhead_reps = if opts.quick { 12 } else { 18 };
        let with_trace = |trace: bool| Settings {
            linsys: LinSysKind::CpuPcg,
            cg_tolerance: CgTolerance::Fixed(1e-7),
            adaptive_rho: false,
            trace,
            ..Settings::default()
        };
        let baseline_settings = Settings {
            linsys: LinSysKind::CpuPcg,
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
            overhead <= 1.0 + TRACE_OVERHEAD_TOLERANCE,
            "disabled-telemetry solve cost more than {:.0}% over the baseline path: \
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
                // A retired metric still in an old baseline: not a
                // regression.
                println!("SKIP {name}: not measured by this build");
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
