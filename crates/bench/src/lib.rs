//! Shared measurement runner for the figure/table harnesses.
//!
//! Every evaluation figure of the paper compares, per benchmark problem,
//! some subset of:
//!
//! * the **CPU** solve (measured wall-clock of our Rust OSQP, PCG backend —
//!   the stand-in for OSQP+MKL, see `DESIGN.md`),
//! * the **GPU** solve (analytic cuOSQP model fed with the observed
//!   iteration counts),
//! * the **FPGA baseline** solve (simulated machine, uncustomized
//!   architecture),
//! * the **FPGA customized** solve (simulated machine, architecture from
//!   the §4 pipeline).
//!
//! [`measure_problem`] produces all four plus the η scores; the binaries
//! format different projections of the same record.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Duration;

use rsqp_arch::ArchConfig;
use rsqp_core::perf::fpga::FpgaPerfModel;
use rsqp_core::perf::gpu::GpuPerfModel;
use rsqp_core::{customize, fpga_solver, CustomizationResult, FpgaSolver};
use rsqp_problems::BenchmarkProblem;
use rsqp_solver::{LinSysKind, QpProblem, Settings, SolveResult, Solver};

/// All measurements for one benchmark problem.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Domain name (paper legend label).
    pub domain: &'static str,
    /// Problem name.
    pub name: String,
    /// `nnz(P) + nnz(A)` (the x-axis of every figure).
    pub nnz: usize,
    /// Decision variables.
    pub n: usize,
    /// Constraints.
    pub m: usize,
    /// Measured CPU solve time (PCG backend), the median of five solves.
    pub cpu_time: Duration,
    /// Fraction of CPU solve time inside the KKT solve (Figure 8).
    pub cpu_kkt_fraction: f64,
    /// ADMM iterations of the CPU solve.
    pub admm_iters: usize,
    /// Total inner CG iterations of the CPU solve.
    pub cg_iters: usize,
    /// Modeled GPU solve time.
    pub gpu_time: Duration,
    /// Modeled GPU power (W).
    pub gpu_power_w: f64,
    /// Simulated FPGA time, baseline architecture.
    pub fpga_base_time: Duration,
    /// Simulated FPGA time, customized architecture.
    pub fpga_custom_time: Duration,
    /// Customization report (η, resources, structure set).
    pub customization: CustomizationResult,
}

impl Measurement {
    /// Customization speedup (Figure 10): baseline / customized FPGA time.
    pub fn customization_speedup(&self) -> f64 {
        self.fpga_base_time.as_secs_f64() / self.fpga_custom_time.as_secs_f64()
    }

    /// Speedup of platform time `t` over the CPU baseline (Figure 11).
    pub fn speedup_over_cpu(&self, t: Duration) -> f64 {
        self.cpu_time.as_secs_f64() / t.as_secs_f64()
    }
}

/// Harness-wide options parsed from the command line.
#[derive(Debug, Clone, Copy)]
pub struct HarnessOptions {
    /// Benchmark sizes per domain (paper: 20; harness default lower so the
    /// simulated runs finish quickly — pass `--points 20` for the full
    /// sweep).
    pub points: usize,
    /// Datapath width `C` for the FPGA designs.
    pub c: usize,
    /// Structure budget `|S|_target`.
    pub s_target: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for HarnessOptions {
    fn default() -> Self {
        HarnessOptions { points: 6, c: 32, s_target: 4, seed: 42 }
    }
}

impl HarnessOptions {
    /// Parses `--points N`, `--c N`, `--starget N`, `--seed N` from argv.
    pub fn from_args() -> Self {
        let mut opts = HarnessOptions::default();
        let args: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i + 1 < args.len() {
            match args[i].as_str() {
                "--points" => opts.points = args[i + 1].parse().expect("--points takes an integer"),
                "--c" => opts.c = args[i + 1].parse().expect("--c takes an integer"),
                "--starget" => {
                    opts.s_target = args[i + 1].parse().expect("--starget takes an integer")
                }
                "--seed" => opts.seed = args[i + 1].parse().expect("--seed takes an integer"),
                other => panic!("unknown option {other}"),
            }
            i += 2;
        }
        opts
    }
}

fn solver_settings() -> Settings {
    Settings { eps_abs: 1e-3, eps_rel: 1e-3, max_iter: 4000, ..Default::default() }
}

/// Runs the CPU (measured) solve with the PCG backend.
pub fn solve_cpu(problem: &QpProblem) -> SolveResult {
    let mut solver =
        Solver::new(problem, Settings { linsys: LinSysKind::CpuPcg, ..solver_settings() })
            .expect("benchmark problems are valid");
    solver.solve().expect("CPU PCG backend does not fail")
}

/// Runs a simulated-FPGA solve under `config`, returning the solver result
/// and the modeled end-to-end time.
pub fn solve_fpga(problem: &QpProblem, config: &ArchConfig) -> (SolveResult, Duration) {
    let FpgaSolver { mut solver, machine, outer_cycles_per_iteration: outer } =
        fpga_solver(problem, solver_settings(), config.clone())
            .expect("benchmark problems are valid");
    let result = solver.solve().expect("FPGA backend does not fail");
    let stats = machine.borrow().stats();
    let model = FpgaPerfModel::from_config(config);
    let time = model.solve_time(
        stats,
        result.iterations,
        outer,
        problem.num_vars(),
        problem.num_constraints(),
    );
    (result, time)
}

/// Median of `v` (the mean of the two middle values for an even length).
pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// CPU solves timed per problem; [`Measurement::cpu_time`] is their median.
const CPU_SOLVES: usize = 5;

/// Produces the full [`Measurement`] for one benchmark problem.
///
/// The CPU time is the median of five solves, since one solve's
/// wall time moves by tens of percent between runs; the iteration counts
/// and the KKT fraction come from the first, the counts being the same in
/// every solve.
pub fn measure_problem(bp: &BenchmarkProblem, opts: &HarnessOptions) -> Measurement {
    let problem = &bp.problem;
    let cpu = solve_cpu(problem);
    let mut cpu_times: Vec<Duration> = std::iter::once(cpu.timings.solve)
        .chain((1..CPU_SOLVES).map(|_| solve_cpu(problem).timings.solve))
        .collect();
    cpu_times.sort_unstable();
    let gpu_model = GpuPerfModel::rtx3070();
    let gpu_time = gpu_model.solve_time(
        cpu.iterations,
        cpu.backend.cg_iterations,
        problem.num_vars(),
        problem.num_constraints(),
        problem.total_nnz(),
    );

    let customization = customize(problem, opts.c, opts.s_target);
    let (_, fpga_custom_time) = solve_fpga(problem, &customization.config);
    let (_, fpga_base_time) = solve_fpga(problem, &customization.baseline);

    Measurement {
        domain: bp.domain.name(),
        name: problem.name().to_string(),
        nnz: problem.total_nnz(),
        n: problem.num_vars(),
        m: problem.num_constraints(),
        cpu_time: cpu_times[CPU_SOLVES / 2],
        cpu_kkt_fraction: cpu.timings.kkt_fraction(),
        admm_iters: cpu.iterations,
        cg_iters: cpu.backend.cg_iterations,
        gpu_time,
        gpu_power_w: gpu_model.power_w(problem.total_nnz()),
        fpga_base_time,
        fpga_custom_time,
        customization,
    }
}

/// Figure/table builders.
pub mod figures;

/// Ensures the `results/` output directory exists and returns the path of
/// `results/<name>`.
pub fn results_path(name: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir).expect("can create results directory");
    dir.join(name)
}
