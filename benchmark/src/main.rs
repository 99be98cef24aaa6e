//! The RSQP benchmark: solve and step latency on four workloads, with
//! per-layer attribution measured from outside the crates.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload oneshot_ldlt --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Workloads, metrics and the layer map are described in
//! `benchmark/README.md` and `benchmark/layers.json`. The last line of
//! standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`; with
//! `--trace 0` it holds the end-to-end metrics, with `--trace 1` the
//! per-layer ones. Every run also writes a record (host, result and, when
//! traced, its spans) to `.bench_out/` under the working directory.

mod check;
mod host;
mod inputs;
mod reference;
mod replay;
mod report;
mod trace;
mod workloads;

use std::process::ExitCode;

use rsqp_solver::LinSysKind;

use crate::workloads::{oneshot, session, RunSpec, SessionKind};

/// The workloads, by the names `BENCHMARK.json` lists.
const WORKLOADS: [&str; 4] = ["oneshot_ldlt", "oneshot_pcg", "mpc_session", "backtest_fpga"];
/// Where run records go, relative to the working directory.
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: String,
    spec: RunSpec,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; expected one of {WORKLOADS:?}"));
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args { workload, spec: RunSpec { seed, seconds, trace } })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let host = host::Host::probe();
    println!("host: {}", host.summary());
    let (out, tracer) = match args.workload.as_str() {
        "oneshot_ldlt" => oneshot(args.spec, LinSysKind::DirectLdlt),
        "oneshot_pcg" => oneshot(args.spec, LinSysKind::CpuPcg),
        "mpc_session" => session(args.spec, SessionKind::Mpc),
        _ => session(args.spec, SessionKind::Backtest),
    };
    for note in &out.notes {
        println!("{}: {note}", args.workload);
    }
    for fault in &out.faults {
        println!("{}: FAULT {fault}", args.workload);
    }
    for warning in &out.warnings {
        println!("{}: WARNING {warning}", args.workload);
    }
    for m in &out.metrics {
        println!("{:>28} {:>16.9} {}", m.name, m.value, m.unit);
    }
    let line = out.result_line();
    let spans = tracer.map(|t| trace::spans_json(&t.spans));
    let record = format!(
        "{{\n\"workload\": \"{}\",\n\"seed\": {},\n\"seconds\": {},\n\"trace\": {},\n\
         \"host\": {},\n\"result\": {line},\n\"spans\": {}\n}}\n",
        args.workload,
        args.spec.seed,
        args.spec.seconds,
        u8::from(args.spec.trace),
        host.json(),
        spans.as_deref().unwrap_or("null"),
    );
    let path = format!(
        "{OUT_DIR}/{}-seed{}-trace{}.json",
        args.workload,
        args.spec.seed,
        u8::from(args.spec.trace)
    );
    if let Err(e) = std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, record)) {
        eprintln!("warning: could not write {path}: {e}");
    }
    println!("{line}");
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
