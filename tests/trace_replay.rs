//! Trace-replay regression tests.
//!
//! A solve with telemetry enabled must produce the **same trace, byte for
//! byte**, every time. The timing-free golden form
//! ([`SolveTrace::golden_json`], which drops wall-clock spans and
//! per-iteration KKT nanoseconds) is committed under `tests/golden/` for
//! one control and one lasso instance; any change to the per-iteration residual sequences, PCG
//! iteration counts, ρ updates, or event stream shows up as a diff
//! against those files.
//!
//! To regenerate after an *intentional* numerical change:
//!
//! ```text
//! RSQP_BLESS=1 cargo test --test trace_replay
//! ```
//!
//! [`SolveTrace::golden_json`]: rsqp::solver::SolveTrace::golden_json

use std::fs;
use std::path::PathBuf;

use rsqp::problems::{generate, Domain};
use rsqp::solver::{CgTolerance, LinSysKind, Settings, Solver};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests").join("golden")
}

fn traced_settings() -> Settings {
    Settings {
        linsys: LinSysKind::CpuPcg,
        cg_tolerance: CgTolerance::Fixed(1e-8),
        trace: true,
        ..Settings::default()
    }
}

fn golden_json(domain: Domain, size: usize, seed: u64) -> String {
    let problem = generate(domain, size, seed);
    let mut solver = Solver::new(&problem, traced_settings()).unwrap();
    let result = solver.solve().unwrap();
    result.trace.expect("trace: true must yield a SolveTrace").golden_json()
}

fn check_replay(domain: Domain, size: usize, seed: u64, file: &str) {
    // Two repetitions must agree byte for byte before the committed
    // golden file even enters the picture.
    let runs: Vec<String> = (0..2).map(|_| golden_json(domain, size, seed)).collect();
    assert_eq!(
        runs[1], runs[0],
        "{file}: trace differs between two runs — the solve is not replay-stable"
    );

    let path = golden_dir().join(file);
    if std::env::var_os("RSQP_BLESS").is_some() {
        fs::create_dir_all(golden_dir()).unwrap();
        fs::write(&path, &runs[0]).unwrap();
        return;
    }
    let committed = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden trace {}: {e}\nbless it with: RSQP_BLESS=1 cargo test --test trace_replay",
            path.display()
        )
    });
    assert_eq!(
        committed, runs[0],
        "{file}: trace diverged from the committed golden file; if the numerical \
         change is intentional, re-bless with RSQP_BLESS=1 cargo test --test trace_replay"
    );
}

#[test]
fn control_trace_replays_byte_stable() {
    check_replay(Domain::Control, 4, 7, "trace_control.json");
}

#[test]
fn lasso_trace_replays_byte_stable() {
    check_replay(Domain::Lasso, 6, 7, "trace_lasso.json");
}
