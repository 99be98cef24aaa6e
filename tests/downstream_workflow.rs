//! The "downstream user" workflow, end to end through the public facade:
//! generate a problem, persist it to disk, reload it, customize an
//! accelerator, emit the hardware bundle, and solve on all three backends.

use rsqp::core::bundle;
use rsqp::core::{customize, fpga_solver};
use rsqp::problems::io::{load_problem, save_problem};
use rsqp::problems::{generate, Domain};
use rsqp::solver::{LinSysKind, Settings, Solver, Status};

#[test]
fn save_load_customize_bundle_solve() {
    let qp = generate(Domain::Control, 4, 21);
    let dir = std::env::temp_dir().join("rsqp_downstream_workflow");
    let _ = std::fs::remove_dir_all(&dir);

    // 1. Persist and reload.
    save_problem(&qp, dir.join("problem")).expect("save");
    let loaded = load_problem(dir.join("problem")).expect("load");
    assert_eq!(loaded.p(), qp.p());
    assert_eq!(loaded.name(), qp.name());

    // 2. Customize and emit the hardware bundle.
    let custom = customize(&loaded, 16, 4);
    assert!(custom.eta_custom > custom.eta_baseline);
    let files = bundle::write_bundle(&loaded, &custom, dir.join("hw")).expect("bundle");
    assert_eq!(files, 8);
    // Control's KKT solve is the direct solve through the factor of K.
    assert_eq!(bundle::validate_rom(dir.join("hw/pcg.rom")).expect("rom"), 11);

    // 3. Solve on all three backends and compare objectives.
    let settings =
        Settings { eps_abs: 1e-5, eps_rel: 1e-5, max_iter: 20_000, ..Default::default() };
    let mut objectives = Vec::new();
    for kind in [LinSysKind::DirectLdlt, LinSysKind::CpuPcg] {
        let mut s =
            Solver::new(&loaded, Settings { linsys: kind, ..settings.clone() }).expect("setup");
        let r = s.solve().expect("solve");
        assert_eq!(r.status, Status::Solved, "{kind:?}");
        objectives.push(r.objective);
    }
    let mut s = fpga_solver(&loaded, settings, custom.config).expect("setup").solver;
    let r = s.solve().expect("solve");
    assert_eq!(r.status, Status::Solved);
    objectives.push(r.objective);

    let scale = 1.0 + objectives[0].abs();
    for w in objectives.windows(2) {
        assert!((w[0] - w[1]).abs() < 5e-3 * scale, "backend objectives disagree: {objectives:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
