//! Single-precision emulation: the PCG kernel still converges (to f32-level
//! tolerances) when every datapath result is rounded to `f32`, matching the
//! paper's single-precision hardware.

use rsqp_arch::kernels::build_pcg;
use rsqp_arch::{ArchConfig, Machine};
use rsqp_sparse::CsrMatrix;

fn run_pcg(single: bool, eps: f64) -> Vec<f64> {
    let pm = CsrMatrix::from_dense(&[vec![4.0, 1.0], vec![1.0, 2.0]]);
    let am = CsrMatrix::from_dense(&[vec![1.0, 1.0], vec![1.0, 0.0]]);
    let atm = am.transpose();
    let config = ArchConfig::baseline(4).with_single_precision(single);
    let mut machine = Machine::new(config);
    let p = machine.add_matrix(&pm);
    let a = machine.add_matrix(&am);
    let at = machine.add_matrix(&atm);
    let k = build_pcg(&mut machine, p, a, at, 2, 2, 500);
    machine.write_vec(k.q, &[1.0, -1.0]);
    machine.write_vec(k.z, &[0.3, 0.4]);
    machine.write_vec(k.y, &[-0.1, 0.2]);
    machine.write_vec(k.rho_vec, &[0.5, 0.25]);
    // Jacobi diag for this instance.
    machine.write_vec(k.minv, &[1.0 / 4.75, 1.0 / 2.5]);
    machine.write_scalar(k.sigma, 1e-6);
    machine.write_scalar(k.eps, eps);
    machine.run(&k.program).unwrap();
    machine.read_vec(k.xtilde).to_vec()
}

#[test]
fn f32_mode_converges_close_to_f64_solution() {
    let x64 = run_pcg(false, 1e-10);
    let x32 = run_pcg(true, 1e-5);
    for (a, b) in x64.iter().zip(&x32) {
        assert!((a - b).abs() < 1e-4, "f32 {b} vs f64 {a}");
        assert!(b.is_finite());
    }
    // And the f32 results are exactly representable in f32.
    for v in &x32 {
        assert_eq!(*v, *v as f32 as f64);
    }
}

#[test]
fn f32_mode_does_not_change_cycle_counts() {
    // Precision only affects values, never the cycle model.
    let pm = CsrMatrix::identity(8);
    for single in [false, true] {
        let config = ArchConfig::baseline(4).with_single_precision(single);
        let mut machine = Machine::new(config);
        let m = machine.add_matrix(&pm);
        let x = machine.alloc_vec(8);
        let y = machine.alloc_vec(8);
        machine.write_vec(x, &[1.0; 8]);
        let mut pb = rsqp_arch::ProgramBuilder::new();
        pb.push(rsqp_arch::Instr::Duplicate { vec: x, matrix: m });
        pb.push(rsqp_arch::Instr::Spmv { matrix: m, input: x, output: y });
        machine.run(&pb.build().unwrap()).unwrap();
        if single {
            assert!(machine.stats().cycles > 0);
        }
    }
}
