//! Hardware-generation output bundle (§4.5, Figure 6).
//!
//! The paper's flow ends with "pass the customization of the MAC tree
//! structure, the indices translation, the duplication map for the CVBs,
//! and the routing logic … to our hardware generation program for creating
//! the HLS description". This module materializes that hand-off as files:
//!
//! ```text
//! <dir>/
//!   architecture.txt            # C, S, resource/f_max estimates, η report
//!   align_acc_cnt_switch.h      # Figure 4's generated routing snippet
//!   spmv_align.cpp              # Figure 5's enclosing HLS function
//!   cvb_<matrix>.txt            # per-matrix CVB index-translation tables
//!   pcg.rom                     # the KKT-solve kernel, ROM-encoded
//!   pcg.lst                     # human-readable disassembly of the kernel
//! ```
//!
//! The kernel is the loop-free KKT solve through the factor of the KKT
//! matrix, the one program the backend runs. The factor is formed at the
//! bundle's placeholder σ and ρ and loaded into its machine, and
//! `architecture.txt` reports its size and elimination-tree height. The
//! CVB tables are the layouts the customization gives `P`, `A` and `Aᵀ`.

use std::io::Write;
use std::path::Path;

use rsqp_arch::{codegen, rom, Machine, ResourceModel};
use rsqp_linsys::KktLdlt;
use rsqp_solver::QpProblem;

use crate::backend::{load_kkt_solve, upload_factor};
use crate::CustomizationResult;

/// Writes the full hardware-generation bundle for a problem under the
/// customization `result` into `dir` (created if missing).
///
/// Returns the number of files written.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_bundle(
    problem: &QpProblem,
    result: &CustomizationResult,
    dir: impl AsRef<Path>,
) -> std::io::Result<usize> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir)?;
    let mut files = 0;

    // The KKT-solve kernel and the machine it runs on, with the layouts of
    // P, A and Aᵀ. The kernel depends on the problem's dimensions only.
    let (p, a) = (problem.p(), problem.a());
    let at = a.transpose();
    let mut machine = Machine::new(result.config.clone());
    let ids = [p, a, &at].map(|m| machine.add_matrix(m));
    let mut factor =
        KktLdlt::with_amd(p, a, 1e-6, &vec![0.1; a.nrows()]).expect("a validated problem's shapes");
    let (kernel, factor_id) = load_kkt_solve(&mut machine, &factor);
    let factored = factor.refactor().is_ok();
    if factored {
        upload_factor(&mut machine, &kernel, factor_id, &factor);
    }

    // architecture.txt
    {
        let est = ResourceModel.estimate(result.config.set());
        let mut f = std::fs::File::create(dir.join("architecture.txt"))?;
        writeln!(f, "problem: {}", problem.name())?;
        writeln!(f, "datapath width C: {}", result.config.c())?;
        writeln!(f, "structure set:    {}", result.notation())?;
        writeln!(f, "eta baseline:     {:.4}", result.eta_baseline)?;
        writeln!(f, "eta customized:   {:.4}", result.eta_custom)?;
        writeln!(
            f,
            "resources:        {} DSP, {} FF, {} LUT @ {:.0} MHz",
            est.dsp, est.ff, est.lut, est.fmax_mhz
        )?;
        for m in &result.matrices {
            writeln!(
                f,
                "matrix {:>2}: nnz {} cycles {} -> {} E_p {} -> {} E_c {:.2} -> {:.2}",
                m.name, m.nnz, m.cycles_baseline, m.cycles_custom, m.ep.0, m.ep.1, m.ec.0, m.ec.1
            )?;
        }
        if factored {
            let ldlt = factor.ldlt();
            writeln!(
                f,
                "KKT factor: n + m {} nnz(triu KKT) {} l_nnz {} etree height {}",
                ldlt.dim(),
                factor.kkt().matrix().nnz(),
                ldlt.l_nnz(),
                ldlt.etree_height()
            )?;
        }
        files += 1;
    }

    // HLS snippets.
    std::fs::write(
        dir.join("align_acc_cnt_switch.h"),
        codegen::alignment_switch(result.config.set()),
    )?;
    files += 1;
    std::fs::write(dir.join("spmv_align.cpp"), codegen::spmv_align_function(result.config.set()))?;
    files += 1;

    // CVB translation tables: the customized layouts of P, A and Aᵀ.
    for (name, id) in ["P", "A", "At"].into_iter().zip(ids) {
        let layout = machine.layout_of(id);
        let mut f = std::fs::File::create(dir.join(format!("cvb_{name}.txt")))?;
        writeln!(f, "# CVB layout for {name}: {} addresses", layout.num_addresses())?;
        writeln!(f, "# element -> address (unlisted elements are never read)")?;
        for j in 0..machine.matrix(id).ncols() {
            if let Some(a) = layout.addr_of(j) {
                writeln!(f, "{j} {a}")?;
            }
        }
        files += 1;
    }

    // The kernel's ROM image and disassembly.
    let image = rom::encode_program(&kernel.program);
    let bytes: Vec<u8> = image.iter().flat_map(|w| w.to_le_bytes()).collect();
    std::fs::write(dir.join("pcg.rom"), bytes)?;
    std::fs::write(dir.join("pcg.lst"), rom::disassemble(&kernel.program))?;
    files += 2;
    Ok(files)
}

/// Validates a ROM file written by [`write_bundle`] by decoding it back.
///
/// # Errors
///
/// Propagates I/O errors; decoding failures map to `InvalidData`.
pub fn validate_rom(path: impl AsRef<Path>) -> std::io::Result<usize> {
    let bytes = std::fs::read(path)?;
    if bytes.len() % 8 != 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "ROM image is not a whole number of 64-bit words",
        ));
    }
    let words: Vec<u64> = bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("chunk is 8 bytes")))
        .collect();
    let program = rom::decode_program(&words, 2000)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    Ok(program.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsqp_problems::{generate, Domain};

    #[test]
    fn bundle_writes_all_files_and_rom_decodes() {
        let qp = generate(Domain::Svm, 3, 1);
        let dir = std::env::temp_dir().join("rsqp_bundle_test");
        let _ = std::fs::remove_dir_all(&dir);
        let result = crate::customize(&qp, 16, 3);
        let files = write_bundle(&qp, &result, &dir).unwrap();
        assert_eq!(files, 8);
        assert!(result.eta_custom > 0.0);
        // Every expected file exists and is non-empty.
        for name in [
            "architecture.txt",
            "align_acc_cnt_switch.h",
            "spmv_align.cpp",
            "cvb_P.txt",
            "cvb_A.txt",
            "cvb_At.txt",
            "pcg.rom",
            "pcg.lst",
        ] {
            let meta =
                std::fs::metadata(dir.join(name)).unwrap_or_else(|_| panic!("{name} missing"));
            assert!(meta.len() > 0, "{name} is empty");
        }
        // The ROM decodes back into a program: the KKT solve through the
        // factor, which architecture.txt reports.
        let instrs = validate_rom(dir.join("pcg.rom")).unwrap();
        assert_eq!(instrs, 9, "the KKT solve");
        let arch = std::fs::read_to_string(dir.join("architecture.txt")).unwrap();
        assert!(arch.contains("KKT factor: n + m "), "{arch}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_bundle_ships_the_one_kkt_solve() {
        // Dense feature columns, dense factor and budget rows, and a dense
        // row over a tridiagonal P: the same loop-free program.
        for qp in [
            generate(Domain::Svm, 21, 1),
            generate(Domain::Portfolio, 2, 1),
            rsqp_problems::random::generate_budget(40),
        ] {
            let dir = std::env::temp_dir().join(format!("rsqp_bundle_{}_test", qp.name()));
            let _ = std::fs::remove_dir_all(&dir);
            let result = crate::customize(&qp, 16, 3);
            assert_eq!(write_bundle(&qp, &result, &dir).unwrap(), 8);
            let words: Vec<u64> = std::fs::read(dir.join("pcg.rom"))
                .unwrap()
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
                .collect();
            let program = rom::decode_program(&words, 2000).unwrap();
            assert!(program.loop_bounds().is_none(), "{}", qp.name());
            assert_eq!(program.len(), 9, "{}", qp.name());
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn validate_rom_rejects_garbage() {
        let dir = std::env::temp_dir();
        let p = dir.join("rsqp_bad_rom_test.rom");
        std::fs::write(&p, [1, 2, 3]).unwrap();
        assert!(validate_rom(&p).is_err());
        let _ = std::fs::remove_file(p);
    }
}
