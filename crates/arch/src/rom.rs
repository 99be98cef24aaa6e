//! Instruction-ROM encoding (§3.5: "the algorithms are broken into a
//! sequence of instructions which will be downloaded to the instruction ROM
//! from HBM").
//!
//! Each instruction encodes into two 64-bit words: an opcode/operand word
//! and an immediate word (used only by `SetScalar`). The encoding
//! round-trips exactly, and a program occupies `len()` × [`INSTR_BYTES`]
//! bytes of HBM (the download size of §3.5).

use crate::{ArchError, FactorId, Instr, MatrixId, Program, ProgramBuilder, SReg, ScalarOp, VecId};

/// Bytes one encoded instruction occupies.
pub const INSTR_BYTES: usize = 16;

const OP_LOOP_START: u8 = 0;
const OP_LOOP_END: u8 = 1;
const OP_SCALAR: u8 = 2;
const OP_SET_SCALAR: u8 = 3;
const OP_LOAD: u8 = 4;
const OP_STORE: u8 = 5;
const OP_LINCOMB: u8 = 6;
const OP_EW_MUL: u8 = 7;
const OP_EW_MAX: u8 = 8;
const OP_EW_MIN: u8 = 9;
const OP_DOT: u8 = 10;
const OP_DUP: u8 = 11;
const OP_SPMV: u8 = 12;
const OP_FACTOR_SOLVE: u8 = 13;

fn pack(op: u8, fields: [u16; 4]) -> u64 {
    let mut w = (op as u64) << 56;
    for (i, f) in fields.iter().enumerate() {
        w |= (*f as u64) << (i * 14);
    }
    w
}

fn unpack(w: u64) -> (u8, [u16; 4]) {
    let op = (w >> 56) as u8;
    let mut fields = [0u16; 4];
    for (i, f) in fields.iter_mut().enumerate() {
        *f = ((w >> (i * 14)) & 0x3FFF) as u16;
    }
    (op, fields)
}

fn scalar_op_code(op: ScalarOp) -> u16 {
    match op {
        ScalarOp::Add => 0,
        ScalarOp::Sub => 1,
        ScalarOp::Mul => 2,
        ScalarOp::Div => 3,
        ScalarOp::Max => 4,
    }
}

fn scalar_op_from(code: u16) -> Result<ScalarOp, ArchError> {
    Ok(match code {
        0 => ScalarOp::Add,
        1 => ScalarOp::Sub,
        2 => ScalarOp::Mul,
        3 => ScalarOp::Div,
        4 => ScalarOp::Max,
        other => return Err(ArchError::BadRegister(format!("scalar opcode {other}"))),
    })
}

/// Encodes one instruction into its two ROM words.
pub fn encode_instr(i: &Instr) -> [u64; 2] {
    let (word, imm) = match *i {
        Instr::LoopStart => (pack(OP_LOOP_START, [0; 4]), 0.0),
        Instr::LoopEndIfLess { a, b } => {
            (pack(OP_LOOP_END, [a.index() as u16, b.index() as u16, 0, 0]), 0.0)
        }
        Instr::Scalar { op, dst, a, b } => (
            pack(
                OP_SCALAR,
                [dst.index() as u16, a.index() as u16, b.index() as u16, scalar_op_code(op)],
            ),
            0.0,
        ),
        Instr::SetScalar { dst, value } => {
            (pack(OP_SET_SCALAR, [dst.index() as u16, 0, 0, 0]), value)
        }
        Instr::LoadHbm { vec } => (pack(OP_LOAD, [vec.index() as u16, 0, 0, 0]), 0.0),
        Instr::StoreHbm { vec } => (pack(OP_STORE, [vec.index() as u16, 0, 0, 0]), 0.0),
        Instr::Lincomb { dst, alpha, a, beta, b } => (
            pack(
                OP_LINCOMB,
                [dst.index() as u16, a.index() as u16, b.index() as u16, combine(alpha, beta)],
            ),
            0.0,
        ),
        Instr::EwMul { dst, a, b } => {
            (pack(OP_EW_MUL, [dst.index() as u16, a.index() as u16, b.index() as u16, 0]), 0.0)
        }
        Instr::EwMax { dst, a, b } => {
            (pack(OP_EW_MAX, [dst.index() as u16, a.index() as u16, b.index() as u16, 0]), 0.0)
        }
        Instr::EwMin { dst, a, b } => {
            (pack(OP_EW_MIN, [dst.index() as u16, a.index() as u16, b.index() as u16, 0]), 0.0)
        }
        Instr::Dot { dst, a, b } => {
            (pack(OP_DOT, [dst.index() as u16, a.index() as u16, b.index() as u16, 0]), 0.0)
        }
        Instr::Duplicate { vec, matrix } => {
            (pack(OP_DUP, [vec.index() as u16, matrix.index() as u16, 0, 0]), 0.0)
        }
        Instr::Spmv { matrix, input, output } => (
            pack(OP_SPMV, [matrix.index() as u16, input.index() as u16, output.index() as u16, 0]),
            0.0,
        ),
        Instr::FactorSolve { factor, vec } => {
            (pack(OP_FACTOR_SOLVE, [factor.index() as u16, vec.index() as u16, 0, 0]), 0.0)
        }
    };
    [word, imm.to_bits()]
}

/// Packs two 7-bit scalar-register indices into one field.
fn combine(a: SReg, b: SReg) -> u16 {
    assert!(a.index() < 128 && b.index() < 128, "scalar register file exceeds 128");
    ((a.index() as u16) << 7) | b.index() as u16
}

fn split(field: u16) -> (SReg, SReg) {
    (SReg((field >> 7) as usize), SReg((field & 0x7F) as usize))
}

/// Decodes one instruction from its two ROM words.
///
/// # Errors
///
/// Returns [`ArchError::BadRegister`] for unknown opcodes.
pub fn decode_instr(words: [u64; 2]) -> Result<Instr, ArchError> {
    let (op, f) = unpack(words[0]);
    let imm = f64::from_bits(words[1]);
    Ok(match op {
        OP_LOOP_START => Instr::LoopStart,
        OP_LOOP_END => Instr::LoopEndIfLess { a: SReg(f[0] as usize), b: SReg(f[1] as usize) },
        OP_SCALAR => Instr::Scalar {
            op: scalar_op_from(f[3])?,
            dst: SReg(f[0] as usize),
            a: SReg(f[1] as usize),
            b: SReg(f[2] as usize),
        },
        OP_SET_SCALAR => Instr::SetScalar { dst: SReg(f[0] as usize), value: imm },
        OP_LOAD => Instr::LoadHbm { vec: VecId(f[0] as usize) },
        OP_STORE => Instr::StoreHbm { vec: VecId(f[0] as usize) },
        OP_LINCOMB => {
            let (alpha, beta) = split(f[3]);
            Instr::Lincomb {
                dst: VecId(f[0] as usize),
                alpha,
                a: VecId(f[1] as usize),
                beta,
                b: VecId(f[2] as usize),
            }
        }
        OP_EW_MUL => Instr::EwMul {
            dst: VecId(f[0] as usize),
            a: VecId(f[1] as usize),
            b: VecId(f[2] as usize),
        },
        OP_EW_MAX => Instr::EwMax {
            dst: VecId(f[0] as usize),
            a: VecId(f[1] as usize),
            b: VecId(f[2] as usize),
        },
        OP_EW_MIN => Instr::EwMin {
            dst: VecId(f[0] as usize),
            a: VecId(f[1] as usize),
            b: VecId(f[2] as usize),
        },
        OP_DOT => Instr::Dot {
            dst: SReg(f[0] as usize),
            a: VecId(f[1] as usize),
            b: VecId(f[2] as usize),
        },
        OP_DUP => Instr::Duplicate { vec: VecId(f[0] as usize), matrix: MatrixId(f[1] as usize) },
        OP_SPMV => Instr::Spmv {
            matrix: MatrixId(f[0] as usize),
            input: VecId(f[1] as usize),
            output: VecId(f[2] as usize),
        },
        OP_FACTOR_SOLVE => {
            Instr::FactorSolve { factor: FactorId(f[0] as usize), vec: VecId(f[1] as usize) }
        }
        other => return Err(ArchError::BadRegister(format!("opcode {other}"))),
    })
}

/// Encodes a whole program into its ROM image.
pub fn encode_program(program: &Program) -> Vec<u64> {
    program.instrs().iter().flat_map(encode_instr).collect()
}

/// Decodes a ROM image back into a program with the given loop trip cap.
///
/// # Errors
///
/// Returns [`ArchError`] for malformed images (odd word counts, unknown
/// opcodes, unbalanced loops).
pub fn decode_program(rom: &[u64], max_trips: usize) -> Result<Program, ArchError> {
    if !rom.len().is_multiple_of(2) {
        return Err(ArchError::MalformedLoop("ROM image has odd word count".into()));
    }
    let mut pb = ProgramBuilder::new();
    pb.max_trips(max_trips);
    for chunk in rom.chunks_exact(2) {
        match decode_instr([chunk[0], chunk[1]])? {
            Instr::LoopStart => {
                pb.loop_start();
            }
            Instr::LoopEndIfLess { a, b } => {
                pb.loop_end_if_less(a, b);
            }
            other => {
                pb.push(other);
            }
        }
    }
    pb.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_program() -> Program {
        let mut pb = ProgramBuilder::new();
        pb.push(Instr::SetScalar { dst: SReg(3), value: -1.25 });
        pb.push(Instr::Lincomb {
            dst: VecId(0),
            alpha: SReg(1),
            a: VecId(2),
            beta: SReg(3),
            b: VecId(0),
        });
        pb.loop_start();
        pb.push(Instr::Duplicate { vec: VecId(0), matrix: MatrixId(1) });
        pb.push(Instr::Spmv { matrix: MatrixId(1), input: VecId(0), output: VecId(4) });
        pb.push(Instr::Dot { dst: SReg(0), a: VecId(4), b: VecId(4) });
        pb.push(Instr::Scalar { op: ScalarOp::Div, dst: SReg(2), a: SReg(0), b: SReg(1) });
        pb.loop_end_if_less(SReg(2), SReg(3));
        pb.push(Instr::StoreHbm { vec: VecId(4) });
        pb.max_trips(77);
        pb.build().expect("balanced")
    }

    #[test]
    fn every_instruction_roundtrips() {
        let all = [
            Instr::LoopStart,
            Instr::LoopEndIfLess { a: SReg(5), b: SReg(9) },
            Instr::Scalar { op: ScalarOp::Max, dst: SReg(1), a: SReg(2), b: SReg(3) },
            Instr::SetScalar { dst: SReg(0), value: std::f64::consts::PI },
            Instr::LoadHbm { vec: VecId(11) },
            Instr::StoreHbm { vec: VecId(12) },
            Instr::Lincomb {
                dst: VecId(1),
                alpha: SReg(4),
                a: VecId(2),
                beta: SReg(5),
                b: VecId(3),
            },
            Instr::EwMul { dst: VecId(1), a: VecId(2), b: VecId(3) },
            Instr::EwMax { dst: VecId(1), a: VecId(2), b: VecId(3) },
            Instr::EwMin { dst: VecId(1), a: VecId(2), b: VecId(3) },
            Instr::Dot { dst: SReg(7), a: VecId(8), b: VecId(9) },
            Instr::Duplicate { vec: VecId(3), matrix: MatrixId(2) },
            Instr::Spmv { matrix: MatrixId(0), input: VecId(1), output: VecId(2) },
            Instr::FactorSolve { factor: FactorId(4), vec: VecId(5) },
        ];
        for i in &all {
            let decoded = decode_instr(encode_instr(i)).expect("decodes");
            assert_eq!(&decoded, i);
        }
    }

    #[test]
    fn program_roundtrips_with_loop() {
        let p = sample_program();
        let rom = encode_program(&p);
        assert_eq!(rom.len(), p.len() * 2);
        let back = decode_program(&rom, p.max_trips()).expect("decodes");
        assert_eq!(back.instrs(), p.instrs());
        assert_eq!(back.loop_bounds(), p.loop_bounds());
    }

    #[test]
    fn bad_images_are_rejected() {
        assert!(decode_program(&[1], 10).is_err());
        let bogus = pack(99, [0; 4]);
        assert!(decode_instr([bogus, 0]).is_err());
    }

    #[test]
    fn negative_and_special_immediates_roundtrip() {
        for v in [-0.0, f64::INFINITY, 1e-300, -123.456] {
            let i = Instr::SetScalar { dst: SReg(0), value: v };
            let back = decode_instr(encode_instr(&i)).expect("decodes");
            if let Instr::SetScalar { value, .. } = back {
                assert_eq!(value.to_bits(), v.to_bits());
            } else {
                panic!("wrong variant");
            }
        }
    }
}

/// Renders a program as a human-readable listing (the `program.lst` of the
/// hardware bundle): one line per instruction with its ROM words.
pub fn disassemble(program: &Program) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (pc, i) in program.instrs().iter().enumerate() {
        let words = encode_instr(i);
        let text = match *i {
            Instr::LoopStart => "loop_start".to_string(),
            Instr::LoopEndIfLess { a, b } => {
                format!("loop_end_if s{} < s{}", a.index(), b.index())
            }
            Instr::Scalar { op, dst, a, b } => {
                let sym = match op {
                    ScalarOp::Add => "+",
                    ScalarOp::Sub => "-",
                    ScalarOp::Mul => "*",
                    ScalarOp::Div => "/",
                    ScalarOp::Max => "max",
                };
                format!("s{} = s{} {} s{}", dst.index(), a.index(), sym, b.index())
            }
            Instr::SetScalar { dst, value } => format!("s{} = {value:?}", dst.index()),
            Instr::LoadHbm { vec } => format!("load v{} <- hbm", vec.index()),
            Instr::StoreHbm { vec } => format!("store v{} -> hbm", vec.index()),
            Instr::Lincomb { dst, alpha, a, beta, b } => format!(
                "v{} = s{}*v{} + s{}*v{}",
                dst.index(),
                alpha.index(),
                a.index(),
                beta.index(),
                b.index()
            ),
            Instr::EwMul { dst, a, b } => {
                format!("v{} = v{} .* v{}", dst.index(), a.index(), b.index())
            }
            Instr::EwMax { dst, a, b } => {
                format!("v{} = max(v{}, v{})", dst.index(), a.index(), b.index())
            }
            Instr::EwMin { dst, a, b } => {
                format!("v{} = min(v{}, v{})", dst.index(), a.index(), b.index())
            }
            Instr::Dot { dst, a, b } => {
                format!("s{} = dot(v{}, v{})", dst.index(), a.index(), b.index())
            }
            Instr::Duplicate { vec, matrix } => {
                format!("duplicate v{} -> cvb[m{}]", vec.index(), matrix.index())
            }
            Instr::Spmv { matrix, input, output } => {
                format!("v{} = spmv(m{}, v{})", output.index(), matrix.index(), input.index())
            }
            Instr::FactorSolve { factor, vec } => {
                format!("v{} = factor_solve(f{}, v{})", vec.index(), factor.index(), vec.index())
            }
        };
        let _ = writeln!(out, "{pc:>4}: {:016x} {:016x}  {text}", words[0], words[1]);
    }
    out
}

#[cfg(test)]
mod disasm_tests {
    use super::*;
    use crate::ProgramBuilder;

    #[test]
    fn listing_covers_every_instruction() {
        let mut pb = ProgramBuilder::new();
        pb.push(Instr::SetScalar { dst: SReg(0), value: 2.5 });
        pb.loop_start();
        pb.push(Instr::Duplicate { vec: VecId(1), matrix: MatrixId(0) });
        pb.push(Instr::Spmv { matrix: MatrixId(0), input: VecId(1), output: VecId(2) });
        pb.push(Instr::Dot { dst: SReg(1), a: VecId(2), b: VecId(2) });
        pb.loop_end_if_less(SReg(1), SReg(0));
        let p = pb.build().unwrap();
        let text = disassemble(&p);
        assert_eq!(text.lines().count(), p.len());
        assert!(text.contains("s0 = 2.5"));
        assert!(text.contains("loop_start"));
        assert!(text.contains("v2 = spmv(m0, v1)"));
        assert!(text.contains("loop_end_if s1 < s0"));
    }
}
