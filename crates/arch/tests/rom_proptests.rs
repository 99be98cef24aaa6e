//! Property-based tests: the instruction-ROM encoding round-trips arbitrary
//! well-formed instructions and programs.

use proptest::prelude::*;
use rsqp_arch::rom::{decode_instr, decode_program, encode_instr, encode_program};
use rsqp_arch::{FactorId, Instr, MatrixId, ProgramBuilder, SReg, ScalarOp, VecId};

fn arb_sreg() -> impl Strategy<Value = SReg> {
    (0usize..128).prop_map(SReg::from_raw)
}

fn arb_vec() -> impl Strategy<Value = VecId> {
    (0usize..16384).prop_map(VecId::from_raw)
}

fn arb_matrix() -> impl Strategy<Value = MatrixId> {
    (0usize..16).prop_map(MatrixId::from_raw)
}

fn arb_factor() -> impl Strategy<Value = FactorId> {
    (0usize..16).prop_map(FactorId::from_raw)
}

fn arb_scalar_op() -> impl Strategy<Value = ScalarOp> {
    prop::sample::select(vec![
        ScalarOp::Add,
        ScalarOp::Sub,
        ScalarOp::Mul,
        ScalarOp::Div,
        ScalarOp::Max,
    ])
}

fn arb_body_instr() -> impl Strategy<Value = Instr> {
    prop_oneof![
        (arb_scalar_op(), arb_sreg(), arb_sreg(), arb_sreg())
            .prop_map(|(op, dst, a, b)| Instr::Scalar { op, dst, a, b }),
        (arb_sreg(), any::<f64>()).prop_map(|(dst, value)| Instr::SetScalar { dst, value }),
        arb_vec().prop_map(|vec| Instr::LoadHbm { vec }),
        arb_vec().prop_map(|vec| Instr::StoreHbm { vec }),
        (arb_vec(), arb_sreg(), arb_vec(), arb_sreg(), arb_vec())
            .prop_map(|(dst, alpha, a, beta, b)| Instr::Lincomb { dst, alpha, a, beta, b }),
        (arb_vec(), arb_vec(), arb_vec()).prop_map(|(dst, a, b)| Instr::EwMul { dst, a, b }),
        (arb_vec(), arb_vec(), arb_vec()).prop_map(|(dst, a, b)| Instr::EwMax { dst, a, b }),
        (arb_vec(), arb_vec(), arb_vec()).prop_map(|(dst, a, b)| Instr::EwMin { dst, a, b }),
        (arb_sreg(), arb_vec(), arb_vec()).prop_map(|(dst, a, b)| Instr::Dot { dst, a, b }),
        (arb_vec(), arb_matrix()).prop_map(|(vec, matrix)| Instr::Duplicate { vec, matrix }),
        (arb_matrix(), arb_vec(), arb_vec()).prop_map(|(matrix, input, output)| Instr::Spmv {
            matrix,
            input,
            output
        }),
        (arb_factor(), arb_vec()).prop_map(|(factor, vec)| Instr::FactorSolve { factor, vec }),
    ]
}

proptest! {
    #[test]
    fn single_instructions_roundtrip(i in arb_body_instr()) {
        let decoded = decode_instr(encode_instr(&i)).expect("decodes");
        match (&i, &decoded) {
            // NaN immediates compare by bits.
            (Instr::SetScalar { dst: d1, value: v1 }, Instr::SetScalar { dst: d2, value: v2 }) => {
                prop_assert_eq!(d1, d2);
                prop_assert_eq!(v1.to_bits(), v2.to_bits());
            }
            _ => prop_assert_eq!(&decoded, &i),
        }
    }

    #[test]
    fn programs_roundtrip(body in prop::collection::vec(arb_body_instr(), 0..40),
                          with_loop in any::<bool>(),
                          trips in 1usize..1000) {
        let mut pb = ProgramBuilder::new();
        pb.max_trips(trips);
        let half = body.len() / 2;
        for i in &body[..half] {
            pb.push(*i);
        }
        if with_loop {
            pb.loop_start();
        }
        for i in &body[half..] {
            pb.push(*i);
        }
        if with_loop {
            pb.loop_end_if_less(SReg::from_raw(0), SReg::from_raw(1));
        }
        let p = pb.build().expect("balanced");
        let rom = encode_program(&p);
        let back = decode_program(&rom, trips).expect("decodes");
        prop_assert_eq!(back.len(), p.len());
        prop_assert_eq!(back.loop_bounds(), p.loop_bounds());
        for (a, b) in back.instrs().iter().zip(p.instrs()) {
            match (a, b) {
                (Instr::SetScalar { value: v1, .. }, Instr::SetScalar { value: v2, .. }) => {
                    prop_assert_eq!(v1.to_bits(), v2.to_bits());
                }
                _ => prop_assert_eq!(a, b),
            }
        }
    }
}
