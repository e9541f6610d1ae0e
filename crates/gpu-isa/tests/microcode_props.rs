//! Randomized property tests: microcode encode/decode is lossless for
//! every valid instruction shape, on every compute capability.
//!
//! Driven by `lmi-telemetry`'s deterministic SplitMix64 instead of an
//! external property-testing framework, so the workspace builds offline;
//! fixed seeds keep failures reproducible.

use lmi_isa::decoded::Op;
use lmi_isa::instr::CmpOp;
use lmi_isa::op::SpecialReg;
use lmi_isa::reg::PredReg;
use lmi_isa::{
    ComputeCapability, DecodedStream, HintBits, Instruction, MemRef, MemSpace, Microcode, Opcode,
    OpcodeClass, Operand, Predicate, ProgramBuilder, Reg,
};
use lmi_telemetry::SplitMix64;

const CCS: [ComputeCapability; 4] = [
    ComputeCapability::Cc70,
    ComputeCapability::Cc75,
    ComputeCapability::Cc80,
    ComputeCapability::Cc90,
];

fn reg(rng: &mut SplitMix64) -> Reg {
    Reg(rng.below(128) as u8)
}

fn pair_base(rng: &mut SplitMix64) -> Reg {
    Reg(rng.below(126) as u8)
}

fn operand(rng: &mut SplitMix64) -> Operand {
    match rng.below(4) {
        0 => Operand::None,
        1 => Operand::Reg(reg(rng)),
        2 => Operand::Imm(rng.next_u32() as i32),
        _ => Operand::Const { bank: rng.below(128) as u8, offset: rng.next_u32() as u16 },
    }
}

fn pred(rng: &mut SplitMix64) -> Option<Predicate> {
    if rng.chance(0.5) {
        Some(Predicate { reg: PredReg(rng.below(8) as u8), negated: rng.chance(0.5) })
    } else {
        None
    }
}

fn width(rng: &mut SplitMix64) -> u8 {
    *rng.choose(&[1u8, 2, 4, 8])
}

/// Arbitrary *valid* instructions: built through the typed constructors so
/// operand shapes match what the compiler can emit.
fn instruction(rng: &mut SplitMix64) -> Instruction {
    match rng.below(4) {
        // 3-operand integer ALU.
        0 => {
            let mut ins = Instruction::iadd3(reg(rng), operand(rng), operand(rng));
            if rng.chance(0.5) {
                ins = ins.with_hints(HintBits::check_operand(rng.below(2) as u8));
            }
            if let Some(p) = pred(rng) {
                ins = ins.with_pred(p);
            }
            ins
        }
        // Wide (64-bit) pointer arithmetic.
        1 => {
            let mut ins =
                Instruction::iadd64(pair_base(rng), pair_base(rng), rng.next_u32() as i32);
            if rng.chance(0.5) {
                ins = ins.with_hints(HintBits::check_operand(rng.below(2) as u8));
            }
            ins
        }
        // Loads/stores across the three spaces.
        2 => {
            let mem = MemRef::new(pair_base(rng), rng.next_u32() as i32, width(rng));
            let data = pair_base(rng);
            match rng.below(6) {
                0 => Instruction::ldg(data, mem),
                1 => Instruction::stg(mem, data),
                2 => Instruction::lds(data, mem),
                3 => Instruction::sts(mem, data),
                4 => Instruction::ldl(data, mem),
                _ => Instruction::stl(mem, data),
            }
        }
        // Everything else.
        _ => match rng.below(8) {
            0 => {
                Instruction::s2r(reg(rng), SpecialReg::from_selector(rng.below(5) as i64).unwrap())
            }
            1 => Instruction::isetp(
                PredReg(rng.below(8) as u8),
                reg(rng),
                CmpOp::decode(rng.below(6) as i32).unwrap(),
                reg(rng),
            ),
            2 => Instruction::bra(rng.next_u32() as i32),
            3 => Instruction::bar(),
            4 => Instruction::exit(),
            5 => Instruction::nop(),
            6 => Instruction::ffma(reg(rng), reg(rng), reg(rng), reg(rng)),
            _ => {
                Instruction::ldc(reg(rng), rng.below(128) as u8, rng.next_u32() as u16, width(rng))
            }
        },
    }
}

fn needs_two_imm_slots(ins: &Instruction) -> bool {
    let imm_like =
        ins.srcs.iter().filter(|s| matches!(s, Operand::Imm(_) | Operand::Const { .. })).count();
    let mem_imm = usize::from(ins.mem.is_some() && ins.opcode != Opcode::Ldc);
    imm_like + mem_imm > 1
}

#[test]
fn encode_decode_round_trips() {
    let mut rng = SplitMix64::new(0xC0DEC);
    for case in 0..2000 {
        let ins = instruction(&mut rng);
        let cc = *rng.choose(&CCS);
        match Microcode::encode(&ins, cc) {
            Ok(word) => {
                let back = word.decode(cc).expect("decode of valid encode");
                assert_eq!(back, ins, "case {case}");
            }
            Err(lmi_isa::CodecError::ImmediateFieldConflict) => {
                assert!(needs_two_imm_slots(&ins), "case {case}: spurious conflict for {ins}");
            }
            Err(e) => panic!("case {case}: unexpected encode error {e} for {ins}"),
        }
    }
}

#[test]
fn hint_bits_never_leak_into_other_fields() {
    let mut rng = SplitMix64::new(0x41B175);
    for case in 0..500 {
        let dst = pair_base(&mut rng);
        let src = pair_base(&mut rng);
        let off = rng.next_u32() as i32;
        let cc = *rng.choose(&CCS);
        let plain = Instruction::iadd64(dst, src, off);
        let marked = plain.clone().with_hints(HintBits::check_operand(1));
        let w_plain = Microcode::encode(&plain, cc).unwrap();
        let w_marked = Microcode::encode(&marked, cc).unwrap();
        // The encodings differ exactly in bits 27/28.
        assert_eq!(w_plain.0 ^ w_marked.0, (1u128 << 27) | (1u128 << 28), "case {case}");
        assert!(w_plain.check_reserved(cc).is_ok(), "case {case}");
        assert!(w_marked.check_reserved(cc).is_ok(), "case {case}");
    }
}

/// Lowers `ins` as a one-instruction program: an error is a typed
/// `DecodeError`, and a lowered op agrees with its opcode's class, memory
/// space, store bit and width. Returns whether it lowered.
fn lowers_consistently(ins: Instruction) -> bool {
    let opcode = ins.opcode;
    let mut b = ProgramBuilder::new("one");
    b.push(ins);
    let Ok(stream) = DecodedStream::lower(&b.build()) else { return false };
    let op = stream.get(0).map(|di| di.op);
    let class = match op {
        Some(Op::Int32(_) | Op::Int64(_) | Op::Isetp(_)) => OpcodeClass::IntAlu,
        Some(Op::Fpu(_)) => OpcodeClass::Fpu,
        Some(Op::Mem { .. } | Op::Ldc(_) | Op::Heap(_)) => OpcodeClass::Mem,
        Some(Op::Bra(_) | Op::Bar | Op::S2r(_) | Op::Exit | Op::Nop) => OpcodeClass::Control,
        None => panic!("{opcode} lowered to an empty stream"),
    };
    let (space, store) = match op {
        Some(Op::Mem { space, store, .. }) => (Some(space), store),
        Some(Op::Ldc(_)) => (Some(MemSpace::Const), false),
        _ => (None, false),
    };
    assert_eq!(class, opcode.class(), "{opcode} lowered to {op:?}");
    assert_eq!(space, opcode.mem_space(), "{opcode} lowered to {op:?}");
    assert_eq!(store, opcode.is_store(), "{opcode} lowered to {op:?}");
    assert_eq!(matches!(op, Some(Op::Int64(_))), opcode.is_wide(), "{opcode} lowered to {op:?}");
    true
}

#[test]
fn decode_of_arbitrary_bits_never_panics() {
    let mut rng = SplitMix64::new(0xDEC0DE);
    let mut lowered = 0;
    for _ in 0..5000 {
        let raw = (rng.next_u64() as u128) << 64 | rng.next_u64() as u128;
        let cc = *rng.choose(&CCS);
        if let Ok(ins) = Microcode(raw).decode(cc) {
            lowered += usize::from(lowers_consistently(ins));
        }
    }
    assert!(lowered > 0, "no arbitrary word lowered");
    // The valid instructions `encode_decode_round_trips` encodes all lower.
    let mut rng = SplitMix64::new(0xC0DEC);
    for case in 0..2000 {
        let ins = instruction(&mut rng);
        let _cc = rng.choose(&CCS);
        let shown = ins.to_string();
        assert!(lowers_consistently(ins), "case {case}: {shown} did not lower");
    }
}
