//! Pre-decoded instruction streams: the launch-time lowering that keeps
//! decode work out of the simulator's per-cycle issue loop.
//!
//! [`DecodedStream::lower`] turns each [`Instruction`] of a
//! [`crate::Program`] into one typed [`Op`], once per launch. The variant
//! is the functional unit and carries only what that unit reads: the
//! integer-ALU ops ([`AluOp`], [`WideOp`], `ISETP`'s [`CmpOp`]) beside
//! which the paper places the OCU, a load/store with its space and
//! [`MemRef`] for the LSU that carries the EC, and the FPU, heap, control
//! and special-register ops. The [`DecodedInstr`] record around it keeps
//! only what every op has. The simulator dispatches once, exhaustively, on
//! the op; the stream is shared by every SM of the launch and borrowed,
//! never decoded or allocated, on the hot path.
//!
//! Corrupt microcode surfaces here: an `ISETP` comparison, `S2R` selector
//! or `BRA` target that is not a valid immediate, or a memory reference on
//! the wrong opcode, is a typed [`DecodeError`] at launch, not a silently
//! misexecuted instruction (or a host panic) at cycle three million.

use std::fmt;

use crate::instr::{CmpOp, HintBits, Instruction, MemRef, Operand, Predicate};
use crate::op::{Opcode, SpecialReg};
use crate::program::Program;
use crate::reg::Reg;
use crate::space::MemSpace;

/// Upper bound on the scoreboard sources of one instruction, in 32-bit
/// registers. At most two operand slots are pairs (`IADD64`: 2 + 2 + 1),
/// and lowering admits a memory reference only on a load/store, whose
/// operands are single registers (3 + a 64-bit address pair), so no
/// instruction reads more than five.
pub const MAX_SRC_REGS: usize = 6;

/// Why a program cannot be lowered to a [`DecodedStream`].
///
/// These are microcode-integrity errors: the instruction shape is valid to
/// *store* (the [`Instruction`] struct cannot express them as type errors)
/// but has no defined execution, and patching it into a plausible one would
/// hide the corruption.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// An `ISETP` comparison immediate outside the [`CmpOp`] encoding.
    BadCmpImmediate {
        /// Instruction index of the offending `ISETP`.
        pc: usize,
        /// The unencodable immediate.
        value: i32,
    },
    /// An `ISETP` comparison, `S2R` selector or `BRA` target slot that
    /// holds no immediate.
    NonImmediate {
        /// Instruction index of the offending instruction.
        pc: usize,
        /// Its opcode.
        opcode: Opcode,
    },
    /// An `S2R` selector that names no special register.
    BadSpecialSelector {
        /// Instruction index of the offending `S2R`.
        pc: usize,
        /// The unknown selector value.
        selector: i64,
    },
    /// A load/store with no memory reference to address.
    MissingMemRef {
        /// Instruction index of the offending load/store.
        pc: usize,
        /// Its opcode.
        opcode: Opcode,
    },
    /// A memory reference on an opcode that does not access memory.
    StrayMemRef {
        /// Instruction index of the offending instruction.
        pc: usize,
        /// Its opcode.
        opcode: Opcode,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadCmpImmediate { pc, value } => {
                write!(f, "ISETP at pc {pc} carries invalid comparison immediate {value:#x}")
            }
            DecodeError::NonImmediate { pc, opcode } => {
                write!(f, "{} at pc {pc} has a non-immediate control operand", opcode.mnemonic())
            }
            DecodeError::BadSpecialSelector { pc, selector } => {
                write!(f, "S2R at pc {pc} reads unknown special-register selector {selector}")
            }
            DecodeError::MissingMemRef { pc, opcode } => {
                write!(f, "{} at pc {pc} has no memory reference", opcode.mnemonic())
            }
            DecodeError::StrayMemRef { pc, opcode } => {
                write!(f, "{} at pc {pc} carries a memory reference", opcode.mnemonic())
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// A 32-bit integer-ALU operation; each variant is the [`Opcode`] of the
/// same name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    Iadd3,
    Imad,
    Mov,
    Imnmx,
    Shl,
    Shr,
    And,
    Or,
    Xor,
    Lop3,
    Popc,
}

/// A 64-bit register-pair integer operation ([`Opcode`] of the same name).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WideOp {
    Iadd64,
    Mov64,
    Lea64,
}

/// A floating-point-unit operation ([`Opcode`] of the same name).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpuOp {
    Fadd,
    Fmul,
    Ffma,
    Mufu,
}

/// A device-heap intrinsic ([`Opcode`] of the same name).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HeapOp {
    Malloc,
    Free,
}

/// What one instruction does, narrowed to its functional unit and carrying
/// the operands only that unit reads. Every variant is reachable from
/// valid microcode, so a `match` on it needs no fallback arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// 32-bit integer ALU.
    Int32(AluOp),
    /// 64-bit integer ALU on register pairs.
    Int64(WideOp),
    /// Integer compare into the predicate `dst.0 & 7`.
    Isetp(CmpOp),
    /// Floating-point unit.
    Fpu(FpuOp),
    /// A global, shared or local load/store through the LSU.
    Mem {
        /// Memory space (never [`MemSpace::Const`]).
        space: MemSpace,
        /// A store (else a load).
        store: bool,
        /// Address, offset and width.
        mem: MemRef,
        /// `mem.addr` is a pair base: the OCU-verdict wait covers `addr + 1`.
        addr_pair: bool,
    },
    /// A constant-bank load, resolved against the launch context.
    Ldc(MemRef),
    /// A device-heap call.
    Heap(HeapOp),
    /// A branch to an absolute instruction index.
    Bra(usize),
    /// Block-wide barrier.
    Bar,
    /// Special-register read.
    S2r(SpecialReg),
    /// Terminate the active lanes.
    Exit,
    /// No operation.
    Nop,
}

/// One fully pre-decoded instruction: the typed [`Op`] plus the fields
/// every op has, resolved once at lowering time. All fields are `Copy`;
/// the record is borrowed, never cloned, on the hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodedInstr {
    /// The operation.
    pub op: Op,
    /// The stored opcode, kept for the tracer's mnemonic.
    pub opcode: Opcode,
    /// Destination register (predicate index for `ISETP`, in `dst.0`).
    pub dst: Reg,
    /// Source operands.
    pub srcs: [Operand; 3],
    /// Guard predicate, if any.
    pub pred: Option<Predicate>,
    /// LMI hint bits.
    pub hints: HintBits,
    /// Scoreboard sources ([`Instruction::source_regs`]). Only
    /// `src_regs[..src_reg_count]` is meaningful.
    pub src_regs: [Reg; MAX_SRC_REGS],
    /// Number of valid entries in `src_regs`.
    pub src_reg_count: u8,
    /// `dst.is_valid_pair_base()`, the guard every pair write needs.
    pub dst_pair: bool,
}

impl DecodedInstr {
    /// The scoreboard source registers as a slice.
    #[inline]
    pub fn source_regs(&self) -> &[Reg] {
        &self.src_regs[..self.src_reg_count as usize]
    }

    fn lower(pc: usize, ins: &Instruction) -> Result<DecodedInstr, DecodeError> {
        use Opcode::*;
        let opcode = ins.opcode;
        if ins.mem.is_some() && opcode.mem_space().is_none() {
            return Err(DecodeError::StrayMemRef { pc, opcode });
        }
        let mem_ref = ins.mem.ok_or(DecodeError::MissingMemRef { pc, opcode });
        let mem = |space, store| {
            mem_ref.map(|mem| Op::Mem {
                space,
                store,
                mem,
                addr_pair: mem.addr.is_valid_pair_base(),
            })
        };
        let imm = |slot: usize| match ins.srcs[slot] {
            Operand::Imm(v) => Ok(v),
            _ => Err(DecodeError::NonImmediate { pc, opcode }),
        };
        let op = match opcode {
            Iadd3 => Op::Int32(AluOp::Iadd3),
            Imad => Op::Int32(AluOp::Imad),
            Mov => Op::Int32(AluOp::Mov),
            Imnmx => Op::Int32(AluOp::Imnmx),
            Shl => Op::Int32(AluOp::Shl),
            Shr => Op::Int32(AluOp::Shr),
            And => Op::Int32(AluOp::And),
            Or => Op::Int32(AluOp::Or),
            Xor => Op::Int32(AluOp::Xor),
            Lop3 => Op::Int32(AluOp::Lop3),
            Popc => Op::Int32(AluOp::Popc),
            Iadd64 => Op::Int64(WideOp::Iadd64),
            Mov64 => Op::Int64(WideOp::Mov64),
            Lea64 => Op::Int64(WideOp::Lea64),
            Isetp => {
                let value = imm(2)?;
                Op::Isetp(CmpOp::decode(value).ok_or(DecodeError::BadCmpImmediate { pc, value })?)
            }
            Fadd => Op::Fpu(FpuOp::Fadd),
            Fmul => Op::Fpu(FpuOp::Fmul),
            Ffma => Op::Fpu(FpuOp::Ffma),
            Mufu => Op::Fpu(FpuOp::Mufu),
            Ldg => mem(MemSpace::Global, false)?,
            Stg => mem(MemSpace::Global, true)?,
            Lds => mem(MemSpace::Shared, false)?,
            Sts => mem(MemSpace::Shared, true)?,
            Ldl => mem(MemSpace::Local, false)?,
            Stl => mem(MemSpace::Local, true)?,
            Ldc => Op::Ldc(mem_ref?),
            Malloc => Op::Heap(HeapOp::Malloc),
            Free => Op::Heap(HeapOp::Free),
            Bra => Op::Bra(imm(0)?.max(0) as usize),
            Bar => Op::Bar,
            S2r => {
                let selector = i64::from(imm(0)?);
                let special = SpecialReg::from_selector(selector);
                Op::S2r(special.ok_or(DecodeError::BadSpecialSelector { pc, selector })?)
            }
            Exit => Op::Exit,
            Nop => Op::Nop,
        };
        // Without a stray memory reference no instruction reads more than
        // `MAX_SRC_REGS` registers.
        let mut src_regs = [Reg::RZ; MAX_SRC_REGS];
        let n = src_regs.iter_mut().zip(ins.source_regs()).map(|(slot, r)| *slot = r).count();
        Ok(DecodedInstr {
            op,
            opcode,
            dst: ins.dst,
            srcs: ins.srcs,
            pred: ins.pred,
            hints: ins.hints,
            src_regs,
            src_reg_count: n as u8,
            dst_pair: ins.dst.is_valid_pair_base(),
        })
    }
}

/// A whole kernel lowered to flat [`DecodedInstr`] records.
///
/// Lowered once per launch (`O(program length)`), shared `Arc`-style by
/// every SM of the launch, indexed by pc on the hot path.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedStream {
    instrs: Vec<DecodedInstr>,
}

impl DecodedStream {
    /// Lowers `program`, surfacing corrupt microcode as a typed error.
    pub fn lower(program: &Program) -> Result<DecodedStream, DecodeError> {
        let instrs = program
            .instructions
            .iter()
            .enumerate()
            .map(|(pc, ins)| DecodedInstr::lower(pc, ins))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(DecodedStream { instrs })
    }

    /// The decoded instruction at `pc`, or `None` past the program end.
    #[inline]
    pub fn get(&self, pc: usize) -> Option<&DecodedInstr> {
        self.instrs.get(pc)
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// `true` if the stream holds no instructions.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgramBuilder;
    use crate::reg::PredReg;

    #[test]
    fn lowering_matches_source_regs() {
        let mut b = ProgramBuilder::new("t");
        b.push(Instruction::iadd64(Reg(4), Reg(6), Reg(2)));
        b.push(Instruction::ldg(Reg(8), MemRef::new(Reg(4), 0, 4)));
        b.push(Instruction::stg(MemRef::new(Reg(4), 0, 4), Reg(8)));
        b.push(Instruction::exit());
        let p = b.build();
        let stream = DecodedStream::lower(&p).unwrap();
        assert_eq!(stream.len(), p.len());
        for (pc, ins) in p.instructions.iter().enumerate() {
            let di = stream.get(pc).unwrap();
            assert_eq!(di.source_regs(), ins.source_regs().collect::<Vec<_>>(), "pc {pc}");
            assert_eq!(di.opcode, ins.opcode);
        }
        let global = |store| Op::Mem {
            space: MemSpace::Global,
            store,
            mem: MemRef::new(Reg(4), 0, 4),
            addr_pair: true,
        };
        let ops: Vec<Op> = (0..p.len()).map(|pc| stream.get(pc).unwrap().op).collect();
        assert_eq!(ops, [Op::Int64(WideOp::Iadd64), global(false), global(true), Op::Exit]);
    }

    #[test]
    fn isetp_cmp_is_predecoded() {
        let mut b = ProgramBuilder::new("t");
        b.push(Instruction::isetp(PredReg(0), Reg(2), CmpOp::Lt, 10));
        b.push(Instruction::exit());
        let stream = DecodedStream::lower(&b.build()).unwrap();
        assert_eq!(stream.get(0).unwrap().op, Op::Isetp(CmpOp::Lt));
    }

    #[test]
    fn corrupt_cmp_immediate_is_rejected() {
        let mut b = ProgramBuilder::new("t");
        b.push(Instruction::isetp(PredReg(0), Reg(2), CmpOp::Lt, 10));
        b.push(Instruction::exit());
        let mut p = b.build();
        p.instructions[0].srcs[2] = Operand::Imm(99);
        assert_eq!(
            DecodedStream::lower(&p),
            Err(DecodeError::BadCmpImmediate { pc: 0, value: 99 })
        );
        p.instructions[0].srcs[2] = Operand::Reg(Reg(3));
        assert_eq!(
            DecodedStream::lower(&p),
            Err(DecodeError::NonImmediate { pc: 0, opcode: Opcode::Isetp })
        );
    }

    #[test]
    fn corrupt_s2r_selector_is_rejected() {
        let mut b = ProgramBuilder::new("t");
        b.push(Instruction::s2r(Reg(0), SpecialReg::TidX));
        b.push(Instruction::exit());
        let mut p = b.build();
        p.instructions[0].srcs[0] = Operand::Imm(42);
        assert_eq!(
            DecodedStream::lower(&p),
            Err(DecodeError::BadSpecialSelector { pc: 0, selector: 42 })
        );
        p.instructions[0].srcs[0] = Operand::Reg(Reg(3));
        assert_eq!(
            DecodedStream::lower(&p),
            Err(DecodeError::NonImmediate { pc: 0, opcode: Opcode::S2r })
        );
    }

    #[test]
    fn memory_references_only_ride_on_loads_and_stores() {
        // A corrupted mem-valid bit yields both shapes: a load with no
        // address, and an ALU op with an address (whose IADD64 sources
        // plus the address pair would overflow `MAX_SRC_REGS`).
        let mut b = ProgramBuilder::new("t");
        b.push(Instruction::ldg(Reg(8), MemRef::new(Reg(4), 0, 4)));
        b.push(Instruction::exit());
        let mut p = b.build();
        p.instructions[0].mem = None;
        assert_eq!(
            DecodedStream::lower(&p),
            Err(DecodeError::MissingMemRef { pc: 0, opcode: Opcode::Ldg })
        );

        let mut b = ProgramBuilder::new("t");
        b.push(Instruction::exit());
        b.push(Instruction::iadd64(Reg(4), Reg(6), Reg(2)));
        let mut p = b.build();
        p.instructions[1].srcs[2] = Operand::Reg(Reg(10));
        p.instructions[1].mem = Some(MemRef::new(Reg(12), 0, 8));
        assert_eq!(
            DecodedStream::lower(&p),
            Err(DecodeError::StrayMemRef { pc: 1, opcode: Opcode::Iadd64 })
        );
    }

    #[test]
    fn bra_target_is_pinned() {
        let mut b = ProgramBuilder::new("t");
        b.push(Instruction::bra(0));
        b.push(Instruction::exit());
        let mut p = b.build();
        assert_eq!(DecodedStream::lower(&p).unwrap().get(0).unwrap().op, Op::Bra(0));
        p.instructions[0].srcs[0] = Operand::Reg(Reg(3));
        assert_eq!(
            DecodedStream::lower(&p),
            Err(DecodeError::NonImmediate { pc: 0, opcode: Opcode::Bra })
        );
    }

    #[test]
    fn worst_case_source_count_fits() {
        // IADD64 with two register pairs is 4; a global store reading a
        // value register plus a 64-bit address pair is 3. Nothing exceeds
        // MAX_SRC_REGS.
        let i = Instruction::iadd64(Reg(4), Reg(6), Reg(2));
        assert!(i.source_regs().count() <= MAX_SRC_REGS);
        let s = Instruction::stg(MemRef::new(Reg(4), 0, 8), Reg(8));
        assert!(s.source_regs().count() <= MAX_SRC_REGS);
    }
}
