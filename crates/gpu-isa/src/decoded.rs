//! Pre-decoded instruction streams: the launch-time lowering that keeps
//! decode work out of the simulator's per-cycle issue loop.
//!
//! A [`crate::Program`] is a faithful, assembler-friendly representation;
//! the issue loop of a cycle simulator wants none of its flexibility. It
//! wants flat, fixed-size records with every per-instruction decision
//! already made: which registers the scoreboard must consult, whether the
//! opcode is wide/store/memory, which comparison an `ISETP` performs,
//! which special register an `S2R` reads. [`DecodedStream::lower`] makes
//! all of those decisions exactly once per kernel launch and produces a
//! cache-friendly `Vec<DecodedInstr>` that is shared `Arc`-style across
//! every warp and SM of the launch — the hot loop then borrows
//! `&DecodedInstr` and never touches the allocator or a decoder again.
//!
//! Lowering is also where corrupt microcode surfaces: a bad `ISETP`
//! comparison immediate, an unknown `S2R` selector or a memory reference
//! on the wrong opcode is a typed [`DecodeError`] at launch, not a
//! silently misexecuted instruction (or a host panic) at cycle three
//! million.

use std::fmt;

use crate::instr::{CmpOp, HintBits, Instruction, MemRef, Operand, Predicate};
use crate::op::{Opcode, OpcodeClass, SpecialReg};
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
/// but has no defined execution. The seed simulator silently patched them
/// (`CmpOp::decode(v).unwrap_or(CmpOp::Eq)`), which turned corrupt
/// microcode into a wrong-but-plausible compare; lowering rejects them at
/// launch instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// An `ISETP` comparison immediate outside the [`CmpOp`] encoding.
    BadCmpImmediate {
        /// Instruction index of the offending `ISETP`.
        pc: usize,
        /// The unencodable immediate.
        value: i32,
    },
    /// An `ISETP` whose comparison slot is not an immediate at all.
    NonImmediateCmp {
        /// Instruction index of the offending `ISETP`.
        pc: usize,
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
            DecodeError::NonImmediateCmp { pc } => {
                write!(f, "ISETP at pc {pc} comparison operand is not an immediate")
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

/// One fully pre-decoded instruction: every field the issue loop consults
/// per cycle, resolved once at lowering time. All fields are `Copy`; the
/// record is borrowed, never cloned, on the hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodedInstr {
    /// Operation.
    pub opcode: Opcode,
    /// Functional-unit class (pre-resolved from the opcode).
    pub class: OpcodeClass,
    /// Destination register (predicate index for `ISETP`, in `dst.0`).
    pub dst: Reg,
    /// Source operands.
    pub srcs: [Operand; 3],
    /// Guard predicate, if any.
    pub pred: Option<Predicate>,
    /// Memory reference of a load/store.
    pub mem: Option<MemRef>,
    /// LMI hint bits.
    pub hints: HintBits,
    /// Scoreboard sources, expanded to individual 32-bit registers
    /// (pair-high halves included). Only `src_regs[..src_reg_count]` is
    /// meaningful.
    pub src_regs: [Reg; MAX_SRC_REGS],
    /// Number of valid entries in `src_regs`.
    pub src_reg_count: u8,
    /// Pre-decoded `ISETP` comparison (meaningful only for `ISETP`;
    /// validated by lowering).
    pub cmp: CmpOp,
    /// Pre-decoded `S2R` special register (meaningful only for `S2R`;
    /// validated by lowering).
    pub special: SpecialReg,
    /// Memory space of a load/store opcode.
    pub mem_space: Option<MemSpace>,
    /// `opcode.is_store()`.
    pub is_store: bool,
    /// `opcode.is_wide()` — 64-bit register-pair integer op.
    pub wide: bool,
    /// `dst.is_valid_pair_base()`, the guard every pair write needs.
    pub dst_pair: bool,
    /// For a non-`LDC` memory op: the address register is a valid pair
    /// base, so the scoreboard/verdict wait covers `addr+1` too.
    pub mem_addr_pair: bool,
    /// Branch target of a `BRA` (absolute instruction index). For the
    /// degenerate non-immediate target the lowering pins the fall-through
    /// `pc + 1`, matching the interpreter it replaces.
    pub bra_target: usize,
}

impl DecodedInstr {
    /// The scoreboard source registers as a slice.
    #[inline]
    pub fn source_regs(&self) -> &[Reg] {
        &self.src_regs[..self.src_reg_count as usize]
    }

    fn lower(pc: usize, ins: &Instruction) -> Result<DecodedInstr, DecodeError> {
        let opcode = ins.opcode;
        match (opcode.mem_space(), ins.mem) {
            (Some(_), None) => return Err(DecodeError::MissingMemRef { pc, opcode }),
            (None, Some(_)) => return Err(DecodeError::StrayMemRef { pc, opcode }),
            _ => {}
        }
        let mut src_regs = [Reg::RZ; MAX_SRC_REGS];
        let mut n = 0usize;
        let pair_slots = ins.pair_source_slots();
        for (i, src) in ins.srcs.iter().enumerate() {
            if let Operand::Reg(r) = src {
                if r.is_zero_reg() {
                    continue;
                }
                src_regs[n] = *r;
                n += 1;
                if pair_slots[i] && r.is_valid_pair_base() {
                    src_regs[n] = r.pair_high();
                    n += 1;
                }
            }
        }
        if let Some(mem) = &ins.mem {
            if !mem.addr.is_zero_reg() {
                src_regs[n] = mem.addr;
                n += 1;
                if ins.opcode != Opcode::Ldc && mem.addr.is_valid_pair_base() {
                    src_regs[n] = mem.addr.pair_high();
                    n += 1;
                }
            }
        }

        let cmp = if ins.opcode == Opcode::Isetp {
            match ins.srcs[2] {
                Operand::Imm(v) => {
                    CmpOp::decode(v).ok_or(DecodeError::BadCmpImmediate { pc, value: v })?
                }
                _ => return Err(DecodeError::NonImmediateCmp { pc }),
            }
        } else {
            CmpOp::Eq
        };

        let special = if ins.opcode == Opcode::S2r {
            let sel = match ins.srcs[0] {
                Operand::Imm(v) => v as i64,
                _ => 0,
            };
            SpecialReg::from_selector(sel)
                .ok_or(DecodeError::BadSpecialSelector { pc, selector: sel })?
        } else {
            SpecialReg::TidX
        };

        let bra_target = match (ins.opcode, ins.srcs[0]) {
            (Opcode::Bra, Operand::Imm(t)) => t.max(0) as usize,
            _ => pc + 1,
        };

        Ok(DecodedInstr {
            opcode: ins.opcode,
            class: ins.opcode.class(),
            dst: ins.dst,
            srcs: ins.srcs,
            pred: ins.pred,
            mem: ins.mem,
            hints: ins.hints,
            src_regs,
            src_reg_count: n as u8,
            cmp,
            special,
            mem_space: ins.opcode.mem_space(),
            is_store: ins.opcode.is_store(),
            wide: ins.opcode.is_wide(),
            dst_pair: ins.dst.is_valid_pair_base(),
            mem_addr_pair: ins
                .mem
                .map(|m| ins.opcode != Opcode::Ldc && m.addr.is_valid_pair_base())
                .unwrap_or(false),
            bra_target,
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
            assert_eq!(di.source_regs(), ins.source_regs().as_slice(), "pc {pc}");
            assert_eq!(di.opcode, ins.opcode);
            assert_eq!(di.wide, ins.opcode.is_wide());
            assert_eq!(di.is_store, ins.opcode.is_store());
            assert_eq!(di.mem_space, ins.opcode.mem_space());
        }
    }

    #[test]
    fn isetp_cmp_is_predecoded() {
        let mut b = ProgramBuilder::new("t");
        b.push(Instruction::isetp(PredReg(0), Reg(2), CmpOp::Lt, 10));
        b.push(Instruction::exit());
        let stream = DecodedStream::lower(&b.build()).unwrap();
        assert_eq!(stream.get(0).unwrap().cmp, CmpOp::Lt);
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
        assert_eq!(DecodedStream::lower(&p), Err(DecodeError::NonImmediateCmp { pc: 0 }));
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
        let stream = DecodedStream::lower(&b.build()).unwrap();
        assert_eq!(stream.get(0).unwrap().bra_target, 0);
        assert_eq!(stream.get(1).unwrap().bra_target, 2, "non-branch pins fall-through");
    }

    #[test]
    fn worst_case_source_count_fits() {
        // IADD64 with two register pairs is 4; a global store reading a
        // value register plus a 64-bit address pair is 3. Nothing exceeds
        // MAX_SRC_REGS.
        let i = Instruction::iadd64(Reg(4), Reg(6), Reg(2));
        assert!(i.source_regs().len() <= MAX_SRC_REGS);
        let s = Instruction::stg(MemRef::new(Reg(4), 0, 8), Reg(8));
        assert!(s.source_regs().len() <= MAX_SRC_REGS);
    }
}
