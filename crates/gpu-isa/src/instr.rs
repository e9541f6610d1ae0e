//! Instruction representation and convenience constructors.

use std::fmt;

use crate::op::{Opcode, SpecialReg};
use crate::reg::{PredReg, Reg};

/// A source operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Operand {
    /// No operand in this slot.
    #[default]
    None,
    /// A 32-bit register (or 64-bit pair base for wide ops).
    Reg(Reg),
    /// A 32-bit immediate (sign-extended where the op is 64-bit).
    Imm(i32),
    /// Constant-bank reference `c[bank][offset]` — how the GPU driver passes
    /// kernel parameters and the stack pointer (paper Fig. 7 reads the stack
    /// top from `c[0x0][0x28]`).
    Const {
        /// Constant bank index (bank 0 holds launch parameters).
        bank: u8,
        /// Byte offset within the bank.
        offset: u16,
    },
}

impl Operand {
    /// Returns the register if this operand is a register.
    pub fn as_reg(self) -> Option<Reg> {
        match self {
            Operand::Reg(r) => Some(r),
            _ => None,
        }
    }

    /// Returns `true` if the slot is occupied.
    pub fn is_some(self) -> bool {
        !matches!(self, Operand::None)
    }
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::Reg(r)
    }
}

impl From<i32> for Operand {
    fn from(v: i32) -> Self {
        Operand::Imm(v)
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::None => write!(f, "-"),
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(v) => write!(f, "{v:#x}"),
            Operand::Const { bank, offset } => write!(f, "c[{bank:#x}][{offset:#x}]"),
        }
    }
}

/// Comparison operation encoded in `ISETP`'s third operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed less-or-equal.
    Le,
    /// Signed greater-than.
    Gt,
    /// Signed greater-or-equal.
    Ge,
}

impl CmpOp {
    /// Immediate encoding of the comparison.
    pub fn encode(self) -> i32 {
        match self {
            CmpOp::Eq => 0,
            CmpOp::Ne => 1,
            CmpOp::Lt => 2,
            CmpOp::Le => 3,
            CmpOp::Gt => 4,
            CmpOp::Ge => 5,
        }
    }

    /// Inverse of [`CmpOp::encode`].
    pub fn decode(v: i32) -> Option<CmpOp> {
        match v {
            0 => Some(CmpOp::Eq),
            1 => Some(CmpOp::Ne),
            2 => Some(CmpOp::Lt),
            3 => Some(CmpOp::Le),
            4 => Some(CmpOp::Gt),
            5 => Some(CmpOp::Ge),
            _ => None,
        }
    }

    /// Evaluates the comparison on signed 64-bit values.
    pub fn eval(self, a: i64, b: i64) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }
}

/// Guard predicate on an instruction (`@P0` / `@!P0` prefixes in SASS).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Predicate {
    /// The predicate register tested.
    pub reg: PredReg,
    /// If `true`, the instruction executes when the predicate is *false*.
    pub negated: bool,
}

impl Predicate {
    /// Guard on `reg` being true.
    pub fn when(reg: PredReg) -> Predicate {
        Predicate { reg, negated: false }
    }

    /// Guard on `reg` being false.
    pub fn unless(reg: PredReg) -> Predicate {
        Predicate { reg, negated: true }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.negated {
            write!(f, "@!{}", self.reg)
        } else {
            write!(f, "@{}", self.reg)
        }
    }
}

/// The two LMI hint bits carried in the reserved microcode field (Fig. 9).
///
/// * `A` (activation, bit 28): the instruction performs pointer handling and
///   its result must be checked by the OCU.
/// * `S` (selection, bit 27): which of the first two source operands holds
///   the incoming pointer value that the OCU compares against the ALU output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct HintBits {
    /// Activation bit — `true` if the OCU must check this instruction.
    pub activate: bool,
    /// Selection bit — index (0 or 1) of the source operand holding the
    /// pointer. Only meaningful when `activate` is set.
    pub select: u8,
}

impl HintBits {
    /// No checking required (the default for every instruction).
    pub const NONE: HintBits = HintBits { activate: false, select: 0 };

    /// Marks the instruction for OCU checking against source operand
    /// `operand_index` (0 or 1).
    ///
    /// # Panics
    ///
    /// Panics if `operand_index > 1` — the S field is a single bit.
    pub fn check_operand(operand_index: u8) -> HintBits {
        assert!(operand_index <= 1, "S bit selects operand 0 or 1");
        HintBits { activate: true, select: operand_index }
    }
}

/// Memory reference of a load/store: `[Rn + offset]` with an access width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemRef {
    /// Base address register (64-bit pair base for global/local/heap;
    /// 32-bit offset register for shared/const).
    pub addr: Reg,
    /// Signed byte offset added to the base.
    pub offset: i32,
    /// Access width in bytes (1, 2, 4, or 8).
    pub width: u8,
}

impl MemRef {
    /// A `width`-byte access at `[addr + offset]`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not 1, 2, 4, or 8.
    pub fn new(addr: Reg, offset: i32, width: u8) -> MemRef {
        assert!(matches!(width, 1 | 2 | 4 | 8), "unsupported access width {width}");
        MemRef { addr, offset, width }
    }
}

impl fmt::Display for MemRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.offset == 0 {
            write!(f, "[{}]", self.addr)
        } else {
            write!(f, "[{}+{:#x}]", self.addr, self.offset)
        }
    }
}

/// A decoded instruction.
///
/// Construct instructions through the typed convenience constructors
/// ([`Instruction::iadd3`], [`Instruction::ldg`], …) rather than by filling
/// fields, so that operand shapes stay valid.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Instruction {
    /// Operation.
    pub opcode: Opcode,
    /// Destination register (or predicate destination index for `ISETP`,
    /// carried in `dst.0`).
    pub dst: Reg,
    /// Source operands (up to three).
    pub srcs: [Operand; 3],
    /// Optional guard predicate.
    pub pred: Option<Predicate>,
    /// Memory reference for load/store opcodes.
    pub mem: Option<MemRef>,
    /// LMI hint bits (reserved-field bits 27/28).
    pub hints: HintBits,
}

impl Instruction {
    fn op3(opcode: Opcode, dst: Reg, a: Operand, b: Operand, c: Operand) -> Instruction {
        Instruction { opcode, dst, srcs: [a, b, c], pred: None, mem: None, hints: HintBits::NONE }
    }

    /// `IADD3 dst, a, b, RZ` — two-input form of the three-input add.
    pub fn iadd3(dst: Reg, a: impl Into<Operand>, b: impl Into<Operand>) -> Instruction {
        Self::op3(Opcode::Iadd3, dst, a.into(), b.into(), Operand::Reg(Reg::RZ))
    }

    /// `IMAD dst, a, b, c`.
    pub fn imad(
        dst: Reg,
        a: impl Into<Operand>,
        b: impl Into<Operand>,
        c: impl Into<Operand>,
    ) -> Instruction {
        Self::op3(Opcode::Imad, dst, a.into(), b.into(), c.into())
    }

    /// `MOV dst, a`.
    pub fn mov(dst: Reg, a: impl Into<Operand>) -> Instruction {
        Self::op3(Opcode::Mov, dst, a.into(), Operand::None, Operand::None)
    }

    /// `MOV64 dst:dst+1, a:a+1` — move a 64-bit register pair.
    pub fn mov64(dst: Reg, a: Reg) -> Instruction {
        Self::op3(Opcode::Mov64, dst, Operand::Reg(a), Operand::None, Operand::None)
    }

    /// `IADD64 dst:dst+1, a:a+1, b` — 64-bit pointer arithmetic.
    pub fn iadd64(dst: Reg, a: Reg, b: impl Into<Operand>) -> Instruction {
        Self::op3(Opcode::Iadd64, dst, Operand::Reg(a), b.into(), Operand::None)
    }

    /// `LEA64 dst:dst+1, base:base+1, idx, shift`.
    pub fn lea64(dst: Reg, base: Reg, idx: impl Into<Operand>, shift: u8) -> Instruction {
        Self::op3(Opcode::Lea64, dst, Operand::Reg(base), idx.into(), Operand::Imm(shift as i32))
    }

    /// `ISETP pN, a, cmp, b` — `dst.0` names the destination predicate.
    pub fn isetp(
        dst: PredReg,
        a: impl Into<Operand>,
        cmp: CmpOp,
        b: impl Into<Operand>,
    ) -> Instruction {
        Self::op3(Opcode::Isetp, Reg(dst.0), a.into(), b.into(), Operand::Imm(cmp.encode()))
    }

    /// Generic binary integer op (`SHL`, `SHR`, `AND`, `OR`, `XOR`, …).
    pub fn int2(
        opcode: Opcode,
        dst: Reg,
        a: impl Into<Operand>,
        b: impl Into<Operand>,
    ) -> Instruction {
        Self::op3(opcode, dst, a.into(), b.into(), Operand::None)
    }

    /// Generic binary float op (`FADD`, `FMUL`).
    pub fn float2(
        opcode: Opcode,
        dst: Reg,
        a: impl Into<Operand>,
        b: impl Into<Operand>,
    ) -> Instruction {
        Self::op3(opcode, dst, a.into(), b.into(), Operand::None)
    }

    /// `FFMA dst, a, b, c`.
    pub fn ffma(
        dst: Reg,
        a: impl Into<Operand>,
        b: impl Into<Operand>,
        c: impl Into<Operand>,
    ) -> Instruction {
        Self::op3(Opcode::Ffma, dst, a.into(), b.into(), c.into())
    }

    fn load(opcode: Opcode, dst: Reg, mem: MemRef) -> Instruction {
        Instruction {
            opcode,
            dst,
            srcs: [Operand::None; 3],
            pred: None,
            mem: Some(mem),
            hints: HintBits::NONE,
        }
    }

    fn store(opcode: Opcode, value: Reg, mem: MemRef) -> Instruction {
        Instruction {
            opcode,
            dst: Reg::RZ,
            srcs: [Operand::Reg(value), Operand::None, Operand::None],
            pred: None,
            mem: Some(mem),
            hints: HintBits::NONE,
        }
    }

    /// `LDG dst, [addr+offset]` — global load.
    pub fn ldg(dst: Reg, mem: MemRef) -> Instruction {
        Self::load(Opcode::Ldg, dst, mem)
    }

    /// `STG [addr+offset], value` — global store.
    pub fn stg(mem: MemRef, value: Reg) -> Instruction {
        Self::store(Opcode::Stg, value, mem)
    }

    /// `LDS dst, [addr+offset]` — shared load.
    pub fn lds(dst: Reg, mem: MemRef) -> Instruction {
        Self::load(Opcode::Lds, dst, mem)
    }

    /// `STS [addr+offset], value` — shared store.
    pub fn sts(mem: MemRef, value: Reg) -> Instruction {
        Self::store(Opcode::Sts, value, mem)
    }

    /// `LDL dst, [addr+offset]` — local load.
    pub fn ldl(dst: Reg, mem: MemRef) -> Instruction {
        Self::load(Opcode::Ldl, dst, mem)
    }

    /// `STL [addr+offset], value` — local store.
    pub fn stl(mem: MemRef, value: Reg) -> Instruction {
        Self::store(Opcode::Stl, value, mem)
    }

    /// `LDC dst, c[bank][offset]` — constant load.
    pub fn ldc(dst: Reg, bank: u8, offset: u16, width: u8) -> Instruction {
        let mut ins = Self::load(Opcode::Ldc, dst, MemRef::new(Reg::RZ, offset as i32, width));
        ins.srcs[0] = Operand::Const { bank, offset };
        ins
    }

    /// `MALLOC dst:dst+1, size` — device-heap allocation intrinsic.
    pub fn malloc(dst: Reg, size: impl Into<Operand>) -> Instruction {
        Self::op3(Opcode::Malloc, dst, size.into(), Operand::None, Operand::None)
    }

    /// `FREE ptr:ptr+1` — device-heap free intrinsic.
    pub fn free(ptr: Reg) -> Instruction {
        Self::op3(Opcode::Free, Reg::RZ, Operand::Reg(ptr), Operand::None, Operand::None)
    }

    /// `S2R dst, special` — read a special register.
    pub fn s2r(dst: Reg, special: SpecialReg) -> Instruction {
        Self::op3(
            Opcode::S2r,
            dst,
            Operand::Imm(special.selector() as i32),
            Operand::None,
            Operand::None,
        )
    }

    /// `BRA target` — branch to absolute instruction index `target`.
    pub fn bra(target: i32) -> Instruction {
        Self::op3(Opcode::Bra, Reg::RZ, Operand::Imm(target), Operand::None, Operand::None)
    }

    /// `BAR` — block-wide barrier.
    pub fn bar() -> Instruction {
        Self::op3(Opcode::Bar, Reg::RZ, Operand::None, Operand::None, Operand::None)
    }

    /// `EXIT`.
    pub fn exit() -> Instruction {
        Self::op3(Opcode::Exit, Reg::RZ, Operand::None, Operand::None, Operand::None)
    }

    /// `NOP`.
    pub fn nop() -> Instruction {
        Self::op3(Opcode::Nop, Reg::RZ, Operand::None, Operand::None, Operand::None)
    }

    /// Attaches LMI hint bits.
    ///
    /// # Panics
    ///
    /// Panics if `hints.activate` is set on an opcode outside the integer
    /// ALU — the OCU only exists next to integer ALUs (paper Fig. 10), so
    /// the compiler must never mark other instruction classes.
    pub fn with_hints(mut self, hints: HintBits) -> Instruction {
        assert!(
            !hints.activate || self.opcode.can_carry_hints(),
            "{} cannot carry the activation hint",
            self.opcode
        );
        self.hints = hints;
        self
    }

    /// Attaches a guard predicate.
    pub fn with_pred(mut self, pred: Predicate) -> Instruction {
        self.pred = Some(pred);
        self
    }

    /// Which source-operand slots read a full 64-bit register pair.
    ///
    /// Conventions (shared with the simulator's executor):
    /// * `IADD64` — both register sources are pairs (immediates
    ///   sign-extend), so the pointer can sit in either slot and the S hint
    ///   bit is meaningful;
    /// * `MOV64`, `FREE` — the single source is a pair;
    /// * `LEA64` — the base (slot 0) is a pair, the index is 32-bit;
    /// * everything else reads 32-bit registers.
    pub fn pair_source_slots(&self) -> [bool; 3] {
        match self.opcode {
            Opcode::Iadd64 => [true, true, false],
            Opcode::Mov64 | Opcode::Free | Opcode::Lea64 => [true, false, false],
            _ => [false; 3],
        }
    }

    /// The registers read by this instruction (for scoreboarding),
    /// expanded to individual 32-bit registers. Address registers are
    /// 64-bit pairs in every space except constant-bank addressing.
    pub fn source_regs(&self) -> impl Iterator<Item = Reg> + '_ {
        let slots = self.srcs.iter().zip(self.pair_source_slots());
        let slots = slots.filter_map(|(src, pair)| Some((src.as_reg()?, pair)));
        let addr = self.mem.map(|m| (m.addr, self.opcode != Opcode::Ldc));
        slots.chain(addr).filter(|(r, _)| !r.is_zero_reg()).flat_map(|(r, pair)| {
            std::iter::once(r).chain((pair && r.is_valid_pair_base()).then(|| r.pair_high()))
        })
    }

    /// The registers written by this instruction.
    pub fn dest_regs(&self) -> Vec<Reg> {
        if self.opcode == Opcode::Isetp || self.opcode.is_store() {
            return Vec::new();
        }
        if self.dst.is_zero_reg() {
            return Vec::new();
        }
        let mut regs = vec![self.dst];
        let wide_dest = self.opcode.is_wide()
            || self.opcode == Opcode::Malloc
            || (self.opcode.is_load() && self.mem.map(|m| m.width) == Some(8));
        if wide_dest && self.dst.is_valid_pair_base() {
            regs.push(self.dst.pair_high());
        }
        regs
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(p) = &self.pred {
            write!(f, "{p} ")?;
        }
        write!(f, "{}", self.opcode)?;
        if self.hints.activate {
            write!(f, ".A{}", self.hints.select)?;
        }
        match (&self.mem, self.opcode.is_store()) {
            (Some(mem), false) if self.opcode.is_load() => {
                write!(f, " {}, {mem}", self.dst)?;
            }
            (Some(mem), true) => {
                write!(f, " {mem}, {}", self.srcs[0])?;
            }
            _ if self.opcode == Opcode::Isetp => {
                let cmp = match self.srcs[2] {
                    Operand::Imm(v) => CmpOp::decode(v),
                    _ => None,
                };
                let name = match cmp {
                    Some(CmpOp::Eq) => "EQ",
                    Some(CmpOp::Ne) => "NE",
                    Some(CmpOp::Lt) => "LT",
                    Some(CmpOp::Le) => "LE",
                    Some(CmpOp::Gt) => "GT",
                    Some(CmpOp::Ge) => "GE",
                    None => "??",
                };
                write!(
                    f,
                    " {}, {}, {name}, {}",
                    PredReg(self.dst.0 & 7),
                    self.srcs[0],
                    self.srcs[1]
                )?;
            }
            _ => {
                // Control ops and FREE have no architectural destination.
                let skip_dst = matches!(
                    self.opcode,
                    Opcode::Bra | Opcode::Bar | Opcode::Exit | Opcode::Nop | Opcode::Free
                );
                let mut first = true;
                if !skip_dst {
                    write!(f, " {}", self.dst)?;
                    first = false;
                }
                for src in self.srcs.iter().filter(|s| s.is_some()) {
                    if first {
                        write!(f, " {src}")?;
                        first = false;
                    } else {
                        write!(f, ", {src}")?;
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_produce_expected_shapes() {
        let i = Instruction::iadd3(Reg(0), Reg(1), 5);
        assert_eq!(i.opcode, Opcode::Iadd3);
        assert_eq!(i.srcs[0], Operand::Reg(Reg(1)));
        assert_eq!(i.srcs[1], Operand::Imm(5));
        assert_eq!(i.srcs[2], Operand::Reg(Reg::RZ));
    }

    #[test]
    fn hint_on_fpu_panics() {
        let result = std::panic::catch_unwind(|| {
            Instruction::float2(Opcode::Fadd, Reg(0), Reg(1), Reg(2))
                .with_hints(HintBits::check_operand(0))
        });
        assert!(result.is_err());
    }

    #[test]
    fn hint_on_int_alu_is_allowed() {
        let i = Instruction::iadd64(Reg(4), Reg(4), 8).with_hints(HintBits::check_operand(0));
        assert!(i.hints.activate);
        assert_eq!(i.hints.select, 0);
    }

    #[test]
    fn wide_op_reads_full_pair() {
        let i = Instruction::iadd64(Reg(4), Reg(6), Reg(2));
        let srcs: Vec<_> = i.source_regs().collect();
        assert!(srcs.contains(&Reg(6)));
        assert!(srcs.contains(&Reg(7)), "pair high of first operand");
        assert!(srcs.contains(&Reg(2)));
        assert!(srcs.contains(&Reg(3)), "register second operand is a pair too");
        let dsts = i.dest_regs();
        assert_eq!(dsts, vec![Reg(4), Reg(5)]);
    }

    #[test]
    fn global_load_reads_address_pair() {
        let i = Instruction::ldg(Reg(8), MemRef::new(Reg(4), 0, 4));
        let srcs: Vec<_> = i.source_regs().collect();
        assert!(srcs.contains(&Reg(4)));
        assert!(srcs.contains(&Reg(5)));
        assert_eq!(i.dest_regs(), vec![Reg(8)]);
    }

    #[test]
    fn shared_load_address_is_also_a_pair() {
        let i = Instruction::lds(Reg(8), MemRef::new(Reg(4), 0, 4));
        let srcs: Vec<_> = i.source_regs().collect();
        assert!(srcs.contains(&Reg(4)));
        assert!(srcs.contains(&Reg(5)), "shared addresses are full VAs here");
    }

    #[test]
    fn iadd64_reads_both_register_sources_as_pairs() {
        let i = Instruction::iadd64(Reg(8), Reg(4), Reg(6));
        let srcs: Vec<_> = i.source_regs().collect();
        assert!(srcs.contains(&Reg(6)) && srcs.contains(&Reg(7)));
        let lea = Instruction::lea64(Reg(8), Reg(4), Reg(6), 2);
        let srcs: Vec<_> = lea.source_regs().collect();
        assert!(srcs.contains(&Reg(6)) && !srcs.contains(&Reg(7)), "LEA index is 32-bit");
    }

    #[test]
    fn wide_load_writes_pair() {
        let i = Instruction::ldg(Reg(8), MemRef::new(Reg(4), 0, 8));
        assert_eq!(i.dest_regs(), vec![Reg(8), Reg(9)]);
    }

    #[test]
    fn store_has_no_dest() {
        let i = Instruction::stg(MemRef::new(Reg(4), 0, 4), Reg(8));
        assert!(i.dest_regs().is_empty());
        assert!(i.source_regs().any(|r| r == Reg(8)));
    }

    #[test]
    fn malloc_writes_a_pair_and_free_reads_one() {
        let m = Instruction::malloc(Reg(4), Reg(0));
        assert_eq!(m.dest_regs(), vec![Reg(4), Reg(5)]);
        let f = Instruction::free(Reg(4));
        let srcs: Vec<_> = f.source_regs().collect();
        assert!(srcs.contains(&Reg(4)) && srcs.contains(&Reg(5)));
        assert!(f.dest_regs().is_empty());
    }

    #[test]
    fn cmp_ops_round_trip_and_eval() {
        for cmp in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
            assert_eq!(CmpOp::decode(cmp.encode()), Some(cmp));
        }
        assert!(CmpOp::Lt.eval(1, 2));
        assert!(!CmpOp::Lt.eval(2, 2));
        assert!(CmpOp::Ge.eval(2, 2));
    }

    #[test]
    fn display_is_sass_like() {
        let i = Instruction::iadd64(Reg(4), Reg(4), 16).with_hints(HintBits::check_operand(0));
        assert_eq!(i.to_string(), "IADD64.A0 R4, R4, 0x10");
        let l = Instruction::ldg(Reg(8), MemRef::new(Reg(4), 4, 4));
        assert_eq!(l.to_string(), "LDG R8, [R4+0x4]");
        let s = Instruction::stg(MemRef::new(Reg(4), 0, 4), Reg(8));
        assert_eq!(s.to_string(), "STG [R4], R8");
    }

    #[test]
    #[should_panic(expected = "unsupported access width")]
    fn bad_width_rejected() {
        let _ = MemRef::new(Reg(0), 0, 3);
    }
}
