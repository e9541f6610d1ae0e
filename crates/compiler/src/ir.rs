//! A small SSA kernel IR, shaped like the LLVM subset GPU kernels compile
//! to: straight-line arithmetic, GEP-style pointer arithmetic, loads/stores
//! per memory region, allocas, device `malloc`/`free`, and structured
//! control flow.
//!
//! Mutable scalars are modeled with explicit *vars* (register-resident
//! slots, as in pre-`mem2reg` LLVM but without memory traffic) so the
//! pointer-ness analysis has real dataflow to chew on without needing phis.

use std::fmt;

/// Index of an instruction (and of the value it produces).
pub type ValueId = usize;

/// Index of a basic block.
pub type BlockId = usize;

/// Index of a mutable register-resident variable.
pub type VarId = usize;

/// Memory region a pointer refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Region {
    /// Global memory (`cudaMalloc` buffers passed as kernel arguments).
    Global,
    /// Per-block shared memory.
    Shared,
    /// Per-thread local/stack memory.
    Local,
    /// Device heap (in-kernel `malloc`).
    Heap,
}

/// Value types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Ty {
    /// 32-bit integer.
    I32,
    /// 64-bit integer (non-pointer).
    I64,
    /// 32-bit float.
    F32,
    /// Pointer into `Region`.
    Ptr(Region),
    /// Comparison result (usable only by `branch`).
    Bool,
}

impl Ty {
    /// Returns `true` for pointer types.
    pub fn is_ptr(self) -> bool {
        matches!(self, Ty::Ptr(_))
    }
}

/// Integer binary operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IBinOp {
    /// Addition (becomes pointer arithmetic when an operand is a pointer).
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Left shift.
    Shl,
    /// Logical right shift.
    Shr,
}

/// Float binary operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FBinOp {
    /// Addition.
    Add,
    /// Multiplication.
    Mul,
}

/// Comparison predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpKind {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed greater-or-equal.
    Ge,
}

/// Instruction kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum InstKind {
    /// 32-bit integer constant.
    ConstI32(i32),
    /// 64-bit integer constant.
    ConstI64(i64),
    /// 32-bit float constant.
    ConstF32(f32),
    /// Kernel parameter `index` (type recorded in the function signature).
    Param(usize),
    /// Thread index within the block.
    Tid,
    /// Block index.
    CtaId,
    /// Threads per block.
    NTid,
    /// Stack buffer of `size` bytes; yields a `Ptr(Local)`.
    Alloca {
        /// Requested size in bytes.
        size: u64,
    },
    /// Static shared buffer of `size` bytes; yields a `Ptr(Shared)`.
    SharedAlloc {
        /// Requested size in bytes.
        size: u64,
    },
    /// Device-heap allocation; yields a `Ptr(Heap)`.
    Malloc {
        /// Size value (i32).
        size: ValueId,
    },
    /// Device-heap free.
    Free {
        /// Pointer to free.
        ptr: ValueId,
    },
    /// `ptr + index * scale` — pointer arithmetic.
    Gep {
        /// Base pointer.
        ptr: ValueId,
        /// Element index (i32).
        index: ValueId,
        /// Element size in bytes.
        scale: u8,
    },
    /// Integer add with explicit operand order (exercises the S hint bit
    /// when the pointer is the *second* operand).
    IBin {
        /// Operation.
        op: IBinOp,
        /// Left operand.
        a: ValueId,
        /// Right operand.
        b: ValueId,
    },
    /// Float arithmetic.
    FBin {
        /// Operation.
        op: FBinOp,
        /// Left operand.
        a: ValueId,
        /// Right operand.
        b: ValueId,
    },
    /// Comparison producing a `Bool` for `branch`.
    Cmp {
        /// Predicate.
        kind: CmpKind,
        /// Left operand.
        a: ValueId,
        /// Right operand.
        b: ValueId,
    },
    /// Load of `width` bytes through `ptr`.
    Load {
        /// Address.
        ptr: ValueId,
        /// Access width in bytes.
        width: u8,
    },
    /// Store of `value` (`width` bytes) through `ptr`.
    Store {
        /// Address.
        ptr: ValueId,
        /// Value to store.
        value: ValueId,
        /// Access width in bytes.
        width: u8,
    },
    /// Forbidden cast: pointer to integer (the pass rejects it, §XII-B).
    PtrToInt {
        /// Source pointer.
        ptr: ValueId,
    },
    /// Forbidden cast: integer to pointer (the pass rejects it, §XII-B).
    IntToPtr {
        /// Source integer.
        value: ValueId,
        /// Claimed region.
        region: Region,
    },
    /// Read a mutable variable.
    ReadVar(VarId),
    /// Write a mutable variable (effect only).
    WriteVar {
        /// Destination variable.
        var: VarId,
        /// Stored value.
        value: ValueId,
    },
    /// Extent nullification (inserted by [`crate::pass::transform`]).
    Invalidate {
        /// The pointer value whose register extent is cleared.
        ptr: ValueId,
    },
}

impl InstKind {
    /// The values this instruction reads, in operand order.
    pub fn operands(&self) -> impl Iterator<Item = ValueId> {
        let (first, second) = match *self {
            InstKind::Malloc { size } => (Some(size), None),
            InstKind::Free { ptr }
            | InstKind::Invalidate { ptr }
            | InstKind::PtrToInt { ptr }
            | InstKind::Load { ptr, .. } => (Some(ptr), None),
            InstKind::IntToPtr { value, .. } | InstKind::WriteVar { value, .. } => {
                (Some(value), None)
            }
            InstKind::Gep { ptr, index, .. } => (Some(ptr), Some(index)),
            InstKind::IBin { a, b, .. }
            | InstKind::FBin { a, b, .. }
            | InstKind::Cmp { a, b, .. } => (Some(a), Some(b)),
            InstKind::Store { ptr, value, .. } => (Some(ptr), Some(value)),
            InstKind::ConstI32(_)
            | InstKind::ConstI64(_)
            | InstKind::ConstF32(_)
            | InstKind::Param(_)
            | InstKind::Tid
            | InstKind::CtaId
            | InstKind::NTid
            | InstKind::Alloca { .. }
            | InstKind::SharedAlloc { .. }
            | InstKind::ReadVar(_) => (None, None),
        };
        first.into_iter().chain(second)
    }
}

/// An instruction plus the type of the value it produces (if any).
#[derive(Debug, Clone, PartialEq)]
pub struct Inst {
    /// Operation.
    pub kind: InstKind,
    /// Result type (`None` for effect-only instructions).
    pub ty: Option<Ty>,
}

/// Block terminators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Terminator {
    /// Unconditional jump.
    Jump(BlockId),
    /// Two-way branch on a `Bool` value.
    Branch {
        /// Condition.
        cond: ValueId,
        /// Target when true.
        then_: BlockId,
        /// Target when false.
        else_: BlockId,
    },
    /// Return from the kernel.
    Ret,
    /// Placeholder while the block is under construction.
    Unterminated,
}

/// A basic block.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Instructions in order.
    pub insts: Vec<ValueId>,
    /// The terminator.
    pub term: Terminator,
}

/// A kernel function.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Kernel name.
    pub name: String,
    /// Parameter types.
    pub params: Vec<Ty>,
    /// Variable types.
    pub vars: Vec<Ty>,
    /// Instruction arena (`ValueId` indexes it).
    pub insts: Vec<Inst>,
    /// Basic blocks (`BlockId` indexes it); block 0 is the entry.
    pub blocks: Vec<Block>,
}

impl Function {
    /// Iterates over `(block, position, value)` in program order.
    pub fn iter_insts(&self) -> impl Iterator<Item = (BlockId, usize, ValueId)> + '_ {
        self.blocks
            .iter()
            .enumerate()
            .flat_map(|(b, block)| block.insts.iter().enumerate().map(move |(i, &v)| (b, i, v)))
    }

    /// Number of instructions reachable from the block lists — the "IR op
    /// count" the conformance shrinker minimizes (dead arena entries whose
    /// values no block references are not lowered and do not count).
    pub fn op_count(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }

    /// Total stack bytes requested by allocas (unaligned).
    pub fn alloca_bytes(&self) -> u64 {
        self.insts
            .iter()
            .filter_map(|inst| match inst.kind {
                InstKind::Alloca { size } => Some(size),
                _ => None,
            })
            .sum()
    }
}

impl fmt::Display for Function {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "kernel @{}({:?})", self.name, self.params)?;
        for (b, block) in self.blocks.iter().enumerate() {
            writeln!(f, "bb{b}:")?;
            for &v in &block.insts {
                writeln!(f, "  %{v} = {:?}", self.insts[v].kind)?;
            }
            writeln!(f, "  {:?}", block.term)?;
        }
        Ok(())
    }
}

/// Builder for [`Function`].
///
/// Typed helper methods validate operand types as the function is built,
/// panicking on misuse (builder bugs are programmer errors, not input
/// errors).
#[derive(Debug)]
pub struct FunctionBuilder {
    func: Function,
    current: BlockId,
}

impl FunctionBuilder {
    /// Starts a function with an empty entry block.
    pub fn new(name: impl Into<String>) -> FunctionBuilder {
        FunctionBuilder {
            func: Function {
                name: name.into(),
                params: Vec::new(),
                vars: Vec::new(),
                insts: Vec::new(),
                blocks: vec![Block { insts: Vec::new(), term: Terminator::Unterminated }],
            },
            current: 0,
        }
    }

    fn ty_of(&self, v: ValueId) -> Ty {
        self.func.insts[v].ty.expect("operand must produce a value")
    }

    fn push(&mut self, kind: InstKind, ty: Option<Ty>) -> ValueId {
        let id = self.func.insts.len();
        self.func.insts.push(Inst { kind, ty });
        self.func.blocks[self.current].insts.push(id);
        id
    }

    /// Declares a kernel parameter; returns its value.
    pub fn param(&mut self, ty: Ty) -> ValueId {
        let index = self.func.params.len();
        self.func.params.push(ty);
        self.push(InstKind::Param(index), Some(ty))
    }

    /// Declares a mutable variable initialized with `init`.
    pub fn var(&mut self, init: ValueId) -> VarId {
        let ty = self.ty_of(init);
        let var = self.func.vars.len();
        self.func.vars.push(ty);
        self.push(InstKind::WriteVar { var, value: init }, None);
        var
    }

    /// Reads a variable.
    pub fn read_var(&mut self, var: VarId) -> ValueId {
        let ty = self.func.vars[var];
        self.push(InstKind::ReadVar(var), Some(ty))
    }

    /// Writes a variable.
    ///
    /// # Panics
    ///
    /// Panics if the value type differs from the variable's declared type.
    pub fn write_var(&mut self, var: VarId, value: ValueId) {
        assert_eq!(self.func.vars[var], self.ty_of(value), "var type mismatch");
        self.push(InstKind::WriteVar { var, value }, None);
    }

    /// 32-bit integer constant.
    pub fn const_i32(&mut self, v: i32) -> ValueId {
        self.push(InstKind::ConstI32(v), Some(Ty::I32))
    }

    /// 64-bit integer constant.
    pub fn const_i64(&mut self, v: i64) -> ValueId {
        self.push(InstKind::ConstI64(v), Some(Ty::I64))
    }

    /// Float constant.
    pub fn const_f32(&mut self, v: f32) -> ValueId {
        self.push(InstKind::ConstF32(v), Some(Ty::F32))
    }

    /// Thread index.
    pub fn tid(&mut self) -> ValueId {
        self.push(InstKind::Tid, Some(Ty::I32))
    }

    /// Block index.
    pub fn ctaid(&mut self) -> ValueId {
        self.push(InstKind::CtaId, Some(Ty::I32))
    }

    /// Threads per block.
    pub fn ntid(&mut self) -> ValueId {
        self.push(InstKind::NTid, Some(Ty::I32))
    }

    /// Stack buffer.
    pub fn alloca(&mut self, size: u64) -> ValueId {
        self.push(InstKind::Alloca { size }, Some(Ty::Ptr(Region::Local)))
    }

    /// Static shared buffer.
    pub fn shared_alloc(&mut self, size: u64) -> ValueId {
        self.push(InstKind::SharedAlloc { size }, Some(Ty::Ptr(Region::Shared)))
    }

    /// Device-heap allocation.
    pub fn malloc(&mut self, size: ValueId) -> ValueId {
        assert_eq!(self.ty_of(size), Ty::I32, "malloc size must be i32");
        self.push(InstKind::Malloc { size }, Some(Ty::Ptr(Region::Heap)))
    }

    /// Device-heap free.
    pub fn free(&mut self, ptr: ValueId) {
        assert!(self.ty_of(ptr).is_ptr(), "free takes a pointer");
        self.push(InstKind::Free { ptr }, None);
    }

    /// Pointer arithmetic: `ptr + index * scale`.
    pub fn gep(&mut self, ptr: ValueId, index: ValueId, scale: u8) -> ValueId {
        let ty = self.ty_of(ptr);
        assert!(ty.is_ptr(), "gep base must be a pointer");
        assert_eq!(self.ty_of(index), Ty::I32, "gep index must be i32");
        self.push(InstKind::Gep { ptr, index, scale }, Some(ty))
    }

    /// Integer arithmetic. When an operand is a pointer and `op` is
    /// `Add`/`Sub`, the result is a pointer (C pointer arithmetic).
    pub fn ibin(&mut self, op: IBinOp, a: ValueId, b: ValueId) -> ValueId {
        let ta = self.ty_of(a);
        let tb = self.ty_of(b);
        let ty = match (ta, tb) {
            (Ty::Ptr(r), _) | (_, Ty::Ptr(r)) if matches!(op, IBinOp::Add | IBinOp::Sub) => {
                Ty::Ptr(r)
            }
            (Ty::I32, Ty::I32) => Ty::I32,
            other => panic!("ibin type mismatch: {other:?}"),
        };
        self.push(InstKind::IBin { op, a, b }, Some(ty))
    }

    /// Float multiply.
    pub fn fmul(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.fbin(FBinOp::Mul, a, b)
    }

    /// Float add.
    pub fn fadd(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.fbin(FBinOp::Add, a, b)
    }

    fn fbin(&mut self, op: FBinOp, a: ValueId, b: ValueId) -> ValueId {
        assert_eq!(self.ty_of(a), Ty::F32);
        assert_eq!(self.ty_of(b), Ty::F32);
        self.push(InstKind::FBin { op, a, b }, Some(Ty::F32))
    }

    /// Comparison for use by [`FunctionBuilder::branch`].
    pub fn cmp(&mut self, kind: CmpKind, a: ValueId, b: ValueId) -> ValueId {
        self.push(InstKind::Cmp { kind, a, b }, Some(Ty::Bool))
    }

    /// 32-bit load.
    pub fn load_i32(&mut self, ptr: ValueId) -> ValueId {
        assert!(self.ty_of(ptr).is_ptr());
        self.push(InstKind::Load { ptr, width: 4 }, Some(Ty::I32))
    }

    /// Float load.
    pub fn load_f32(&mut self, ptr: ValueId) -> ValueId {
        assert!(self.ty_of(ptr).is_ptr());
        self.push(InstKind::Load { ptr, width: 4 }, Some(Ty::F32))
    }

    /// 64-bit load (a line-straddling width when the address is not
    /// 8-aligned — the conformance generator exercises exactly that).
    pub fn load_i64(&mut self, ptr: ValueId) -> ValueId {
        assert!(self.ty_of(ptr).is_ptr());
        self.push(InstKind::Load { ptr, width: 8 }, Some(Ty::I64))
    }

    /// Store (width 4 or 8).
    pub fn store(&mut self, ptr: ValueId, value: ValueId, width: u8) {
        assert!(self.ty_of(ptr).is_ptr());
        self.push(InstKind::Store { ptr, value, width }, None);
    }

    /// Forbidden `ptrtoint` (kept so the §XII-B rejection can be tested).
    pub fn ptr_to_int(&mut self, ptr: ValueId) -> ValueId {
        assert!(self.ty_of(ptr).is_ptr());
        self.push(InstKind::PtrToInt { ptr }, Some(Ty::I64))
    }

    /// Forbidden `inttoptr` (kept so the §XII-B rejection can be tested).
    pub fn int_to_ptr(&mut self, value: ValueId, region: Region) -> ValueId {
        self.push(InstKind::IntToPtr { value, region }, Some(Ty::Ptr(region)))
    }

    /// Creates a new (empty, unterminated) block; building continues in the
    /// current block until [`FunctionBuilder::switch_to`].
    pub fn new_block(&mut self) -> BlockId {
        self.func.blocks.push(Block { insts: Vec::new(), term: Terminator::Unterminated });
        self.func.blocks.len() - 1
    }

    /// Moves the insertion point.
    pub fn switch_to(&mut self, block: BlockId) {
        self.current = block;
    }

    /// Terminates the current block with a jump.
    pub fn jump(&mut self, target: BlockId) {
        self.func.blocks[self.current].term = Terminator::Jump(target);
    }

    /// Terminates the current block with a conditional branch.
    ///
    /// # Panics
    ///
    /// Panics if `cond` is not a `Bool`.
    pub fn branch(&mut self, cond: ValueId, then_: BlockId, else_: BlockId) {
        assert_eq!(self.ty_of(cond), Ty::Bool, "branch condition must be a cmp");
        self.func.blocks[self.current].term = Terminator::Branch { cond, then_, else_ };
    }

    /// Terminates the current block with a return.
    pub fn ret(&mut self) {
        self.func.blocks[self.current].term = Terminator::Ret;
    }

    /// Finalizes the function.
    ///
    /// # Panics
    ///
    /// Panics if any block is unterminated.
    pub fn build(self) -> Function {
        for (i, block) in self.func.blocks.iter().enumerate() {
            assert_ne!(block.term, Terminator::Unterminated, "bb{i} lacks a terminator");
        }
        self.func
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_well_formed_functions() {
        let mut b = FunctionBuilder::new("k");
        let p = b.param(Ty::Ptr(Region::Global));
        let t = b.tid();
        let e = b.gep(p, t, 4);
        let v = b.load_i32(e);
        let one = b.const_i32(1);
        let v2 = b.ibin(IBinOp::Add, v, one);
        b.store(e, v2, 4);
        b.ret();
        let f = b.build();
        assert_eq!(f.params.len(), 1);
        assert_eq!(f.blocks.len(), 1);
        assert_eq!(f.blocks[0].term, Terminator::Ret);
        assert!(f.iter_insts().count() >= 7);
    }

    #[test]
    fn pointer_add_produces_pointer() {
        let mut b = FunctionBuilder::new("k");
        let p = b.param(Ty::Ptr(Region::Heap));
        let four = b.const_i32(4);
        let q = b.ibin(IBinOp::Add, four, p); // pointer in operand 1
        assert_eq!(b.func.insts[q].ty, Some(Ty::Ptr(Region::Heap)));
        b.ret();
        b.build();
    }

    #[test]
    #[should_panic(expected = "lacks a terminator")]
    fn unterminated_block_is_rejected() {
        let mut b = FunctionBuilder::new("k");
        b.new_block();
        b.ret(); // only terminates the entry block
        b.build();
    }

    #[test]
    fn vars_support_loop_style_dataflow() {
        let mut b = FunctionBuilder::new("k");
        let zero = b.const_i32(0);
        let i = b.var(zero);
        let body = b.new_block();
        let exit = b.new_block();
        b.jump(body);
        b.switch_to(body);
        let iv = b.read_var(i);
        let one = b.const_i32(1);
        let next = b.ibin(IBinOp::Add, iv, one);
        b.write_var(i, next);
        let n = b.const_i32(10);
        let c = b.cmp(CmpKind::Lt, next, n);
        b.branch(c, body, exit);
        b.switch_to(exit);
        b.ret();
        let f = b.build();
        assert_eq!(f.vars.len(), 1);
        assert_eq!(f.blocks.len(), 3);
    }

    #[test]
    fn alloca_bytes_sums_requests() {
        let mut b = FunctionBuilder::new("k");
        b.alloca(96);
        b.alloca(300);
        b.ret();
        assert_eq!(b.build().alloca_bytes(), 396);
    }
}
