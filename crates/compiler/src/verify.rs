//! Structural IR validation.
//!
//! The [`crate::ir::FunctionBuilder`] maintains most invariants by
//! construction, but IR can also arrive from transformation passes or be
//! assembled programmatically; [`verify`] checks the invariants the rest of
//! the compiler assumes before analysis and codegen run.

use std::fmt;

use crate::ir::{Function, InstKind, Terminator, Ty, ValueId};

/// A structural defect found in a function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// A block's instruction list references an out-of-range value id.
    DanglingInst {
        /// The block.
        block: usize,
        /// The bad id.
        inst: ValueId,
    },
    /// An instruction uses a value that is not defined before it in
    /// program order.
    UseBeforeDef {
        /// The using instruction.
        user: ValueId,
        /// The undefined operand.
        operand: ValueId,
    },
    /// A terminator targets a nonexistent block.
    BadBranchTarget {
        /// The branching block.
        block: usize,
        /// The missing target.
        target: usize,
    },
    /// A block was left unterminated.
    Unterminated {
        /// The block.
        block: usize,
    },
    /// A branch condition is not a `Bool`.
    NonBoolCondition {
        /// The branching block.
        block: usize,
    },
    /// A variable id exceeds the declared variable count.
    BadVariable {
        /// The instruction.
        inst: ValueId,
        /// The bad variable id.
        var: usize,
    },
    /// A value id appears in more than one block (SSA values have a single
    /// definition point).
    Redefined {
        /// The value.
        inst: ValueId,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::DanglingInst { block, inst } => {
                write!(f, "bb{block} references out-of-range value %{inst}")
            }
            VerifyError::UseBeforeDef { user, operand } => {
                write!(f, "%{user} uses %{operand} before its definition")
            }
            VerifyError::BadBranchTarget { block, target } => {
                write!(f, "bb{block} branches to nonexistent bb{target}")
            }
            VerifyError::Unterminated { block } => write!(f, "bb{block} lacks a terminator"),
            VerifyError::NonBoolCondition { block } => {
                write!(f, "bb{block}'s branch condition is not a bool")
            }
            VerifyError::BadVariable { inst, var } => {
                write!(f, "%{inst} references undeclared variable v{var}")
            }
            VerifyError::Redefined { inst } => write!(f, "%{inst} is placed more than once"),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Verifies a function's structural invariants.
///
/// Uses a conservative dominance approximation: a use is considered
/// defined if its definition appears earlier in the flattened
/// block-by-block program order — exact for the builder's output, where
/// values are created at their insertion point.
///
/// # Errors
///
/// The first [`VerifyError`] found.
pub fn verify(func: &Function) -> Result<(), VerifyError> {
    let n = func.insts.len();
    let mut placed = vec![false; n];
    let mut defined = vec![false; n];

    for (b, block) in func.blocks.iter().enumerate() {
        for &v in &block.insts {
            if v >= n {
                return Err(VerifyError::DanglingInst { block: b, inst: v });
            }
            if placed[v] {
                return Err(VerifyError::Redefined { inst: v });
            }
            placed[v] = true;
            for op in func.insts[v].kind.operands() {
                if op >= n || !defined[op] {
                    return Err(VerifyError::UseBeforeDef { user: v, operand: op });
                }
            }
            match func.insts[v].kind {
                InstKind::ReadVar(var) | InstKind::WriteVar { var, .. }
                    if var >= func.vars.len() =>
                {
                    return Err(VerifyError::BadVariable { inst: v, var });
                }
                _ => {}
            }
            defined[v] = true;
        }
        match block.term {
            Terminator::Jump(t) => {
                if t >= func.blocks.len() {
                    return Err(VerifyError::BadBranchTarget { block: b, target: t });
                }
            }
            Terminator::Branch { cond, then_, else_ } => {
                for t in [then_, else_] {
                    if t >= func.blocks.len() {
                        return Err(VerifyError::BadBranchTarget { block: b, target: t });
                    }
                }
                if cond >= n || func.insts[cond].ty != Some(Ty::Bool) {
                    return Err(VerifyError::NonBoolCondition { block: b });
                }
            }
            Terminator::Ret => {}
            Terminator::Unterminated => return Err(VerifyError::Unterminated { block: b }),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Block, CmpKind, FunctionBuilder, IBinOp, Inst, Region};
    use crate::pass::transform;

    fn wellformed() -> Function {
        let mut b = FunctionBuilder::new("ok");
        let p = b.param(Ty::Ptr(Region::Global));
        let tid = b.tid();
        let e = b.gep(p, tid, 4);
        let v = b.load_i32(e);
        let one = b.const_i32(1);
        let s = b.ibin(IBinOp::Add, v, one);
        b.store(e, s, 4);
        let zero = b.const_i32(0);
        let c = b.cmp(CmpKind::Eq, s, zero);
        let t = b.new_block();
        let f = b.new_block();
        b.branch(c, t, f);
        b.switch_to(t);
        b.ret();
        b.switch_to(f);
        b.ret();
        b.build()
    }

    #[test]
    fn builder_output_verifies() {
        assert_eq!(verify(&wellformed()), Ok(()));
    }

    #[test]
    fn transformed_output_still_verifies() {
        let mut f = wellformed();
        transform(&mut f);
        assert_eq!(verify(&f), Ok(()));
    }

    #[test]
    fn optimized_output_still_verifies() {
        let mut f = wellformed();
        crate::opt::optimize(&mut f);
        assert_eq!(verify(&f), Ok(()));
    }

    #[test]
    fn dangling_value_detected() {
        let mut f = wellformed();
        f.blocks[0].insts.push(9999);
        assert!(matches!(verify(&f), Err(VerifyError::DanglingInst { .. })));
    }

    #[test]
    fn use_before_def_detected() {
        let mut f = wellformed();
        // Move the first block's last instruction to the front.
        let moved = f.blocks[0].insts.pop().unwrap();
        f.blocks[0].insts.insert(0, moved);
        assert!(matches!(verify(&f), Err(VerifyError::UseBeforeDef { .. })));
    }

    #[test]
    fn bad_branch_target_detected() {
        let mut f = wellformed();
        if let Terminator::Branch { then_, .. } = &mut f.blocks[0].term {
            *then_ = 99;
        }
        assert!(matches!(verify(&f), Err(VerifyError::BadBranchTarget { .. })));
    }

    #[test]
    fn double_placement_detected() {
        let mut f = wellformed();
        let dup = f.blocks[0].insts[0];
        f.blocks[0].insts.push(dup);
        assert!(matches!(verify(&f), Err(VerifyError::Redefined { .. })));
    }

    #[test]
    fn unterminated_block_detected() {
        let mut f = wellformed();
        f.blocks.push(Block { insts: Vec::new(), term: Terminator::Unterminated });
        assert!(matches!(verify(&f), Err(VerifyError::Unterminated { .. })));
    }

    #[test]
    fn bad_variable_detected() {
        let mut f = wellformed();
        let id = f.insts.len();
        f.insts.push(Inst { kind: InstKind::ReadVar(42), ty: Some(Ty::I32) });
        f.blocks[0].insts.push(id);
        assert!(matches!(verify(&f), Err(VerifyError::BadVariable { .. })));
    }
}
