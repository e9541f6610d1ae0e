//! IR optimizations: constant folding and dead-code elimination.
//!
//! Production GPU compilers run these before the LMI pass; they matter here
//! because (a) they shrink the marked-instruction count the way `nvcc -O3`
//! would (fewer OCU checks without losing coverage — folding never removes
//! a *pointer* operation, only scalar arithmetic), and (b) they exercise
//! the pass pipeline the way a real toolchain orders it.

use crate::ir::{Function, IBinOp, InstKind, Terminator, ValueId};

/// Counts of applied rewrites.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptStats {
    /// Integer operations folded to constants.
    pub folded: usize,
    /// Instructions removed as dead.
    pub eliminated: usize,
}

/// Folds integer arithmetic over constant operands. Pointer-typed results
/// are never folded (extents are runtime values).
pub fn fold_constants(func: &mut Function) -> usize {
    let mut folded = 0;
    loop {
        let mut changed = false;
        for v in 0..func.insts.len() {
            let InstKind::IBin { op, a, b } = func.insts[v].kind else {
                continue;
            };
            if func.insts[v].ty.map(|t| t.is_ptr()).unwrap_or(true) {
                continue;
            }
            let (Some(ca), Some(cb)) = (const_of(func, a), const_of(func, b)) else {
                continue;
            };
            let result = eval(op, ca, cb);
            func.insts[v].kind = InstKind::ConstI32(result);
            folded += 1;
            changed = true;
        }
        if !changed {
            return folded;
        }
    }
}

fn const_of(func: &Function, v: ValueId) -> Option<i32> {
    match func.insts[v].kind {
        InstKind::ConstI32(c) => Some(c),
        _ => None,
    }
}

fn eval(op: IBinOp, a: i32, b: i32) -> i32 {
    match op {
        IBinOp::Add => a.wrapping_add(b),
        IBinOp::Sub => a.wrapping_sub(b),
        IBinOp::Mul => a.wrapping_mul(b),
        IBinOp::And => a & b,
        IBinOp::Or => a | b,
        IBinOp::Xor => a ^ b,
        IBinOp::Shl => a.wrapping_shl(b as u32 & 31),
        IBinOp::Shr => ((a as u32).wrapping_shr(b as u32 & 31)) as i32,
    }
}

/// Removes instructions whose results are never used and that have no side
/// effects. Writes to variables that are never read are dead too (fixpoint
/// across the read/write graph).
pub fn eliminate_dead_code(func: &mut Function) -> usize {
    let n = func.insts.len();
    let mut live = vec![false; n];
    let mut var_read = vec![false; func.vars.len()];

    loop {
        // Seed: side-effecting instructions and terminator operands.
        let mut work: Vec<ValueId> = Vec::new();
        for (v, inst) in func.insts.iter().enumerate() {
            let side_effecting = match inst.kind {
                InstKind::Store { .. }
                | InstKind::Free { .. }
                | InstKind::Malloc { .. }
                | InstKind::Invalidate { .. }
                | InstKind::Alloca { .. }
                | InstKind::SharedAlloc { .. } => true,
                // A write is an effect only if its variable is ever read
                // by a live instruction.
                InstKind::WriteVar { var, .. } => var_read[var],
                _ => false,
            };
            if side_effecting && !live[v] {
                live[v] = true;
                work.extend(func.insts[v].kind.operands());
            }
        }
        for block in &func.blocks {
            if let Terminator::Branch { cond, .. } = block.term {
                if !live[cond] {
                    live[cond] = true;
                    work.extend(func.insts[cond].kind.operands());
                }
            }
        }
        while let Some(v) = work.pop() {
            if live[v] {
                continue;
            }
            live[v] = true;
            work.extend(func.insts[v].kind.operands());
        }

        // Propagate variable readness from live ReadVars and iterate.
        let mut changed = false;
        for (v, inst) in func.insts.iter().enumerate() {
            if let InstKind::ReadVar(var) = inst.kind {
                if live[v] && !var_read[var] {
                    var_read[var] = true;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    let mut removed = 0;
    for block in &mut func.blocks {
        block.insts.retain(|&v| {
            if live[v] {
                true
            } else {
                removed += 1;
                false
            }
        });
    }
    removed
}

/// Runs folding and DCE to a fixpoint.
pub fn optimize(func: &mut Function) -> OptStats {
    let mut stats = OptStats::default();
    loop {
        let folded = fold_constants(func);
        let eliminated = eliminate_dead_code(func);
        stats.folded += folded;
        stats.eliminated += eliminated;
        if folded == 0 && eliminated == 0 {
            return stats;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{FunctionBuilder, Region, Ty};
    use crate::pass::analyze;

    #[test]
    fn constants_fold_transitively() {
        let mut b = FunctionBuilder::new("k");
        let p = b.param(Ty::Ptr(Region::Global));
        let two = b.const_i32(2);
        let three = b.const_i32(3);
        let six = b.ibin(IBinOp::Mul, two, three);
        let seven = b.const_i32(1);
        let total = b.ibin(IBinOp::Add, six, seven); // (2*3)+1 = 7
        let e = b.gep(p, total, 4);
        let z = b.const_i32(0);
        b.store(e, z, 4);
        b.ret();
        let mut f = b.build();
        let stats = optimize(&mut f);
        assert_eq!(stats.folded, 2);
        assert!(matches!(f.insts[total].kind, InstKind::ConstI32(7)));
    }

    #[test]
    fn dead_arithmetic_is_removed_but_effects_stay() {
        let mut b = FunctionBuilder::new("k");
        let p = b.param(Ty::Ptr(Region::Global));
        let a = b.const_i32(10);
        let bb = b.const_i32(20);
        let _dead = b.ibin(IBinOp::Add, a, bb); // never used
        let tid = b.tid();
        let e = b.gep(p, tid, 4);
        b.store(e, tid, 4);
        b.ret();
        let mut f = b.build();
        let before = f.blocks[0].insts.len();
        let stats = optimize(&mut f);
        assert!(stats.eliminated >= 1);
        assert!(f.blocks[0].insts.len() < before);
        // The store and its operands survive.
        assert!(f.blocks[0]
            .insts
            .iter()
            .any(|&v| matches!(f.insts[v].kind, InstKind::Store { .. })));
    }

    #[test]
    fn unread_variable_writes_die_with_their_chains() {
        let mut b = FunctionBuilder::new("k");
        let zero = b.const_i32(0);
        let v = b.var(zero); // never read
        let one = b.const_i32(1);
        b.write_var(v, one);
        b.ret();
        let mut f = b.build();
        let stats = optimize(&mut f);
        assert!(stats.eliminated >= 2, "both writes and the constants die");
        assert!(f.blocks[0].insts.is_empty());
    }

    #[test]
    fn pointer_arithmetic_is_never_folded_away() {
        // Even with constant operands, pointer ops stay (they carry runtime
        // extents and must be OCU-checked).
        let mut b = FunctionBuilder::new("k");
        let p = b.param(Ty::Ptr(Region::Heap));
        let four = b.const_i32(4);
        let q = b.ibin(IBinOp::Add, p, four);
        let z = b.const_i32(0);
        b.store(q, z, 4);
        b.ret();
        let mut f = b.build();
        optimize(&mut f);
        assert!(matches!(f.insts[q].kind, InstKind::IBin { .. }));
        // And it is still marked by the analysis afterwards.
        let analysis = analyze(&f).unwrap();
        assert_eq!(analysis.pointer_operand(q), Some(0));
    }

    #[test]
    fn loop_variables_survive() {
        use crate::ir::CmpKind;
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
        let n = b.const_i32(4);
        let c = b.cmp(CmpKind::Lt, next, n);
        b.branch(c, body, exit);
        b.switch_to(exit);
        b.ret();
        let mut f = b.build();
        let before: usize = f.blocks.iter().map(|bl| bl.insts.len()).sum();
        optimize(&mut f);
        let after: usize = f.blocks.iter().map(|bl| bl.insts.len()).sum();
        assert_eq!(before, after, "a live loop is untouched");
    }
}
