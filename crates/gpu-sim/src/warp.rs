//! Warp state: the register file, the SIMT divergence stack, and the
//! per-warp register scoreboard used for latency hiding.
//!
//! The register file is register-major: one architectural register is a
//! contiguous 32-lane column, so phase A resolves an operand for the whole
//! warp with one column copy and writes a result back with one masked
//! column store. Predicates are stored the same way, one lane mask per
//! predicate register.

use lmi_isa::{PredReg, Reg};

use crate::config::WARP_SIZE;
use crate::sm::StallReason;

/// A 32-lane active mask.
pub type LaneMask = u32;

/// All lanes active.
pub const FULL_MASK: LaneMask = u32::MAX;

/// One register across the 32 lanes of a warp.
pub type Column = [u32; WARP_SIZE];

/// One 64-bit register pair across the 32 lanes of a warp.
pub type Column64 = [u64; WARP_SIZE];

/// The lanes of `mask`, ascending.
pub fn lanes_of(mut mask: LaneMask) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let l = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            l
        })
    })
}

/// What RZ and out-of-range registers read.
static ZERO_COLUMN: Column = [0; WARP_SIZE];

/// One warp's architectural and micro-architectural state.
#[derive(Debug, Clone)]
pub struct Warp {
    /// Warp id within its SM.
    pub id: usize,
    /// Block index this warp belongs to (global).
    pub block: usize,
    /// Flat global thread id of lane 0.
    pub base_tid: u64,
    /// Program counter (instruction index).
    pub pc: usize,
    /// Active lanes.
    pub mask: LaneMask,
    /// Divergence stack: suspended `(mask, pc)` contexts.
    pub stack: Vec<(LaneMask, usize)>,
    /// Register-major register file: `regs[reg][lane]`, i.e. lane `lane`
    /// of register `reg` lives at flat index `reg * WARP_SIZE + lane`.
    regs: Vec<Column>,
    /// Predicate registers, one lane mask each (PT's slot is unused).
    preds: [LaneMask; 8],
    /// Cycle at which each architectural register becomes readable.
    reg_ready: Vec<u64>,
    /// Cycle at which each register's OCU verdict (final extent) is
    /// available — only memory instructions must wait for it, since the EC
    /// in the LSU is the only consumer of the poisoned extent. ALU
    /// consumers receive the forwarded raw value at `reg_ready`.
    verdict_ready: Vec<u64>,
    /// Cycle at which each predicate register becomes readable.
    pred_ready: [u64; 8],
    /// Cycle until which each register is waiting on an in-flight *memory*
    /// result. A register whose `ready_at` equals its `mem_pending_until`
    /// is blocked by the LSU, not the ALU scoreboard — the distinction the
    /// scheduler's stall-reason breakdown reports.
    mem_pending: Vec<u64>,
    /// Set when the warp has exited.
    pub done: bool,
    /// Set while the warp waits at a block barrier.
    pub at_barrier: bool,
    /// Cycle of the last issue (for GTO greediness bookkeeping).
    pub last_issue: u64,
    /// Instructions this warp issued this run, counted by its SM in
    /// phase A.
    pub issued: u64,
    /// First cycle this warp may issue (models the launch/dispatch ramp and
    /// decorrelates warps, like real block schedulers do).
    pub start_cycle: u64,
    /// Memoized scheduler readiness of the next instruction: the result of
    /// `Sm`'s `ready_info` for the current state. `None` when stale; the
    /// SM clears it wherever this warp's pc, scoreboard or start cycle
    /// changes (its issue in phase A, its results in phase C).
    pub(crate) ready_memo: Option<(u64, StallReason)>,
}

impl Warp {
    /// Creates a warp with `active` lanes (the tail warp of a block may be
    /// partial).
    pub fn new(
        id: usize,
        block: usize,
        base_tid: u64,
        regs_per_thread: usize,
        active: usize,
    ) -> Warp {
        let mask = if active >= WARP_SIZE { FULL_MASK } else { (1u32 << active) - 1 };
        Warp {
            id,
            block,
            base_tid,
            pc: 0,
            mask,
            stack: Vec::new(),
            regs: vec![[0; WARP_SIZE]; regs_per_thread.max(1)],
            preds: [0; 8],
            reg_ready: vec![0; regs_per_thread.max(1)],
            verdict_ready: vec![0; regs_per_thread.max(1)],
            pred_ready: [0; 8],
            mem_pending: vec![0; regs_per_thread.max(1)],
            done: false,
            at_barrier: false,
            last_issue: 0,
            issued: 0,
            start_cycle: (id as u64 * 7) % 23,
            ready_memo: None,
        }
    }

    /// Index of `reg`'s column, or `None` for RZ and out-of-range
    /// registers (which read zero and drop writes).
    fn slot(&self, reg: Reg) -> Option<usize> {
        let i = reg.0 as usize;
        (!reg.is_zero_reg() && i < self.regs.len()).then_some(i)
    }

    /// Register `reg` across all 32 lanes (RZ reads zero).
    pub fn column(&self, reg: Reg) -> &Column {
        match self.slot(reg) {
            Some(i) => &self.regs[i],
            None => &ZERO_COLUMN,
        }
    }

    /// Mutable column of `reg`; `None` for RZ and out-of-range registers.
    pub fn column_mut(&mut self, reg: Reg) -> Option<&mut Column> {
        self.slot(reg).map(|i| &mut self.regs[i])
    }

    /// The 64-bit register pair anchored at `reg` across all 32 lanes
    /// (lane-wise [`Warp::read64`]).
    pub fn column64(&self, reg: Reg) -> Column64 {
        let lo = self.column(reg);
        let hi = if reg.is_valid_pair_base() { self.column(reg.pair_high()) } else { &ZERO_COLUMN };
        std::array::from_fn(|l| (hi[l] as u64) << 32 | lo[l] as u64)
    }

    /// Writes `values` into `reg` on the lanes of `mask`; other lanes keep
    /// their value (writes to RZ are discarded).
    pub fn write_col(&mut self, reg: Reg, mask: LaneMask, values: &Column) {
        if let Some(col) = self.column_mut(reg) {
            for (l, (slot, &v)) in col.iter_mut().zip(values).enumerate() {
                if mask & (1 << l) != 0 {
                    *slot = v;
                }
            }
        }
    }

    /// Writes `values` into the register pair anchored at `reg` on the
    /// lanes of `mask` (lane-wise [`Warp::write64`]).
    pub fn write64_col(&mut self, reg: Reg, mask: LaneMask, values: &Column64) {
        if reg.is_zero_reg() {
            return;
        }
        self.write_col(reg, mask, &std::array::from_fn(|l| values[l] as u32));
        if reg.is_valid_pair_base() {
            self.write_col(
                reg.pair_high(),
                mask,
                &std::array::from_fn(|l| (values[l] >> 32) as u32),
            );
        }
    }

    /// Reads a 32-bit register for `lane` (RZ reads zero).
    pub fn read(&self, lane: usize, reg: Reg) -> u32 {
        self.column(reg)[lane]
    }

    /// Writes a 32-bit register for `lane` (writes to RZ are discarded).
    pub fn write(&mut self, lane: usize, reg: Reg, value: u32) {
        if let Some(col) = self.column_mut(reg) {
            col[lane] = value;
        }
    }

    /// Reads a 64-bit register pair.
    pub fn read64(&self, lane: usize, reg: Reg) -> u64 {
        if reg.is_zero_reg() {
            return 0;
        }
        let lo = self.read(lane, reg) as u64;
        let hi = if reg.is_valid_pair_base() { self.read(lane, reg.pair_high()) as u64 } else { 0 };
        (hi << 32) | lo
    }

    /// Writes a 64-bit register pair.
    pub fn write64(&mut self, lane: usize, reg: Reg, value: u64) {
        if reg.is_zero_reg() {
            return;
        }
        self.write(lane, reg, value as u32);
        if reg.is_valid_pair_base() {
            self.write(lane, reg.pair_high(), (value >> 32) as u32);
        }
    }

    /// Predicate `pred` across all 32 lanes, one bit per lane (PT reads
    /// all ones).
    pub fn pred_mask(&self, pred: PredReg) -> LaneMask {
        if pred.is_true_reg() {
            FULL_MASK
        } else {
            self.preds[pred.0 as usize]
        }
    }

    /// Sets predicate `pred` to `values` on the lanes of `mask` (writes to
    /// PT are discarded).
    pub fn write_pred_mask(&mut self, pred: PredReg, mask: LaneMask, values: LaneMask) {
        if !pred.is_true_reg() {
            let slot = &mut self.preds[pred.0 as usize];
            *slot = (*slot & !mask) | (values & mask);
        }
    }

    /// The cycle at which `reg` becomes readable.
    pub fn ready_at(&self, reg: Reg) -> u64 {
        self.slot(reg).map_or(0, |i| self.reg_ready[i])
    }

    /// Marks `reg` as busy until `cycle` (verdict time follows unless set
    /// later via [`Warp::set_verdict_at`]).
    pub fn set_ready_at(&mut self, reg: Reg, cycle: u64) {
        if let Some(i) = self.slot(reg) {
            self.reg_ready[i] = self.reg_ready[i].max(cycle);
            self.verdict_ready[i] = self.verdict_ready[i].max(cycle);
        }
    }

    /// Marks `reg` busy until `cycle` with an in-flight memory result as
    /// the producer (a load destination or a heap-call return value), so a
    /// later wait on it classifies as an LSU stall rather than a
    /// scoreboard stall.
    pub fn set_ready_at_mem(&mut self, reg: Reg, cycle: u64) {
        self.set_ready_at(reg, cycle);
        if let Some(i) = self.slot(reg) {
            self.mem_pending[i] = self.mem_pending[i].max(cycle);
        }
    }

    /// `true` if waiting on `reg` at `cycle` is waiting on the LSU: an
    /// in-flight memory result covers that cycle.
    pub fn mem_pending_at(&self, reg: Reg, cycle: u64) -> bool {
        self.slot(reg).is_some_and(|i| self.mem_pending[i] >= cycle)
    }

    /// The cycle at which `reg`'s OCU verdict is final (≥ `ready_at`).
    pub fn verdict_at(&self, reg: Reg) -> u64 {
        self.slot(reg).map_or(0, |i| self.verdict_ready[i])
    }

    /// Delays `reg`'s OCU verdict until `cycle` (the pipelined OCU register
    /// slices of paper §XI-C).
    pub fn set_verdict_at(&mut self, reg: Reg, cycle: u64) {
        if let Some(i) = self.slot(reg) {
            self.verdict_ready[i] = self.verdict_ready[i].max(cycle);
        }
    }

    /// The cycle at which predicate `pred` becomes readable.
    pub fn pred_ready_at(&self, pred: PredReg) -> u64 {
        if pred.is_true_reg() {
            0
        } else {
            self.pred_ready[pred.0 as usize]
        }
    }

    /// Marks predicate `pred` busy until `cycle`.
    pub fn set_pred_ready_at(&mut self, pred: PredReg, cycle: u64) {
        if !pred.is_true_reg() {
            let slot = &mut self.pred_ready[pred.0 as usize];
            *slot = (*slot).max(cycle);
        }
    }

    /// Lanes currently active, as indices.
    pub fn active_lanes(&self) -> impl Iterator<Item = usize> + '_ {
        (0..WARP_SIZE).filter(move |&l| self.mask & (1 << l) != 0)
    }

    /// Retires lanes in `exit_mask`; pops a suspended divergence context
    /// when no lane remains; marks the warp done when the stack empties.
    pub fn retire_lanes(&mut self, exit_mask: LaneMask) {
        self.mask &= !exit_mask;
        if self.mask == 0 {
            match self.stack.pop() {
                Some((mask, pc)) => {
                    self.mask = mask;
                    self.pc = pc;
                }
                None => self.done = true,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn warp() -> Warp {
        Warp::new(0, 0, 0, 16, 32)
    }

    #[test]
    fn rz_reads_zero_and_ignores_writes() {
        let mut w = warp();
        w.write(0, Reg::RZ, 42);
        assert_eq!(w.read(0, Reg::RZ), 0);
        assert_eq!(w.read64(0, Reg::RZ), 0);
    }

    #[test]
    fn pair_round_trip() {
        let mut w = warp();
        w.write64(3, Reg(4), 0x1122_3344_5566_7788);
        assert_eq!(w.read64(3, Reg(4)), 0x1122_3344_5566_7788);
        assert_eq!(w.read(3, Reg(4)), 0x5566_7788);
        assert_eq!(w.read(3, Reg(5)), 0x1122_3344);
    }

    #[test]
    fn lanes_have_independent_registers() {
        let mut w = warp();
        w.write(0, Reg(2), 10);
        w.write(1, Reg(2), 20);
        assert_eq!(w.read(0, Reg(2)), 10);
        assert_eq!(w.read(1, Reg(2)), 20);
    }

    #[test]
    fn column_writes_respect_the_exec_mask_and_rz() {
        let mut w = warp();
        let before: Column = std::array::from_fn(|l| 100 + l as u32);
        w.write_col(Reg(2), FULL_MASK, &before);
        let mask: LaneMask = 0x8000_00F1;
        w.write_col(Reg(2), mask, &[7; WARP_SIZE]);
        for (l, &old) in before.iter().enumerate() {
            let want = if mask & (1 << l) != 0 { 7 } else { old };
            assert_eq!(w.read(l, Reg(2)), want, "lane {l}");
        }

        // Pair writes: both halves follow the mask, neighbours untouched.
        w.write_col(Reg(9), FULL_MASK, &[0xAAAA; WARP_SIZE]);
        let wide: Column64 = std::array::from_fn(|l| 0x1_0000_0000 * l as u64 + l as u64);
        w.write64_col(Reg(4), mask, &wide);
        for (l, &v) in wide.iter().enumerate() {
            let want = if mask & (1 << l) != 0 { v } else { 0 };
            assert_eq!(w.read64(l, Reg(4)), want, "lane {l}");
            assert_eq!(w.column64(Reg(4))[l], want, "lane {l}");
            assert_eq!(w.read(l, Reg(9)), 0xAAAA);
        }

        w.write_col(Reg::RZ, FULL_MASK, &[5; WARP_SIZE]);
        w.write64_col(Reg::RZ, FULL_MASK, &[u64::MAX; WARP_SIZE]);
        assert_eq!(w.column(Reg::RZ), &[0; WARP_SIZE]);
        assert_eq!(w.column64(Reg::RZ), [0; WARP_SIZE]);
        assert!(w.column_mut(Reg::RZ).is_none());
        // Out-of-range registers behave like RZ.
        w.write_col(Reg(40), FULL_MASK, &[5; WARP_SIZE]);
        assert_eq!(w.column(Reg(40)), &[0; WARP_SIZE]);
    }

    #[test]
    fn predicates_default_false_and_pt_true() {
        let mut w = warp();
        assert_eq!(w.pred_mask(PredReg(0)), 0);
        assert_eq!(w.pred_mask(PredReg::PT), FULL_MASK);
        w.write_pred_mask(PredReg(0), 1, FULL_MASK);
        assert_eq!(w.pred_mask(PredReg(0)), 1, "per-lane");
        w.write_pred_mask(PredReg(1), 0xF0, 0x3C);
        assert_eq!(w.pred_mask(PredReg(1)), 0x30, "only masked lanes change");
        assert_eq!(w.pred_mask(PredReg(0)), 1, "other predicates untouched");
        w.write_pred_mask(PredReg::PT, FULL_MASK, 0);
        assert_eq!(w.pred_mask(PredReg::PT), FULL_MASK, "PT is hardwired");
    }

    #[test]
    fn scoreboard_takes_the_max() {
        let mut w = warp();
        w.set_ready_at(Reg(3), 100);
        w.set_ready_at(Reg(3), 50);
        assert_eq!(w.ready_at(Reg(3)), 100);
    }

    #[test]
    fn partial_tail_warp_masks_inactive_lanes() {
        let w = Warp::new(0, 0, 0, 8, 10);
        assert_eq!(w.active_lanes().count(), 10);
    }

    #[test]
    fn retire_pops_divergence_stack_then_finishes() {
        let mut w = warp();
        w.stack.push((0xFF00_0000, 7));
        w.retire_lanes(FULL_MASK);
        assert!(!w.done);
        assert_eq!(w.mask, 0xFF00_0000);
        assert_eq!(w.pc, 7);
        w.retire_lanes(FULL_MASK);
        assert!(w.done);
    }
}
