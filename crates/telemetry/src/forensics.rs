//! Violation forensics for delayed termination (paper §XII-A).
//!
//! LMI's OCU never faults at the point of the bug: it silently clears the
//! pointer's extent, and the program only dies later — possibly much
//! later — when the poisoned pointer is dereferenced and the EC faults.
//! Great for false-positive avoidance, terrible for debugging: the fault
//! site tells you nothing about *where the pointer went bad*.
//!
//! This module closes that gap. Every OCU poisoning records its pc, opcode
//! and cycle, keyed by the (sm, warp, lane) that produced it; when the EC
//! later faults on that lane in the same run, the pending poison is
//! matched into a [`ForensicsRecord`] carrying the poison-to-fault latency
//! in cycles and in warp-level instructions — the measurable form of the
//! paper's delayed-termination story. The simulator's run owns the
//! [`ForensicsLog`] and reports the matched records in its statistics.

use std::collections::HashMap;

use crate::json::Json;

/// One OCU poisoning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoisonEvent {
    /// SM where the marked instruction executed.
    pub sm: usize,
    /// Warp index within the SM.
    pub warp: usize,
    /// Lane within the warp.
    pub lane: usize,
    /// Program counter of the poisoning instruction.
    pub pc: usize,
    /// Mnemonic of the poisoning instruction (e.g. `IADD64`).
    pub op: &'static str,
    /// Cycle of the poisoning issue.
    pub cycle: u64,
    /// Warp-level instructions issued (GPU-wide) at poison time.
    pub instr_index: u64,
}

/// One EC fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// SM where the dereference faulted.
    pub sm: usize,
    /// Warp index within the SM.
    pub warp: usize,
    /// Faulting lane.
    pub lane: usize,
    /// Program counter of the faulting load/store.
    pub pc: usize,
    /// Cycle of the faulting issue.
    pub cycle: u64,
    /// Warp-level instructions issued (GPU-wide) at fault time.
    pub instr_index: u64,
}

/// A matched poison→fault pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForensicsRecord {
    /// The poisoning.
    pub poison: PoisonEvent,
    /// The fault.
    pub fault: FaultEvent,
}

impl ForensicsRecord {
    /// Cycles between poisoning and fault.
    pub fn latency_cycles(&self) -> u64 {
        self.fault.cycle.saturating_sub(self.poison.cycle)
    }

    /// Warp-level instructions issued between poisoning and fault.
    pub fn latency_instructions(&self) -> u64 {
        self.fault.instr_index.saturating_sub(self.poison.instr_index)
    }

    /// JSON export of one record.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with(
                "poison",
                Json::obj()
                    .with("pc", self.poison.pc)
                    .with("op", self.poison.op)
                    .with("sm", self.poison.sm)
                    .with("warp", self.poison.warp)
                    .with("lane", self.poison.lane)
                    .with("cycle", self.poison.cycle),
            )
            .with(
                "fault",
                Json::obj()
                    .with("pc", self.fault.pc)
                    .with("sm", self.fault.sm)
                    .with("warp", self.fault.warp)
                    .with("lane", self.fault.lane)
                    .with("cycle", self.fault.cycle),
            )
            .with("latency_cycles", self.latency_cycles())
            .with("latency_instructions", self.latency_instructions())
    }
}

/// The poison→fault matcher of one run: the latest unconsumed poisoning
/// per (sm, warp, lane). A lane that poisons twice before faulting keeps
/// the most recent — matching the hardware, where the second clobber
/// overwrites the register. A poison lives in a register, so a match only
/// exists within one kernel run: the engine keeps one table per run and
/// drops it when the run ends.
#[derive(Debug, Clone, Default)]
pub struct ForensicsLog {
    pending: HashMap<(usize, usize, usize), PoisonEvent>,
}

impl ForensicsLog {
    /// An empty table.
    pub fn new() -> ForensicsLog {
        ForensicsLog::default()
    }

    /// Records an OCU poisoning.
    pub fn record_poison(&mut self, event: PoisonEvent) {
        self.pending.insert((event.sm, event.warp, event.lane), event);
    }

    /// Matches an EC fault to the lane's pending poisoning, consuming it.
    /// `None` for a fault with no recorded poisoning on that lane (e.g. a
    /// pointer invalidated by the host's `free`, or poison handed across
    /// lanes through memory — provenance the in-register scheme cannot
    /// see).
    pub fn record_fault(&mut self, event: FaultEvent) -> Option<ForensicsRecord> {
        let poison = self.pending.remove(&(event.sm, event.warp, event.lane))?;
        Some(ForensicsRecord { poison, fault: event })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn poison(lane: usize, cycle: u64, instr: u64) -> PoisonEvent {
        PoisonEvent { sm: 0, warp: 1, lane, pc: 4, op: "IADD64", cycle, instr_index: instr }
    }

    fn fault(lane: usize, cycle: u64, instr: u64) -> FaultEvent {
        FaultEvent { sm: 0, warp: 1, lane, pc: 9, cycle, instr_index: instr }
    }

    #[test]
    fn matches_poison_to_fault_with_latencies() {
        let mut log = ForensicsLog::new();
        log.record_poison(poison(3, 100, 40));
        let rec = log.record_fault(fault(3, 250, 55)).expect("matched");
        assert_eq!(rec.latency_cycles(), 150);
        assert_eq!(rec.latency_instructions(), 15);
        assert!(log.record_fault(fault(3, 260, 56)).is_none(), "a match consumes the poison");
    }

    #[test]
    fn fault_on_an_unpoisoned_lane_matches_nothing() {
        let mut log = ForensicsLog::new();
        log.record_poison(poison(0, 10, 1));
        assert!(log.record_fault(fault(7, 20, 2)).is_none());
        assert!(log.record_fault(fault(0, 30, 3)).is_some(), "lane 0 poison still pending");
    }

    #[test]
    fn repoisoning_keeps_the_latest() {
        let mut log = ForensicsLog::new();
        log.record_poison(poison(2, 10, 5));
        log.record_poison(poison(2, 90, 30));
        let rec = log.record_fault(fault(2, 100, 31)).unwrap();
        assert_eq!(rec.poison.cycle, 90);
        assert_eq!(rec.latency_cycles(), 10);
    }

    #[test]
    fn json_export_carries_the_acceptance_fields() {
        let rec = ForensicsRecord { poison: poison(1, 7, 3), fault: fault(1, 19, 8) };
        let j = rec.to_json();
        assert_eq!(j.get("poison").and_then(|p| p.get("pc")).and_then(Json::as_u64), Some(4));
        assert_eq!(j.get("latency_cycles").and_then(Json::as_u64), Some(12));
    }
}
