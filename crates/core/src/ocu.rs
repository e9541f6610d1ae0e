//! The Overflow Checking Unit (paper §VII).
//!
//! The OCU sits next to each integer ALU. When the decoder hands it an
//! instruction whose **A** hint bit is set, it:
//!
//! 1. selects the input operand named by the **S** bit (the incoming
//!    pointer) — the MUX stage;
//! 2. derives an address mask from the pointer's extent bits — the mask
//!    generator (accounting for the minimum allocation size, default 256 B);
//! 3. XORs the selected input with the ALU output to find the changed bits;
//! 4. ANDs the difference with the complement of the mask; a non-zero result
//!    means some bit *above* the buffer's alignment boundary changed — an
//!    out-of-bounds pointer update;
//! 5. on a violation, **clears the extent bits** of the result instead of
//!    faulting (delayed termination, §XII-A); the EC in the LSU faults the
//!    pointer if it is ever dereferenced.

use crate::ptr::{DevicePtr, PoisonKind, PtrConfig, EXTENT_SHIFT};

/// Result of an OCU check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OcuOutcome {
    /// The instruction was not marked for checking (A bit clear).
    NotChecked,
    /// The pointer update stayed within its 2ⁿ region.
    Pass,
    /// The incoming pointer was already invalid (extent 0 or a debug code);
    /// the invalid extent propagates to the result unchanged.
    PropagateInvalid,
    /// The update escaped the region; the result's extent was cleared (or
    /// stamped with a debug code).
    Poisoned,
}

impl OcuOutcome {
    /// Returns `true` if the check did not poison the pointer.
    pub fn passed(self) -> bool {
        !matches!(self, OcuOutcome::Poisoned)
    }

    /// Stable snake_case label, used by telemetry and forensics reports.
    pub fn label(self) -> &'static str {
        match self {
            OcuOutcome::NotChecked => "not_checked",
            OcuOutcome::Pass => "pass",
            OcuOutcome::PropagateInvalid => "propagate_invalid",
            OcuOutcome::Poisoned => "poisoned",
        }
    }
}

/// The hardware OCU model.
///
/// One logical instance exists per integer-ALU lane; the model is stateless
/// (the paper's queue that aligns inputs with pipelined outputs is a timing
/// artifact handled by the simulator's latency accounting).
#[derive(Debug, Clone, Copy)]
pub struct Ocu {
    cfg: PtrConfig,
    /// Extra result-latency cycles introduced by the two register slices
    /// needed to close timing at > 3 GHz (paper §XI-C: three-cycle delay).
    pub delay_cycles: u32,
}

impl Ocu {
    /// An OCU with the paper's default three-cycle pipelined latency.
    pub fn new(cfg: PtrConfig) -> Ocu {
        Ocu { cfg, delay_cycles: 3 }
    }

    /// The pointer-format configuration the OCU masks against.
    pub fn config(&self) -> &PtrConfig {
        &self.cfg
    }

    /// Checks a hint-marked pointer operation: `input` is the register value
    /// selected by the S bit, `result` the raw ALU output. Returns the
    /// (possibly poisoned) value to write back and the check outcome.
    pub fn check_marked(&self, input: u64, result: u64) -> (u64, OcuOutcome) {
        let in_ptr = DevicePtr::from_raw(input);
        let extent = in_ptr.extent();
        if !self.cfg.extent_is_size(extent) {
            // Invalid or debug-coded pointer: arithmetic keeps it invalid;
            // the EC reports it at dereference time.
            return (result, OcuOutcome::PropagateInvalid);
        }
        // Mask generator: modifiable bits are the low `extent + log2 K - 1`
        // bits (size = 2^(E - 1 + log2 K)).
        let size = self.cfg.size_for_extent(extent).expect("extent validated as size");
        let modifiable = size - 1;
        // XOR stage + AND stage: any changed bit above the modifiable region
        // (including the extent field itself) is a violation.
        let changed = input ^ result;
        if changed & !modifiable == 0 {
            (result, OcuOutcome::Pass)
        } else {
            let poisoned =
                DevicePtr::from_raw(result).poisoned(PoisonKind::SpatialViolation, &self.cfg).raw();
            (poisoned, OcuOutcome::Poisoned)
        }
    }

    /// Convenience wrapper applying the A hint: unmarked instructions pass
    /// through untouched.
    pub fn check(&self, marked: bool, input: u64, result: u64) -> (u64, OcuOutcome) {
        if marked {
            self.check_marked(input, result)
        } else {
            (result, OcuOutcome::NotChecked)
        }
    }
}

/// Reference (non-hardware) bounds judgment used by tests to cross-validate
/// the OCU: is `result` still inside the 2ⁿ region of `input`?
pub fn reference_in_region(input: u64, result: u64, cfg: &PtrConfig) -> bool {
    let p = DevicePtr::from_raw(input);
    match p.base(cfg) {
        Some(base) => {
            let size = p.size(cfg).expect("valid pointer has size");
            let r = DevicePtr::from_raw(result);
            r.extent() == p.extent() && r.addr() >= base && r.addr() < base + size
        }
        None => false,
    }
}

/// Position of the extent field, re-exported for the hardware model.
pub const EXTENT_FIELD_SHIFT: u32 = EXTENT_SHIFT;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ptr::PtrConfig;

    fn ptr(addr: u64, size: u64, cfg: &PtrConfig) -> u64 {
        DevicePtr::encode(addr, size, cfg).unwrap().raw()
    }

    #[test]
    fn in_bounds_update_passes() {
        let cfg = PtrConfig::default();
        let ocu = Ocu::new(cfg);
        let p = ptr(0x1_0000, 1024, &cfg);
        for delta in [0u64, 1, 255, 1023] {
            let (out, outcome) = ocu.check_marked(p, p + delta);
            assert_eq!(outcome, OcuOutcome::Pass, "delta {delta}");
            assert_eq!(out, p + delta);
        }
    }

    #[test]
    fn escape_poisons_the_result() {
        let cfg = PtrConfig::default();
        let ocu = Ocu::new(cfg);
        let p = ptr(0x1_0000, 1024, &cfg);
        let (out, outcome) = ocu.check_marked(p, p + 1024);
        assert_eq!(outcome, OcuOutcome::Poisoned);
        assert_eq!(DevicePtr::from_raw(out).extent(), 0, "extent cleared");
        assert_eq!(DevicePtr::from_raw(out).addr(), 0x1_0000 + 1024, "address preserved");
    }

    #[test]
    fn paper_example_0x12345700_is_caught() {
        // §IV-A2: updating 0x12345678 (256 B buffer) to 0x12345700 makes the
        // recovered base wrong — the OCU must flag it.
        let cfg = PtrConfig::default();
        let ocu = Ocu::new(cfg);
        let p = ptr(0x1234_5600, 256, &cfg);
        let moved = p + 0x78;
        let (_, outcome) = ocu.check_marked(p, moved);
        assert_eq!(outcome, OcuOutcome::Pass);
        let (out, outcome) = ocu.check_marked(moved, moved + 0x88); // -> ...5700
        assert_eq!(outcome, OcuOutcome::Poisoned);
        assert!(!DevicePtr::from_raw(out).is_valid(&cfg));
    }

    #[test]
    fn negative_escape_is_caught() {
        let cfg = PtrConfig::default();
        let ocu = Ocu::new(cfg);
        let p = ptr(0x1_0000, 512, &cfg);
        let below = p.wrapping_sub(1);
        let (_, outcome) = ocu.check_marked(p, below);
        assert_eq!(outcome, OcuOutcome::Poisoned);
    }

    #[test]
    fn tampering_with_extent_is_caught() {
        let cfg = PtrConfig::default();
        let ocu = Ocu::new(cfg);
        let p = ptr(0x1_0000, 512, &cfg);
        // An attacker tries to enlarge the buffer by bumping the extent.
        let forged = p + (1u64 << EXTENT_FIELD_SHIFT);
        let (_, outcome) = ocu.check_marked(p, forged);
        assert_eq!(outcome, OcuOutcome::Poisoned);
    }

    #[test]
    fn invalid_input_propagates_without_new_poison() {
        let cfg = PtrConfig::default();
        let ocu = Ocu::new(cfg);
        let dead = DevicePtr::encode(0x1_0000, 512, &cfg).unwrap().invalidated();
        let (out, outcome) = ocu.check_marked(dead.raw(), dead.raw() + 4);
        assert_eq!(outcome, OcuOutcome::PropagateInvalid);
        assert_eq!(DevicePtr::from_raw(out).extent(), 0);
    }

    #[test]
    fn unmarked_instructions_bypass_the_ocu() {
        let cfg = PtrConfig::default();
        let ocu = Ocu::new(cfg);
        let p = ptr(0x1_0000, 256, &cfg);
        let (out, outcome) = ocu.check(false, p, p + 4096);
        assert_eq!(outcome, OcuOutcome::NotChecked);
        assert_eq!(out, p + 4096);
    }

    #[test]
    fn poison_uses_debug_code_when_available() {
        let cfg = PtrConfig::with_device_limit_log2(34);
        let ocu = Ocu::new(cfg);
        let p = ptr(0x1_0000, 512, &cfg);
        let (out, outcome) = ocu.check_marked(p, p + 512);
        assert_eq!(outcome, OcuOutcome::Poisoned);
        assert_eq!(
            cfg.poison_kind(DevicePtr::from_raw(out).extent()),
            Some(PoisonKind::SpatialViolation)
        );
    }

    #[test]
    fn ocu_agrees_with_reference_judgment() {
        let cfg = PtrConfig::default();
        let ocu = Ocu::new(cfg);
        let p = ptr(0x40_0000, 4096, &cfg);
        for delta in (0..8192i64).step_by(64) {
            let result = (p as i64 + delta) as u64;
            let (_, outcome) = ocu.check_marked(p, result);
            assert_eq!(
                outcome.passed() && outcome != OcuOutcome::PropagateInvalid,
                reference_in_region(p, result, &cfg),
                "delta {delta}"
            );
        }
    }
}
