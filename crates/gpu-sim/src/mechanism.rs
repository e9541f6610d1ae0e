//! The pluggable memory-safety mechanism interface, and the LMI hardware
//! mechanism itself.
//!
//! The engine checks a whole warp-instruction at a time, like the paper's
//! OCU beside every integer-ALU lane and EC in the LSU. A mechanism whose
//! verdicts depend only on an op's register bits says so through
//! [`Mechanism::bit_rules`]: a `Copy` descriptor ([`BitRules`]) of its OCU
//! rule and its EC rule, which the engine copies onto the SMs of each
//! kernel that runs under it. The issuing SM then decides such an op in
//! phase A, as the hardware does beside the ALU and in the LSU, and only an
//! op with a poisoned or faulting lane goes on to the engine's serial
//! leader. A rule that is `None` (the default) means the leader path for
//! every op of that kind: the leader calls [`Mechanism::on_marked_int_warp`]
//! and [`Mechanism::on_mem_access_warp`] once per instruction. Their
//! provided bodies are the per-lane adapter — an ascending-lane loop over
//! [`Mechanism::on_marked_int`] and [`Mechanism::on_mem_access`] — so a
//! mechanism that implements only the per-lane hooks behaves exactly as if
//! the engine called them lane by lane. A mechanism overrides a warp form
//! only where checking the warp at once saves work, and its rules and warp
//! forms must agree with that loop lane for lane.

use lmi_core::{ExtentChecker, Ocu, PtrConfig, Violation};
use lmi_isa::MemSpace;

use crate::warp::{lanes_of, Column64, LaneMask};

/// Result of an integer-ALU check ([`Mechanism::on_marked_int`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntCheck {
    /// The value to write back (possibly poisoned).
    pub value: u64,
    /// Whether the check poisoned the pointer.
    pub poisoned: bool,
}

impl IntCheck {
    /// A passing check.
    pub fn pass(value: u64) -> IntCheck {
        IntCheck { value, poisoned: false }
    }
}

/// Context handed to [`Mechanism::on_mem_access`] for each lane's access.
#[derive(Debug, Clone, Copy)]
pub struct MemAccessCtx {
    /// Target memory space.
    pub space: MemSpace,
    /// The raw register value used as the address (may carry extent bits).
    pub raw: u64,
    /// The virtual address after metadata stripping.
    pub vaddr: u64,
    /// Access width in bytes.
    pub width: u8,
    /// `true` for stores.
    pub is_store: bool,
    /// Flat global thread id of the accessing lane.
    pub global_tid: u64,
    /// Program counter of the issuing instruction.
    pub pc: usize,
    /// Lane index within the warp.
    pub lane: usize,
}

/// Result of a memory-access check ([`Mechanism::on_mem_access`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemCheck {
    /// A violation, if the access must fault.
    pub violation: Option<Violation>,
    /// Extra cycles the access costs (e.g. a bounds-cache lookup port
    /// conflict). Metadata *memory* traffic uses `metadata_addr` instead.
    pub extra_cycles: u32,
    /// If set, the LSU must also fetch mechanism metadata at this address
    /// through the L2 before the access can complete (e.g. a GPUShield
    /// RCache miss filling from the bounds table).
    pub metadata_addr: Option<u64>,
}

impl MemCheck {
    /// Allow the access with no extra cost.
    pub fn allow() -> MemCheck {
        MemCheck { violation: None, extra_cycles: 0, metadata_addr: None }
    }

    /// Fault the access.
    pub fn fault(violation: Violation) -> MemCheck {
        MemCheck { violation: Some(violation), extra_cycles: 0, metadata_addr: None }
    }
}

/// One warp-instruction's memory access, handed to
/// [`Mechanism::on_mem_access_warp`]. Only the lanes of `mask` are
/// meaningful in the columns.
#[derive(Debug, Clone, Copy)]
pub struct WarpMemAccess<'a> {
    /// Target memory space.
    pub space: MemSpace,
    /// Access width in bytes.
    pub width: u8,
    /// `true` for stores.
    pub is_store: bool,
    /// Program counter of the issuing instruction.
    pub pc: usize,
    /// Flat global thread id of lane 0; lane `l` is `base_tid + l`.
    pub base_tid: u64,
    /// The accessing lanes.
    pub mask: LaneMask,
    /// Per-lane raw register value used as the address.
    pub raw: &'a Column64,
    /// Per-lane virtual address after metadata stripping.
    pub vaddr: &'a Column64,
}

impl WarpMemAccess<'_> {
    /// The per-lane context of `lane`, as [`Mechanism::on_mem_access`]
    /// receives it.
    pub fn lane(&self, lane: usize) -> MemAccessCtx {
        MemAccessCtx {
            space: self.space,
            raw: self.raw[lane],
            vaddr: self.vaddr[lane],
            width: self.width,
            is_store: self.is_store,
            global_tid: self.base_tid + lane as u64,
            pc: self.pc,
            lane,
        }
    }
}

/// Result of a warp-wide memory-access check
/// ([`Mechanism::on_mem_access_warp`]). The engine hands in a cleared
/// verdict and reuses its buffers across calls.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WarpMemVerdict {
    /// Lanes that passed the check.
    pub survivors: LaneMask,
    /// Faulting lanes and their violations, in ascending lane order.
    pub faults: Vec<(usize, Violation)>,
    /// Metadata the LSU must fetch before the access issues
    /// ([`MemCheck::metadata_addr`]), in ascending lane order.
    pub metadata_addrs: Vec<u64>,
    /// The largest [`MemCheck::extra_cycles`] over the lanes.
    pub extra_cycles: u32,
}

impl WarpMemVerdict {
    /// Empties the verdict, keeping its buffers' capacity.
    pub fn clear(&mut self) {
        self.survivors = 0;
        self.faults.clear();
        self.metadata_addrs.clear();
        self.extra_cycles = 0;
    }

    /// Folds lane `lane`'s per-lane check in (lanes must come ascending).
    pub fn push(&mut self, lane: usize, check: MemCheck) {
        self.extra_cycles = self.extra_cycles.max(check.extra_cycles);
        if let Some(addr) = check.metadata_addr {
            self.metadata_addrs.push(addr);
        }
        match check.violation {
            Some(v) => self.faults.push((lane, v)),
            None => self.survivors |= 1 << lane,
        }
    }
}

/// The OCU rule of a mechanism that decides hint-marked ops from register
/// bits alone ([`BitRules::ocu`]).
#[derive(Debug, Clone, Copy)]
pub enum OcuRule {
    /// Every marked op passes unchanged, with no verdict delay: the
    /// mechanism has no OCU.
    Pass,
    /// LMI's OCU (paper §VII): [`Ocu::check_marked`] on every lane, with
    /// the OCU's pipeline delay.
    Ocu(Ocu),
}

impl OcuRule {
    /// The extra verdict latency of a marked op
    /// ([`Mechanism::marked_int_delay`]).
    pub fn delay(&self) -> u32 {
        match self {
            OcuRule::Pass => 0,
            OcuRule::Ocu(ocu) => ocu.delay_cycles,
        }
    }

    /// One lane's check ([`Mechanism::on_marked_int`]).
    pub fn check_lane(&self, input: u64, result: u64) -> IntCheck {
        match self {
            OcuRule::Pass => IntCheck::pass(result),
            OcuRule::Ocu(ocu) => {
                let (value, outcome) = ocu.check_marked(input, result);
                IntCheck { value, poisoned: !outcome.passed() }
            }
        }
    }

    /// The check of one marked warp-instruction, with the contract of
    /// [`Mechanism::on_marked_int_warp`]: the lanes of `mask` get their
    /// checked value written back into `results`; returns the poisoned
    /// lanes.
    pub fn check(&self, mask: LaneMask, inputs: &Column64, results: &mut Column64) -> LaneMask {
        let OcuRule::Ocu(_) = self else { return 0 };
        let mut poisoned = 0;
        for lane in lanes_of(mask) {
            let check = self.check_lane(inputs[lane], results[lane]);
            results[lane] = check.value;
            poisoned |= LaneMask::from(check.poisoned) << lane;
        }
        poisoned
    }
}

/// The EC rule of a mechanism that decides memory accesses from register
/// bits alone ([`BitRules::ec`]). Neither variant fetches metadata or adds
/// cycles.
#[derive(Debug, Clone, Copy)]
pub enum EcRule {
    /// Every access is allowed at no cost.
    Allow,
    /// LMI's EC (paper §XII-A): a non-constant access faults unless its
    /// raw pointer's extent is a size ([`ExtentChecker::check_access`]).
    /// Constant memory is outside the threat model.
    Extent(ExtentChecker),
}

impl EcRule {
    /// One lane's check of an access to `space` through the raw pointer
    /// `raw` ([`Mechanism::on_mem_access`]).
    pub fn check_lane(&self, space: MemSpace, raw: u64) -> MemCheck {
        match self {
            EcRule::Extent(ec) if space != MemSpace::Const => match ec.check_access(raw) {
                Ok(_) => MemCheck::allow(),
                Err(violation) => MemCheck::fault(violation),
            },
            _ => MemCheck::allow(),
        }
    }

    /// The check of one warp-instruction's access, folded into `verdict`
    /// (handed in cleared), with the contract of
    /// [`Mechanism::on_mem_access_warp`].
    pub fn check(&self, access: &WarpMemAccess<'_>, verdict: &mut WarpMemVerdict) {
        if let EcRule::Allow = self {
            verdict.survivors = access.mask;
            return;
        }
        for lane in lanes_of(access.mask) {
            verdict.push(lane, self.check_lane(access.space, access.raw[lane]));
        }
    }
}

/// The verdicts a mechanism decides from an op's register bits alone,
/// with no state of its own: the issuing SM applies them in phase A
/// ([`Mechanism::bit_rules`]). `None` sends every op of that kind to the
/// engine's leader, which calls the mechanism's warp form.
#[derive(Debug, Clone, Copy, Default)]
pub struct BitRules {
    /// The OCU check of hint-marked integer ops.
    pub ocu: Option<OcuRule>,
    /// The memory check of loads and stores.
    pub ec: Option<EcRule>,
}

/// A hardware memory-safety mechanism plugged into the pipeline.
pub trait Mechanism {
    /// Mechanism name for reports.
    fn name(&self) -> &'static str;

    /// Called with the selected input operand and the raw result of every
    /// hint-marked integer instruction (per active lane).
    fn on_marked_int(&mut self, _input: u64, result: u64) -> IntCheck {
        IntCheck::pass(result)
    }

    /// Extra writeback latency on hint-marked instructions (the OCU's
    /// pipelined register slices; paper §XI-C).
    fn marked_int_delay(&self) -> u32 {
        0
    }

    /// Called for every lane of every memory access before it issues.
    fn on_mem_access(&mut self, _ctx: &MemAccessCtx) -> MemCheck {
        MemCheck::allow()
    }

    /// The OCU check of one hint-marked warp-instruction: `inputs` and
    /// `results` hold each lane's selected input operand and raw result;
    /// the lanes of `mask` get their checked value written back into
    /// `results`. Returns the mask of poisoned lanes. The engine calls
    /// this, once per instruction; the provided body runs
    /// [`Mechanism::on_marked_int`] on each lane of `mask`, ascending.
    fn on_marked_int_warp(
        &mut self,
        mask: LaneMask,
        inputs: &Column64,
        results: &mut Column64,
    ) -> LaneMask {
        let mut poisoned = 0;
        for lane in lanes_of(mask) {
            let check = self.on_marked_int(inputs[lane], results[lane]);
            results[lane] = check.value;
            if check.poisoned {
                poisoned |= 1 << lane;
            }
        }
        poisoned
    }

    /// The memory check of one warp-instruction, folded into `verdict`
    /// (handed in cleared). The engine calls this, once per instruction;
    /// the provided body runs [`Mechanism::on_mem_access`] on each lane of
    /// `access.mask`, ascending.
    fn on_mem_access_warp(&mut self, access: &WarpMemAccess<'_>, verdict: &mut WarpMemVerdict) {
        for lane in lanes_of(access.mask) {
            let check = self.on_mem_access(&access.lane(lane));
            verdict.push(lane, check);
        }
    }

    /// Whether a successful device `free` nullifies the freed pointer's
    /// in-pointer metadata (paper §VIII: the LMI pass clears the extent
    /// right after the call). Mechanisms returning `true` get a forensics
    /// poison event recorded at the free site, so a later use-after-free
    /// fault reports its poison-to-fault latency.
    fn nullifies_on_free(&self) -> bool {
        false
    }

    /// The register-bits rules the SMs apply in phase A in place of the
    /// warp forms. Each rule must agree lane for lane with the warp form it
    /// stands for: the checked values, the poisoned mask and the delay of
    /// [`Mechanism::on_marked_int_warp`] and [`Mechanism::marked_int_delay`],
    /// and the survivors, faults, metadata and extra cycles of
    /// [`Mechanism::on_mem_access_warp`]. The default, no rule at all,
    /// keeps every check on the leader: a mechanism with state, or a
    /// wrapper that must see every call, returns it.
    fn bit_rules(&self) -> BitRules {
        BitRules::default()
    }
}

/// The unprotected baseline: no checks, no cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullMechanism;

impl Mechanism for NullMechanism {
    fn name(&self) -> &'static str {
        "baseline"
    }

    fn on_marked_int_warp(&mut self, _: LaneMask, _: &Column64, _: &mut Column64) -> LaneMask {
        0
    }

    fn on_mem_access_warp(&mut self, access: &WarpMemAccess<'_>, verdict: &mut WarpMemVerdict) {
        verdict.survivors = access.mask;
    }

    fn bit_rules(&self) -> BitRules {
        BitRules { ocu: Some(OcuRule::Pass), ec: Some(EcRule::Allow) }
    }
}

/// LMI in hardware: the OCU on integer ALUs and the EC in the LSU. Both
/// decide from the pointer bits alone, so the mechanism is stateless and
/// its hooks are its [`BitRules`]; the run counts its poisoned and
/// faulting lanes
/// ([`crate::SimStats::poisoned`], [`crate::SimStats::violations`]).
#[derive(Debug, Clone, Copy)]
pub struct LmiMechanism {
    ocu: Ocu,
    ec: ExtentChecker,
}

impl LmiMechanism {
    /// LMI with the given pointer format.
    pub fn new(cfg: PtrConfig) -> LmiMechanism {
        LmiMechanism { ocu: Ocu::new(cfg), ec: ExtentChecker::new(cfg) }
    }

    /// LMI with the default pointer format (K = 256, 256 GiB limit).
    pub fn default_config() -> LmiMechanism {
        LmiMechanism::new(PtrConfig::default())
    }
}

impl Mechanism for LmiMechanism {
    fn name(&self) -> &'static str {
        "lmi"
    }

    fn on_marked_int(&mut self, input: u64, result: u64) -> IntCheck {
        OcuRule::Ocu(self.ocu).check_lane(input, result)
    }

    fn marked_int_delay(&self) -> u32 {
        self.ocu.delay_cycles
    }

    fn nullifies_on_free(&self) -> bool {
        true
    }

    fn on_mem_access(&mut self, ctx: &MemAccessCtx) -> MemCheck {
        EcRule::Extent(self.ec).check_lane(ctx.space, ctx.raw)
    }

    fn bit_rules(&self) -> BitRules {
        BitRules { ocu: Some(OcuRule::Ocu(self.ocu)), ec: Some(EcRule::Extent(self.ec)) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmi_core::ptr::PoisonKind;
    use lmi_core::DevicePtr;
    use lmi_mem::layout;
    use lmi_telemetry::SplitMix64;

    /// Lane masks: full, empty, single-lane and random partial.
    fn mask(rng: &mut SplitMix64) -> LaneMask {
        match rng.below(4) {
            0 => LaneMask::MAX,
            1 => 0,
            2 => 1 << rng.below(32),
            _ => rng.next_u32(),
        }
    }

    /// A pointer-like value: in-extent, bumped past its extent, debug
    /// coded (spatial or temporal poison), or raw bits.
    fn pointer(rng: &mut SplitMix64, cfg: &PtrConfig) -> u64 {
        let size = 256u64 << rng.below(6);
        let base = layout::GLOBAL_BASE + rng.below(64) * (1 << 20);
        let ptr = DevicePtr::encode(base, size, cfg).unwrap();
        match rng.below(5) {
            0 => ptr.raw() + rng.below(size),
            1 => ptr.raw() + size + rng.below(4096),
            2 => ptr.poisoned(PoisonKind::SpatialViolation, cfg).raw(),
            3 => ptr.poisoned(PoisonKind::TemporalViolation, cfg).raw(),
            _ => rng.next_u64(),
        }
    }

    fn column(rng: &mut SplitMix64, cfg: &PtrConfig) -> Column64 {
        std::array::from_fn(|_| pointer(rng, cfg))
    }

    /// One warp-instruction pair of the stream: a marked op's mask,
    /// selected inputs and raw results, and a memory access's fields.
    struct Step {
        mask: LaneMask,
        inputs: Column64,
        results: Column64,
        space: MemSpace,
        width: u8,
        is_store: bool,
        pc: usize,
        base_tid: u64,
        mem_mask: LaneMask,
        raw: Column64,
        vaddr: Column64,
    }

    impl Step {
        fn next(rng: &mut SplitMix64, cfg: &PtrConfig) -> Step {
            let marked = mask(rng);
            let inputs = column(rng, cfg);
            let results =
                std::array::from_fn(|l| inputs[l].wrapping_add(rng.below(2048)).wrapping_sub(1024));
            let space = [MemSpace::Global, MemSpace::Shared, MemSpace::Local, MemSpace::Const]
                [rng.below(4) as usize];
            let raw = column(rng, cfg);
            Step {
                mask: marked,
                inputs,
                results,
                space,
                width: 1 << rng.below(4),
                is_store: rng.below(2) == 0,
                pc: rng.below(64) as usize,
                base_tid: rng.below(1 << 16),
                mem_mask: mask(rng),
                raw,
                vaddr: raw.map(|r| DevicePtr::from_raw(r).addr()),
            }
        }

        fn access(&self) -> WarpMemAccess<'_> {
            WarpMemAccess {
                space: self.space,
                width: self.width,
                is_store: self.is_store,
                pc: self.pc,
                base_tid: self.base_tid,
                mask: self.mem_mask,
                raw: &self.raw,
                vaddr: &self.vaddr,
            }
        }
    }

    /// The SplitMix64 stream of `seed`, 400 steps long. Debug extents need
    /// a device limit below the pointer format's.
    fn stream(seed: u64) -> impl Iterator<Item = Step> {
        let cfg = PtrConfig::with_device_limit_log2(30);
        let mut rng = SplitMix64::new(seed);
        (0..400).map(move |_| Step::next(&mut rng, &cfg))
    }

    /// Drives `warp` through the warp forms and `lane` through the
    /// per-lane hooks on the same SplitMix64 stream of warp-instructions,
    /// asserting equal results, masks and verdicts throughout. Returns the
    /// stream's poisoned and faulting lane counts, for checks on what it
    /// exercised.
    fn assert_warp_forms_match<M: Mechanism>(mut warp: M, mut lane: M, seed: u64) -> (u64, u64) {
        let mut verdict = WarpMemVerdict::default();
        let (mut poisons, mut faults) = (0, 0);
        for step in stream(seed) {
            let mut warp_results = step.results;
            let poisoned = warp.on_marked_int_warp(step.mask, &step.inputs, &mut warp_results);
            let mut lane_results = step.results;
            let mut lane_poisoned = 0;
            for l in lanes_of(step.mask) {
                let check = lane.on_marked_int(step.inputs[l], step.results[l]);
                lane_results[l] = check.value;
                lane_poisoned |= LaneMask::from(check.poisoned) << l;
            }
            assert_eq!((poisoned, warp_results), (lane_poisoned, lane_results));
            poisons += u64::from(poisoned.count_ones());

            let access = step.access();
            verdict.clear();
            warp.on_mem_access_warp(&access, &mut verdict);
            let mut expect = WarpMemVerdict::default();
            for l in lanes_of(access.mask) {
                let check = lane.on_mem_access(&access.lane(l));
                expect.extra_cycles = expect.extra_cycles.max(check.extra_cycles);
                expect.metadata_addrs.extend(check.metadata_addr);
                match check.violation {
                    Some(v) => expect.faults.push((l, v)),
                    None => expect.survivors |= 1 << l,
                }
            }
            assert_eq!(verdict, expect);
            faults += verdict.faults.len() as u64;
        }
        (poisons, faults)
    }

    #[test]
    fn warp_forms_equal_the_per_lane_loop() {
        for seed in 0..4 {
            assert_warp_forms_match(NullMechanism, NullMechanism, seed);
            let lmi = LmiMechanism::new(PtrConfig::with_device_limit_log2(30));
            let (poisons, faults) = assert_warp_forms_match(lmi, lmi, seed);
            assert!(poisons > 0 && faults > 0, "the stream poisons and faults");
        }
    }

    /// Drives `mech`'s [`BitRules`] and its warp forms on the same
    /// SplitMix64 stream, asserting they agree lane for lane: checked
    /// values, poisoned masks and the OCU delay; survivors, faults, no
    /// metadata and no extra cycles. Returns the poisoned and faulting
    /// lanes the rules saw.
    fn assert_rules_match<M: Mechanism>(mut mech: M, seed: u64) -> (u64, u64) {
        let BitRules { ocu: Some(ocu), ec: Some(ec) } = mech.bit_rules() else {
            panic!("{} decides both checks from register bits", mech.name());
        };
        assert_eq!(ocu.delay(), mech.marked_int_delay());
        let (mut verdict, mut expect) = (WarpMemVerdict::default(), WarpMemVerdict::default());
        let (mut poisons, mut faults) = (0, 0);
        for step in stream(seed) {
            let (mut by_rule, mut by_warp) = (step.results, step.results);
            let poisoned = ocu.check(step.mask, &step.inputs, &mut by_rule);
            let expect_poisoned = mech.on_marked_int_warp(step.mask, &step.inputs, &mut by_warp);
            assert_eq!((poisoned, by_rule), (expect_poisoned, by_warp));
            poisons += u64::from(poisoned.count_ones());

            let access = step.access();
            verdict.clear();
            ec.check(&access, &mut verdict);
            expect.clear();
            mech.on_mem_access_warp(&access, &mut expect);
            assert_eq!(verdict, expect);
            assert!(verdict.metadata_addrs.is_empty() && verdict.extra_cycles == 0);
            faults += verdict.faults.len() as u64;
        }
        (poisons, faults)
    }

    #[test]
    fn bit_rules_equal_the_warp_forms() {
        for seed in 0..4 {
            assert_eq!(assert_rules_match(NullMechanism, seed), (0, 0));
            let lmi = LmiMechanism::new(PtrConfig::with_device_limit_log2(30));
            let (poisons, faults) = assert_rules_match(lmi, seed);
            assert!(poisons > 0 && faults > 0, "the stream poisons and faults");
        }
    }

    #[test]
    fn null_mechanism_allows_everything() {
        let mut m = NullMechanism;
        let check = m.on_marked_int(0, 0xDEAD);
        assert_eq!(check.value, 0xDEAD);
        assert!(!check.poisoned);
        assert_eq!(m.marked_int_delay(), 0);
    }

    #[test]
    fn lmi_mechanism_poisons_and_faults() {
        let cfg = PtrConfig::default();
        let mut m = LmiMechanism::new(cfg);
        assert_eq!(m.marked_int_delay(), 3, "paper §XI-C: three-cycle OCU delay");
        let p = DevicePtr::encode(0x1_0000, 256, &cfg).unwrap().raw();
        let check = m.on_marked_int(p, p + 256);
        assert!(check.poisoned);
        let ctx = MemAccessCtx {
            space: MemSpace::Global,
            raw: check.value,
            vaddr: DevicePtr::from_raw(check.value).addr(),
            width: 4,
            is_store: false,
            global_tid: 0,
            pc: 0,
            lane: 0,
        };
        let mem = m.on_mem_access(&ctx);
        assert!(mem.violation.is_some());
    }

    #[test]
    fn lmi_allows_const_accesses_without_extents() {
        let mut m = LmiMechanism::default_config();
        let ctx = MemAccessCtx {
            space: MemSpace::Const,
            raw: 0x28,
            vaddr: 0x28,
            width: 8,
            is_store: false,
            global_tid: 0,
            pc: 0,
            lane: 0,
        };
        assert_eq!(m.on_mem_access(&ctx), MemCheck::allow());
    }
}
