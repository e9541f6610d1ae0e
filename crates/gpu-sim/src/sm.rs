//! The streaming multiprocessor: warp schedulers, issue, and execution.
//!
//! Execution of one cycle is split into three phases so the engine
//! (`crate::engine`) can run SMs on worker threads while staying
//! bit-identical to serial execution:
//!
//! * **Phase A** (`Sm::step_phase_a`) — scheduling, operand fetch, ALU
//!   execution, address generation, and the SM-local L1 probe. Touches
//!   *only* this SM's state (warps, decoded stream, launch context, its
//!   own L1), so any number of SMs can run phase A concurrently. L1 hits
//!   never cross the barrier; L1-missed lines and per-lane data movement
//!   are routed into per-bank queues (`BankReq`) for the bank-parallel
//!   apply. The SM also counts what its own issues decide into its
//!   `SmRecord` — per-warp `issued`, instruction classes, marked ops,
//!   per-space memory instructions, heap calls and lanes, stalls — and
//!   takes the sampling profiler's census straight into its own profile.
//!   Operations that must touch genuinely global state (the device heap,
//!   the mechanism, telemetry) are recorded as `SharedOp`s on the cycle's
//!   `IssueEvent` slots.
//! * **Phase B** (`engine`) — a thin leader step walks every SM's events
//!   in canonical (sm, scheduler) order and decides one `Verdict` per
//!   deferred op: mechanism checks, heap calls, violations, forensics and
//!   trace events. Then the address-interleaved memory banks apply their
//!   queues concurrently — each bank in canonical order, so cache hit/miss
//!   sequences, heap allocation order, counters and forensics are
//!   independent of both the thread count and the bank count.
//! * **Phase C** (`Sm::apply_results`) — each SM (again concurrently)
//!   applies every deferred op from its descriptor, its slot's columns,
//!   its verdict and the config: register writes, scoreboard ready times,
//!   pc advance, retirement, then barrier release. Memory-op timing is
//!   assembled here from the bank-written atomics.
//!
//! Deferred results only become architecturally visible at the next cycle
//! (loads have multi-cycle latency; the issuing warp cannot issue again
//! this cycle), so deferring them within the cycle does not change what any
//! phase-A code can observe — the equivalence argument for determinism.
//!
//! ## Allocation discipline
//!
//! The cycle loop is **allocation-free in steady state** (audited by
//! `tests/alloc_audit.rs`): instructions come pre-decoded from an
//! [`lmi_isa::DecodedStream`] lowered once at launch, the GTO scheduler
//! iterates its warp slice in place instead of collecting candidate lists,
//! lane sets walk the execution mask bit-by-bit, and every deferred-op
//! payload lives in place: each scheduler's `IssueEvent` slot, sized once
//! per run and overwritten by each issue, owns its op's lane columns and
//! load atoms, and the coalesced line list is one per-SM scratch `Vec`.
//! A profiler census adds to the SM's own profile in place, so sampling
//! allocates only when it first sees a pc.
//!
//! ## Warp-wide execution
//!
//! Phase A resolves each source operand once into a 32-lane column of the
//! register-major register file and dispatches on the opcode once per
//! warp-instruction (`exec::*_lanes`), writing results back through the
//! exec mask. Scheduler readiness is memoized per warp
//! (`Warp::ready_memo`) and cleared wherever the warp's state changes: its
//! issue here and its results in `Sm::apply_results`. Deferred ops stay
//! warp-wide columns from phase A to phase C: a marked op, heap call or
//! memory access leaves its exec mask in a `Copy` descriptor and its lane
//! columns in its issue slot, the leader's mechanism check is one
//! warp-form call per instruction on those columns in place, and phase C
//! writes the result back from the slot with a single `Warp::write64_col`.

use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::Arc;

use lmi_core::ptr::ADDR_MASK;
use lmi_isa::op::SpecialReg;
use lmi_isa::{
    abi, DecodedInstr, DecodedStream, MemSpace, Opcode, OpcodeClass, Operand, PredReg, Reg,
};
use lmi_mem::{layout, BankRouter, Cache};
use lmi_telemetry::WarpState;

use crate::config::{GpuConfig, WARP_SIZE};
use crate::exec;
use crate::launch::Launch;
use crate::lsu::coalesce_into;
use crate::stats::SmRecord;
use crate::warp::{lanes_of, Column, Column64, LaneMask, Warp};

/// Per-launch context needed to resolve constant-bank reads.
#[derive(Debug, Clone)]
pub(crate) struct LaunchCtx {
    pub params: Vec<u64>,
    pub stack_bytes: u64,
    pub threads_per_block: usize,
    /// Offset added to a thread's global tid when *backing* its local
    /// window. Semantic ids (tid.x, ctaid.x) are untouched; resident
    /// multi-kernel runs use distinct bases so concurrent kernels' stacks
    /// land in disjoint windows of the functional store.
    pub layout_tid_base: u64,
    /// Same idea for shared-memory windows, in block units.
    pub layout_block_base: u64,
}

impl LaunchCtx {
    fn const_read(&self, block: usize, gtid: u64, offset: u16, width: u8) -> u64 {
        let value = match offset {
            abi::STACK_TOP_OFFSET => {
                layout::local_window_base(gtid + self.layout_tid_base, self.stack_bytes)
                    + self.stack_bytes
            }
            abi::SHARED_BASE_OFFSET => {
                layout::shared_window_base(block as u64 + self.layout_block_base)
            }
            o if o >= abi::PARAM_BASE_OFFSET => {
                let index = ((o - abi::PARAM_BASE_OFFSET) / 8) as usize;
                self.params.get(index).copied().unwrap_or(0)
            }
            _ => 0,
        };
        if width <= 4 {
            value & 0xFFFF_FFFF
        } else {
            value
        }
    }

    /// Resolves a 32-bit source operand for all 32 lanes of `warp`.
    fn gather32(&self, warp: &Warp, src: &Operand) -> Column {
        match *src {
            Operand::None => [0; WARP_SIZE],
            Operand::Reg(r) => *warp.column(r),
            Operand::Imm(v) => [v as u32; WARP_SIZE],
            Operand::Const { offset, .. } => std::array::from_fn(|l| {
                self.const_read(warp.block, warp.base_tid + l as u64, offset, 4) as u32
            }),
        }
    }

    /// Resolves a 64-bit source operand (register pair, sign-extended
    /// immediate) for all 32 lanes of `warp`.
    fn gather64(&self, warp: &Warp, src: &Operand) -> Column64 {
        match *src {
            Operand::None => [0; WARP_SIZE],
            Operand::Reg(r) => warp.column64(r),
            Operand::Imm(v) => [v as i64 as u64; WARP_SIZE],
            Operand::Const { offset, .. } => std::array::from_fn(|l| {
                self.const_read(warp.block, warp.base_tid + l as u64, offset, 8)
            }),
        }
    }
}

/// Per-block barrier bookkeeping, rebuilt-free: one record per resident
/// block, counters reset and re-accumulated in a single pass per phase C.
#[derive(Debug)]
struct BlockBarrier {
    block: usize,
    resident: usize,
    waiting: usize,
    done: usize,
}

/// One streaming multiprocessor.
pub(crate) struct Sm {
    pub id: usize,
    stream: Arc<DecodedStream>,
    launch: Arc<LaunchCtx>,
    pub warps: Vec<Warp>,
    /// Phase-A scratch: one memory op's coalesced line list.
    lines: Vec<u64>,
    /// Greedy warp per scheduler (GTO: greedy-then-oldest).
    greedy: Vec<Option<usize>>,
    /// Blocks resident on this SM (for barrier release).
    blocks: Vec<BlockBarrier>,
    /// What this SM's own issues and stalls counted this run.
    pub record: SmRecord,
    /// First cycle at which every resident warp had retired. Set in phase C
    /// with the cycle both drivers pass in, so it is identical at every
    /// thread count; resident multi-kernel runs use it for per-kernel
    /// completion times.
    pub done_cycle: Option<u64>,
}

/// Why a warp could not issue this cycle (the binding constraint of its
/// next instruction). Feeds [`crate::stats::StallBreakdown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StallReason {
    /// Launch-ramp delay, or no candidate at all.
    NoReadyWarp,
    /// Waiting on an ALU-produced register or predicate.
    Scoreboard,
    /// Waiting on an in-flight memory result.
    LsuBusy,
    /// Waiting on a pending OCU verdict (paper §XI-C pipeline delay).
    OcuVerdict,
}

impl StallReason {
    /// Index into [`SmRecord::stalls`].
    pub fn index(self) -> usize {
        match self {
            StallReason::Scoreboard => 0,
            StallReason::LsuBusy => 1,
            StallReason::OcuVerdict => 2,
            StallReason::NoReadyWarp => 3,
        }
    }
}

/// A shared-state operation deferred from phase A to phase B: a `Copy`
/// descriptor of the op. Its lane payloads live in the issuing
/// [`IssueEvent`]'s own columns and atoms.
#[derive(Debug, Clone, Copy)]
pub(crate) enum SharedOp {
    /// A hint-marked wide integer op with at least one active lane: the
    /// mechanism's OCU check runs in phase B over the lanes of `mask`, on
    /// the event's `inputs` (each lane's selected operand) and `values`
    /// (its raw result, checked in place).
    MarkedInt { dst: Reg, pair: bool, mask: LaneMask },
    /// A device-heap call over the lanes of `mask`; the event's `values`
    /// hold each lane's size (malloc, replaced by its pointer) or pointer
    /// (free).
    Heap { dst: Reg, pair: bool, malloc: bool, mask: LaneMask },
    /// A non-constant memory access over the lanes of `mask`; the event's
    /// `inputs` hold each lane's raw address and `values` its stripped
    /// virtual address.
    Mem(MemOp),
}

/// A deferred memory access. Timing and data movement were routed into
/// the per-bank queues during phase A; the leader's B-check only runs the
/// mechanism and charges the op.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MemOp {
    pub dst: Reg,
    pub pair: bool,
    pub width: u8,
    pub is_store: bool,
    pub space: MemSpace,
    pub mask: LaneMask,
    /// Coalesced line count (1 for shared-space ops): the transaction
    /// count charged by the B-check.
    pub line_count: u64,
    /// At least one coalesced line hit the SM-local L1 in phase A.
    pub l1_hit: bool,
    /// Bank-queue entries this op contributed (fills + stores/loads), for
    /// the `phase_b_banked_items` stat.
    pub bank_items: u32,
}

/// One entry of a per-SM per-bank queue, enqueued during phase A and
/// applied by the owning bank's worker in canonical (SM, issue, queue)
/// order. `op` indexes the SM's live issue events ([`CycleEvents::live`]);
/// addresses are bank-compacted ([`BankRouter::localize`]). A lane's
/// access that straddles a line boundary splits into two entries.
#[derive(Debug, Clone, Copy)]
pub(crate) enum BankReq {
    /// Timing: an L1-missed coalesced line fill through the bank's
    /// L2/MSHR/DRAM slice.
    Fill { op: u32, local: u64 },
    /// Functional: one lane's store bytes (pre-shifted for the second part
    /// of a straddling access).
    Store { op: u32, lane: u8, local: u64, width: u8, value: u64 },
    /// Functional: one lane's load; the bank ORs
    /// `read(local, width) << 8*shift` into the op's atom for `lane`.
    Load { op: u32, lane: u8, local: u64, width: u8, shift: u8 },
}

/// The leader B-check's verdict on one deferred op, consumed by the bank
/// passes (a memory op's gate) and by phase C, which applies the op from
/// its descriptor, its slot's columns, this verdict and the config.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Verdict {
    /// Lanes that passed the mechanism check (every lane of a heap call).
    pub survivors: LaneMask,
    /// The warp halts: a violation under `halt_on_violation`. A halting
    /// memory access never issues: no timing, no data movement.
    pub halt: bool,
    /// Extra latency charged by the mechanism: a memory op's completion
    /// delay, a marked op's OCU verdict delay.
    pub extra_cycles: u32,
}

/// One warp-level issue, recorded in phase A for phase B's canonical walk.
/// Each SM owns one event per scheduler, reused in place every cycle, so
/// an event also owns its op's lane payloads.
#[derive(Debug, Default)]
pub(crate) struct IssueEvent {
    pub warp: usize,
    /// pc of the issued instruction (pre-advance).
    pub pc: usize,
    /// `None`: the warp fell off the program end and retired (an implicit
    /// `EXIT`).
    pub opcode: Option<Opcode>,
    pub base_tid: u64,
    pub block: usize,
    pub start_cycle: u64,
    /// Warp retired during phase A (local exit path).
    pub retired_local: bool,
    pub shared: Option<SharedOp>,
    /// B-check verdict on the deferred op (`None` without one).
    pub verdict: Option<Verdict>,
    /// Completion cycle of this op's metadata fetches (`fetch_max`ed by the
    /// banks' metadata pass; 0 when the mechanism fetched none). Atomic
    /// because several banks may fetch for one op concurrently.
    pub meta_done: AtomicU64,
    /// Completion cycle of this op's slowest L1-missed line fill
    /// (`fetch_max`ed by the banks' data pass; 0 when every line hit L1).
    pub data_done: AtomicU64,
    /// The deferred op's input lane column (see [`SharedOp`]).
    pub inputs: Column64,
    /// The deferred op's value lane column (see [`SharedOp`]); phase C
    /// writes a marked op's or `malloc`'s result back from it.
    pub values: Column64,
    /// A deferred load's data per lane, OR-combined by the owning bank(s).
    pub atoms: [AtomicU64; WARP_SIZE],
}

/// Everything one SM produced in one cycle.
#[derive(Debug, Default)]
pub(crate) struct CycleEvents {
    /// One event per scheduler, sized once per run; only the first `live`
    /// were issued this cycle ([`CycleEvents::live`]), the rest are stale.
    issues: Vec<IssueEvent>,
    live: usize,
    /// Per-bank request queues filled during phase A and drained by the
    /// banks' apply passes, in canonical intra-SM order. Sized once per
    /// run; inner capacity survives `clear()` so the steady state stays
    /// allocation-free.
    pub bank_q: Vec<Vec<BankReq>>,
}

impl CycleEvents {
    /// Events for an SM with `schedulers` issue slots over `banks` banks
    /// (run start).
    pub fn new(banks: usize, schedulers: usize) -> CycleEvents {
        CycleEvents {
            issues: (0..schedulers).map(|_| IssueEvent::default()).collect(),
            bank_q: vec![Vec::new(); banks],
            ..CycleEvents::default()
        }
    }

    pub fn clear(&mut self) {
        self.live = 0;
        for q in &mut self.bank_q {
            q.clear();
        }
    }

    /// This cycle's issues, in issue order.
    pub fn live(&self) -> &[IssueEvent] {
        &self.issues[..self.live]
    }

    /// [`CycleEvents::live`], mutably.
    pub fn live_mut(&mut self) -> &mut [IssueEvent] {
        &mut self.issues[..self.live]
    }
}

impl IssueEvent {
    /// The issued instruction's mnemonic (empty for an implicit `EXIT`).
    pub fn mnemonic(&self) -> &'static str {
        self.opcode.map(|op| op.mnemonic()).unwrap_or("")
    }

    /// Completion cycle of a deferred memory op, assembled from the
    /// bank-written atomics: metadata fetches gate the access start
    /// (check-before-access), then the slowest of the bank fills, the
    /// SM-local L1 hit path and the shared-memory path completes it, plus
    /// the mechanism's extra latency. `None` for non-memory events and for
    /// cancelled (halting) accesses.
    pub fn mem_done_at(&self, now: u64, cfg: &GpuConfig) -> Option<u64> {
        let Some(SharedOp::Mem(op)) = self.shared else {
            return None;
        };
        let v = self.verdict.as_ref()?;
        if v.halt {
            return None;
        }
        let start = now.max(self.meta_done.load(SeqCst));
        let mut done = start.max(self.data_done.load(SeqCst));
        if op.l1_hit {
            done = done.max(start + cfg.hierarchy.l1.hit_latency as u64);
        }
        if op.space == MemSpace::Shared {
            done = done.max(start + cfg.hierarchy.shared_latency as u64);
        }
        Some(done + v.extra_cycles as u64)
    }

    /// Whether the bank passes move `lane`'s data: the warp does not
    /// halt and the lane passed the mechanism check.
    pub fn lane_survives(&self, lane: u8) -> bool {
        let v = self.verdict.expect("mem op verdict set in B-check");
        !v.halt && v.survivors & (1 << lane) != 0
    }
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct StepOutcome {
    pub issued_any: bool,
    /// Earliest future cycle at which a stalled warp could issue.
    pub next_ready: u64,
}

impl Sm {
    pub fn new(id: usize, stream: Arc<DecodedStream>, ctx: Arc<LaunchCtx>) -> Sm {
        Sm {
            id,
            stream,
            launch: ctx,
            warps: Vec::new(),
            lines: Vec::new(),
            greedy: Vec::new(),
            blocks: Vec::new(),
            record: SmRecord::default(),
            done_cycle: None,
        }
    }

    /// Adds the warps of block `block` to this SM.
    pub fn add_block(&mut self, block: usize, launch: &Launch, regs_per_thread: usize) {
        let warps = launch.warps_per_block();
        for w in 0..warps {
            let threads_before = w * WARP_SIZE;
            let active = (launch.threads_per_block - threads_before).min(WARP_SIZE);
            let base_tid = (block * launch.threads_per_block + threads_before) as u64;
            let id = self.warps.len();
            let mut warp = Warp::new(id, block, base_tid, regs_per_thread, active);
            // The launch phase selects a different dispatch-stagger pattern,
            // decorrelating warp/program/memory phase alignment between runs.
            warp.start_cycle = ((id as u64 + 1) * (7 + launch.phase * 5)) % 31;
            self.warps.push(warp);
        }
        match self.blocks.iter_mut().find(|b| b.block == block) {
            Some(b) => b.resident += warps,
            None => self.blocks.push(BlockBarrier { block, resident: warps, waiting: 0, done: 0 }),
        }
    }

    pub fn all_done(&self) -> bool {
        self.warps.iter().all(|w| w.done)
    }

    /// Phase A of one cycle: each scheduler issues at most one instruction
    /// (GTO pick), executing SM-local work immediately — including the
    /// probe of this SM's own L1 (`l1`) — and recording shared-state work
    /// into `out` (bank-routed via `router`). Reads no shared state.
    pub fn step_phase_a(
        &mut self,
        now: u64,
        cfg: &GpuConfig,
        out: &mut CycleEvents,
        l1: &mut Cache,
        router: &BankRouter,
    ) -> StepOutcome {
        out.clear();
        if self.greedy.len() != cfg.schedulers_per_sm {
            self.greedy = vec![None; cfg.schedulers_per_sm];
        }
        // Disjoint field borrows: the decoded stream and launch context
        // are read while the warps are mutated.
        let Sm { stream, launch, warps, lines, greedy, record, .. } = self;
        let overlap = cfg.lsu_verdict_overlap;
        let mut issued_any = false;
        let mut next_ready = u64::MAX;
        let nwarps = warps.len();

        for (sched, greedy_slot) in greedy.iter_mut().enumerate() {
            // GTO: greedy warp first, then oldest — examined in place, in
            // exactly the order the old candidate-list walk used, stopping
            // at the first ready warp (later candidates are never probed,
            // so they feed neither `next_ready` nor stall attribution).
            let greedy_w = greedy_slot.filter(|&g| {
                let w = &warps[g];
                !w.done && !w.at_barrier
            });
            let mut any_candidate = false;
            let mut picked = None;
            // Stall attribution: the binding constraint of the candidate
            // that would issue soonest.
            let mut soonest: Option<(u64, StallReason)> = None;
            if let Some(g) = greedy_w {
                any_candidate = true;
                let (r, reason) = ready_memo(stream, &mut warps[g], overlap);
                if r <= now {
                    picked = Some(g);
                } else {
                    next_ready = next_ready.min(r);
                    soonest = Some((r, reason));
                }
            }
            if picked.is_none() {
                let mut w = sched;
                while w < nwarps {
                    if Some(w) != greedy_w {
                        let warp = &mut warps[w];
                        if !warp.done && !warp.at_barrier {
                            any_candidate = true;
                            let (r, reason) = ready_memo(stream, warp, overlap);
                            if r <= now {
                                picked = Some(w);
                                break;
                            }
                            next_ready = next_ready.min(r);
                            if soonest.is_none_or(|(s, _)| r < s) {
                                soonest = Some((r, reason));
                            }
                        }
                    }
                    w += cfg.schedulers_per_sm;
                }
            }
            if !any_candidate {
                // At a barrier (or between blocks): the slot idles with no
                // candidate, but only count it while work remains.
                let mut w = sched;
                let mut any_live = false;
                while w < nwarps {
                    if !warps[w].done {
                        any_live = true;
                        break;
                    }
                    w += cfg.schedulers_per_sm;
                }
                if any_live {
                    record.stalls[StallReason::NoReadyWarp.index()] += 1;
                }
                continue;
            }
            match picked {
                Some(w) => {
                    let CycleEvents { issues, live, bank_q, .. } = out;
                    let warp = &mut warps[w];
                    let di = stream.get(warp.pc);
                    let mut ctx = IssueCtx {
                        now,
                        cfg,
                        launch,
                        record,
                        bank_q,
                        lines,
                        op_idx: *live as u32,
                        l1,
                        router,
                    };
                    ctx.issue(&mut issues[*live], warp, w, di);
                    *live += 1;
                    *greedy_slot = Some(w);
                    issued_any = true;
                    // The warp can issue again next cycle (in-order).
                    next_ready = next_ready.min(now + 1);
                }
                None => {
                    let reason = soonest.map(|(_, r)| r).unwrap_or(StallReason::NoReadyWarp);
                    record.stalls[reason.index()] += 1;
                }
            }
        }

        if cfg.sample_period > 0 && now.is_multiple_of(cfg.sample_period) {
            self.sample_warps(now, cfg, out.live());
        }

        StepOutcome { issued_any, next_ready }
    }

    /// Takes one profiler census: classifies every resident warp into this
    /// SM's own profile. Runs in phase A on SM-local state only (warp
    /// flags, scoreboard times, this cycle's issue list), so the profile
    /// is independent of other SMs and of the worker-thread count.
    fn sample_warps(&mut self, now: u64, cfg: &GpuConfig, issues: &[IssueEvent]) {
        let Sm { stream, warps, record, .. } = self;
        let profile = &mut record.profile;
        profile.samples += 1;
        for (w, warp) in warps.iter().enumerate() {
            // This cycle's issue comes first: phase A has already applied
            // it, so an `EXIT` has marked its warp done and a `BAR` has
            // parked it, yet the warp issued.
            let state = if let Some(ev) = issues.iter().find(|ev| ev.warp == w) {
                profile.pcs.record(ev.pc as u32, 1);
                WarpState::Issued
            } else if warp.done {
                WarpState::Retired
            } else if warp.at_barrier {
                WarpState::Barrier
            } else {
                let (r, reason) = ready_info(stream, warp, cfg.lsu_verdict_overlap);
                if r <= now {
                    // Eligible, but this cycle's scheduler slots went to
                    // greedier/older warps.
                    WarpState::Ready
                } else {
                    match reason {
                        StallReason::Scoreboard => WarpState::Scoreboard,
                        StallReason::LsuBusy => WarpState::LsuBusy,
                        StallReason::OcuVerdict => WarpState::OcuVerdict,
                        // Only the dispatch ramp leaves no binding hazard.
                        StallReason::NoReadyWarp => WarpState::Ramp,
                    }
                }
            };
            profile.states[state.index()] += 1;
        }
    }

    /// Phase C: applies every deferred op to its warp (in issue order) and
    /// releases block barriers. Each op is applied from its descriptor,
    /// its slot's columns, the leader's verdict and `cfg`; memory-op
    /// completion times are assembled from the bank-written atomics
    /// (SM-local again, so phase C stays fully parallel). `now` stamps
    /// `done_cycle` the first time the SM drains.
    pub fn apply_results(&mut self, events: &CycleEvents, now: u64, cfg: &GpuConfig) {
        for ev in events.live() {
            let warp = &mut self.warps[ev.warp];
            // Every op below changes the issuing warp's pc, scoreboard or
            // lanes: its readiness memo is stale.
            warp.ready_memo = None;
            let Some(shared) = ev.shared else { continue };
            let v = ev.verdict.expect("a deferred op carries a B-check verdict");
            if v.halt {
                // A violation under `halt_on_violation`: the warp halts in
                // place (a faulting access never issues).
                warp.stack.clear();
                warp.retire_lanes(warp.mask);
                continue;
            }
            match shared {
                SharedOp::MarkedInt { dst, pair, mask } => {
                    // The checked value forwards to ALU consumers at the
                    // ALU latency; the EC waits for the OCU verdict.
                    warp.write64_col(dst, mask, &ev.values);
                    let done_at = now + cfg.int_latency as u64;
                    for reg in dst_regs(dst, pair) {
                        warp.set_ready_at(reg, done_at);
                        warp.set_verdict_at(reg, done_at + v.extra_cycles as u64);
                    }
                }
                SharedOp::Heap { dst, pair, malloc: true, mask } => {
                    warp.write64_col(dst, mask, &ev.values);
                    for reg in dst_regs(dst, pair) {
                        warp.set_ready_at_mem(reg, now + cfg.heap_call_latency as u64);
                    }
                }
                // `free` writes nothing back.
                SharedOp::Heap { malloc: false, .. } => {}
                SharedOp::Mem(op) => {
                    if !op.is_store {
                        let done = ev.mem_done_at(now, cfg).expect("live mem op completes");
                        let values: Column64 = ev.atoms.each_ref().map(|a| a.load(SeqCst));
                        if op.width == 8 {
                            warp.write64_col(op.dst, v.survivors, &values);
                        } else {
                            warp.write_col(op.dst, v.survivors, &values.map(|v| v as u32));
                        }
                        for reg in dst_regs(op.dst, op.pair) {
                            warp.set_ready_at_mem(reg, done);
                        }
                    }
                }
            }
            warp.pc += 1;
        }
        self.release_barriers();
        if self.done_cycle.is_none() && !self.warps.is_empty() && self.all_done() {
            self.done_cycle = Some(now);
        }
    }

    fn release_barriers(&mut self) {
        if !self.warps.iter().any(|w| w.at_barrier) {
            return;
        }
        for b in &mut self.blocks {
            b.waiting = 0;
            b.done = 0;
        }
        for warp in &self.warps {
            if let Some(b) = self.blocks.iter_mut().find(|b| b.block == warp.block) {
                if warp.at_barrier {
                    b.waiting += 1;
                } else if warp.done {
                    b.done += 1;
                }
            }
        }
        for i in 0..self.blocks.len() {
            let b = &self.blocks[i];
            if b.waiting > 0 && b.waiting + b.done >= b.resident {
                let block = b.block;
                for warp in &mut self.warps {
                    if warp.block == block {
                        warp.at_barrier = false;
                    }
                }
            }
        }
    }
}

/// `dst`, and its pair's high half when `pair`.
fn dst_regs(dst: Reg, pair: bool) -> impl Iterator<Item = Reg> {
    std::iter::once(dst).chain(pair.then(|| dst.pair_high()))
}

/// Earliest cycle at which `warp`'s next instruction can issue, and the
/// constraint that binds (for stall attribution when it is in the
/// future). A function of the warp's pc, start cycle and scoreboard only.
fn ready_info(stream: &DecodedStream, warp: &Warp, verdict_overlap: u32) -> (u64, StallReason) {
    let di = match stream.get(warp.pc) {
        Some(d) => d,
        // Fell off the program: nothing to wait for but the dispatch ramp;
        // the issue retires the warp as an implicit `EXIT`.
        None => return (warp.start_cycle, StallReason::NoReadyWarp),
    };
    // The launch/dispatch ramp: not a pipeline hazard.
    let mut ready = warp.start_cycle;
    let mut reason = StallReason::NoReadyWarp;
    for &r in di.source_regs() {
        let t = warp.ready_at(r);
        if t > ready {
            ready = t;
            reason = if warp.mem_pending_at(r, t) {
                StallReason::LsuBusy
            } else {
                StallReason::Scoreboard
            };
        }
    }
    if di.opcode.is_mem() && di.opcode != Opcode::Ldc {
        // The LSU's EC consumes the final (possibly poisoned) extent, so
        // it must wait for the OCU verdict on the address registers.
        if let Some(mem) = &di.mem {
            let mut verdict = warp.verdict_at(mem.addr);
            if di.mem_addr_pair {
                verdict = verdict.max(warp.verdict_at(mem.addr.pair_high()));
            }
            let v = verdict.saturating_sub(verdict_overlap as u64);
            if v > ready {
                ready = v;
                reason = StallReason::OcuVerdict;
            }
        }
    }
    if let Some(p) = &di.pred {
        let t = warp.pred_ready_at(p.reg);
        if t > ready {
            ready = t;
            reason = StallReason::Scoreboard;
        }
    }
    if di.opcode == Opcode::Isetp {
        // WAW on the destination predicate.
        let t = warp.pred_ready_at(PredReg(di.dst.0 & 7));
        if t > ready {
            ready = t;
            reason = StallReason::Scoreboard;
        }
    }
    (ready, reason)
}

/// [`ready_info`] through the warp's memo: a warp that stays stalled is
/// examined every cycle but recomputed only after its state changed.
fn ready_memo(stream: &DecodedStream, warp: &mut Warp, verdict_overlap: u32) -> (u64, StallReason) {
    match warp.ready_memo {
        Some(memo) => {
            debug_assert_eq!(
                memo,
                ready_info(stream, warp, verdict_overlap),
                "stale readiness memo for warp {}",
                warp.id
            );
            memo
        }
        None => {
            let info = ready_info(stream, warp, verdict_overlap);
            warp.ready_memo = Some(info);
            info
        }
    }
}

/// What one issue reads or fills besides the issuing warp and its event
/// slot: the SM's launch context, record, L1 and line scratch, the
/// cycle's bank queues, and this issue's index `op_idx` among the cycle's
/// live events.
struct IssueCtx<'a> {
    now: u64,
    cfg: &'a GpuConfig,
    launch: &'a LaunchCtx,
    record: &'a mut SmRecord,
    bank_q: &'a mut [Vec<BankReq>],
    lines: &'a mut Vec<u64>,
    op_idx: u32,
    l1: &'a mut Cache,
    router: &'a BankRouter,
}

impl IssueCtx<'_> {
    /// Issues `warp`'s next instruction `di` (`None`: it fell off the
    /// program) into the event slot `ev`, overwriting last cycle's issue,
    /// and counts it: local work executes now, warp-wide; shared work is
    /// recorded on the event (memory timing/data routed into `bank_q`
    /// under `op_idx`).
    fn issue(&mut self, ev: &mut IssueEvent, warp: &mut Warp, w: usize, di: Option<&DecodedInstr>) {
        // Whatever issues changes this warp's pc or scoreboard.
        warp.ready_memo = None;
        // Every issue is one instruction, a warp falling off the program
        // end an implicit `EXIT`.
        warp.issued += 1;
        let now = self.now;
        ev.warp = w;
        ev.pc = warp.pc;
        ev.opcode = None;
        ev.base_tid = warp.base_tid;
        ev.block = warp.block;
        ev.start_cycle = warp.start_cycle;
        ev.shared = None;
        ev.verdict = None;
        *ev.meta_done.get_mut() = 0;
        *ev.data_done.get_mut() = 0;
        let Some(di) = di else {
            warp.retire_lanes(warp.mask);
            ev.retired_local = warp.done;
            return;
        };
        warp.last_issue = now;
        ev.opcode = Some(di.opcode);
        match di.opcode.class() {
            OpcodeClass::IntAlu => self.record.int_issued += 1,
            OpcodeClass::Fpu => self.record.fpu_issued += 1,
            _ => {}
        }
        self.record.marked_issued += u64::from(di.hints.activate);

        // Guard predicate, warp-wide. Unpredicated instructions (the common
        // case) take the warp mask verbatim.
        let exec_mask: LaneMask = match di.pred {
            None => warp.mask,
            Some(p) if p.negated => warp.mask & !warp.pred_mask(p.reg),
            Some(p) => warp.mask & warp.pred_mask(p.reg),
        };

        match di.opcode {
            Opcode::Exit => {
                if exec_mask == 0 {
                    warp.pc += 1;
                } else {
                    warp.retire_lanes(exec_mask);
                }
            }
            Opcode::Nop => warp.pc += 1,
            Opcode::Bar => {
                warp.at_barrier = true;
                warp.pc += 1;
            }
            Opcode::Bra => {
                let target = di.bra_target;
                let active = warp.mask;
                if exec_mask == 0 {
                    warp.pc += 1;
                } else if exec_mask == active {
                    warp.pc = target;
                } else {
                    // Divergence: suspend the fall-through lanes.
                    warp.stack.push((active & !exec_mask, warp.pc + 1));
                    warp.mask = exec_mask;
                    warp.pc = target;
                }
            }
            Opcode::S2r => {
                let tpb = self.launch.threads_per_block as u64;
                let values: Column = std::array::from_fn(|l| {
                    let gtid = warp.base_tid + l as u64;
                    let v = match di.special {
                        SpecialReg::TidX => gtid % tpb,
                        SpecialReg::CtaIdX => gtid / tpb,
                        SpecialReg::NtidX => tpb,
                        SpecialReg::LaneId => l as u64,
                        SpecialReg::WarpId => warp.id as u64,
                    };
                    v as u32
                });
                warp.write_col(di.dst, exec_mask, &values);
                warp.set_ready_at(di.dst, now + 2);
                warp.pc += 1;
            }
            Opcode::Isetp => {
                let pred = PredReg(di.dst.0 & 7);
                let a = self.launch.gather32(warp, &di.srcs[0]);
                let b = self.launch.gather32(warp, &di.srcs[1]);
                warp.write_pred_mask(pred, exec_mask, exec::isetp_lanes(di.cmp, &a, &b));
                warp.set_pred_ready_at(pred, now + 2);
                warp.pc += 1;
            }
            Opcode::Malloc | Opcode::Free => self.issue_heap(warp, di, exec_mask, ev),
            op if op.class() == OpcodeClass::IntAlu => self.issue_int(warp, di, exec_mask, ev),
            op if op.class() == OpcodeClass::Fpu => {
                if exec_mask != 0 {
                    let a = self.launch.gather32(warp, &di.srcs[0]);
                    let b = self.launch.gather32(warp, &di.srcs[1]);
                    let c = self.launch.gather32(warp, &di.srcs[2]);
                    warp.write_col(di.dst, exec_mask, &exec::fpu_lanes(di.opcode, &a, &b, &c));
                }
                let lat = if di.opcode == Opcode::Mufu {
                    self.cfg.fpu_latency * 2
                } else {
                    self.cfg.fpu_latency
                };
                warp.set_ready_at(di.dst, now + lat as u64);
                warp.pc += 1;
            }
            op if op.is_mem() => self.issue_mem(warp, di, exec_mask, ev),
            other => panic!("unhandled opcode {other}"),
        }
        ev.retired_local = warp.done;
    }

    fn issue_int(
        &mut self,
        warp: &mut Warp,
        di: &DecodedInstr,
        exec_mask: LaneMask,
        ev: &mut IssueEvent,
    ) {
        // No active lane: nothing to compute, check or write — only the
        // scoreboard update below.
        if exec_mask != 0 {
            if di.wide {
                let a = self.launch.gather64(warp, &di.srcs[0]);
                let b = self.launch.gather64(warp, &di.srcs[1]);
                let c = self.launch.gather64(warp, &di.srcs[2]);
                let v = exec::alu64_lanes(di.opcode, &a, &b, &c);
                if di.hints.activate {
                    // The OCU check consults the mechanism — shared state —
                    // so the whole writeback defers to phase B.
                    ev.inputs = if di.hints.select == 0 { a } else { b };
                    ev.values = v;
                    ev.shared = Some(SharedOp::MarkedInt {
                        dst: di.dst,
                        pair: di.dst_pair,
                        mask: exec_mask,
                    });
                    return;
                }
                warp.write64_col(di.dst, exec_mask, &v);
            } else {
                // 32-bit marked ops (hand-written programs) are not checked:
                // the compiler marks wide ops exclusively, so the OCU path
                // above is the one that matters.
                let a = self.launch.gather32(warp, &di.srcs[0]);
                let b = self.launch.gather32(warp, &di.srcs[1]);
                let c = self.launch.gather32(warp, &di.srcs[2]);
                warp.write_col(di.dst, exec_mask, &exec::alu32_lanes(di.opcode, &a, &b, &c));
            }
        }
        let done_at = self.now + self.cfg.int_latency as u64;
        warp.set_ready_at(di.dst, done_at);
        warp.set_verdict_at(di.dst, done_at);
        if di.wide && di.dst_pair {
            warp.set_ready_at(di.dst.pair_high(), done_at);
            warp.set_verdict_at(di.dst.pair_high(), done_at);
        }
        warp.pc += 1;
    }

    fn issue_heap(
        &mut self,
        warp: &Warp,
        di: &DecodedInstr,
        exec_mask: LaneMask,
        ev: &mut IssueEvent,
    ) {
        // Heap calls always defer (even with no active lane the call counts
        // and the pc advances in phase C).
        let malloc = di.opcode == Opcode::Malloc;
        let lanes = u64::from(exec_mask.count_ones());
        self.record.heap_calls += 1;
        if malloc {
            self.record.mallocs += lanes;
        } else {
            self.record.frees += lanes;
        }
        ev.values = if malloc {
            self.launch.gather32(warp, &di.srcs[0]).map(u64::from)
        } else {
            self.launch.gather64(warp, &di.srcs[0])
        };
        ev.shared =
            Some(SharedOp::Heap { dst: di.dst, pair: di.dst_pair, malloc, mask: exec_mask });
    }

    fn issue_mem(
        &mut self,
        warp: &mut Warp,
        di: &DecodedInstr,
        exec_mask: LaneMask,
        ev: &mut IssueEvent,
    ) {
        let mem = di.mem.expect("lowering admits a load/store only with a MemRef");
        let space = di.mem_space.unwrap_or(MemSpace::Global);
        self.record.mem[space as usize] += 1;
        let cfg = self.cfg;

        // Constant loads resolve against the launch context — fully local.
        if di.opcode == Opcode::Ldc {
            let values: Column64 = std::array::from_fn(|l| {
                self.launch.const_read(
                    warp.block,
                    warp.base_tid + l as u64,
                    mem.offset as u16,
                    mem.width,
                )
            });
            if mem.width == 8 {
                warp.write64_col(di.dst, exec_mask, &values);
            } else {
                warp.write_col(di.dst, exec_mask, &values.map(|v| v as u32));
            }
            let done_at = self.now + cfg.const_latency as u64;
            warp.set_ready_at_mem(di.dst, done_at);
            if mem.width == 8 && di.dst_pair {
                warp.set_ready_at_mem(di.dst.pair_high(), done_at);
            }
            warp.pc += 1;
            return;
        }

        // Address generation and store-data collection are warp-wide local
        // work; the mechanism check, timing and data movement defer.
        let is_store = di.is_store;
        let addrs = warp.column64(mem.addr);
        let store_values: Column64 = match di.srcs[0] {
            Operand::Reg(r) if is_store && mem.width == 8 => warp.column64(r),
            Operand::Reg(r) if is_store => warp.column(r).map(u64::from),
            _ => [0; WARP_SIZE],
        };
        let stack_bytes = cfg.stack_bytes;
        // Layout tids (not semantic tids) back the local windows — resident
        // multi-kernel runs keep concurrent kernels' stacks disjoint.
        let warp_base = warp.base_tid + self.launch.layout_tid_base;
        // Local memory is physically interleaved per lane (like real GPUs),
        // so a warp spilling the same stack offset coalesces to one
        // transaction; timing addresses reflect that layout.
        let timing_addr = |lane: usize, vaddr: u64| -> u64 {
            if space != MemSpace::Local {
                return vaddr;
            }
            let gtid = warp_base + lane as u64;
            let window = lmi_mem::layout::local_window_base(gtid, stack_bytes);
            let offset = vaddr.wrapping_sub(window);
            if offset >= stack_bytes {
                return vaddr; // escaped the window: keep the flat address
            }
            lmi_mem::layout::LOCAL_BASE + (warp_base * stack_bytes) + offset * 32 + lane as u64 * 4
        };
        ev.inputs = addrs.map(|a| a.wrapping_add(mem.offset as i64 as u64));
        ev.values = ev.inputs.map(|raw| raw & ADDR_MASK);
        let vaddrs = &ev.values;
        // Timing: probe this SM's own L1 on the coalesced lines right here
        // in phase A (SM-local state — hits never cross the barrier) and
        // route the misses to their owning banks. Shared-space accesses use
        // the fixed shared-memory path and count as one transaction.
        let router = self.router;
        let bank_q = &mut *self.bank_q;
        let op = self.op_idx;
        let mut line_count = 1u64;
        let mut l1_hit = false;
        let mut bank_items = 0u32;
        if space != MemSpace::Shared {
            let lines = &mut *self.lines;
            coalesce_into(
                lanes_of(exec_mask).map(|l| timing_addr(l, vaddrs[l])),
                cfg.hierarchy.l1.line_bytes,
                lines,
            );
            line_count = lines.len() as u64;
            for &line in lines.iter() {
                if self.l1.access(line) {
                    l1_hit = true;
                } else {
                    bank_q[router.bank_of(line)]
                        .push(BankReq::Fill { op, local: router.localize(line) });
                    bank_items += 1;
                }
            }
        }
        // Data movement: route every lane's bytes to the bank(s) owning its
        // virtual address (a straddling access splits at the line boundary).
        // Loads OR into the event's per-lane atoms, zeroed here.
        if !is_store {
            for atom in &mut ev.atoms {
                *atom.get_mut() = 0;
            }
        }
        // One lane's part of `width` bytes at `addr`, `shift` bytes into
        // the access.
        let part = |l: usize, addr: u64, width: u64, shift: u64| {
            let (lane, local, width) = (l as u8, router.localize(addr), width as u8);
            if is_store {
                BankReq::Store { op, lane, local, width, value: store_values[l] >> (8 * shift) }
            } else {
                BankReq::Load { op, lane, local, width, shift: shift as u8 }
            }
        };
        for l in lanes_of(exec_mask) {
            let vaddr = vaddrs[l];
            let (w1, rest) = router.split(vaddr, mem.width as u64);
            bank_q[router.bank_of(vaddr)].push(part(l, vaddr, w1, 0));
            bank_items += 1;
            if let Some((addr2, w2)) = rest {
                bank_q[router.bank_of(addr2)].push(part(l, addr2, w2, w1));
                bank_items += 1;
            }
        }
        ev.shared = Some(SharedOp::Mem(MemOp {
            dst: di.dst,
            pair: mem.width == 8 && di.dst_pair,
            width: mem.width,
            is_store,
            space,
            mask: exec_mask,
            line_count,
            l1_hit,
            bank_items,
        }));
    }
}
