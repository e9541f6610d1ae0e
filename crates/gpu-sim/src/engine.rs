//! The simulation engine: the deterministic bank-sharded cycle driver.
//!
//! One driver executes the phase protocol described in [`crate::sm`] at any
//! worker-thread count (1 = serial) and any memory-bank count (1 =
//! monolithic), always bit-identically:
//!
//! * **Phase A** — every SM concurrently: schedule, execute ALU work,
//!   probe the SM-local L1, and route L1 misses + per-lane data movement
//!   into per-SM per-bank queues. Each SM counts its own issues, stalls
//!   and profiler samples ([`crate::stats::SmRecord`]).
//! * **Phase B-check** — the leader (the calling thread) walks every SM's
//!   events in ascending (slot, issue) order and decides one [`Verdict`]
//!   per deferred op: mechanism checks (one warp-form call per
//!   instruction), heap calls, violations and forensics. It counts only
//!   what those decisions produce ([`RunRecord`]: mechanism tallies,
//!   verdict-gated charges, the forensics issue index); the SM records
//!   and the run record are folded once after the loop into each
//!   kernel's [`SimStats`] and the sink's registry. Mechanism metadata
//!   fetches are routed to their owning banks. This is the only genuinely
//!   serial section; its size is surfaced as
//!   [`SimStats::phase_b_serial_items`] vs
//!   [`SimStats::phase_b_banked_items`]
//!   (`crate::stats::SimStats::phase_b_serial_fraction`).
//! * **Metadata pass** (only on cycles with metadata traffic) — each bank,
//!   applied by a fixed worker (`bank % threads`), performs its metadata
//!   fetches in canonical (slot, op) order and publishes each op's
//!   completion via an atomic max.
//! * **Bank pass** (only on cycles with memory traffic) — each bank drains
//!   its queues in canonical (slot, queue) order: L2/MSHR/DRAM line fills
//!   (timing) and byte movement through the bank's shard of the store
//!   (functional), gated on the op's verdict. Banks partition the address
//!   space at line granularity, so no two banks ever touch the same
//!   cache set, DRAM channel group, or store byte — running them
//!   concurrently is exactly the monolithic sequence, reordered across
//!   independent state.
//! * **Phase B-final** (only when tracing) — the leader emits memory
//!   transaction spans from the assembled completion times.
//! * **Phase C** — every SM concurrently applies each deferred op to its
//!   warps from the op's descriptor, columns and verdict; memory-op timing
//!   is assembled from the bank-published atomics.
//!
//! Every pass is ordered canonically and every inter-pass hand-off is an
//! atomic max over values that are themselves canonical, so cycle counts,
//! cache hit/miss sequences, heap order, counters, trace contents and
//! forensics are **bit-identical at every thread count and bank count**.
//!
//! Synchronization is a sense-reversing spin barrier between passes;
//! memory-quiet cycles skip the bank barriers entirely (the leader decides
//! during B-check and publishes the schedule in atomic flags every thread
//! reads after the B-check barrier). Per-cycle reductions go through
//! double-buffered accumulators indexed by iteration parity, and a panic on
//! any thread poisons the pool, drains every worker out of the barrier
//! protocol, and re-raises on the calling thread.

use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::{Mutex, RwLock};

use lmi_alloc::{AllocError, DeviceHeap};
use lmi_core::error::TemporalKind;
use lmi_core::Violation;
use lmi_mem::{BankRouter, BankedHierarchy, BankedMemory, Cache, MemBank, SparseMemory};
use lmi_telemetry::{FaultEvent, ForensicsLog, PoisonEvent, TelemetrySink, TraceEventKind};

use crate::config::GpuConfig;
use crate::mechanism::{Mechanism, WarpMemAccess, WarpMemVerdict};
use crate::sm::{BankReq, CycleEvents, IssueEvent, MemOp, SharedOp, Sm, Verdict};
use crate::stats::{RunRecord, SimStats, ViolationEvent};
use crate::warp::{lanes_of, LaneMask};

/// Per-kernel shared state: each kernel resident on the GPU owns its own
/// mechanism instance, statistics, and device heap. A classic single-kernel
/// run is the one-slot case. The engine pushes only records into `stats`
/// (violations, forensics); its counted fields and profile are folded from
/// the SM records and the [`RunRecord`] after the run.
pub(crate) struct KernelSlot<'a> {
    pub mechanism: &'a mut dyn Mechanism,
    pub stats: &'a mut SimStats,
    pub heap: &'a DeviceHeap,
}

/// The shared-state half of the machine, borrowed once per run. The
/// banked hierarchy/store are split into per-bank cells by the engine;
/// kernel-owned state lives in [`KernelSlot`]s, routed by the record's
/// per-slot kernel index so concurrent kernels on disjoint SM partitions
/// keep their mechanisms, heaps and stats separate while *sharing* the
/// L2/DRAM — contention between tenants is modeled, isolation of metadata
/// is not compromised.
pub(crate) struct SharedCtx<'a> {
    pub hierarchy: &'a mut BankedHierarchy,
    pub memory: &'a mut BankedMemory,
    pub kernels: Vec<KernelSlot<'a>>,
    /// The leader's per-run totals, one row per SM slot and per kernel.
    pub record: &'a mut RunRecord,
    pub cfg: &'a GpuConfig,
    pub sink: &'a mut TelemetrySink,
}

/// Leader-only state: everything phase B-check touches. Only ever accessed
/// by the calling thread, so `&mut dyn Mechanism` / `&mut TelemetrySink`
/// never cross a thread boundary.
struct LeaderCtx<'l, 'a> {
    kernels: &'l mut Vec<KernelSlot<'a>>,
    record: &'l mut RunRecord,
    /// The run's pending poisons, matched against its EC faults. Run
    /// scoped like `record`: a poison lives in a register, so it cannot
    /// outlive the run that made it.
    forensics: ForensicsLog,
    cfg: &'l GpuConfig,
    sink: &'l mut TelemetrySink,
    /// Reused per-op scratch of the memory check: the mechanism's verdict.
    verdict: WarpMemVerdict,
}

impl LeaderCtx<'_, '_> {
    /// Slot `slot_idx`'s SM id and kernel index.
    fn site(&self, slot_idx: usize) -> (usize, usize) {
        let row = &self.record.slots[slot_idx];
        (row.sm, row.kernel)
    }

    /// The issue index forensics stamp on event `op_idx` of slot
    /// `slot_idx` this cycle: its kernel's issues in earlier cycles and
    /// earlier slots, plus this slot's up to and including it. It is a
    /// unique id shared by every lane of that warp-level issue.
    fn instr_index(&self, slot_idx: usize, op_idx: u32) -> u64 {
        let (_, k) = self.site(slot_idx);
        self.record.kernels[k].issue_index + u64::from(op_idx) + 1
    }
}

/// One address-interleaved shard of the shared memory system: the timing
/// model (L2 slice + MSHRs + DRAM channel group) and the matching shard of
/// the functional store. Exclusively owned by one bank worker per pass;
/// the mutex is never contended (fixed bank→worker assignment), it only
/// carries the `&mut` across the thread boundary.
struct BankCell<'m> {
    timing: &'m mut MemBank,
    store: &'m mut SparseMemory,
}

/// One metadata fetch routed to a bank by the B-check (slot = index into
/// the engine's slot list, op = index into that SM's issue list, local =
/// bank-compacted address).
struct MetaReq {
    slot: u32,
    op: u32,
    local: u64,
}

/// The bank-parallel half of the machine, shared by every thread.
struct Machine<'m> {
    cells: Vec<Mutex<BankCell<'m>>>,
    /// Per-bank metadata queues, filled by the leader in canonical order.
    /// Capacity survives the per-cycle `clear()`.
    meta_q: Vec<Mutex<Vec<MetaReq>>>,
    /// Cycle schedule, decided by the leader during B-check: does a
    /// metadata pass / a bank pass run this cycle? Every thread reads the
    /// flags after the B-check barrier, so the barrier count always agrees.
    meta_flag: AtomicBool,
    bank_flag: AtomicBool,
    router: BankRouter,
    banks: usize,
    /// Worker threads; bank `b` is applied by worker `b % threads`.
    threads: usize,
    /// Run-constant: the tracer needs a leader-only B-final step.
    tracer_on: bool,
}

/// One SM's slot: the SM, its own L1 (SM-local phase-A state), and its
/// cycle events. Behind a `RwLock`: phases A/C take the write lock from
/// the owning worker only; the bank passes take read locks (their writes
/// go through the events' atomics).
struct SmSlot<'l> {
    sm: Sm,
    l1: &'l mut Cache,
    events: CycleEvents,
}

/// Runs the machine to completion and returns the final cycle number.
/// `l1s[i]` is SM `sms[i]`'s L1 cache (owned by the GPU so warmth and
/// statistics persist across launches).
pub(crate) fn run(
    sms: &mut Vec<Sm>,
    l1s: Vec<&mut Cache>,
    shared: &mut SharedCtx<'_>,
    threads: usize,
) -> u64 {
    let threads = threads.clamp(1, sms.len().max(1));
    assert_eq!(l1s.len(), sms.len(), "one L1 per SM");
    let SharedCtx { hierarchy, memory, kernels, record, cfg, sink } = shared;
    let cfg: &GpuConfig = cfg;
    let banks = hierarchy.num_banks();
    assert_eq!(banks, memory.num_banks(), "timing and store must shard identically");
    let router = hierarchy.router();
    let machine = Machine {
        cells: hierarchy
            .banks_mut()
            .iter_mut()
            .zip(memory.banks_mut().iter_mut())
            .map(|(timing, store)| Mutex::new(BankCell { timing, store }))
            .collect(),
        meta_q: (0..banks).map(|_| Mutex::new(Vec::new())).collect(),
        meta_flag: AtomicBool::new(false),
        bank_flag: AtomicBool::new(false),
        router,
        banks,
        threads,
        tracer_on: sink.tracer.is_enabled(),
    };
    let mut leader = LeaderCtx {
        kernels,
        record,
        forensics: ForensicsLog::new(),
        cfg,
        sink,
        verdict: WarpMemVerdict::default(),
    };

    let slots: Vec<RwLock<SmSlot>> = sms
        .drain(..)
        .zip(l1s)
        .map(|(sm, l1)| {
            let events = CycleEvents::new(banks, cfg.schedulers_per_sm);
            RwLock::new(SmSlot { sm, l1, events })
        })
        .collect();
    // Contiguous SM ranges; the remainder goes to the front groups.
    let n = slots.len();
    let (base, rem) = (n / threads, n % threads);
    let mut ranges = Vec::with_capacity(threads);
    let mut start = 0;
    for t in 0..threads {
        let len = base + usize::from(t < rem);
        ranges.push(start..start + len);
        start += len;
    }
    let ctl = Ctl::new(threads);
    let leader_range = ranges[0].clone();
    let final_cycle = if threads == 1 {
        cycle_loop(&slots, &machine, leader_range, 0, cfg, &ctl, Some(&mut leader))
    } else {
        std::thread::scope(|scope| {
            for (t, range) in ranges.iter().enumerate().skip(1) {
                let (slots, machine, ctl, range) = (&slots, &machine, &ctl, range.clone());
                scope.spawn(move || cycle_loop(slots, machine, range, t, cfg, ctl, None));
            }
            cycle_loop(&slots, &machine, leader_range, 0, cfg, &ctl, Some(&mut leader))
        })
    };
    let panicked = ctl.payload.lock().unwrap_or_else(|e| e.into_inner()).take();
    sms.extend(slots.into_iter().map(|m| m.into_inner().unwrap_or_else(|e| e.into_inner()).sm));
    if let Some(payload) = panicked {
        panic::resume_unwind(payload);
    }
    final_cycle
}

// ---------------------------------------------------------------------------
// Phase B-check: canonical application of one SM's cycle events.

/// Decides everything slot `slot_idx`'s SM deferred this cycle, in issue
/// order, and routes its bank work.
fn apply_cycle(
    slot_idx: usize,
    events: &mut CycleEvents,
    now: u64,
    machine: &Machine<'_>,
    leader: &mut LeaderCtx<'_, '_>,
) {
    for (op_idx, ev) in events.live_mut().iter_mut().enumerate() {
        apply_event(slot_idx, op_idx as u32, ev, now, machine, leader);
    }
    let (_, k) = leader.site(slot_idx);
    leader.record.kernels[k].issue_index += events.live().len() as u64;
    if events.bank_q.iter().any(|q| !q.is_empty()) {
        machine.bank_flag.store(true, SeqCst);
    }
}

/// Writes the verdict on `ev`'s deferred op, if it has one, and emits the
/// warp's residency span if it retires. Every event is one issued
/// instruction and costs the leader one walk step — the serial half of
/// the `phase_b_serial_fraction` stat.
fn apply_event(
    slot_idx: usize,
    op_idx: u32,
    ev: &mut IssueEvent,
    now: u64,
    machine: &Machine<'_>,
    leader: &mut LeaderCtx<'_, '_>,
) {
    ev.verdict = match ev.shared {
        Some(SharedOp::MarkedInt { mask, .. }) => {
            Some(apply_marked_int(slot_idx, op_idx, ev, mask, now, leader))
        }
        Some(SharedOp::Heap { malloc, mask, .. }) => {
            Some(apply_heap(slot_idx, op_idx, ev, malloc, mask, now, leader))
        }
        // The mechanism check runs here (serial, canonical); timing and
        // data movement were already routed to the banks in phase A and
        // stay gated on this verdict.
        Some(SharedOp::Mem(op)) => Some(check_mem(slot_idx, op_idx, ev, &op, machine, leader, now)),
        None => None,
    };
    let retiring = ev.retired_local || ev.verdict.is_some_and(|v| v.halt);
    if retiring && leader.sink.tracer.is_enabled() {
        // The warp retires this cycle: emit its residency span.
        let (sm_id, _) = leader.site(slot_idx);
        leader.sink.tracer.complete_with(
            "warp",
            TraceEventKind::WarpSpan,
            sm_id,
            ev.warp,
            ev.start_cycle,
            (now + 1).saturating_sub(ev.start_cycle),
            &[("block", ev.block as u64)],
        );
    }
}

/// OCU check of a hint-marked wide integer op (LMI's bounds pipeline): one
/// warp-wide mechanism call, checked values written into the event's
/// `values`, then the poisoned lanes' forensics in ascending lane order.
/// The verdict's extra cycles are the mechanism's OCU delay.
fn apply_marked_int(
    slot_idx: usize,
    op_idx: u32,
    ev: &mut IssueEvent,
    mask: LaneMask,
    now: u64,
    leader: &mut LeaderCtx<'_, '_>,
) -> Verdict {
    let (sm_id, k) = leader.site(slot_idx);
    let instr_index = leader.instr_index(slot_idx, op_idx);
    let slot = &mut leader.kernels[k];
    let poisoned = slot.mechanism.on_marked_int_warp(mask, &ev.inputs, &mut ev.values);
    let extra_delay = slot.mechanism.marked_int_delay();
    let totals = &mut leader.record.kernels[k];
    totals.checks += 1;
    totals.poisoned += u64::from(poisoned.count_ones());
    let sink = &mut *leader.sink;
    for lane in lanes_of(poisoned) {
        // Delayed termination (§XII-A): remember where the pointer died
        // so a later EC fault can report it.
        leader.forensics.record_poison(PoisonEvent {
            sm: sm_id,
            warp: ev.warp,
            lane,
            pc: ev.pc,
            op: ev.mnemonic(),
            cycle: now,
            instr_index,
        });
        if sink.tracer.is_enabled() {
            sink.tracer.instant(
                "poison",
                TraceEventKind::OcuPoison,
                sm_id,
                ev.warp,
                now,
                &[("pc", ev.pc as u64), ("lane", lane as u64)],
            );
        }
    }
    if sink.tracer.is_enabled() {
        sink.tracer.complete_with(
            ev.mnemonic(),
            TraceEventKind::OcuCheck,
            sm_id,
            ev.warp,
            now,
            extra_delay as u64,
            &[("pc", ev.pc as u64)],
        );
    }
    Verdict { survivors: mask & !poisoned, halt: false, extra_cycles: extra_delay }
}

/// Device-heap `malloc`/`free` over the lanes of `mask`, serialized
/// through the shared allocator; `malloc` overwrites each lane's size in
/// the event's `values` with its pointer. The verdict halts the warp on an
/// invalid or double free under `halt_on_violation`.
fn apply_heap(
    slot_idx: usize,
    op_idx: u32,
    ev: &mut IssueEvent,
    malloc: bool,
    mask: LaneMask,
    now: u64,
    leader: &mut LeaderCtx<'_, '_>,
) -> Verdict {
    let mut violation = None;
    let (sm_id, k) = leader.site(slot_idx);
    let instr_index = leader.instr_index(slot_idx, op_idx);
    for l in lanes_of(mask) {
        let gtid = ev.base_tid + l as u64;
        let slot = &mut leader.kernels[k];
        let arg = &mut ev.values[l];
        if malloc {
            *arg = slot.heap.malloc(gtid as usize, *arg).unwrap_or(0);
        } else {
            match slot.heap.free(*arg) {
                Err(e) => {
                    let kind = match e {
                        AllocError::DoubleFree(_) => TemporalKind::DoubleFree,
                        _ => TemporalKind::InvalidFree,
                    };
                    violation = Some((l, Violation::Temporal(kind)));
                }
                // Extent nullification (§VIII): under LMI the pass clears
                // the freed pointer's extent right after this call, so the
                // pointer is poisoned *here*. Remember the site so a later
                // use-after-free fault reports its poison-to-fault latency.
                Ok(()) if slot.mechanism.nullifies_on_free() => {
                    leader.forensics.record_poison(PoisonEvent {
                        sm: sm_id,
                        warp: ev.warp,
                        lane: l,
                        pc: ev.pc,
                        op: ev.mnemonic(),
                        cycle: now,
                        instr_index,
                    });
                }
                Ok(()) => {}
            }
        }
    }
    if leader.sink.tracer.is_enabled() {
        leader.sink.tracer.complete_with(
            ev.mnemonic(),
            TraceEventKind::HeapCall,
            sm_id,
            ev.warp,
            now,
            leader.cfg.heap_call_latency as u64,
            &[("pc", ev.pc as u64)],
        );
    }
    let Some((lane, v)) = violation else {
        return Verdict { survivors: mask, halt: false, extra_cycles: 0 };
    };
    leader.kernels[k].stats.violations.push(ViolationEvent {
        sm: sm_id,
        warp: ev.warp,
        pc: ev.pc,
        global_tid: ev.base_tid + lane as u64,
        violation: v,
    });
    Verdict { survivors: mask, halt: leader.cfg.halt_on_violation, extra_cycles: 0 }
}

/// The mechanism check of a deferred memory access — the only part of a
/// memory op the leader still runs. One warp-wide mechanism call produces
/// the verdict the bank passes and phase C consume; the faulting lanes'
/// violations and forensics follow in ascending lane order. An access the
/// verdict lets issue is charged its transactions and bank work, and its
/// metadata fetches are routed to their owning banks.
fn check_mem(
    slot_idx: usize,
    op_idx: u32,
    ev: &IssueEvent,
    op: &MemOp,
    machine: &Machine<'_>,
    leader: &mut LeaderCtx<'_, '_>,
    now: u64,
) -> Verdict {
    let pc = ev.pc;
    let (sm_id, k) = leader.site(slot_idx);
    let instr_index = leader.instr_index(slot_idx, op_idx);
    let LeaderCtx { kernels, record, forensics, cfg, sink, verdict } = leader;
    let slot = &mut kernels[k];
    let access = WarpMemAccess {
        space: op.space,
        width: op.width,
        is_store: op.is_store,
        pc,
        base_tid: ev.base_tid,
        mask: op.mask,
        raw: &ev.inputs,
        vaddr: &ev.values,
    };
    verdict.clear();
    slot.mechanism.on_mem_access_warp(&access, verdict);

    record.kernels[k].faults += verdict.faults.len() as u64;
    for &(lane, violation) in &verdict.faults {
        slot.stats.violations.push(ViolationEvent {
            sm: sm_id,
            warp: ev.warp,
            pc,
            global_tid: ev.base_tid + lane as u64,
            violation,
        });
        if sink.tracer.is_enabled() {
            sink.tracer.instant(
                "fault",
                TraceEventKind::EcFault,
                sm_id,
                ev.warp,
                now,
                &[("pc", pc as u64), ("lane", lane as u64)],
            );
        }
        // Close the poison→fault provenance loop (§XII-A): if this lane's
        // pointer was poisoned earlier, report the latency between
        // poisoning and detection.
        if let Some(record) = forensics.record_fault(FaultEvent {
            sm: sm_id,
            warp: ev.warp,
            lane,
            pc,
            cycle: now,
            instr_index,
        }) {
            slot.stats.forensics.push(record);
        }
    }
    let (survivors, extra_cycles) = (verdict.survivors, verdict.extra_cycles);

    if !verdict.faults.is_empty() && cfg.halt_on_violation {
        // The faulting access never issues: no timing, no data movement,
        // no pc advance — the warp halts. The bank queues' entries for
        // this op are skipped by the verdict gate.
        return Verdict { survivors, halt: true, extra_cycles };
    }

    let row = &mut record.slots[slot_idx];
    row.transactions += op.line_count;
    row.charged += 1;

    // Route the mechanism's metadata fetches (bounds must be known before
    // the access may issue — check-before-access; the banks gate the data
    // fills on the published metadata completion).
    let metas = &mut verdict.metadata_addrs;
    metas.sort_unstable();
    metas.dedup();
    if !metas.is_empty() {
        for &addr in metas.iter() {
            let bank = machine.router.bank_of(addr);
            machine.meta_q[bank].lock().unwrap().push(MetaReq {
                slot: slot_idx as u32,
                op: op_idx,
                local: machine.router.localize(addr),
            });
        }
        machine.meta_flag.store(true, SeqCst);
    }
    record.kernels[k].banked_items += op.bank_items as u64 + metas.len() as u64;
    Verdict { survivors, halt: false, extra_cycles }
}

// ---------------------------------------------------------------------------
// Bank passes.

/// The banks worker `t` owns: a fixed interleaved assignment, so a bank is
/// applied by the same thread every cycle (cache-warm) and by construction
/// never by two threads at once.
fn owned_banks(machine: &Machine<'_>, t: usize) -> impl Iterator<Item = usize> {
    (t..machine.banks).step_by(machine.threads)
}

/// Metadata pass: each bank performs its queued metadata fetches in
/// canonical (slot, op, address) order — exactly the order the leader
/// enqueued them — and publishes each op's completion cycle.
fn meta_pass(slots: &[RwLock<SmSlot<'_>>], machine: &Machine<'_>, now: u64, t: usize) {
    for b in owned_banks(machine, t) {
        let mut q = machine.meta_q[b].lock().unwrap();
        if q.is_empty() {
            continue;
        }
        let mut cell = machine.cells[b].lock().unwrap();
        for req in q.iter() {
            let done = cell.timing.access(req.local, now);
            let s = slots[req.slot as usize].read().unwrap();
            s.events.live()[req.op as usize].meta_done.fetch_max(done, SeqCst);
        }
        q.clear();
    }
}

/// Bank pass: each bank drains every SM's queue for it, slots ascending,
/// queue order within a slot — the canonical order restricted to this
/// bank's (disjoint) slice of the address space.
fn bank_pass(slots: &[RwLock<SmSlot<'_>>], machine: &Machine<'_>, now: u64, t: usize) {
    for b in owned_banks(machine, t) {
        let mut cell = machine.cells[b].lock().unwrap();
        let BankCell { timing, store } = &mut *cell;
        for slot in slots {
            let s = slot.read().unwrap();
            let issues = s.events.live();
            for req in &s.events.bank_q[b] {
                match *req {
                    BankReq::Fill { op, local } => {
                        let ev = &issues[op as usize];
                        let v = ev.verdict.expect("mem op verdict set in B-check");
                        if v.halt {
                            continue;
                        }
                        let start = now.max(ev.meta_done.load(SeqCst));
                        let done = timing.access(local, start);
                        ev.data_done.fetch_max(done, SeqCst);
                    }
                    BankReq::Store { op, lane, local, width, value } => {
                        if issues[op as usize].lane_survives(lane) {
                            store.write(local, value, width);
                        }
                    }
                    BankReq::Load { op, lane, local, width, shift } => {
                        let ev = &issues[op as usize];
                        if ev.lane_survives(lane) {
                            let part = store.read(local, width) << (8 * shift as u32);
                            ev.atoms[lane as usize].fetch_or(part, SeqCst);
                        }
                    }
                }
            }
        }
    }
}

/// Phase B-final (tracer runs only): emit one memory-transaction span per
/// live memory op, from the completion times the banks published.
fn b_final(slots: &[RwLock<SmSlot<'_>>], leader: &mut LeaderCtx<'_, '_>, now: u64) {
    for slot in slots {
        let s = slot.read().unwrap();
        for ev in s.events.live() {
            let Some(SharedOp::Mem(op)) = ev.shared else {
                continue;
            };
            let Some(v) = ev.verdict else { continue };
            if v.halt || v.survivors == 0 {
                continue;
            }
            let done = ev.mem_done_at(now, leader.cfg).expect("live mem op completes");
            leader.sink.tracer.complete_with(
                ev.mnemonic(),
                TraceEventKind::MemTransaction,
                s.sm.id,
                ev.warp,
                now,
                done.saturating_sub(now).max(1),
                &[
                    ("pc", ev.pc as u64),
                    ("lines", op.line_count),
                    ("lanes", v.survivors.count_ones() as u64),
                ],
            );
        }
    }
}

// ---------------------------------------------------------------------------
// The cycle loop.

/// Per-cycle reduction accumulator (one of two, indexed by iteration
/// parity: the off-parity buffer is reset by the leader during phase B
/// while every worker is parked between barriers).
struct CycleAcc {
    issued_any: AtomicBool,
    next_ready: AtomicU64,
    all_done: AtomicBool,
}

impl CycleAcc {
    fn new() -> CycleAcc {
        CycleAcc {
            issued_any: AtomicBool::new(false),
            next_ready: AtomicU64::new(u64::MAX),
            all_done: AtomicBool::new(true),
        }
    }

    fn reset(&self) {
        self.issued_any.store(false, SeqCst);
        self.next_ready.store(u64::MAX, SeqCst);
        self.all_done.store(true, SeqCst);
    }
}

/// Decides the next cycle from a fully-accumulated [`CycleAcc`]; `None`
/// terminates. Pure, so every thread reaches the same answer.
fn advance(now: u64, acc: &CycleAcc) -> Option<u64> {
    if acc.all_done.load(SeqCst) {
        return None;
    }
    let next = if acc.issued_any.load(SeqCst) || acc.next_ready.load(SeqCst) == u64::MAX {
        now + 1
    } else {
        // Fast-forward over scoreboard stalls.
        acc.next_ready.load(SeqCst).max(now + 1)
    };
    debug_assert!(next < 1_000_000_000, "runaway simulation");
    Some(next)
}

/// A reusable sense-reversing spin barrier (simulated cycles are far too
/// short for `std::sync::Barrier`'s mutex+condvar round trip).
struct SpinBarrier {
    parties: usize,
    count: AtomicUsize,
    sense: AtomicBool,
}

impl SpinBarrier {
    fn new(parties: usize) -> SpinBarrier {
        SpinBarrier { parties, count: AtomicUsize::new(0), sense: AtomicBool::new(false) }
    }

    fn wait(&self, local_sense: &mut bool) {
        let target = !*local_sense;
        *local_sense = target;
        if self.count.fetch_add(1, SeqCst) == self.parties - 1 {
            // Last arrival: reset the count *before* releasing (a released
            // thread may re-enter the barrier immediately).
            self.count.store(0, SeqCst);
            self.sense.store(target, SeqCst);
        } else {
            let mut spins = 0u32;
            while self.sense.load(std::sync::atomic::Ordering::Acquire) != target {
                spins = spins.wrapping_add(1);
                if spins & 0x3F == 0 {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
        }
    }
}

/// Shared control block of one parallel run.
struct Ctl {
    barrier: SpinBarrier,
    acc: [CycleAcc; 2],
    /// A phase body panicked somewhere; everyone drains out at the next
    /// barrier.
    poisoned: AtomicBool,
    payload: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl Ctl {
    fn new(parties: usize) -> Ctl {
        Ctl {
            barrier: SpinBarrier::new(parties),
            acc: [CycleAcc::new(), CycleAcc::new()],
            poisoned: AtomicBool::new(false),
            payload: Mutex::new(None),
        }
    }

    /// Runs one phase body, converting a panic into pool-wide poisoning
    /// (the thread keeps participating in barriers so nobody deadlocks).
    fn guard(&self, f: impl FnOnce()) {
        if self.poisoned.load(SeqCst) {
            return;
        }
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(f)) {
            self.poisoned.store(true, SeqCst);
            let mut slot = self.payload.lock().unwrap_or_else(|e| e.into_inner());
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
    }

    /// Barrier + poison check; `false` means "drain out now".
    fn sync(&self, sense: &mut bool) -> bool {
        self.barrier.wait(sense);
        !self.poisoned.load(SeqCst)
    }
}

fn phase_a_range(
    slots: &[RwLock<SmSlot<'_>>],
    machine: &Machine<'_>,
    range: &Range<usize>,
    now: u64,
    cfg: &GpuConfig,
    acc: &CycleAcc,
) {
    let mut issued = false;
    let mut next = u64::MAX;
    for slot in &slots[range.clone()] {
        let mut s = slot.write().unwrap();
        let SmSlot { sm, l1, events } = &mut *s;
        let outcome = sm.step_phase_a(now, cfg, events, l1, &machine.router);
        issued |= outcome.issued_any;
        next = next.min(outcome.next_ready);
    }
    if issued {
        acc.issued_any.store(true, SeqCst);
    }
    acc.next_ready.fetch_min(next, SeqCst);
}

fn phase_c_range(
    slots: &[RwLock<SmSlot<'_>>],
    range: &Range<usize>,
    now: u64,
    cfg: &GpuConfig,
    acc: &CycleAcc,
) {
    let mut all = true;
    for slot in &slots[range.clone()] {
        let mut s = slot.write().unwrap();
        let SmSlot { sm, events, .. } = &mut *s;
        sm.apply_results(events, now, cfg);
        all &= sm.all_done();
    }
    if !all {
        acc.all_done.store(false, SeqCst);
    }
}

/// The conditional bank barriers of one cycle: every thread reads the
/// schedule flags (published by the leader before the B-check barrier
/// released), so the barrier count always agrees. Returns `false` on
/// poisoning.
fn bank_sync_phases(
    slots: &[RwLock<SmSlot<'_>>],
    machine: &Machine<'_>,
    now: u64,
    t: usize,
    ctl: &Ctl,
    sense: &mut bool,
) -> bool {
    if machine.meta_flag.load(SeqCst) {
        ctl.guard(|| meta_pass(slots, machine, now, t));
        if !ctl.sync(sense) {
            return false;
        }
    }
    if machine.bank_flag.load(SeqCst) {
        ctl.guard(|| bank_pass(slots, machine, now, t));
        if !ctl.sync(sense) {
            return false;
        }
    }
    true
}

/// The cycle loop of worker `t` over the SM slots in `range`; returns the
/// final cycle. Every worker runs it; the one holding the `leader` context
/// (the calling thread, `t == 0`) also runs the serial B-check and
/// B-final steps, while the others wait at the same barriers, so every
/// thread passes the same number of barriers by construction.
fn cycle_loop(
    slots: &[RwLock<SmSlot<'_>>],
    machine: &Machine<'_>,
    range: Range<usize>,
    t: usize,
    cfg: &GpuConfig,
    ctl: &Ctl,
    mut leader: Option<&mut LeaderCtx<'_, '_>>,
) -> u64 {
    let mut sense = false;
    let mut now = 0u64;
    let mut parity = 0usize;
    loop {
        ctl.guard(|| phase_a_range(slots, machine, &range, now, cfg, &ctl.acc[parity]));
        if !ctl.sync(&mut sense) {
            break; // A-done
        }
        if let Some(leader) = leader.as_deref_mut() {
            // Phase B-check: the serial section, ascending slot order. The
            // schedule flags are published before the barrier releases, so
            // every thread agrees on this cycle's barrier count.
            ctl.guard(|| {
                machine.meta_flag.store(false, SeqCst);
                machine.bank_flag.store(false, SeqCst);
                for (slot_idx, slot) in slots.iter().enumerate() {
                    let mut s = slot.write().unwrap();
                    apply_cycle(slot_idx, &mut s.events, now, machine, leader);
                }
                // Workers are parked between the A and C barriers: safe to
                // recycle the off-parity accumulator for the next cycle.
                ctl.acc[parity ^ 1].reset();
            });
        }
        if !ctl.sync(&mut sense) {
            break; // B-check done
        }
        if !bank_sync_phases(slots, machine, now, t, ctl, &mut sense) {
            break;
        }
        if machine.tracer_on {
            if let Some(leader) = leader.as_deref_mut() {
                ctl.guard(|| b_final(slots, leader, now));
            }
            if !ctl.sync(&mut sense) {
                break; // B-final done (leader-only span emission)
            }
        }
        ctl.guard(|| phase_c_range(slots, &range, now, cfg, &ctl.acc[parity]));
        if !ctl.sync(&mut sense) {
            break; // C-done
        }
        match advance(now, &ctl.acc[parity]) {
            Some(next) => now = next,
            None => break,
        }
        parity ^= 1;
    }
    now
}
