//! The simulation engine: the deterministic bank-sharded cycle driver.
//!
//! One driver executes the phase protocol described in [`crate::sm`] at any
//! worker-thread count (1 = serial) and any memory-bank count (1 =
//! monolithic), always bit-identically:
//!
//! * **Phase A** — every SM concurrently: schedule, execute ALU work,
//!   probe the SM-local L1, and route L1 misses + per-lane data movement
//!   into per-SM per-bank queues.
//! * **Phase B-check** — the leader (the calling thread) walks every SM's
//!   events in ascending (slot, issue) order: statistics, dense counter
//!   totals ([`RunCounters`], folded into the sink's registry once per
//!   run), mechanism checks (one warp-form call per instruction; each
//!   memory op gets a [`MemVerdict`]), heap calls, violations and
//!   forensics.
//!   Mechanism metadata fetches are routed to their owning banks. This is
//!   the only genuinely serial section; its size is surfaced as
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
//! * **Phase C** — every SM concurrently applies results to its warps;
//!   memory-op timing is assembled from the bank-published atomics.
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
use lmi_isa::OpcodeClass;
use lmi_mem::{BankRouter, BankedHierarchy, BankedMemory, Cache, MemBank, SparseMemory};
use lmi_telemetry::{
    CounterRegistry, FaultEvent, PoisonEvent, Scope, TelemetrySink, TraceEventKind,
};

use crate::config::{GpuConfig, WARP_SIZE};
use crate::mechanism::{Mechanism, WarpMemAccess, WarpMemVerdict};
use crate::sm::{BankReq, CycleEvents, EventPool, IssueEvent, MemVerdict, OpResult, SharedOp, Sm};
use crate::stats::{SimStats, ViolationEvent};
use crate::warp::{lanes_of, Column64, LaneMask};

/// Per-kernel shared state: each kernel resident on the GPU owns its own
/// mechanism instance, statistics, and device heap. A classic single-kernel
/// run is the one-slot case.
pub(crate) struct KernelSlot<'a> {
    pub mechanism: &'a mut dyn Mechanism,
    pub stats: &'a mut SimStats,
    pub heap: &'a DeviceHeap,
}

/// The shared-state half of the machine, borrowed once per run. The
/// banked hierarchy/store are split into per-bank cells by the engine;
/// kernel-owned state lives in [`KernelSlot`]s, routed by `kernel_of_sm`
/// so concurrent kernels on disjoint SM partitions keep their mechanisms,
/// heaps and stats separate while *sharing* the L2/DRAM — contention
/// between tenants is modeled, isolation of metadata is not compromised.
pub(crate) struct SharedCtx<'a> {
    pub hierarchy: &'a mut BankedHierarchy,
    pub memory: &'a mut BankedMemory,
    pub kernels: Vec<KernelSlot<'a>>,
    /// SM index → index into `kernels`.
    pub kernel_of_sm: Vec<usize>,
    pub cfg: &'a GpuConfig,
    pub sink: &'a mut TelemetrySink,
}

/// Leader-only state: everything phase B-check touches. Only ever accessed
/// by the calling thread, so `&mut dyn Mechanism` / `&mut TelemetrySink`
/// never cross a thread boundary.
struct LeaderCtx<'l, 'a> {
    kernels: &'l mut Vec<KernelSlot<'a>>,
    kernel_of_sm: &'l [usize],
    cfg: &'l GpuConfig,
    sink: &'l mut TelemetrySink,
    /// Reused per-op scratch of the memory check: the lanes' raw and
    /// stripped addresses as columns, and the mechanism's verdict.
    raw: Column64,
    vaddr: Column64,
    verdict: WarpMemVerdict,
    /// This run's engine-emitted counters; `None` when the sink's registry
    /// is disabled, so untelemetered runs neither allocate nor count.
    counters: Option<RunCounters>,
}

impl<'l, 'a> LeaderCtx<'l, 'a> {
    /// The kernel slot owning SM `sm_id`. Borrow is statement-scoped, so
    /// callers interleave slot access with `sink` access freely.
    fn kernel(&mut self, sm_id: usize) -> &mut KernelSlot<'a> {
        &mut self.kernels[self.kernel_of_sm[sm_id]]
    }

    /// Slot `slot_idx`'s counter row, if counters are on.
    fn sm_counters(&mut self, slot_idx: usize) -> Option<&mut [u64]> {
        self.counters.as_mut().map(|c| c.sm(slot_idx))
    }
}

// Columns of a per-SM [`RunCounters`] row. `CHARGED` counts the memory ops
// that reached the transaction charge: the `transactions` key exists iff
// one did, even if every such op coalesced to zero lines.
const ISSUED: usize = 0;
const MEM_INSTS: usize = 1;
const HEAP_CALLS: usize = 2;
const TRANSACTIONS: usize = 3;
const CHARGED: usize = 4;
const STALLS: usize = 5;
/// Per-SM columns before the per-warp `issued` columns.
const SM_FIELDS: usize = STALLS + 4;
/// Registry names of the plain per-SM columns, emitted when nonzero.
const SM_NAMES: [(usize, &str); 7] = [
    (ISSUED, "issued"),
    (MEM_INSTS, "mem_insts"),
    (HEAP_CALLS, "heap_calls"),
    (STALLS, "stall.scoreboard"),
    (STALLS + 1, "stall.lsu_busy"),
    (STALLS + 2, "stall.ocu_verdict"),
    (STALLS + 3, "stall.no_ready_warp"),
];
/// Per-kernel mechanism columns, emitted when nonzero.
const MECH_NAMES: [&str; 3] = ["checks", "poisoned", "faults"];
const CHECKS: usize = 0;
const POISONED: usize = 1;
const FAULTS: usize = 2;

/// The engine-emitted counters of one run, kept as dense totals by the
/// leader and folded into the sink's [`CounterRegistry`] once, after the
/// cycle loop ([`RunCounters::flush`]): per event the leader bumps an
/// array slot instead of searching the registry's ordered map. One flat
/// buffer, sized at run start: a row per SM slot (the [`SM_FIELDS`]
/// columns, then `issued` per warp), then [`MECH_NAMES`] per kernel.
struct RunCounters {
    /// Row length: `SM_FIELDS` plus the largest warp count of any slot.
    stride: usize,
    /// Index of kernel 0's mechanism columns.
    mech_at: usize,
    buf: Vec<u64>,
}

impl RunCounters {
    fn new(slots: usize, max_warps: usize, kernels: usize) -> RunCounters {
        let stride = SM_FIELDS + max_warps;
        let mech_at = slots * stride;
        RunCounters { stride, mech_at, buf: vec![0; mech_at + kernels * MECH_NAMES.len()] }
    }

    fn sm(&mut self, slot_idx: usize) -> &mut [u64] {
        let at = slot_idx * self.stride;
        &mut self.buf[at..at + self.stride]
    }

    /// Every slot's row with its SM id.
    fn rows<'s, 'm>(
        &'s self,
        slots: &'s [RwLock<SmSlot<'m>>],
    ) -> impl Iterator<Item = (&'s [u64], usize)> + use<'s, 'm> {
        let ids = slots
            .iter()
            .map(|slot| slot.read().expect("counters are read only after a panic-free run").sm.id);
        self.buf[..self.mech_at].chunks_exact(self.stride).zip(ids)
    }

    fn mech(&mut self, kernel: usize) -> &mut [u64] {
        let at = self.mech_at + kernel * MECH_NAMES.len();
        &mut self.buf[at..at + MECH_NAMES.len()]
    }

    /// Folds the totals into `registry`. A key is created exactly when the
    /// per-event path would have created it: on the first event at its
    /// site, so only for nonzero totals (and `transactions` once a charge
    /// happened). Kernels whose mechanisms share a name share a scope;
    /// `add` is order-independent, so the fold is exact.
    fn flush(
        &self,
        slots: &[RwLock<SmSlot<'_>>],
        kernels: &[KernelSlot<'_>],
        registry: &mut CounterRegistry,
    ) {
        for (row, sm) in self.rows(slots) {
            let scope = Scope::Sm(sm);
            for (col, name) in SM_NAMES {
                if row[col] > 0 {
                    registry.add(scope, name, row[col]);
                }
            }
            if row[CHARGED] > 0 {
                registry.add(scope, "transactions", row[TRANSACTIONS]);
            }
            for (warp, &n) in row[SM_FIELDS..].iter().enumerate() {
                if n > 0 {
                    registry.add(Scope::Warp { sm, warp }, "issued", n);
                }
            }
        }
        let mechs = self.buf[self.mech_at..].chunks_exact(MECH_NAMES.len());
        for (kernel, totals) in kernels.iter().zip(mechs) {
            let scope = Scope::Mechanism(kernel.mechanism.name());
            for (&n, name) in totals.iter().zip(MECH_NAMES) {
                if n > 0 {
                    registry.add(scope, name, n);
                }
            }
        }
    }

    /// Debug cross-check at the flush: each kernel's per-SM totals equal
    /// the [`SimStats`] fields its own events accumulated at the same
    /// sites (every event is one `phase_b_serial_items` walk step).
    fn debug_check(
        &self,
        slots: &[RwLock<SmSlot<'_>>],
        kernels: &[KernelSlot<'_>],
        kernel_of_sm: &[usize],
    ) {
        for (k, kernel) in kernels.iter().enumerate() {
            let mut sum = [0u64; SM_FIELDS];
            for (row, _) in self.rows(slots).filter(|&(_, sm)| kernel_of_sm[sm] == k) {
                for (acc, &v) in sum.iter_mut().zip(row) {
                    *acc += v;
                }
            }
            let s = &kernel.stats;
            let expect = [
                (ISSUED, s.phase_b_serial_items),
                (TRANSACTIONS, s.transactions),
                (STALLS, s.stalls.scoreboard),
                (STALLS + 1, s.stalls.lsu_busy),
                (STALLS + 2, s.stalls.ocu_verdict),
                (STALLS + 3, s.stalls.no_ready_warp),
            ];
            for (col, want) in expect {
                assert_eq!(sum[col], want, "kernel {k}: dense counter column {col} != SimStats");
            }
        }
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
    let SharedCtx { hierarchy, memory, kernels, kernel_of_sm, cfg, sink } = shared;
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
        tracer_on: sink.tracer.is_enabled(),
    };
    let counters = sink.counters.is_enabled().then(|| {
        let max_warps = sms.iter().map(|sm| sm.warps.len()).max().unwrap_or(0);
        RunCounters::new(sms.len(), max_warps, kernels.len())
    });
    let mut leader = LeaderCtx {
        kernels,
        kernel_of_sm,
        cfg,
        sink,
        raw: [0; WARP_SIZE],
        vaddr: [0; WARP_SIZE],
        verdict: WarpMemVerdict::default(),
        counters,
    };

    let slots: Vec<RwLock<SmSlot>> = sms
        .drain(..)
        .zip(l1s)
        .map(|(sm, l1)| {
            let mut events = CycleEvents::default();
            events.ensure_banks(banks);
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
    let cfg_v = **cfg;
    let mut final_cycle = 0u64;
    if threads == 1 {
        final_cycle = leader_loop(&slots, &machine, ranges[0].clone(), threads, &mut leader, &ctl);
    } else {
        std::thread::scope(|scope| {
            for (t, range) in ranges.iter().enumerate().skip(1) {
                let (slots, machine, ctl, range) = (&slots, &machine, &ctl, range.clone());
                scope.spawn(move || worker_loop(slots, machine, range, t, threads, &cfg_v, ctl));
            }
            final_cycle =
                leader_loop(&slots, &machine, ranges[0].clone(), threads, &mut leader, &ctl);
        });
    }
    let panicked = ctl.payload.lock().unwrap_or_else(|e| e.into_inner()).take();
    if let (None, Some(c)) = (&panicked, &leader.counters) {
        if cfg!(debug_assertions) {
            c.debug_check(&slots, leader.kernels, leader.kernel_of_sm);
        }
        c.flush(&slots, leader.kernels, &mut leader.sink.counters);
    }
    sms.extend(slots.into_iter().map(|m| {
        let slot = m.into_inner().unwrap_or_else(|e| e.into_inner());
        assert!(slot.events.pool.is_bounded(), "SM {}: event pool outgrew its peak", slot.sm.id);
        slot.sm
    }));
    if let Some(payload) = panicked {
        panic::resume_unwind(payload);
    }
    final_cycle
}

// ---------------------------------------------------------------------------
// Phase B-check: canonical application of one SM's cycle events.

/// Applies everything SM `sm_id` (slot `slot_idx`) deferred this cycle, in
/// issue order, and routes its bank work.
fn apply_cycle(
    sm_id: usize,
    slot_idx: usize,
    events: &mut CycleEvents,
    now: u64,
    machine: &Machine<'_>,
    leader: &mut LeaderCtx<'_, '_>,
) {
    if events.stalls != [0; 4] {
        let s = &events.stalls;
        let stats = &mut *leader.kernel(sm_id).stats;
        stats.stalls.scoreboard += s[0];
        stats.stalls.lsu_busy += s[1];
        stats.stalls.ocu_verdict += s[2];
        stats.stalls.no_ready_warp += s[3];
        if let Some(row) = leader.sm_counters(slot_idx) {
            for (total, count) in row[STALLS..SM_FIELDS].iter_mut().zip(s) {
                *total += count;
            }
        }
    }
    if let Some(sample) = events.sample.take() {
        // Absorb the phase-A profiler sample into the owning kernel's
        // profile. Runs here (single thread, ascending SM order) so the
        // merged profile is canonical at every thread count.
        let period = leader.cfg.sample_period;
        let profile = &mut leader.kernel(sm_id).stats.profile;
        profile.period = period;
        profile.absorb(sm_id, &sample);
    }
    let CycleEvents { issues, pool, bank_q, .. } = events;
    for (op_idx, ev) in issues.iter_mut().enumerate() {
        apply_event(sm_id, slot_idx, op_idx as u32, ev, pool, now, machine, leader);
    }
    if bank_q.iter().any(|q| !q.is_empty()) {
        machine.bank_flag.store(true, SeqCst);
    }
}

#[allow(clippy::too_many_arguments)]
fn apply_event(
    sm_id: usize,
    slot_idx: usize,
    op_idx: u32,
    ev: &mut IssueEvent,
    pool: &mut EventPool,
    now: u64,
    machine: &Machine<'_>,
    leader: &mut LeaderCtx<'_, '_>,
) {
    // Every event costs the leader one walk step — the serial half of the
    // `phase_b_serial_fraction` stat. Deterministic: the issue list is
    // identical at every thread and bank count.
    leader.kernel(sm_id).stats.phase_b_serial_items += 1;
    if let Some(op) = ev.opcode {
        let stats = &mut *leader.kernel(sm_id).stats;
        stats.issued += 1;
        match op.class() {
            OpcodeClass::IntAlu => stats.int_issued += 1,
            OpcodeClass::Fpu => stats.fpu_issued += 1,
            _ => {}
        }
        if ev.activate {
            stats.marked_issued += 1;
        }
    }
    if let Some(space) = ev.mem_space {
        leader.kernel(sm_id).stats.record_mem(space);
    }
    if let Some(row) = leader.sm_counters(slot_idx) {
        row[ISSUED] += 1;
        row[MEM_INSTS] += u64::from(ev.mem_space.is_some());
        row[HEAP_CALLS] += u64::from(matches!(ev.shared, Some(SharedOp::Heap { .. })));
        row[SM_FIELDS + ev.warp] += 1;
    }
    let mnemonic = ev.opcode.map(|op| op.mnemonic()).unwrap_or("");
    ev.result = match ev.shared.take() {
        Some(SharedOp::MarkedInt { dst, pair, mask, inputs, mut results }) => {
            let delay =
                apply_marked_int(sm_id, ev, mnemonic, mask, &inputs, &mut results, now, leader);
            pool.put_col(inputs);
            let done_at = now + leader.cfg.int_latency as u64;
            Some(OpResult {
                dst,
                pair,
                mask,
                values: results,
                ready_at: Some(done_at),
                verdict_at: Some(done_at + delay as u64),
                ready_mem_at: None,
                advance_pc: true,
                retire: false,
            })
        }
        Some(SharedOp::Heap { dst, pair, malloc, mask, mut args }) => {
            let retire = apply_heap(sm_id, ev, mnemonic, malloc, mask, &mut args, now, leader);
            Some(OpResult {
                dst,
                pair,
                // `free` writes nothing back; `malloc` its pointers.
                mask: if malloc { mask } else { 0 },
                values: args,
                ready_at: None,
                verdict_at: None,
                ready_mem_at: malloc.then(|| now + leader.cfg.heap_call_latency as u64),
                advance_pc: true,
                retire,
            })
        }
        Some(op @ SharedOp::Mem { .. }) => {
            // The mechanism check runs here (serial, canonical); timing and
            // data movement were already routed to the banks in phase A and
            // stay gated on this verdict. The op itself rides to phase C.
            let verdict = check_mem(sm_id, slot_idx, op_idx, ev, &op, machine, leader, now);
            ev.verdict = Some(verdict);
            ev.shared = Some(op);
            None
        }
        None => None,
    };
    let retiring = ev.retired_local
        || ev.result.as_ref().is_some_and(|r| r.retire)
        || ev.verdict.is_some_and(|v| v.cancelled);
    if retiring && leader.sink.tracer.is_enabled() {
        // The warp retires this cycle: emit its residency span.
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
/// warp-wide mechanism call, checked values written into `results`, then
/// the poisoned lanes' forensics in ascending lane order. Returns the
/// mechanism's extra verdict delay.
#[allow(clippy::too_many_arguments)]
fn apply_marked_int(
    sm_id: usize,
    ev: &IssueEvent,
    mnemonic: &'static str,
    mask: LaneMask,
    inputs: &Column64,
    results: &mut Column64,
    now: u64,
    leader: &mut LeaderCtx<'_, '_>,
) -> u32 {
    // `stats.issued` was already bumped for this instruction: every lane's
    // poison event shares it.
    let kernel = leader.kernel_of_sm[sm_id];
    let slot = &mut leader.kernels[kernel];
    let issue_index = slot.stats.issued;
    let poisoned = slot.mechanism.on_marked_int_warp(mask, inputs, results);
    let extra_delay = slot.mechanism.marked_int_delay();
    if let Some(c) = &mut leader.counters {
        let totals = c.mech(kernel);
        totals[CHECKS] += 1;
        totals[POISONED] += u64::from(poisoned.count_ones());
    }
    let sink = &mut *leader.sink;
    for lane in lanes_of(poisoned) {
        // Delayed termination (§XII-A): remember where the pointer died
        // so a later EC fault can report it.
        sink.forensics.record_poison(PoisonEvent {
            sm: sm_id,
            warp: ev.warp,
            lane,
            pc: ev.pc,
            op: mnemonic,
            cycle: now,
            instr_index: issue_index,
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
            mnemonic,
            TraceEventKind::OcuCheck,
            sm_id,
            ev.warp,
            now,
            extra_delay as u64,
            &[("pc", ev.pc as u64)],
        );
    }
    extra_delay
}

/// Device-heap `malloc`/`free` over the lanes of `mask`, serialized
/// through the shared allocator; `malloc` overwrites each lane's size in
/// `args` with its pointer. Returns whether the warp halts (an invalid or
/// double free under `halt_on_violation`).
#[allow(clippy::too_many_arguments)]
fn apply_heap(
    sm_id: usize,
    ev: &IssueEvent,
    mnemonic: &'static str,
    malloc: bool,
    mask: LaneMask,
    args: &mut Column64,
    now: u64,
    leader: &mut LeaderCtx<'_, '_>,
) -> bool {
    let mut violation = None;
    let issue_index = leader.kernel(sm_id).stats.issued;
    for l in lanes_of(mask) {
        let gtid = ev.base_tid + l as u64;
        let slot = leader.kernel(sm_id);
        if malloc {
            args[l] = slot.heap.malloc(gtid as usize, args[l]).unwrap_or(0);
            slot.stats.mallocs += 1;
        } else {
            slot.stats.frees += 1;
            match slot.heap.free(args[l]) {
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
                    leader.sink.forensics.record_poison(PoisonEvent {
                        sm: sm_id,
                        warp: ev.warp,
                        lane: l,
                        pc: ev.pc,
                        op: mnemonic,
                        cycle: now,
                        instr_index: issue_index,
                    });
                }
                Ok(()) => {}
            }
        }
    }
    if leader.sink.tracer.is_enabled() {
        leader.sink.tracer.complete_with(
            mnemonic,
            TraceEventKind::HeapCall,
            sm_id,
            ev.warp,
            now,
            leader.cfg.heap_call_latency as u64,
            &[("pc", ev.pc as u64)],
        );
    }
    let Some((lane, v)) = violation else { return false };
    leader.kernel(sm_id).stats.violations.push(ViolationEvent {
        sm: sm_id,
        warp: ev.warp,
        pc: ev.pc,
        global_tid: ev.base_tid + lane as u64,
        violation: v,
    });
    leader.cfg.halt_on_violation
}

/// The mechanism check of a deferred memory access — the only part of a
/// memory op the leader still runs. One warp-wide mechanism call produces
/// the verdict the bank passes and phase C consume; the faulting lanes'
/// violations and forensics follow in ascending lane order. Also charges
/// the transaction statistics and routes metadata fetches to their owning
/// banks.
#[allow(clippy::too_many_arguments)]
fn check_mem(
    sm_id: usize,
    slot_idx: usize,
    op_idx: u32,
    ev: &IssueEvent,
    op: &SharedOp,
    machine: &Machine<'_>,
    leader: &mut LeaderCtx<'_, '_>,
    now: u64,
) -> MemVerdict {
    let SharedOp::Mem { width, is_store, space, lanes, line_count, bank_items, .. } = op else {
        unreachable!("check_mem is only called for SharedOp::Mem");
    };
    let pc = ev.pc;
    let LeaderCtx { kernels, kernel_of_sm, cfg, sink, raw, vaddr, verdict, counters } = leader;
    let kernel = kernel_of_sm[sm_id];
    let slot = &mut kernels[kernel];
    let mut mask: LaneMask = 0;
    for lm in lanes {
        raw[lm.lane] = lm.raw;
        vaddr[lm.lane] = lm.vaddr;
        mask |= 1 << lm.lane;
    }
    let access = WarpMemAccess {
        space: *space,
        width: *width,
        is_store: *is_store,
        pc,
        base_tid: ev.base_tid,
        mask,
        raw,
        vaddr,
    };
    verdict.clear();
    slot.mechanism.on_mem_access_warp(&access, verdict);

    // `stats.issued` was already bumped for this instruction, so it is a
    // unique id shared by every lane of this warp-level issue (forensics
    // stamps it on the fault).
    let issue_index = slot.stats.issued;
    if let Some(c) = counters {
        c.mech(kernel)[FAULTS] += verdict.faults.len() as u64;
    }
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
        if let Some(record) = sink.forensics.record_fault(FaultEvent {
            sm: sm_id,
            warp: ev.warp,
            lane,
            pc,
            cycle: now,
            instr_index: issue_index,
        }) {
            slot.stats.forensics.push(record);
        }
    }
    let (survivors, extra_cycles) = (verdict.survivors, verdict.extra_cycles);

    if !verdict.faults.is_empty() && cfg.halt_on_violation {
        // The faulting access never issues: no timing, no data movement,
        // no pc advance — the warp halts. The bank queues' entries for
        // this op are skipped by the verdict gate.
        return MemVerdict { survivors, cancelled: true, extra_cycles };
    }

    slot.stats.transactions += line_count;
    if let Some(c) = counters {
        let row = c.sm(slot_idx);
        row[TRANSACTIONS] += line_count;
        row[CHARGED] += 1;
    }

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
    slot.stats.phase_b_banked_items += *bank_items as u64 + metas.len() as u64;
    MemVerdict { survivors, cancelled: false, extra_cycles }
}

// ---------------------------------------------------------------------------
// Bank passes.

/// The banks this worker owns: a fixed interleaved assignment, so a bank is
/// applied by the same thread every cycle (cache-warm) and by construction
/// never by two threads at once.
fn owned_banks(banks: usize, t: usize, threads: usize) -> impl Iterator<Item = usize> {
    (t..banks).step_by(threads.max(1))
}

/// Metadata pass: each bank performs its queued metadata fetches in
/// canonical (slot, op, address) order — exactly the order the leader
/// enqueued them — and publishes each op's completion cycle.
fn meta_pass(
    slots: &[RwLock<SmSlot<'_>>],
    machine: &Machine<'_>,
    now: u64,
    t: usize,
    threads: usize,
) {
    for b in owned_banks(machine.banks, t, threads) {
        let mut q = machine.meta_q[b].lock().unwrap();
        if q.is_empty() {
            continue;
        }
        let mut cell = machine.cells[b].lock().unwrap();
        for req in q.iter() {
            let done = cell.timing.access(req.local, now);
            let s = slots[req.slot as usize].read().unwrap();
            s.events.issues[req.op as usize].meta_done.fetch_max(done, SeqCst);
        }
        q.clear();
    }
}

/// Bank pass: each bank drains every SM's queue for it, slots ascending,
/// queue order within a slot — the canonical order restricted to this
/// bank's (disjoint) slice of the address space.
fn bank_pass(
    slots: &[RwLock<SmSlot<'_>>],
    machine: &Machine<'_>,
    now: u64,
    t: usize,
    threads: usize,
) {
    for b in owned_banks(machine.banks, t, threads) {
        let mut cell = machine.cells[b].lock().unwrap();
        let BankCell { timing, store } = &mut *cell;
        for slot in slots {
            let s = slot.read().unwrap();
            for req in &s.events.bank_q[b] {
                match *req {
                    BankReq::Fill { op, local } => {
                        let ev = &s.events.issues[op as usize];
                        let v = ev.verdict.expect("mem op verdict set in B-check");
                        if v.cancelled {
                            continue;
                        }
                        let start = now.max(ev.meta_done.load(SeqCst));
                        let done = timing.access(local, start);
                        ev.data_done.fetch_max(done, SeqCst);
                    }
                    BankReq::Move { op, lane_pos, local, width, shift, value } => {
                        let ev = &s.events.issues[op as usize];
                        let v = ev.verdict.expect("mem op verdict set in B-check");
                        if v.cancelled {
                            continue;
                        }
                        let Some(SharedOp::Mem { is_store, lanes, atoms, .. }) = &ev.shared else {
                            unreachable!("Move targets a memory op");
                        };
                        if v.survivors & (1 << lanes[lane_pos as usize].lane) == 0 {
                            continue;
                        }
                        if *is_store {
                            store.write(local, value, width);
                        } else {
                            let part = store.read(local, width) << (8 * shift as u32);
                            atoms[lane_pos as usize].fetch_or(part, SeqCst);
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
        for ev in &s.events.issues {
            let Some(SharedOp::Mem { line_count, .. }) = &ev.shared else {
                continue;
            };
            let Some(v) = ev.verdict else { continue };
            if v.cancelled || v.survivors == 0 {
                continue;
            }
            let done = ev.mem_done_at(now, leader.cfg).expect("live mem op completes");
            let mnemonic = ev.opcode.map(|op| op.mnemonic()).unwrap_or("");
            leader.sink.tracer.complete_with(
                mnemonic,
                TraceEventKind::MemTransaction,
                s.sm.id,
                ev.warp,
                now,
                done.saturating_sub(now).max(1),
                &[
                    ("pc", ev.pc as u64),
                    ("lines", *line_count),
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
    threads: usize,
    ctl: &Ctl,
    sense: &mut bool,
) -> bool {
    if machine.meta_flag.load(SeqCst) {
        ctl.guard(|| meta_pass(slots, machine, now, t, threads));
        if !ctl.sync(sense) {
            return false;
        }
    }
    if machine.bank_flag.load(SeqCst) {
        ctl.guard(|| bank_pass(slots, machine, now, t, threads));
        if !ctl.sync(sense) {
            return false;
        }
    }
    true
}

fn worker_loop(
    slots: &[RwLock<SmSlot<'_>>],
    machine: &Machine<'_>,
    range: Range<usize>,
    t: usize,
    threads: usize,
    cfg: &GpuConfig,
    ctl: &Ctl,
) {
    let mut sense = false;
    let mut now = 0u64;
    let mut parity = 0usize;
    loop {
        ctl.guard(|| phase_a_range(slots, machine, &range, now, cfg, &ctl.acc[parity]));
        if !ctl.sync(&mut sense) {
            break; // A-done
        }
        if !ctl.sync(&mut sense) {
            break; // B-check done (the leader ran the serial section)
        }
        if !bank_sync_phases(slots, machine, now, t, threads, ctl, &mut sense) {
            break;
        }
        if machine.tracer_on && !ctl.sync(&mut sense) {
            break; // B-final done (leader-only span emission)
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
}

fn leader_loop(
    slots: &[RwLock<SmSlot<'_>>],
    machine: &Machine<'_>,
    range: Range<usize>,
    threads: usize,
    leader: &mut LeaderCtx<'_, '_>,
    ctl: &Ctl,
) -> u64 {
    let cfg = *leader.cfg;
    let mut sense = false;
    let mut now = 0u64;
    let mut parity = 0usize;
    loop {
        ctl.guard(|| phase_a_range(slots, machine, &range, now, &cfg, &ctl.acc[parity]));
        if !ctl.sync(&mut sense) {
            break;
        }
        // Phase B-check: the serial section, ascending slot order. The
        // schedule flags are published before the barrier releases, so
        // every thread agrees on this cycle's barrier count.
        ctl.guard(|| {
            machine.meta_flag.store(false, SeqCst);
            machine.bank_flag.store(false, SeqCst);
            for (slot_idx, slot) in slots.iter().enumerate() {
                let mut s = slot.write().unwrap();
                let SmSlot { sm, events, .. } = &mut *s;
                apply_cycle(sm.id, slot_idx, events, now, machine, leader);
            }
            // Workers are parked between the A and C barriers: safe to
            // recycle the off-parity accumulator for the next cycle.
            ctl.acc[parity ^ 1].reset();
        });
        if !ctl.sync(&mut sense) {
            break;
        }
        if !bank_sync_phases(slots, machine, now, 0, threads, ctl, &mut sense) {
            break;
        }
        if machine.tracer_on {
            ctl.guard(|| b_final(slots, leader, now));
            if !ctl.sync(&mut sense) {
                break;
            }
        }
        ctl.guard(|| phase_c_range(slots, &range, now, &cfg, &ctl.acc[parity]));
        if !ctl.sync(&mut sense) {
            break;
        }
        match advance(now, &ctl.acc[parity]) {
            Some(next) => now = next,
            None => break,
        }
        parity ^= 1;
    }
    now
}
