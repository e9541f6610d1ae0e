//! Simulation statistics.

use std::collections::BTreeMap;

use lmi_core::Violation;
use lmi_isa::MemSpace;
use lmi_mem::CacheStats;
use lmi_telemetry::{CounterRegistry, ForensicsRecord, Json, KernelProfile, Scope, SmProfile};

use crate::gpu::{ResidentKernel, ResidentOutcome};
use crate::sm::Sm;

/// A recorded memory-safety violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ViolationEvent {
    /// SM where the fault occurred.
    pub sm: usize,
    /// Warp id within the SM.
    pub warp: usize,
    /// Program counter of the faulting instruction.
    pub pc: usize,
    /// Flat global thread id of the faulting lane.
    pub global_tid: u64,
    /// The violation.
    pub violation: Violation,
}

/// Why a warp scheduler could not issue on a given cycle, broken out per
/// scheduler slot (the seed's single `idle_scheduler_cycles` counter hid
/// *why* slots went idle; the breakdown is what Fig. 12-style analysis
/// needs to attribute LMI's slowdown).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StallBreakdown {
    /// A candidate existed, but a source/predicate register written by a
    /// non-memory producer was not ready yet.
    pub scoreboard: u64,
    /// A candidate existed, but its binding wait was an in-flight memory
    /// result (the LSU had not delivered the load yet).
    pub lsu_busy: u64,
    /// A candidate existed, but the OCU verdict of an earlier marked
    /// instruction had not resolved (LMI's §XI-C pipeline delay).
    pub ocu_verdict: u64,
    /// No candidate at all: every warp on the slot was retired or not yet
    /// dispatched.
    pub no_ready_warp: u64,
}

impl StallBreakdown {
    /// Total stalled scheduler-slot cycles.
    pub fn total(&self) -> u64 {
        self.scoreboard + self.lsu_busy + self.ocu_verdict + self.no_ready_warp
    }

    /// JSON export with one field per reason plus the total.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("scoreboard", self.scoreboard)
            .with("lsu_busy", self.lsu_busy)
            .with("ocu_verdict", self.ocu_verdict)
            .with("no_ready_warp", self.no_ready_warp)
            .with("total", self.total())
    }
}

/// Aggregate statistics of one kernel run.
///
/// `PartialEq` is derived so the determinism suite can assert that runs at
/// different `--sim-threads` settings are bit-identical.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimStats {
    /// Total cycles until the last warp retired.
    pub cycles: u64,
    /// Warp-level instructions issued.
    pub issued: u64,
    /// Integer-ALU instructions issued.
    pub int_issued: u64,
    /// FPU instructions issued.
    pub fpu_issued: u64,
    /// Hint-marked (OCU-checked) instructions issued.
    pub marked_issued: u64,
    /// Warp-level loads/stores per memory space.
    pub mem_by_space: BTreeMap<&'static str, u64>,
    /// Coalesced memory transactions issued.
    pub transactions: u64,
    /// Device-heap `malloc` calls executed (thread-level).
    pub mallocs: u64,
    /// Device-heap `free` calls executed (thread-level).
    pub frees: u64,
    /// Scheduler-slot stall cycles, by reason.
    pub stalls: StallBreakdown,
    /// Per-SM L1 data-cache hits/misses during this run.
    pub l1_per_sm: Vec<CacheStats>,
    /// Shared L2 hits/misses during this run.
    pub l2: CacheStats,
    /// L2 MSHR merges (requests absorbed into an in-flight miss).
    pub mshr_merges: u64,
    /// DRAM transactions issued during this run.
    pub dram_transactions: u64,
    /// Detected violations.
    pub violations: Vec<ViolationEvent>,
    /// Lanes whose pointer a marked instruction's OCU check poisoned.
    /// Under delayed termination (§XII-A) a poisoning is not a violation:
    /// it becomes one only if the pointer is dereferenced later.
    pub poisoned: u64,
    /// Poison-to-fault provenance for each violation whose pointer was
    /// poisoned by the OCU earlier in the run (delayed termination, §XII-A).
    pub forensics: Vec<ForensicsRecord>,
    /// Sampling-profiler output (warp states, stall reasons, hot PCs per
    /// SM). Empty unless [`crate::GpuConfig::sample_period`] is set.
    pub profile: KernelProfile,
    /// Phase-B work units that must run on the single leader thread: the
    /// steps of its B-check over this kernel's SM slots, every visited
    /// cycle. A busy slot (one whose SM deferred an op without deciding
    /// its verdict; while tracing, any slot with an op or a retiring warp)
    /// costs one step per live issue event, whose verdicts it decides; a
    /// quiet slot costs one step, which advances the issue index by its
    /// published count. Counted in deterministic work units
    /// — not wall time — so the value is bit-identical across
    /// `sim_threads` and `mem_banks`.
    pub phase_b_serial_items: u64,
    /// Phase-B work units routed to the bank-parallel passes (L1-missed
    /// line fills, per-lane data movement, metadata fetches). Same
    /// determinism guarantee as [`SimStats::phase_b_serial_items`].
    pub phase_b_banked_items: u64,
}

impl SimStats {
    /// Adds per-space warp-level load/store counts, indexed in
    /// [`MemSpace::ALL`] order; spaces with no access get no entry.
    pub(crate) fn add_mem_counts(&mut self, counts: &[u64; 4]) {
        for (space, &n) in MemSpace::ALL.iter().zip(counts) {
            if n > 0 {
                *self.mem_by_space.entry(space.name()).or_insert(0) += n;
            }
        }
    }

    /// Warp-level loads/stores to `space` (Fig. 1's LDG/STG vs LDS/STS vs
    /// LDL/STL classification).
    pub fn mem_count(&self, space: MemSpace) -> u64 {
        self.mem_by_space.get(space.name()).copied().unwrap_or(0)
    }

    /// Total loads/stores to attack-relevant spaces (global+shared+local).
    pub fn mem_total(&self) -> u64 {
        self.mem_count(MemSpace::Global)
            + self.mem_count(MemSpace::Shared)
            + self.mem_count(MemSpace::Local)
    }

    /// Fraction of memory instructions targeting `space` (Fig. 1).
    pub fn mem_ratio(&self, space: MemSpace) -> f64 {
        let total = self.mem_total();
        if total == 0 {
            0.0
        } else {
            self.mem_count(space) as f64 / total as f64
        }
    }

    /// Returns `true` if any violation was recorded.
    pub fn violated(&self) -> bool {
        !self.violations.is_empty()
    }

    /// Warp-level instructions per cycle (the schedulers' utilization).
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.issued as f64 / self.cycles as f64
        }
    }

    /// L1 hits/misses summed over every SM.
    pub fn l1_total(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for s in &self.l1_per_sm {
            total.hits += s.hits;
            total.misses += s.misses;
        }
        total
    }

    /// Aggregate L1 hit rate across all SMs; 0 when nothing was accessed.
    pub fn l1_hit_rate(&self) -> f64 {
        self.l1_total().hit_rate()
    }

    /// L2 hit rate; 0 when nothing was accessed.
    pub fn l2_hit_rate(&self) -> f64 {
        self.l2.hit_rate()
    }

    /// Fraction of phase-B work units that stay on the single leader
    /// thread (the serial section the bank-sharded pipeline shrinks);
    /// 0 when nothing was applied.
    pub fn phase_b_serial_fraction(&self) -> f64 {
        let total = self.phase_b_serial_items + self.phase_b_banked_items;
        if total == 0 {
            0.0
        } else {
            self.phase_b_serial_items as f64 / total as f64
        }
    }

    /// Machine-readable export of the whole record (the body of the bench
    /// binaries' `--json` reports).
    pub fn to_json(&self) -> Json {
        let mut mem = Json::obj();
        for (&space, &n) in &self.mem_by_space {
            mem.set(space, n);
        }
        let mut l1_per_sm = Vec::with_capacity(self.l1_per_sm.len());
        for s in &self.l1_per_sm {
            l1_per_sm.push(Json::obj().with("hits", s.hits).with("misses", s.misses));
        }
        let l1 = self.l1_total();
        let mut violations = Vec::with_capacity(self.violations.len());
        for v in &self.violations {
            violations.push(
                Json::obj()
                    .with("sm", v.sm as u64)
                    .with("warp", v.warp as u64)
                    .with("pc", v.pc as u64)
                    .with("global_tid", v.global_tid)
                    .with("kind", format!("{:?}", v.violation)),
            );
        }
        Json::obj()
            .with("cycles", self.cycles)
            .with("issued", self.issued)
            .with("ipc", self.ipc())
            .with("int_issued", self.int_issued)
            .with("fpu_issued", self.fpu_issued)
            .with("marked_issued", self.marked_issued)
            .with("mem_by_space", mem)
            .with("transactions", self.transactions)
            .with("mallocs", self.mallocs)
            .with("frees", self.frees)
            .with("stalls", self.stalls.to_json())
            .with(
                "l1",
                Json::obj()
                    .with("hits", l1.hits)
                    .with("misses", l1.misses)
                    .with("hit_rate", l1.hit_rate())
                    .with("per_sm", Json::Arr(l1_per_sm)),
            )
            .with(
                "l2",
                Json::obj()
                    .with("hits", self.l2.hits)
                    .with("misses", self.l2.misses)
                    .with("hit_rate", self.l2.hit_rate()),
            )
            .with("mshr_merges", self.mshr_merges)
            .with("dram_transactions", self.dram_transactions)
            .with(
                "phase_b",
                Json::obj()
                    .with("serial_items", self.phase_b_serial_items)
                    .with("banked_items", self.phase_b_banked_items)
                    .with("serial_fraction", self.phase_b_serial_fraction()),
            )
            .with("poisoned", self.poisoned)
            .with("violations", Json::Arr(violations))
            .with(
                "forensics",
                Json::Arr(self.forensics.iter().map(ForensicsRecord::to_json).collect()),
            )
            .with("profile", self.profile.to_json())
    }
}

impl std::fmt::Display for SimStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "cycles            {:>12}", self.cycles)?;
        writeln!(f, "issued (warp)     {:>12}  (IPC {:.2})", self.issued, self.ipc())?;
        writeln!(f, "  int alu         {:>12}", self.int_issued)?;
        writeln!(f, "  fpu             {:>12}", self.fpu_issued)?;
        writeln!(f, "  marked (OCU)    {:>12}", self.marked_issued)?;
        writeln!(
            f,
            "mem (G/S/L)       {:>12}  {} / {} / {}",
            self.mem_total(),
            self.mem_count(lmi_isa::MemSpace::Global),
            self.mem_count(lmi_isa::MemSpace::Shared),
            self.mem_count(lmi_isa::MemSpace::Local)
        )?;
        writeln!(f, "transactions      {:>12}", self.transactions)?;
        writeln!(f, "heap malloc/free  {:>12}  / {}", self.mallocs, self.frees)?;
        writeln!(
            f,
            "stalls            {:>12}  (sb {} / lsu {} / ocu {} / idle {})",
            self.stalls.total(),
            self.stalls.scoreboard,
            self.stalls.lsu_busy,
            self.stalls.ocu_verdict,
            self.stalls.no_ready_warp
        )?;
        if self.phase_b_serial_items + self.phase_b_banked_items > 0 {
            writeln!(
                f,
                "phase-B serial    {:>12.3}  ({} serial / {} banked units)",
                self.phase_b_serial_fraction(),
                self.phase_b_serial_items,
                self.phase_b_banked_items
            )?;
        }
        let l1 = self.l1_total();
        if l1.accesses() + self.l2.accesses() > 0 {
            writeln!(
                f,
                "L1 / L2 hit rate  {:>11.1}% / {:.1}%  (MSHR merges {}, DRAM {})",
                100.0 * l1.hit_rate(),
                100.0 * self.l2.hit_rate(),
                self.mshr_merges,
                self.dram_transactions
            )?;
        }
        if !self.profile.is_empty() {
            writeln!(
                f,
                "profile           {:>12}  samples (period {}, avg occupancy {:.1} warps)",
                self.profile.samples(),
                self.profile.period,
                self.profile.avg_occupancy()
            )?;
        }
        write!(f, "violations        {:>12}", self.violations.len())?;
        for rec in &self.forensics {
            write!(
                f,
                "\n  poisoned at pc {} ({}) -> faulted at pc {} lane {}: {} cycles, {} instrs",
                rec.poison.pc,
                rec.poison.op,
                rec.fault.pc,
                rec.fault.lane,
                rec.latency_cycles(),
                rec.latency_instructions()
            )?;
        }
        Ok(())
    }
}

/// One SM's per-run totals, counted by the SM itself from what its own
/// issues decide: in phase A at issue, and in phase C from each memory
/// op's verdict. `issued` per warp lives on each `Warp`.
#[derive(Debug, Default)]
pub(crate) struct SmRecord {
    pub int_issued: u64,
    pub fpu_issued: u64,
    /// Hint-marked (OCU-checked) instructions issued.
    pub marked_issued: u64,
    /// OCU checks: marked wide ops issued with at least one active lane,
    /// wherever their verdict is decided.
    pub checks: u64,
    /// Warp-level loads/stores per space, indexed by `space as usize`
    /// (the [`MemSpace::ALL`] order).
    pub mem: [u64; 4],
    /// Warp-level device-heap calls, and their `malloc`/`free` lanes.
    pub heap_calls: u64,
    pub mallocs: u64,
    pub frees: u64,
    /// Coalesced memory transactions of the ops whose verdict let them
    /// issue.
    pub transactions: u64,
    /// Memory ops whose verdict let them issue: the registry's
    /// `transactions` key exists iff one did, even at zero lines.
    pub charged: u64,
    /// Bank-pass work units of those ops: their queue entries and their
    /// metadata fetches.
    pub banked_items: u64,
    /// Scheduler-slot stall cycles, indexed by `StallReason::index`.
    pub stalls: [u64; 4],
    /// The sampling profiler's census of this SM (empty when off).
    pub profile: SmProfile,
}

/// The leader's row for one SM slot: the slot's SM id and kernel index.
#[derive(Clone, Copy)]
pub(crate) struct SlotRecord {
    pub sm: usize,
    pub kernel: usize,
}

/// The leader's per-run totals for one kernel.
#[derive(Clone, Copy, Default)]
pub(crate) struct KernelRecord {
    /// Issue events of this kernel in the slots the leader has passed,
    /// advanced once per slot per cycle by the slot's live issue count
    /// (which phase A publishes, so a quiet slot is never locked): the
    /// base of the issue index forensics stamp on poison and fault events.
    pub issue_index: u64,
    /// The leader's B-check steps over this kernel's slots: a busy slot's
    /// live events, one step per quiet slot, every visited cycle.
    pub serial_items: u64,
    /// Verdict tallies of the ops the leader decides, counted nowhere
    /// else: poisoned lanes and faulting (EC) lanes. An op the SM decides
    /// in phase A has neither.
    pub poisoned: u64,
    pub faults: u64,
}

/// Registry names of [`SmRecord::stalls`], in `StallReason::index` order.
const STALL_NAMES: [&str; 4] =
    ["stall.scoreboard", "stall.lsu_busy", "stall.ocu_verdict", "stall.no_ready_warp"];

/// What the engine's leader decides in its canonical walk — the poison and
/// fault tallies and the forensics issue index — beside the slot-to-kernel
/// map. Everything else a run counts, each SM counts in its own
/// [`SmRecord`], the verdict-gated memory charges and the OCU checks
/// included. [`RunRecord::fold`] sums both,
/// once after the cycle loop, into each kernel's [`SimStats`] and the
/// sink's counter registry.
pub(crate) struct RunRecord {
    /// One row per SM slot, in ascending SM-id order.
    pub slots: Vec<SlotRecord>,
    /// One row per kernel, in submission order.
    pub kernels: Vec<KernelRecord>,
}

impl RunRecord {
    /// An all-zero record for `sms` (ascending id) running `jobs`, each
    /// SM the job whose partition holds it.
    pub(crate) fn new(sms: &[Sm], jobs: &[ResidentKernel<'_>]) -> RunRecord {
        RunRecord {
            slots: sms
                .iter()
                .map(|sm| SlotRecord {
                    sm: sm.id,
                    kernel: jobs
                        .iter()
                        .position(|job| job.partition.contains(&sm.id))
                        .expect("every SM belongs to one partition"),
                })
                .collect(),
            kernels: vec![KernelRecord::default(); jobs.len()],
        }
    }

    /// Folds the run into its outputs, summing the SM records per kernel
    /// in ascending SM id. Every kernel's [`SimStats`] in `outcome` gets
    /// its counted fields, its `l1_per_sm` (from `l1`, the per-slot L1
    /// deltas) and its SMs' profiles (sampled every `sample_period`
    /// cycles). When `registry` is enabled it gets every counter the run
    /// emits: the GPU keys, the per-SM and per-warp keys and the mechanism
    /// keys of `jobs`. An engine key exists only if its total is nonzero
    /// (`transactions` once an op was charged); kernels whose mechanisms
    /// share a name share a scope.
    pub(crate) fn fold(
        &self,
        sms: Vec<Sm>,
        jobs: &[ResidentKernel<'_>],
        l1: &[CacheStats],
        sample_period: u64,
        outcome: &mut ResidentOutcome,
        registry: &mut CounterRegistry,
    ) {
        for (k, out) in self.kernels.iter().zip(&mut outcome.kernels) {
            out.stats.poisoned = k.poisoned;
            out.stats.phase_b_serial_items = k.serial_items;
        }
        let mut checks = vec![0; self.kernels.len()];
        let registry_on = registry.is_enabled();
        if registry_on {
            registry.add(Scope::Gpu, "cycles", outcome.makespan);
            registry.add(Scope::Gpu, "mshr_merges", outcome.mshr_merges);
            registry.add(Scope::Gpu, "dram_transactions", outcome.dram_transactions);
            registry.add(Scope::Gpu, "l2.hits", outcome.l2.hits);
            registry.add(Scope::Gpu, "l2.misses", outcome.l2.misses);
        }
        for ((row, sm), l1) in self.slots.iter().zip(sms).zip(l1) {
            let rec = sm.record;
            let issued: u64 = sm.warps.iter().map(|w| w.issued).sum();
            let st = &mut outcome.kernels[row.kernel].stats;
            st.issued += issued;
            st.int_issued += rec.int_issued;
            st.fpu_issued += rec.fpu_issued;
            st.marked_issued += rec.marked_issued;
            st.mallocs += rec.mallocs;
            st.frees += rec.frees;
            st.add_mem_counts(&rec.mem);
            st.transactions += rec.transactions;
            st.phase_b_banked_items += rec.banked_items;
            checks[row.kernel] += rec.checks;
            let [scoreboard, lsu_busy, ocu_verdict, no_ready_warp] = rec.stalls;
            st.stalls.scoreboard += scoreboard;
            st.stalls.lsu_busy += lsu_busy;
            st.stalls.ocu_verdict += ocu_verdict;
            st.stalls.no_ready_warp += no_ready_warp;
            st.l1_per_sm.push(*l1);
            if rec.profile.samples > 0 {
                st.profile.period = sample_period;
                st.profile.per_sm.insert(sm.id, rec.profile);
            }
            if !registry_on {
                continue;
            }
            let scope = Scope::Sm(sm.id);
            let totals = [
                ("issued", issued),
                ("mem_insts", rec.mem.iter().sum()),
                ("heap_calls", rec.heap_calls),
            ];
            for (name, n) in totals.into_iter().chain(STALL_NAMES.into_iter().zip(rec.stalls)) {
                if n > 0 {
                    registry.add(scope, name, n);
                }
            }
            if rec.charged > 0 {
                registry.add(scope, "transactions", rec.transactions);
            }
            registry.add(scope, "l1.hits", l1.hits);
            registry.add(scope, "l1.misses", l1.misses);
            for (warp, w) in sm.warps.iter().enumerate() {
                if w.issued > 0 {
                    registry.add(Scope::Warp { sm: sm.id, warp }, "issued", w.issued);
                }
            }
        }
        if !registry_on {
            return;
        }
        for ((job, k), checks) in jobs.iter().zip(&self.kernels).zip(checks) {
            let scope = Scope::Mechanism(job.mechanism.name());
            for (name, n) in [("checks", checks), ("poisoned", k.poisoned), ("faults", k.faults)] {
                if n > 0 {
                    registry.add(scope, name, n);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_ratios_sum_to_one_over_protected_spaces() {
        let mut s = SimStats::default();
        s.add_mem_counts(&[6, 3, 1, 0]);
        assert_eq!(s.mem_total(), 10);
        let sum = s.mem_ratio(MemSpace::Global)
            + s.mem_ratio(MemSpace::Shared)
            + s.mem_ratio(MemSpace::Local);
        assert!((sum - 1.0).abs() < 1e-12);
        assert!((s.mem_ratio(MemSpace::Global) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn const_accesses_do_not_skew_fig1_ratios() {
        let mut s = SimStats::default();
        s.add_mem_counts(&[1, 0, 0, 1]);
        assert_eq!(s.mem_count(MemSpace::Const), 1);
        assert!(!s.mem_by_space.contains_key("shared"), "untouched spaces get no entry");
        assert_eq!(s.mem_total(), 1);
        assert_eq!(s.mem_ratio(MemSpace::Global), 1.0);
    }
}
