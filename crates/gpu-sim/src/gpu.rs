//! The full GPU: SMs, the shared memory hierarchy, the device heap, and the
//! one run core, [`Gpu::run_resident`]: a cohort of kernels on disjoint SM
//! partitions. `lmi-runtime` runs concurrent streams/tenants through it; a
//! single-kernel launch ([`Gpu::run`], [`Gpu::try_run`]) is the one-job
//! cohort that owns every SM.

use std::ops::Range;
use std::sync::Arc;

use lmi_alloc::{AlignmentPolicy, DeviceHeap};
use lmi_core::PtrConfig;
use lmi_isa::DecodedStream;
use lmi_mem::{layout, BankedHierarchy, BankedMemory, Cache, CacheStats};
use lmi_telemetry::TelemetrySink;

use crate::config::GpuConfig;
use crate::engine::{self, KernelSlot, SharedCtx};
use crate::launch::{Launch, LaunchError};
use crate::mechanism::Mechanism;
use crate::sm::{LaunchCtx, Sm};
use crate::stats::{RunRecord, SimStats};

/// Per-resident-kernel stride separating the *layout* tids that back local
/// windows: concurrent kernels' stacks can never alias as long as one
/// launch stays under a million threads.
const LAYOUT_TID_STRIDE: u64 = 1 << 20;

/// Per-resident-kernel stride separating shared-memory windows, in blocks.
const LAYOUT_BLOCK_STRIDE: u64 = 1 << 12;

/// One kernel of a resident cohort: what to run, under which mechanism and
/// heap, where (an SM partition), and when (an admission offset in cycles).
pub struct ResidentKernel<'a> {
    /// The launch descriptor.
    pub launch: &'a Launch,
    /// The memory-safety mechanism guarding this kernel (per-tenant).
    pub mechanism: &'a mut dyn Mechanism,
    /// Device heap serving this kernel's `malloc`/`free`; `None` uses the
    /// GPU's own heap.
    pub heap: Option<&'a DeviceHeap>,
    /// The SM partition (disjoint from every other cohort member's).
    pub partition: Range<usize>,
    /// Cycle at which the kernel is admitted: added to every warp's
    /// dispatch ramp, so a kernel submitted mid-run starts late without
    /// any engine-level gating.
    pub start_offset: u64,
}

/// Per-kernel result of a resident cohort run.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelOutcome {
    /// This kernel's statistics. `cycles` is measured from the kernel's
    /// `start_offset` to its last warp's retirement; `l1_per_sm` holds the
    /// deltas of the kernel's partition only (index 0 = partition start).
    /// Run-level shared counters (L2, MSHR, DRAM) live on
    /// [`ResidentOutcome`] — the L2 is shared, so per-kernel attribution
    /// would be fiction.
    pub stats: SimStats,
    /// Absolute engine cycle at which the kernel's last warp retired.
    pub completed_at: u64,
}

/// Result of one resident cohort run.
#[derive(Debug, Clone, PartialEq)]
pub struct ResidentOutcome {
    /// Per-kernel outcomes, in submission order.
    pub kernels: Vec<KernelOutcome>,
    /// Final engine cycle (all kernels drained).
    pub makespan: u64,
    /// Shared-L2 delta over the whole cohort.
    pub l2: CacheStats,
    /// MSHR merges over the whole cohort.
    pub mshr_merges: u64,
    /// DRAM transactions over the whole cohort.
    pub dram_transactions: u64,
}

/// A simulated GPU.
///
/// The functional byte store ([`Gpu::memory`]) and the device heap persist
/// across launches, so a host program can allocate, launch, inspect, and
/// launch again — the pattern the security suite and the examples use.
pub struct Gpu {
    cfg: GpuConfig,
    /// Per-SM L1 caches. SM-local state (probed in phase A), but owned
    /// here so warmth and statistics persist across launches; each run
    /// lends the engine one `&mut Cache` per participating SM.
    l1: Vec<Cache>,
    /// The banked shared memory system: L2 slices, MSHRs, DRAM channel
    /// groups (`cfg.mem_banks` address-interleaved banks).
    hierarchy: BankedHierarchy,
    /// Functional backing store for all address spaces, sharded like the
    /// timing hierarchy.
    pub memory: BankedMemory,
    heap: DeviceHeap,
}

/// A functional-memory snapshot of selected address ranges, taken with
/// [`Gpu::snapshot`] and re-applied with [`Gpu::restore`].
///
/// Snapshots are the conformance suite's replay entry point: capture the
/// seeded input image once, restore it into a fresh [`Gpu`] per engine
/// configuration (`sim_threads` × `mem_banks`), run the same launch, and
/// compare post-run snapshots — `PartialEq` makes "bit-identical memory"
/// a single assertion. The capture is bank-layout independent, so images
/// move freely between monolithic and sharded GPUs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemorySnapshot {
    /// `(base address, bytes)` pairs, in capture order.
    pub regions: Vec<(u64, Vec<u8>)>,
}

impl MemorySnapshot {
    /// Total captured bytes.
    pub fn len(&self) -> usize {
        self.regions.iter().map(|(_, b)| b.len()).sum()
    }

    /// `true` if nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }
}

impl Gpu {
    /// Creates a GPU whose device heap uses LMI's power-of-two policy.
    pub fn new(cfg: GpuConfig) -> Gpu {
        Gpu::with_heap_policy(cfg, AlignmentPolicy::PowerOfTwo)
    }

    /// Creates a GPU with an explicit device-heap policy (the unprotected
    /// baseline uses [`AlignmentPolicy::CudaDefault`]).
    pub fn with_heap_policy(cfg: GpuConfig, policy: AlignmentPolicy) -> Gpu {
        let banks = cfg.resolve_mem_banks();
        Gpu {
            cfg,
            l1: (0..cfg.num_sms).map(|_| Cache::new(cfg.hierarchy.l1)).collect(),
            hierarchy: BankedHierarchy::new(cfg.hierarchy, banks),
            memory: BankedMemory::new(banks, cfg.hierarchy.l2.line_bytes),
            heap: DeviceHeap::new(
                PtrConfig::default(),
                policy,
                layout::HEAP_BASE,
                64,
                16 * 1024 * 1024,
            ),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// The device heap (for inspection by tests and the security suite).
    pub fn heap(&self) -> &DeviceHeap {
        &self.heap
    }

    /// Total DRAM transactions issued so far (summed over banks).
    pub fn dram_transactions(&self) -> u64 {
        self.hierarchy.dram_transactions()
    }

    /// L1 statistics for one SM.
    pub fn l1_stats(&self, sm: usize) -> lmi_mem::CacheStats {
        self.l1[sm].stats()
    }

    /// Shared L2 statistics (summed over banks).
    pub fn l2_stats(&self) -> lmi_mem::CacheStats {
        self.hierarchy.l2_stats()
    }

    /// The effective memory-bank count this GPU was built with.
    pub fn mem_banks(&self) -> usize {
        self.hierarchy.num_banks()
    }

    /// Per-bank L2 statistics (index = bank id).
    pub fn l2_stats_per_bank(&self) -> Vec<lmi_mem::CacheStats> {
        self.hierarchy.banks().iter().map(|b| b.l2_stats()).collect()
    }

    /// Per-bank DRAM transaction counts (index = bank id).
    pub fn dram_transactions_per_bank(&self) -> Vec<u64> {
        self.hierarchy.banks().iter().map(|b| b.dram_transactions()).collect()
    }

    /// Captures the functional contents of `(base, len)` address ranges.
    pub fn snapshot(&self, ranges: &[(u64, u64)]) -> MemorySnapshot {
        let regions = ranges
            .iter()
            .map(|&(base, len)| {
                let mut bytes = vec![0u8; len as usize];
                self.memory.read_bytes(base, &mut bytes);
                (base, bytes)
            })
            .collect();
        MemorySnapshot { regions }
    }

    /// Writes a snapshot back into functional memory (replay setup).
    pub fn restore(&mut self, snapshot: &MemorySnapshot) {
        for (base, bytes) in &snapshot.regions {
            self.memory.write_bytes(*base, bytes);
        }
    }

    /// Runs one kernel to completion under `mechanism`; returns statistics.
    ///
    /// # Panics
    ///
    /// Panics if the launch is invalid ([`Launch::validate`]) — use
    /// [`Gpu::try_run`] to get the typed [`LaunchError`] instead.
    pub fn run(&mut self, launch: &Launch, mechanism: &mut dyn Mechanism) -> SimStats {
        // Forensics still flow into `SimStats::forensics` (they only cost
        // time on violations); counters and the tracer stay off.
        let mut sink = TelemetrySink::disabled();
        self.try_run(launch, mechanism, &mut sink).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Runs one kernel to completion under `mechanism`, recording scoped
    /// counters and timeline events into `sink`; invalid launches are
    /// rejected with a typed [`LaunchError`]. Forensics are the run's own
    /// ([`SimStats::forensics`]): nothing the sink saw in an earlier run
    /// reaches this one.
    ///
    /// The launch is a one-job cohort of [`Gpu::run_resident`] owning every
    /// SM. Because the kernel owns the whole GPU, the run-level L2, MSHR
    /// and DRAM deltas are exactly its own and are copied into its stats.
    pub fn try_run(
        &mut self,
        launch: &Launch,
        mechanism: &mut dyn Mechanism,
        sink: &mut TelemetrySink,
    ) -> Result<SimStats, LaunchError> {
        let mut job = [ResidentKernel {
            launch,
            mechanism,
            heap: None,
            partition: 0..self.cfg.num_sms,
            start_offset: 0,
        }];
        let outcome = self.run_resident(&mut job, sink)?;
        let mut stats = outcome.kernels.into_iter().next().expect("one job, one outcome").stats;
        stats.l2 = outcome.l2;
        stats.mshr_merges = outcome.mshr_merges;
        stats.dram_transactions = outcome.dram_transactions;
        Ok(stats)
    }

    /// Runs a *cohort* of kernels resident together: each kernel occupies
    /// its own SM partition, owns its own mechanism/heap/stats, and is
    /// admitted at its `start_offset`, while all of them contend for the
    /// shared L2/MSHR/DRAM. One engine run simulates the whole cohort, so
    /// the result is bit-identical at every `sim_threads`. This is the only
    /// body that drives the engine: `lmi-runtime` builds streams on it and
    /// [`Gpu::try_run`] is its one-job case.
    ///
    /// Every launch is validated against its partition before anything
    /// runs: on error the GPU state is untouched.
    pub fn run_resident(
        &mut self,
        jobs: &mut [ResidentKernel<'_>],
        sink: &mut TelemetrySink,
    ) -> Result<ResidentOutcome, LaunchError> {
        // Validate geometry and partition disjointness up front.
        let mut claimed: Vec<bool> = vec![false; self.cfg.num_sms];
        for job in jobs.iter() {
            let p = &job.partition;
            if p.is_empty() || p.end > self.cfg.num_sms || claimed[p.clone()].contains(&true) {
                return Err(LaunchError::BadPartition {
                    start: p.start,
                    end: p.end,
                    num_sms: self.cfg.num_sms,
                });
            }
            claimed[p.clone()].fill(true);
            job.launch.validate_on(&self.cfg, p.len())?;
        }

        // Build each kernel's SMs on its partition, dispatch its blocks
        // round-robin within the partition, and delay every warp by the
        // kernel's admission offset.
        let mut sms: Vec<Sm> = Vec::with_capacity(jobs.iter().map(|j| j.partition.len()).sum());
        for (k, job) in jobs.iter().enumerate() {
            let launch = job.launch;
            // Lower the program to its flat decoded form exactly once; the
            // cycle loop never decodes again. Corrupt microcode (bad ISETP
            // immediates, unknown S2R selectors) is rejected here, before
            // the GPU is touched.
            let stream = Arc::new(DecodedStream::lower(&launch.program)?);
            let ctx = Arc::new(LaunchCtx {
                params: launch.params.clone(),
                stack_bytes: self.cfg.stack_bytes,
                threads_per_block: launch.threads_per_block,
                layout_tid_base: k as u64 * LAYOUT_TID_STRIDE,
                layout_block_base: k as u64 * LAYOUT_BLOCK_STRIDE,
            });
            let regs = launch.program.regs_per_thread.max(8) as usize;
            let mut part: Vec<Sm> = job
                .partition
                .clone()
                .map(|id| Sm::new(id, Arc::clone(&stream), Arc::clone(&ctx)))
                .collect();
            let plen = part.len();
            for block in 0..launch.grid_blocks {
                part[block % plen].add_block(block, launch, regs);
            }
            for sm in &mut part {
                for warp in &mut sm.warps {
                    warp.start_cycle += job.start_offset;
                }
            }
            sms.extend(part);
        }
        // Canonical phase-B order is ascending SM id, independent of the
        // cohort's submission order.
        sms.sort_by_key(|sm| sm.id);
        let mut record = RunRecord::new(&sms, jobs);

        // The hierarchy counters persist across launches: snapshot them so
        // the outcome reports this run's delta, not the lifetime totals.
        let l1_before: Vec<CacheStats> = sms.iter().map(|sm| self.l1[sm.id].stats()).collect();
        let l2_before = self.hierarchy.l2_stats();
        let mshr_before = self.hierarchy.mshr_merges();
        let dram_before = self.hierarchy.dram_transactions();

        let mut stats: Vec<SimStats> = jobs.iter().map(|_| SimStats::default()).collect();
        let threads = self.cfg.resolve_sim_threads();
        let makespan = {
            let kernels: Vec<KernelSlot> = jobs
                .iter_mut()
                .zip(stats.iter_mut())
                .map(|(job, st)| KernelSlot {
                    mechanism: &mut *job.mechanism,
                    stats: st,
                    heap: job.heap.unwrap_or(&self.heap),
                })
                .collect();
            let mut shared = SharedCtx {
                hierarchy: &mut self.hierarchy,
                memory: &mut self.memory,
                kernels,
                record: &mut record,
                cfg: &self.cfg,
                sink: &mut *sink,
            };
            // One L1 per claimed SM, aligned with `sms` (both are in
            // ascending SM-id order; partitions are disjoint).
            let l1s: Vec<&mut Cache> =
                self.l1.iter_mut().zip(&claimed).filter(|(_, &c)| c).map(|(l1, _)| l1).collect();
            engine::run(&mut sms, l1s, &mut shared, threads)
        };

        let delta = |after: CacheStats, before: CacheStats| CacheStats {
            hits: after.hits - before.hits,
            misses: after.misses - before.misses,
        };
        let l1: Vec<CacheStats> = sms
            .iter()
            .zip(l1_before)
            .map(|(sm, before)| delta(self.l1[sm.id].stats(), before))
            .collect();
        let mut kernels = Vec::with_capacity(jobs.len());
        for (job, mut st) in jobs.iter().zip(stats) {
            let completed_at = sms
                .iter()
                .filter(|sm| job.partition.contains(&sm.id))
                .filter_map(|sm| sm.done_cycle)
                .max()
                .unwrap_or(job.start_offset);
            st.cycles = completed_at.saturating_sub(job.start_offset).max(1);
            kernels.push(KernelOutcome { stats: st, completed_at });
        }
        let mut outcome = ResidentOutcome {
            kernels,
            makespan: makespan.max(1),
            l2: delta(self.hierarchy.l2_stats(), l2_before),
            mshr_merges: self.hierarchy.mshr_merges() - mshr_before,
            dram_transactions: self.hierarchy.dram_transactions() - dram_before,
        };
        record.fold(sms, jobs, &l1, self.cfg.sample_period, &mut outcome, &mut sink.counters);
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::{LmiMechanism, NullMechanism};
    use lmi_core::PtrConfig;
    use lmi_isa::instr::CmpOp;
    use lmi_isa::reg::PredReg;
    use lmi_isa::{abi, HintBits, Instruction, MemRef, MemSpace, ProgramBuilder, Reg};

    #[test]
    fn corrupted_cmp_immediate_is_rejected_at_launch() {
        // A bit-flipped ISETP comparison immediate used to fall back to
        // `CmpOp::Eq` silently inside the cycle loop. Lowering now rejects
        // the program at launch with a typed error, before any SM runs.
        let mut b = ProgramBuilder::new("corrupt");
        b.push(Instruction::isetp(PredReg(0), Reg(0), CmpOp::Lt, 4));
        b.push(Instruction::exit());
        let mut program = b.build();
        program.instructions[0].srcs[2] = lmi_isa::Operand::Imm(99);
        let launch = Launch::new(program);
        let mut gpu = Gpu::new(GpuConfig::small());
        let err =
            gpu.try_run(&launch, &mut NullMechanism, &mut TelemetrySink::disabled()).unwrap_err();
        assert_eq!(
            err,
            LaunchError::Decode(lmi_isa::DecodeError::BadCmpImmediate { pc: 0, value: 99 })
        );
    }

    #[test]
    fn every_deferred_kind_survives_long_runs() {
        // Marked pointer bumps, device-heap calls and memory ops every
        // trip: each reuses its issue slot's lane columns and atoms, so a
        // payload left over from an earlier cycle would corrupt a later one.
        let mut b = ProgramBuilder::new("deferred-loop");
        b.push(Instruction::mov(Reg(1), 64));
        b.push(Instruction::mov(Reg(2), 0));
        let top = b.label();
        b.push(Instruction::malloc(Reg(4), Reg(1)));
        b.push(Instruction::iadd64(Reg(6), Reg(4), 8).with_hints(HintBits::check_operand(0)));
        b.push(Instruction::stg(MemRef::new(Reg(6), 0, 4), Reg(2)));
        b.push(Instruction::free(Reg(4)));
        b.push(Instruction::iadd3(Reg(2), Reg(2), 1));
        b.push(Instruction::isetp(PredReg(0), Reg(2), CmpOp::Lt, 40));
        b.branch_if(top, PredReg(0), false);
        b.push(Instruction::exit());
        let launch = Launch::new(b.build()).grid(8).block(96);
        for threads in [1, 2] {
            let mut gpu = Gpu::new(GpuConfig::small().with_sim_threads(threads));
            let stats = gpu.run(&launch, &mut LmiMechanism::default_config());
            assert_eq!(stats.marked_issued, 8 * 3 * 40, "every warp ran every trip");
            assert_eq!(stats.frees, 8 * 96 * 40);
        }
    }

    #[test]
    fn empty_kernel_terminates() {
        let mut b = ProgramBuilder::new("empty");
        b.push(Instruction::exit());
        let launch = Launch::new(b.build()).grid(4).block(128);
        let mut gpu = Gpu::new(GpuConfig::small());
        let stats = gpu.run(&launch, &mut NullMechanism);
        assert!(stats.cycles >= 1);
        assert_eq!(stats.issued, 16, "16 warps issue one EXIT each");
    }

    #[test]
    fn threads_write_their_tids_to_global_memory() {
        let base = layout::GLOBAL_BASE;
        let mut b = ProgramBuilder::new("wtid");
        b.push(Instruction::s2r(Reg(0), lmi_isa::op::SpecialReg::TidX));
        b.push(Instruction::ldc(Reg(4), abi::LAUNCH_BANK, abi::param_offset(0), 8));
        b.push(Instruction::lea64(Reg(6), Reg(4), Reg(0), 2));
        b.push(Instruction::stg(MemRef::new(Reg(6), 0, 4), Reg(0)));
        b.push(Instruction::exit());
        let launch = Launch::new(b.build()).grid(1).block(64).param(base);
        let mut gpu = Gpu::new(GpuConfig::small());
        let stats = gpu.run(&launch, &mut NullMechanism);
        for tid in 0..64u64 {
            assert_eq!(gpu.memory.read(base + tid * 4, 4), tid, "thread {tid}");
        }
        assert_eq!(stats.mem_count(MemSpace::Global), 2, "two warp-level STGs");
        assert!(stats.transactions >= 2);
    }

    #[test]
    fn loop_executes_the_right_number_of_iterations() {
        // R2 = 0; do { R2++ } while (R2 < 10); store R2.
        let base = layout::GLOBAL_BASE + 0x1000;
        let mut b = ProgramBuilder::new("loop");
        b.push(Instruction::mov(Reg(2), 0));
        let top = b.label();
        b.push(Instruction::iadd3(Reg(2), Reg(2), 1));
        b.push(Instruction::isetp(PredReg(0), Reg(2), CmpOp::Lt, 10));
        b.branch_if(top, PredReg(0), false);
        b.push(Instruction::ldc(Reg(4), abi::LAUNCH_BANK, abi::param_offset(0), 8));
        b.push(Instruction::stg(MemRef::new(Reg(4), 0, 4), Reg(2)));
        b.push(Instruction::exit());
        let launch = Launch::new(b.build()).grid(1).block(32).param(base);
        let mut gpu = Gpu::new(GpuConfig::small());
        gpu.run(&launch, &mut NullMechanism);
        assert_eq!(gpu.memory.read(base, 4), 10);
    }

    #[test]
    fn divergent_branch_executes_both_paths() {
        // if (tid < 16) out[tid] = 1; else out[tid] = 2;
        let base = layout::GLOBAL_BASE + 0x2000;
        let mut b = ProgramBuilder::new("div");
        b.push(Instruction::s2r(Reg(0), lmi_isa::op::SpecialReg::TidX));
        b.push(Instruction::ldc(Reg(4), abi::LAUNCH_BANK, abi::param_offset(0), 8));
        b.push(Instruction::lea64(Reg(6), Reg(4), Reg(0), 2));
        b.push(Instruction::isetp(PredReg(0), Reg(0), CmpOp::Lt, 16));
        let taken = b.forward_branch_if(PredReg(0), false);
        // else path
        b.push(Instruction::mov(Reg(8), 2));
        b.push(Instruction::stg(MemRef::new(Reg(6), 0, 4), Reg(8)));
        b.push(Instruction::exit());
        b.bind(taken);
        b.push(Instruction::mov(Reg(8), 1));
        b.push(Instruction::stg(MemRef::new(Reg(6), 0, 4), Reg(8)));
        b.push(Instruction::exit());
        let launch = Launch::new(b.build()).grid(1).block(32).param(base);
        let mut gpu = Gpu::new(GpuConfig::small());
        gpu.run(&launch, &mut NullMechanism);
        for tid in 0..32u64 {
            let expect = if tid < 16 { 1 } else { 2 };
            assert_eq!(gpu.memory.read(base + tid * 4, 4), expect, "thread {tid}");
        }
    }

    /// Every thread mallocs 64 B and stores its tid through the pointer.
    fn malloc_kernel() -> lmi_isa::Program {
        let mut b = ProgramBuilder::new("km");
        b.push(Instruction::s2r(Reg(0), lmi_isa::op::SpecialReg::TidX));
        b.push(Instruction::mov(Reg(1), 64));
        b.push(Instruction::malloc(Reg(4), Reg(1)));
        // store a marker through the fresh pointer
        b.push(Instruction::stg(MemRef::new(Reg(4), 0, 4), Reg(0)));
        b.push(Instruction::exit());
        b.build()
    }

    #[test]
    fn kernel_malloc_returns_distinct_valid_pointers() {
        let launch = Launch::new(malloc_kernel()).grid(1).block(32);
        let mut gpu = Gpu::new(GpuConfig::small());
        let mut mech = LmiMechanism::default_config();
        let stats = gpu.run(&launch, &mut mech);
        assert_eq!(stats.mallocs, 32);
        assert_eq!(gpu.heap().stats().live, 32);
        assert!(!stats.violated(), "heap pointers carry valid extents");
    }

    #[test]
    fn ocu_poisons_and_ec_faults_an_escaping_pointer() {
        // p = param0 (256 B buffer); p += 256 (marked); *p = 1 -> fault.
        let cfg = PtrConfig::default();
        let buf =
            lmi_core::DevicePtr::encode(layout::GLOBAL_BASE + 0x10000, 256, &cfg).unwrap().raw();
        let mut b = ProgramBuilder::new("oob");
        b.push(Instruction::ldc(Reg(4), abi::LAUNCH_BANK, abi::param_offset(0), 8));
        b.push(Instruction::iadd64(Reg(4), Reg(4), 256).with_hints(HintBits::check_operand(0)));
        b.push(Instruction::mov(Reg(0), 1));
        b.push(Instruction::stg(MemRef::new(Reg(4), 0, 4), Reg(0)));
        b.push(Instruction::exit());
        let launch = Launch::new(b.build()).grid(1).block(1).param(buf);
        let mut gpu = Gpu::new(GpuConfig::security());
        let stats = gpu.run(&launch, &mut LmiMechanism::default_config());
        assert!(stats.violated());
        assert_eq!(stats.poisoned, 1);
        // The OOB store must not have landed.
        assert_eq!(gpu.memory.read(layout::GLOBAL_BASE + 0x10000 + 256, 4), 0);
        // Forensics: the poison (IADD64 at pc 1) is matched to the fault
        // (STG at pc 3) with its latency, even on the untelemetered path.
        assert_eq!(stats.forensics.len(), 1);
        let rec = &stats.forensics[0];
        assert_eq!(rec.poison.pc, 1);
        assert_eq!(rec.poison.op, "IADD64");
        assert_eq!(rec.fault.pc, 3);
        assert_eq!(rec.fault.lane, 0);
        assert!(rec.latency_cycles() > 0, "poison precedes the fault");
        assert!(rec.latency_instructions() > 0);
    }

    #[test]
    fn fully_predicated_off_wide_and_fpu_instructions_complete_and_write_nothing() {
        // Every lane's guard is false, so the warp-wide ALU/FPU paths have
        // no lane to compute, check or write: each instruction still
        // issues and advances pc. The marked IADD64 would poison the
        // pointer (p += 256 on a 256 B buffer) had any lane executed it.
        let cfg = PtrConfig::default();
        let addr = layout::GLOBAL_BASE + 0x18000;
        let buf = lmi_core::DevicePtr::encode(addr, 256, &cfg).unwrap().raw();
        let off = lmi_isa::Predicate::when(PredReg(0));
        let mut b = ProgramBuilder::new("predoff");
        b.push(Instruction::ldc(Reg(4), abi::LAUNCH_BANK, abi::param_offset(0), 8));
        b.push(Instruction::mov(Reg(2), 0x40E0_0000)); // 7.0f32
        b.push(Instruction::isetp(PredReg(0), Reg(2), CmpOp::Ne, Reg(2)));
        b.push(
            Instruction::iadd64(Reg(4), Reg(4), 256)
                .with_hints(HintBits::check_operand(0))
                .with_pred(off),
        );
        b.push(Instruction::lea64(Reg(4), Reg(4), Reg(2), 3).with_pred(off));
        b.push(Instruction::mov64(Reg(4), Reg(6)).with_pred(off));
        b.push(Instruction::ffma(Reg(2), Reg(2), Reg(2), Reg(2)).with_pred(off));
        b.push(Instruction::float2(lmi_isa::Opcode::Mufu, Reg(2), Reg(2), 0).with_pred(off));
        b.push(Instruction::iadd3(Reg(2), Reg(2), 1).with_pred(off));
        b.push(Instruction::stg(MemRef::new(Reg(4), 0, 4), Reg(2)));
        b.push(Instruction::exit());
        let launch = Launch::new(b.build()).grid(2).block(48).param(buf);
        let mut gpu = Gpu::new(GpuConfig::small());
        let stats = gpu.run(&launch, &mut LmiMechanism::default_config());
        assert_eq!(stats.issued, 11 * 4, "every instruction issues on all four warps");
        assert!(!stats.violated());
        assert_eq!(stats.poisoned, 0, "no lane reached the OCU");
        assert_eq!(gpu.memory.read(addr, 4), 0x40E0_0000, "R2 and R4 kept their values");
    }

    #[test]
    fn telemetry_counters_agree_with_sim_stats() {
        use lmi_telemetry::Scope;
        let base = layout::GLOBAL_BASE + 0x40000;
        let mut b = ProgramBuilder::new("tc");
        b.push(Instruction::s2r(Reg(0), lmi_isa::op::SpecialReg::TidX));
        b.push(Instruction::ldc(Reg(4), abi::LAUNCH_BANK, abi::param_offset(0), 8));
        b.push(Instruction::lea64(Reg(6), Reg(4), Reg(0), 2));
        b.push(Instruction::ldg(Reg(8), MemRef::new(Reg(6), 0, 4)));
        b.push(Instruction::ffma(Reg(9), Reg(8), Reg(8), Reg(8)));
        b.push(Instruction::stg(MemRef::new(Reg(6), 0, 4), Reg(9)));
        b.push(Instruction::exit());
        let launch = Launch::new(b.build()).grid(4).block(64).param(base);
        let mut gpu = Gpu::new(GpuConfig::small());
        let mut sink = TelemetrySink::counters_only();
        let stats = gpu.try_run(&launch, &mut NullMechanism, &mut sink).unwrap();
        assert_eq!(sink.counters.sum_sms("issued"), stats.issued);
        assert_eq!(sink.counters.sum_sms("transactions"), stats.transactions);
        assert_eq!(sink.counters.get(Scope::Gpu, "cycles"), stats.cycles);
        assert_eq!(sink.counters.sum_sms("stall.scoreboard"), stats.stalls.scoreboard);
        assert_eq!(sink.counters.sum_sms("stall.lsu_busy"), stats.stalls.lsu_busy);
        assert_eq!(sink.counters.sum_sms("stall.no_ready_warp"), stats.stalls.no_ready_warp);
        let l1 = stats.l1_total();
        assert_eq!(sink.counters.sum_sms("l1.hits"), l1.hits);
        assert_eq!(sink.counters.sum_sms("l1.misses"), l1.misses);
        assert!(stats.l1_hit_rate() >= 0.0 && stats.l1_hit_rate() <= 1.0);
    }

    #[test]
    fn traced_run_emits_warp_spans_and_memory_transactions() {
        let base = layout::GLOBAL_BASE + 0x50000;
        let mut b = ProgramBuilder::new("spans");
        b.push(Instruction::ldc(Reg(4), abi::LAUNCH_BANK, abi::param_offset(0), 8));
        b.push(Instruction::ldg(Reg(8), MemRef::new(Reg(4), 0, 4)));
        b.push(Instruction::ldc(Reg(6), abi::LAUNCH_BANK, abi::SHARED_BASE_OFFSET, 8));
        b.push(Instruction::lds(Reg(9), MemRef::new(Reg(6), 0, 4)));
        b.push(Instruction::exit());
        let launch = Launch::new(b.build()).grid(2).block(64).param(base);
        let cfg = GpuConfig::small();
        let shared_latency = cfg.hierarchy.shared_latency as u64;
        let mut gpu = Gpu::new(cfg);
        let mut sink = TelemetrySink::with_trace_capacity(1024);
        gpu.try_run(&launch, &mut NullMechanism, &mut sink).unwrap();
        use lmi_telemetry::TraceEventKind;
        let warps = sink.tracer.records().filter(|r| r.kind == TraceEventKind::WarpSpan).count();
        assert_eq!(warps, 4, "one residency span per retired warp");
        let spans = |name| {
            sink.tracer
                .records()
                .filter(|r| r.kind == TraceEventKind::MemTransaction && r.name == name)
                .map(|r| r.dur)
                .collect::<Vec<_>>()
        };
        assert!(!spans("LDG").is_empty(), "the LDG produced a transaction span");
        // A shared load completes `shared_latency` cycles after it issues.
        assert_eq!(spans("LDS"), vec![shared_latency; 4], "one LDS span per warp");
    }

    #[test]
    fn delayed_termination_no_fault_without_dereference() {
        // p += huge (marked) but never dereferenced: no violation (Fig. 14).
        let cfg = PtrConfig::default();
        let buf =
            lmi_core::DevicePtr::encode(layout::GLOBAL_BASE + 0x20000, 256, &cfg).unwrap().raw();
        let mut b = ProgramBuilder::new("fp");
        b.push(Instruction::ldc(Reg(4), abi::LAUNCH_BANK, abi::param_offset(0), 8));
        b.push(Instruction::iadd64(Reg(4), Reg(4), 4096).with_hints(HintBits::check_operand(0)));
        b.push(Instruction::exit());
        let launch = Launch::new(b.build()).grid(1).block(1).param(buf);
        let mut gpu = Gpu::new(GpuConfig::security());
        let stats = gpu.run(&launch, &mut LmiMechanism::default_config());
        assert!(!stats.violated(), "delayed termination: no access, no fault");
        assert_eq!(stats.poisoned, 1, "the pointer was still poisoned");
    }

    #[test]
    fn a_poison_never_outlives_its_run() {
        // Run 1 poisons every lane's pointer and exits without a
        // dereference; run 2, on the same SM/warp/lanes, faults on a
        // pointer the host invalidated. The poison died with run 1's
        // registers, so run 2's faults have no provenance — a sink shared
        // across runs must not change that.
        let cfg = PtrConfig::default();
        let addr = layout::GLOBAL_BASE + 0x28000;
        let buf = lmi_core::DevicePtr::encode(addr, 256, &cfg).unwrap().raw();
        let mut b = ProgramBuilder::new("poison");
        b.push(Instruction::ldc(Reg(4), abi::LAUNCH_BANK, abi::param_offset(0), 8));
        b.push(Instruction::iadd64(Reg(4), Reg(4), 256).with_hints(HintBits::check_operand(0)));
        b.push(Instruction::exit());
        let poison = Launch::new(b.build()).grid(1).block(32).param(buf);
        let mut b = ProgramBuilder::new("stale");
        b.push(Instruction::ldc(Reg(4), abi::LAUNCH_BANK, abi::param_offset(0), 8));
        b.push(Instruction::ldg(Reg(6), MemRef::new(Reg(4), 0, 4)));
        b.push(Instruction::exit());
        let stale =
            Launch::new(b.build()).grid(1).block(32).param(lmi_core::invalidate_extent(buf));

        let second_run = |shared_sink: bool| {
            let mut gpu = Gpu::new(GpuConfig::small());
            let mut sink = TelemetrySink::counters_only();
            let first = gpu.try_run(&poison, &mut LmiMechanism::default_config(), &mut sink);
            assert_eq!(first.unwrap().poisoned, 32);
            if !shared_sink {
                sink = TelemetrySink::counters_only();
            }
            gpu.try_run(&stale, &mut LmiMechanism::default_config(), &mut sink).unwrap()
        };
        let shared = second_run(true);
        assert_eq!(shared.violations.len(), 32, "every lane dereferences the stale pointer");
        assert!(shared.forensics.is_empty(), "run 1's poisons are not run 2's provenance");
        assert_eq!(shared, second_run(false));
    }

    #[test]
    fn barrier_synchronizes_a_block() {
        let mut b = ProgramBuilder::new("bar");
        b.push(Instruction::bar());
        b.push(Instruction::exit());
        let launch = Launch::new(b.build()).grid(2).block(128);
        let mut gpu = Gpu::new(GpuConfig::small());
        let stats = gpu.run(&launch, &mut NullMechanism);
        assert!(stats.cycles > 0, "barriers release and the kernel finishes");
    }

    #[test]
    fn lmi_overhead_on_pointer_light_kernel_is_negligible() {
        // A compute-heavy kernel with one marked pointer op per loop.
        fn build() -> lmi_isa::Program {
            let mut b = ProgramBuilder::new("compute");
            b.push(Instruction::mov(Reg(2), 0));
            b.push(Instruction::ldc(Reg(4), abi::LAUNCH_BANK, abi::param_offset(0), 8));
            let top = b.label();
            for _ in 0..8 {
                b.push(Instruction::ffma(Reg(8), Reg(8), Reg(9), Reg(10)));
            }
            b.push(Instruction::iadd64(Reg(4), Reg(4), 4).with_hints(HintBits::check_operand(0)));
            b.push(Instruction::iadd3(Reg(2), Reg(2), 1));
            b.push(Instruction::isetp(PredReg(0), Reg(2), CmpOp::Lt, 32));
            b.branch_if(top, PredReg(0), false);
            b.push(Instruction::exit());
            b.build()
        }
        let cfg = PtrConfig::default();
        let buf =
            lmi_core::DevicePtr::encode(layout::GLOBAL_BASE + 0x30000, 4096, &cfg).unwrap().raw();
        let launch = Launch::new(build()).grid(8).block(128).param(buf);
        let mut base_gpu = Gpu::new(GpuConfig::small());
        let base = base_gpu.run(&launch, &mut NullMechanism);
        let mut lmi_gpu = Gpu::new(GpuConfig::small());
        let lmi = lmi_gpu.run(&launch, &mut LmiMechanism::default_config());
        let overhead = lmi.cycles as f64 / base.cycles as f64 - 1.0;
        assert!(overhead < 0.05, "LMI overhead should be small, got {overhead}");
    }

    /// A loop issuing the LDG (pc 2) four times per warp, then the STG
    /// (pc 6) and the `EXIT` (pc 7) once: 20 issues per warp. Uniform
    /// per-pc attribution would claim 2.5 issues at each memory pc.
    fn loop_kernel() -> lmi_isa::Program {
        let mut b = ProgramBuilder::new("loopy");
        b.push(Instruction::ldc(Reg(4), abi::LAUNCH_BANK, abi::param_offset(0), 8));
        b.push(Instruction::mov(Reg(2), 0));
        let top = b.label();
        b.push(Instruction::ldg(Reg(8), MemRef::new(Reg(4), 0, 4)));
        b.push(Instruction::iadd3(Reg(2), Reg(2), 1));
        b.push(Instruction::isetp(PredReg(0), Reg(2), CmpOp::Lt, 4));
        b.branch_if(top, PredReg(0), false);
        b.push(Instruction::stg(MemRef::new(Reg(4), 0, 4), Reg(8)));
        b.push(Instruction::exit());
        b.build()
    }

    /// Runs `launch` with the sampling profiler taking a census every cycle.
    fn censused(launch: &Launch) -> SimStats {
        let mut gpu = Gpu::new(GpuConfig::small().with_sample_period(1));
        gpu.run(launch, &mut NullMechanism)
    }

    #[test]
    fn period_one_profile_counts_every_issue() {
        // The retiring EXIT and a parking BAR are applied in phase A before
        // the sample is taken; they must still count as issues.
        let mut b = ProgramBuilder::new("bar");
        b.push(Instruction::bar());
        b.push(Instruction::exit());
        let barrier = b.build();
        for (program, block) in [(loop_kernel(), 64), (barrier, 128)] {
            for grid in [1, 3] {
                let launch =
                    Launch::new(program.clone()).grid(grid).block(block).param(layout::GLOBAL_BASE);
                let stats = censused(&launch);
                let label = format!("{} on {grid} block(s)", program.name);
                assert_eq!(stats.profile.pcs().total(), stats.issued, "{label}: hot-PC census");
                let issued = stats.profile.states()[lmi_telemetry::WarpState::Issued.index()];
                assert_eq!(issued, stats.issued, "{label}: issued warp states");
            }
        }
    }

    #[test]
    fn period_one_profile_attributes_loop_issues_exactly() {
        let launch = Launch::new(loop_kernel()).grid(3).block(64).param(layout::GLOBAL_BASE);
        let warps = 3 * 2;
        let pcs = censused(&launch).profile.pcs();
        assert_eq!(pcs.get(2), 4 * warps, "LDG issues 4x per warp");
        assert_eq!(pcs.get(6), warps, "STG issues once per warp");
        assert_eq!(pcs.get(7), warps, "each warp's retiring EXIT");
    }

    #[test]
    fn period_one_profile_attributes_divergent_issues_exactly() {
        // if (tid < 16) store at `then_stg` else store at `else_stg`: each
        // store pc issues exactly once per warp, with a partial mask.
        let mut b = ProgramBuilder::new("divergent");
        b.push(Instruction::s2r(Reg(0), lmi_isa::op::SpecialReg::TidX));
        b.push(Instruction::ldc(Reg(4), abi::LAUNCH_BANK, abi::param_offset(0), 8));
        b.push(Instruction::lea64(Reg(6), Reg(4), Reg(0), 2));
        b.push(Instruction::isetp(PredReg(0), Reg(0), CmpOp::Lt, 16));
        let taken = b.forward_branch_if(PredReg(0), false);
        let else_stg = 5;
        b.push(Instruction::stg(MemRef::new(Reg(6), 0, 4), Reg(0)));
        b.push(Instruction::exit());
        b.bind(taken);
        let then_stg = 7;
        b.push(Instruction::stg(MemRef::new(Reg(6), 0, 4), Reg(0)));
        b.push(Instruction::exit());
        // Two one-warp blocks, so both warps diverge.
        let launch = Launch::new(b.build()).grid(2).block(32).param(layout::GLOBAL_BASE);
        let stats = censused(&launch);
        let pcs = stats.profile.pcs();
        assert_eq!(pcs.get(else_stg), 2, "else-STG once per warp");
        assert_eq!(pcs.get(then_stg), 2, "then-STG once per warp");
        assert_eq!(pcs.get(else_stg) + pcs.get(then_stg), stats.mem_total());
    }

    #[test]
    fn rejected_cohorts_leave_the_gpu_untouched() {
        let ok = Launch::new(loop_kernel()).grid(2).block(64).param(layout::GLOBAL_BASE);
        let mut corrupt = Launch::new(loop_kernel()).grid(2).block(64).param(layout::GLOBAL_BASE);
        corrupt.program.instructions[4].srcs[2] = lmi_isa::Operand::Imm(99);
        let mut gpu = Gpu::new(GpuConfig::small());
        // Warm caches, DRAM counters and the heap, so "untouched" is not
        // the trivial all-zero state.
        gpu.run(
            &Launch::new(malloc_kernel()).grid(2).block(64),
            &mut LmiMechanism::default_config(),
        );
        assert!(gpu.heap().stats().live > 0);
        let n = gpu.config().num_sms;
        let bad = |start, end| LaunchError::BadPartition { start, end, num_sms: n };
        let cases = [
            ("empty partition", vec![(1..1, &ok)], bad(1, 1)),
            ("partition past the last SM", vec![(0..n + 1, &ok)], bad(0, n + 1)),
            ("overlapping partitions", vec![(0..2, &ok), (1..3, &ok)], bad(1, 3)),
            (
                "corrupt microcode in the second job",
                vec![(0..2, &ok), (2..4, &corrupt)],
                LaunchError::Decode(lmi_isa::DecodeError::BadCmpImmediate { pc: 4, value: 99 }),
            ),
        ];
        let regions = [(layout::GLOBAL_BASE, 4096), (layout::HEAP_BASE, 4096)];
        let image = |gpu: &Gpu| {
            let l1: Vec<CacheStats> = (0..n).map(|sm| gpu.l1_stats(sm)).collect();
            let heap = gpu.heap().stats();
            (gpu.snapshot(&regions), l1, gpu.l2_stats(), gpu.dram_transactions(), heap)
        };
        for (label, jobs, want) in cases {
            let before = image(&gpu);
            let mut mechs = vec![NullMechanism; jobs.len()];
            let mut cohort: Vec<ResidentKernel> = jobs
                .iter()
                .zip(&mut mechs)
                .map(|((partition, launch), mechanism)| ResidentKernel {
                    launch,
                    mechanism,
                    heap: None,
                    partition: partition.clone(),
                    start_offset: 0,
                })
                .collect();
            let mut sink = TelemetrySink::counters_only();
            let err = gpu.run_resident(&mut cohort, &mut sink).unwrap_err();
            assert_eq!(err, want, "{label}");
            assert!(image(&gpu) == before, "{label}: the GPU changed");
            assert!(sink.counters.is_empty(), "{label}: counters were emitted");
        }
    }
}
