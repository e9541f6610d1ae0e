//! Allocation audit of the steady-state cycle loop.
//!
//! The hot-path contract (DESIGN.md, *Hot path & allocation discipline*):
//! after warm-up, the cycle loop performs **zero heap allocations per
//! cycle**. Every allocation belongs to launch-time setup — program
//! lowering into a [`lmi_isa::DecodedStream`], warp tables, issue slots,
//! queue and line-scratch warm-up — never to steady state.
//!
//! The audit installs a counting `#[global_allocator]` and runs the same
//! seeded multi-SM workload at `N` and `2N` loop iterations on fresh GPUs,
//! under each hardware mechanism (none, LMI, GPUShield) at four engine
//! points. Doubling the simulated cycle count must leave the total
//! allocation count **exactly equal**: any per-cycle allocation would show
//! up as a difference proportional to the extra cycles. A warm-up run
//! first absorbs one-time lazy process state so it cannot skew the
//! comparison. The audit runs three times, once per [`Leg`]: through
//! `Gpu::run` (telemetry disabled); through `Gpu::try_run` with a
//! `TelemetrySink::counters_only()` sink — the configuration every
//! `lmi-runtime` session runs; and through `Gpu::run` with the sampling
//! profiler on (`with_sample_period(64)`). Each SM counts its own issue
//! events and absorbs its own samples into its profile in place, and the
//! run folds them into the stats and the registry once, after the cycle
//! loop, so the counts must still be equal.
//!
//! The allocator counts process-wide, so this target has no test harness
//! (`harness = false` in the root `Cargo.toml`): `main` runs every audit on
//! the main thread, and the only other threads in the process are the
//! engine's own workers, which belong to the measured run. Arguments
//! (test-name filters and the like) are ignored.

use lmi_baselines::MechanismKind;
use lmi_bench::alloc_audit::CountingAlloc;
use lmi_core::{DevicePtr, PtrConfig};
use lmi_isa::instr::CmpOp;
use lmi_isa::{abi, HintBits, Instruction, MemRef, PredReg, ProgramBuilder, Reg};
use lmi_mem::layout;
use lmi_sim::{Gpu, GpuConfig, Launch, SimStats};
use lmi_telemetry::TelemetrySink;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// The kernel-argument buffer every lane stores to and reloads from.
const BUFFER: u64 = layout::GLOBAL_BASE + 0x4_0000;
const BUFFER_BYTES: u64 = 256;

/// A heap-quiet looping kernel that exercises every deferred payload path:
/// kernel malloc (a heap column, outside the loop), loads and stores
/// through extent-carrying heap and argument-buffer pointers (address
/// columns, lane atoms, coalesced lines and GPUShield's RCache), a marked
/// pointer add checked by the OCU (input and result columns), and
/// predicate/branch control flow — `iters` round trips per lane.
fn audit_launch(iters: i32) -> Launch {
    let mut b = ProgramBuilder::new("alloc-audit");
    b.push(Instruction::s2r(Reg(0), lmi_isa::op::SpecialReg::TidX));
    b.push(Instruction::mov(Reg(1), 256));
    b.push(Instruction::malloc(Reg(4), Reg(1)));
    b.push(Instruction::ldc(Reg(10), abi::LAUNCH_BANK, abi::param_offset(0), 8));
    b.push(Instruction::lea64(Reg(12), Reg(10), Reg(0), 2));
    b.push(Instruction::mov(Reg(2), 0));
    let top = b.label();
    b.push(Instruction::iadd3(Reg(2), Reg(2), 1));
    b.push(Instruction::stg(MemRef::new(Reg(4), 0, 4), Reg(2)));
    b.push(Instruction::ldg(Reg(8), MemRef::new(Reg(4), 0, 4)));
    b.push(Instruction::stg(MemRef::new(Reg(12), 0, 4), Reg(2)));
    b.push(Instruction::ldg(Reg(9), MemRef::new(Reg(12), 0, 4)));
    // Marked pointer arithmetic: the OCU checks operand 0 each trip.
    b.push(Instruction::iadd64(Reg(4), Reg(4), 0).with_hints(HintBits::check_operand(0)));
    b.push(Instruction::isetp(PredReg(0), Reg(2), CmpOp::Lt, iters));
    b.branch_if(top, PredReg(0), false);
    b.push(Instruction::exit());
    // Every SM of `GpuConfig::small()` holds two blocks: multi-SM, with
    // intra-SM scheduler contention.
    let buffer = DevicePtr::encode(BUFFER, BUFFER_BYTES, &PtrConfig::default()).unwrap();
    Launch::new(b.build()).grid(16).block(64).param(buffer.raw())
}

/// How an audited run is driven.
#[derive(Clone, Copy)]
enum Leg {
    /// `Gpu::run`: telemetry disabled.
    Plain,
    /// `Gpu::try_run` into a fresh counters-only sink.
    Counters,
    /// `Gpu::run` with the sampling profiler taking a census every 64
    /// cycles.
    Sampled,
}

impl Leg {
    fn label(self) -> &'static str {
        match self {
            Leg::Plain => "counters off",
            Leg::Counters => "counters on",
            Leg::Sampled => "sampled",
        }
    }
}

/// Runs the audit kernel as `leg` drives it and returns `(heap
/// allocations, stats)`.
fn measured_run(
    kind: MechanismKind,
    threads: usize,
    banks: usize,
    iters: i32,
    leg: Leg,
) -> (u64, SimStats) {
    let mut cfg = GpuConfig::small().with_sim_threads(threads).with_mem_banks(banks);
    if let Leg::Sampled = leg {
        cfg = cfg.with_sample_period(64);
    }
    let mut gpu = Gpu::new(cfg);
    // A fresh mechanism, set up before the measured window.
    let mut mech = kind.instance(&[(BUFFER, BUFFER_BYTES)]);
    let launch = audit_launch(iters);
    let mut sink = TelemetrySink::counters_only();
    let before = CountingAlloc::allocations();
    let stats = match leg {
        Leg::Counters => {
            gpu.try_run(&launch, mech.as_mut(), &mut sink).expect("audit kernel launches")
        }
        Leg::Plain | Leg::Sampled => gpu.run(&launch, mech.as_mut()),
    };
    (CountingAlloc::allocations() - before, stats)
}

/// Asserts, under every mechanism and engine point, that doubling the
/// audit kernel's iterations leaves the total allocation count exactly
/// equal when the runs are driven as `leg`.
fn assert_cycle_loop_allocation_free(leg: Leg) {
    // A per-cycle allocation shows at any N (2N must add cycles, asserted
    // below), so N only trades wall time. Debug builds simulate about ten
    // times slower: at N = 100 the three unoptimized audits take about
    // 40 s on a 2-core host, and the release N would take several times
    // that.
    const N: i32 = if cfg!(debug_assertions) { 100 } else { 400 };
    // The banked configurations exercise the per-SM per-bank queues: their
    // capacity must survive every cycle like the line scratch's, so
    // sharding adds launch-time allocations only, never per-cycle ones.
    for (kind, threads, banks) in
        [MechanismKind::Null, MechanismKind::Lmi, MechanismKind::GpuShield]
            .into_iter()
            .flat_map(|m| [(m, 1, 1), (m, 2, 1), (m, 1, 4), (m, 2, 4)])
    {
        let mech = kind.label();
        // Warm-up: absorbs lazy process-wide state (thread stacks, TLS,
        // allocator internals) so the measured pair sees identical setup.
        // One trip reaches every code path; state it left lazy would make
        // the pair unequal, never equal.
        let _ = measured_run(kind, threads, banks, 1, leg);

        let (allocs_n, stats_n) = measured_run(kind, threads, banks, N, leg);
        let (allocs_2n, stats_2n) = measured_run(kind, threads, banks, 2 * N, leg);

        assert!(
            !stats_n.violated() && !stats_2n.violated(),
            "audit kernel is violation-free under {mech}"
        );
        assert!(
            stats_2n.cycles > stats_n.cycles + u64::try_from(N).unwrap(),
            "doubling iterations must add cycles ({} vs {})",
            stats_n.cycles,
            stats_2n.cycles,
        );
        if let Leg::Sampled = leg {
            assert!(
                stats_2n.profile.samples() > stats_n.profile.samples(),
                "the sampled leg must take samples in the extra cycles"
            );
        }
        assert_eq!(
            allocs_n,
            allocs_2n,
            "heap allocations grew with cycle count under {mech} at sim_threads={threads} \
             mem_banks={banks} ({}): {allocs_n} for {N} iterations vs {allocs_2n} for {} — \
             the cycle loop allocated in steady state",
            leg.label(),
            2 * N,
        );
    }
    println!("alloc audit ({}): ok", leg.label());
}

fn main() {
    for leg in [Leg::Plain, Leg::Counters, Leg::Sampled] {
        assert_cycle_loop_allocation_free(leg);
    }
}
