//! Determinism of the parallel engine (`lmi-sim::engine`).
//!
//! The contract under test: for any workload, any mechanism, any
//! `sim_threads` setting, and any `mem_banks` setting, a run produces
//! **bit-identical** results — the full `SimStats` record (cycles, per-SM
//! L1 deltas, L2, MSHR, DRAM, violations, forensics), every scoped
//! telemetry counter, the trace-event ring in arrival order, and the
//! functional memory image. Thread count and bank count may only change
//! wall-clock time. The bank-conflict suite additionally pins the
//! per-bank L2/DRAM breakdown (it must re-aggregate to the run totals and
//! be identical across thread counts at a fixed bank count).

use lmi_alloc::AlignmentPolicy;
use lmi_baselines::{GpuShield, MechanismKind};
use lmi_compiler::ir::FunctionBuilder;
use lmi_compiler::{compile, CompileOptions};
use lmi_core::PtrConfig;
use lmi_isa::{abi, HintBits, Instruction, MemRef, ProgramBuilder, Reg};
use lmi_mem::layout;
use lmi_runtime::{Runtime, RuntimeReport};
use lmi_sim::{
    Gpu, GpuConfig, IntCheck, Launch, LmiMechanism, Mechanism, MemAccessCtx, MemCheck,
    NullMechanism, SimStats, StallBreakdown,
};
use lmi_telemetry::{Scope, SplitMix64, TelemetrySink, TraceRecord};
use lmi_workloads::{all_workloads, prepare, prepare_in, runtime_mixes, TrafficMix, WorkloadSpec};

/// Everything observable about one run.
#[derive(Debug, PartialEq)]
struct RunImage {
    stats: SimStats,
    counters: Vec<(Scope, &'static str, u64)>,
    traces: Vec<TraceRecord>,
    memory_probe: Vec<u64>,
}

/// Runs `launch` at `threads` worker threads with full telemetry and
/// snapshots every observable output. `probe` lists addresses whose final
/// functional-memory words are captured.
fn run_at(
    cfg: GpuConfig,
    threads: usize,
    launch: &Launch,
    mechanism: &mut dyn Mechanism,
    probe: &[u64],
) -> RunImage {
    let mut gpu = Gpu::new(cfg.with_sim_threads(threads));
    let mut sink = TelemetrySink::with_trace_capacity(1 << 14);
    let stats = gpu.try_run(launch, mechanism, &mut sink).unwrap();
    RunImage {
        stats,
        counters: sink.counters.iter().collect(),
        traces: sink.tracer.records().cloned().collect(),
        memory_probe: probe.iter().map(|&a| gpu.memory.read(a, 8)).collect(),
    }
}

/// Asserts that `threads` ∈ {2, 8, …} reproduce the serial image exactly.
fn assert_thread_invariant(
    cfg: GpuConfig,
    launch: &Launch,
    mut mech: impl FnMut() -> Box<dyn Mechanism>,
    probe: &[u64],
    label: &str,
) {
    let serial = run_at(cfg, 1, launch, mech().as_mut(), probe);
    assert!(serial.stats.cycles > 0, "{label}: kernel ran");
    for threads in [2, 8] {
        let parallel = run_at(cfg, threads, launch, mech().as_mut(), probe);
        assert_eq!(serial.stats, parallel.stats, "{label}: SimStats diverged at {threads} threads");
        assert_eq!(
            serial.counters, parallel.counters,
            "{label}: telemetry counters diverged at {threads} threads"
        );
        assert_eq!(
            serial.traces, parallel.traces,
            "{label}: trace ring diverged at {threads} threads"
        );
        assert_eq!(
            serial.memory_probe, parallel.memory_probe,
            "{label}: functional memory diverged at {threads} threads"
        );
    }
}

fn workload(name: &str) -> WorkloadSpec {
    all_workloads().into_iter().find(|w| w.name == name).unwrap()
}

/// Per-bank `(l2_hits, l2_misses, dram_transactions)` breakdown.
type BankBreakdown = Vec<(u64, u64, u64)>;

/// Runs `launch` with an explicit bank count and full telemetry, asserts
/// that the per-bank L2/DRAM statistics re-aggregate exactly to the run
/// totals, and returns the observable image plus the breakdown.
fn run_banked_at(
    cfg: GpuConfig,
    threads: usize,
    banks: usize,
    launch: &Launch,
    mechanism: &mut dyn Mechanism,
    probe: &[u64],
) -> (RunImage, BankBreakdown) {
    let sink = TelemetrySink::with_trace_capacity(1 << 14);
    run_banked_into(sink, cfg, threads, banks, launch, mechanism, probe)
}

/// [`run_banked_at`] into `sink`.
fn run_banked_into(
    mut sink: TelemetrySink,
    cfg: GpuConfig,
    threads: usize,
    banks: usize,
    launch: &Launch,
    mechanism: &mut dyn Mechanism,
    probe: &[u64],
) -> (RunImage, BankBreakdown) {
    let mut gpu = Gpu::new(cfg.with_sim_threads(threads).with_mem_banks(banks));
    assert_eq!(gpu.mem_banks(), banks, "geometry must support {banks} banks");
    let stats = gpu.try_run(launch, mechanism, &mut sink).unwrap();
    let per_bank: BankBreakdown = gpu
        .l2_stats_per_bank()
        .iter()
        .zip(gpu.dram_transactions_per_bank())
        .map(|(l2, dram)| (l2.hits, l2.misses, dram))
        .collect();
    assert_eq!(per_bank.len(), banks);
    let l2_hits: u64 = per_bank.iter().map(|b| b.0).sum();
    let l2_misses: u64 = per_bank.iter().map(|b| b.1).sum();
    let dram: u64 = per_bank.iter().map(|b| b.2).sum();
    // Fresh GPU per run, so the run delta IS the lifetime total.
    assert_eq!((stats.l2.hits, stats.l2.misses), (l2_hits, l2_misses), "L2 re-aggregation");
    assert_eq!(stats.dram_transactions, dram, "DRAM re-aggregation");
    let image = RunImage {
        stats,
        counters: sink.counters.iter().collect(),
        traces: sink.tracer.records().cloned().collect(),
        memory_probe: probe.iter().map(|&a| gpu.memory.read(a, 8)).collect(),
    };
    (image, per_bank)
}

/// Asserts that every cell of `sim_threads` ∈ {1, 2, 8} × `mem_banks` ∈
/// {1, 4} reproduces the serial monolithic image exactly, and that the
/// per-bank breakdown at 4 banks is itself thread-count invariant.
fn assert_bank_invariant(
    cfg: GpuConfig,
    launch: &Launch,
    mut mech: impl FnMut() -> Box<dyn Mechanism>,
    probe: &[u64],
    label: &str,
) {
    let (baseline, _) = run_banked_at(cfg, 1, 1, launch, mech().as_mut(), probe);
    assert!(baseline.stats.cycles > 0, "{label}: kernel ran");
    let mut breakdown4: Option<BankBreakdown> = None;
    for threads in [1, 2, 8] {
        for banks in [1, 4] {
            if (threads, banks) == (1, 1) {
                continue;
            }
            let (image, per_bank) =
                run_banked_at(cfg, threads, banks, launch, mech().as_mut(), probe);
            let cell = format!("{label}: {threads} threads x {banks} banks");
            assert_eq!(baseline.stats, image.stats, "{cell}: SimStats diverged");
            assert_eq!(baseline.counters, image.counters, "{cell}: counters diverged");
            assert_eq!(baseline.traces, image.traces, "{cell}: trace ring diverged");
            assert_eq!(baseline.memory_probe, image.memory_probe, "{cell}: memory diverged");
            if banks == 4 {
                match &breakdown4 {
                    None => breakdown4 = Some(per_bank),
                    Some(expect) => assert_eq!(
                        expect, &per_bank,
                        "{cell}: per-bank breakdown diverged across thread counts"
                    ),
                }
            }
        }
    }
}

#[test]
fn seeded_workloads_are_bit_identical_across_thread_counts() {
    // Four contrasting profiles — compute-heavy, barrier/wavefront,
    // pointer-op-dense and uncoalesced-memory-heavy — under every hardware
    // mechanism, at every thread × bank cell.
    for name in ["hotspot", "needle", "gaussian", "bfs"] {
        let spec = workload(name).scaled_down(4);
        for kind in [MechanismKind::Null, MechanismKind::Lmi, MechanismKind::GpuShield] {
            let prepared = prepare(&spec, kind.policy());
            let probe: Vec<u64> = prepared.buffers.iter().map(|&(base, _)| base).collect();
            assert_bank_invariant(
                GpuConfig::small(),
                &prepared.launch,
                || kind.instance(&prepared.buffers),
                &probe,
                &format!("{name}/{}", kind.label()),
            );
        }
    }
}

#[test]
fn null_mechanism_runs_are_bit_identical_across_thread_counts() {
    let spec = workload("backprop").scaled_down(4);
    let prepared = prepare(&spec, AlignmentPolicy::CudaDefault);
    assert_thread_invariant(
        GpuConfig::small(),
        &prepared.launch,
        || Box::new(NullMechanism),
        &[],
        "backprop/null",
    );
}

#[test]
fn violation_forensics_are_bit_identical_across_thread_counts() {
    // Every warp escapes its buffer (marked pointer bump past the extent),
    // so poisons, faults, forensics records and halted warps occur on
    // several SMs at once — the shared-state-heaviest path the engine has.
    let cfg_ptr = PtrConfig::default();
    let buf =
        lmi_core::DevicePtr::encode(layout::GLOBAL_BASE + 0x10000, 256, &cfg_ptr).unwrap().raw();
    let mut b = ProgramBuilder::new("oob-wide");
    b.push(Instruction::ldc(Reg(4), abi::LAUNCH_BANK, abi::param_offset(0), 8));
    b.push(Instruction::iadd64(Reg(4), Reg(4), 4096).with_hints(HintBits::check_operand(0)));
    b.push(Instruction::mov(Reg(0), 1));
    b.push(Instruction::stg(MemRef::new(Reg(4), 0, 4), Reg(0)));
    b.push(Instruction::exit());
    let launch = Launch::new(b.build()).grid(8).block(64).param(buf);

    let mut cfg = GpuConfig::small();
    cfg.halt_on_violation = true;
    assert_thread_invariant(
        cfg,
        &launch,
        || Box::new(LmiMechanism::default_config()),
        &[layout::GLOBAL_BASE + 0x10000 + 4096],
        "oob-wide",
    );

    // Sanity that the scenario really exercised the forensic machinery.
    let mut mech = LmiMechanism::default_config();
    let image = run_at(cfg, 8, &launch, &mut mech, &[]);
    assert!(image.stats.violated());
    assert!(!image.stats.forensics.is_empty());
    assert_eq!(image.memory_probe.len(), 0);
}

#[test]
fn kernel_malloc_runs_are_bit_identical_across_thread_counts() {
    // Device-side malloc serializes through the shared heap: allocation
    // order (and thus returned pointers) must not depend on threads.
    let mut b = ProgramBuilder::new("heap");
    b.push(Instruction::mov(Reg(1), 96));
    b.push(Instruction::malloc(Reg(4), Reg(1)));
    b.push(Instruction::stg(MemRef::new(Reg(4), 0, 8), Reg(4)));
    b.push(Instruction::exit());
    let launch = Launch::new(b.build()).grid(6).block(64);
    assert_thread_invariant(
        GpuConfig::small(),
        &launch,
        || Box::new(LmiMechanism::default_config()),
        &[],
        "heap",
    );
}

// ---------------------------------------------------------------------------
// Adversarial bank-conflict suite: workloads built to maximize cross-SM
// traffic into the *same* lines and banks, where any ordering leak between
// bank workers would surface immediately.

#[test]
fn cross_sm_same_line_stores_are_bank_invariant() {
    // Every SM's every warp stores to (and reloads from) the SAME two
    // cache lines: all eight SMs funnel their fills and byte movement into
    // the same banks in the same cycles, and overlapping same-address
    // stores from different SMs must resolve in canonical order for the
    // final memory image to be stable.
    let base = layout::GLOBAL_BASE + 0x80000;
    let mut b = ProgramBuilder::new("line-storm");
    b.push(Instruction::s2r(Reg(0), lmi_isa::op::SpecialReg::TidX));
    b.push(Instruction::ldc(Reg(4), abi::LAUNCH_BANK, abi::param_offset(0), 8));
    b.push(Instruction::lea64(Reg(6), Reg(4), Reg(0), 2));
    b.push(Instruction::stg(MemRef::new(Reg(6), 0, 4), Reg(0)));
    b.push(Instruction::ldg(Reg(8), MemRef::new(Reg(6), 0, 4)));
    b.push(Instruction::stg(MemRef::new(Reg(4), 0, 4), Reg(8)));
    b.push(Instruction::exit());
    // Same param base for every block: no per-block offset, maximal overlap.
    let launch = Launch::new(b.build()).grid(16).block(64).param(base);
    let probe: Vec<u64> = (0..8).map(|i| base + i * 8).collect();
    assert_bank_invariant(
        GpuConfig::small(),
        &launch,
        || Box::new(NullMechanism),
        &probe,
        "line-storm",
    );
}

#[test]
fn mshr_merges_spanning_sms_are_bank_invariant() {
    // Every SM's warp scatters its 32 lanes over 32 lines that all map to
    // the same L2 set: 192 KiB stride = 1536 lines, which preserves the
    // set index under BOTH geometries (1536 sets monolithic, 384 per bank
    // at 4 banks) and the owning bank. The 24-way set can't hold 32 lines,
    // so each SM's op evicts the earliest lines while their DRAM fills are
    // still in flight — the NEXT SM's access to an evicted line L2-misses
    // and merges with the in-flight fill. The merge bookkeeping lives
    // inside one bank and must not depend on which worker applies it.
    let base = layout::GLOBAL_BASE + 0x90000;
    let mut b = ProgramBuilder::new("merge-storm");
    b.push(Instruction::s2r(Reg(0), lmi_isa::op::SpecialReg::TidX));
    b.push(Instruction::ldc(Reg(4), abi::LAUNCH_BANK, abi::param_offset(0), 8));
    b.push(Instruction::lea64(Reg(6), Reg(4), Reg(0), 17));
    b.push(Instruction::lea64(Reg(6), Reg(6), Reg(0), 16));
    b.push(Instruction::ldg(Reg(8), MemRef::new(Reg(6), 0, 4)));
    b.push(Instruction::exit());
    let launch = Launch::new(b.build()).grid(8).block(32).param(base);
    for banks in [1, 4] {
        let (image, _) =
            run_banked_at(GpuConfig::small(), 8, banks, &launch, &mut NullMechanism, &[]);
        assert!(
            image.stats.mshr_merges > 0,
            "the scenario really exercised the MSHRs at {banks} banks"
        );
    }
    assert_bank_invariant(
        GpuConfig::small(),
        &launch,
        || Box::new(NullMechanism),
        &[base],
        "merge-storm",
    );
}

#[test]
fn line_straddling_accesses_are_bank_invariant() {
    // Each thread stores and reloads 8 bytes at line_offset 124 of its own
    // line: every access straddles a 128-byte line boundary, so with 4
    // banks the two halves of one access live in *different* banks and the
    // load's value is OR-assembled from two bank workers.
    let base = layout::GLOBAL_BASE + 0xA0000;
    let mut b = ProgramBuilder::new("straddle");
    b.push(Instruction::s2r(Reg(0), lmi_isa::op::SpecialReg::TidX));
    b.push(Instruction::ldc(Reg(4), abi::LAUNCH_BANK, abi::param_offset(0), 8));
    b.push(Instruction::lea64(Reg(6), Reg(4), Reg(0), 7));
    b.push(Instruction::stg(MemRef::new(Reg(6), 124, 8), Reg(6)));
    b.push(Instruction::ldg(Reg(8), MemRef::new(Reg(6), 124, 8)));
    b.push(Instruction::stg(MemRef::new(Reg(6), 0, 8), Reg(8)));
    b.push(Instruction::exit());
    let launch = Launch::new(b.build()).grid(8).block(32).param(base);
    let probe: Vec<u64> = (0..32).map(|t| base + t * 128 + 124).collect();
    assert_bank_invariant(
        GpuConfig::small(),
        &launch,
        || Box::new(NullMechanism),
        &probe,
        "straddle",
    );
}

#[test]
fn violation_storms_are_bank_invariant() {
    // Every warp faults under halt-on-violation: the cancelled ops'
    // bank-queue entries must be skipped identically everywhere, and the
    // poison/fault forensics stay leader-serial and canonical.
    let cfg_ptr = PtrConfig::default();
    let buf =
        lmi_core::DevicePtr::encode(layout::GLOBAL_BASE + 0xB0000, 256, &cfg_ptr).unwrap().raw();
    let mut b = ProgramBuilder::new("violation-storm");
    b.push(Instruction::ldc(Reg(4), abi::LAUNCH_BANK, abi::param_offset(0), 8));
    b.push(Instruction::iadd64(Reg(4), Reg(4), 4096).with_hints(HintBits::check_operand(0)));
    b.push(Instruction::mov(Reg(0), 1));
    b.push(Instruction::stg(MemRef::new(Reg(4), 0, 4), Reg(0)));
    b.push(Instruction::exit());
    let launch = Launch::new(b.build()).grid(16).block(64).param(buf);
    let mut cfg = GpuConfig::small();
    cfg.halt_on_violation = true;
    assert_bank_invariant(
        cfg,
        &launch,
        || Box::new(LmiMechanism::default_config()),
        &[layout::GLOBAL_BASE + 0xB0000 + 4096],
        "violation-storm",
    );
    // The cancelled stores must not have landed at any bank count.
    let (image, _) = run_banked_at(
        cfg,
        8,
        4,
        &launch,
        &mut LmiMechanism::default_config(),
        &[layout::GLOBAL_BASE + 0xB0000 + 4096],
    );
    assert!(image.stats.violated());
    assert_eq!(image.memory_probe[0], 0, "halted OOB store leaked to memory");
}

#[test]
fn metadata_fetch_storms_are_bank_invariant() {
    // GPUShield with a zero-entry RCache fetches an in-memory bounds entry
    // on EVERY global access: the metadata pass carries real traffic each
    // cycle, and the data fills are gated on metadata completions published
    // by (possibly) other banks' workers.
    let base = layout::GLOBAL_BASE + 0xC0000;
    let mut b = ProgramBuilder::new("meta-storm");
    b.push(Instruction::s2r(Reg(0), lmi_isa::op::SpecialReg::TidX));
    b.push(Instruction::ldc(Reg(4), abi::LAUNCH_BANK, abi::param_offset(0), 8));
    b.push(Instruction::lea64(Reg(6), Reg(4), Reg(0), 2));
    b.push(Instruction::stg(MemRef::new(Reg(6), 0, 4), Reg(0)));
    b.push(Instruction::ldg(Reg(8), MemRef::new(Reg(6), 0, 4)));
    b.push(Instruction::exit());
    let launch = Launch::new(b.build()).grid(8).block(64).param(base);
    let mech = || {
        let mut gs = GpuShield::with_rcache_entries(0);
        gs.register_buffer(base, 64 * 4);
        Box::new(gs) as Box<dyn Mechanism>
    };
    assert_bank_invariant(GpuConfig::small(), &launch, mech, &[base], "meta-storm");
}

/// Implements only the per-lane hooks, like an out-of-tree wrapper (a
/// timing shim, say): it returns no [`lmi_sim::BitRules`], so the engine
/// decides every check on its leader, through the provided warp-form
/// loop, never through the wrapped mechanism's rules or overrides.
struct PerLaneOnly<M>(M);

impl<M: Mechanism> Mechanism for PerLaneOnly<M> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn on_marked_int(&mut self, input: u64, result: u64) -> IntCheck {
        self.0.on_marked_int(input, result)
    }

    fn marked_int_delay(&self) -> u32 {
        self.0.marked_int_delay()
    }

    fn on_mem_access(&mut self, ctx: &MemAccessCtx) -> MemCheck {
        self.0.on_mem_access(ctx)
    }

    fn nullifies_on_free(&self) -> bool {
        self.0.nullifies_on_free()
    }
}

/// Runs `launch` under a bare mechanism and under [`PerLaneOnly`] around
/// an identical one, at (1 thread, 1 bank) and (2 threads, 4 banks), with
/// full telemetry and with counters only: the run images (stats with
/// forensics, counters, traces) and the mechanisms' own `counters` must be
/// identical. The one exception is the leader's step count: a bare
/// mechanism's rules settle ops on their SMs, so untraced, its leader may
/// visit fewer slots than the wrapper's, never more. Traced, every slot
/// with an op is busy under both, and the counts agree too.
fn assert_per_lane_adapter_is_transparent<M: Mechanism>(
    cfg: GpuConfig,
    launch: &Launch,
    make: impl Fn() -> M,
    counters: impl Fn(&M) -> Vec<u64>,
    label: &str,
) {
    for (threads, banks) in [(1, 1), (2, 4)] {
        for traced in [true, false] {
            let sink = || match traced {
                true => TelemetrySink::with_trace_capacity(1 << 14),
                false => TelemetrySink::counters_only(),
            };
            let mut bare = make();
            let (mut bare_image, _) =
                run_banked_into(sink(), cfg, threads, banks, launch, &mut bare, &[]);
            let mut wrapped = PerLaneOnly(make());
            let (wrapped_image, _) =
                run_banked_into(sink(), cfg, threads, banks, launch, &mut wrapped, &[]);
            let cell = format!("{label}: {threads} threads x {banks} banks, traced {traced}");
            let steps = |image: &RunImage| image.stats.phase_b_serial_items;
            if traced {
                assert_eq!(steps(&bare_image), steps(&wrapped_image), "{cell}: leader steps");
            } else {
                assert!(steps(&bare_image) <= steps(&wrapped_image), "{cell}: leader steps");
                bare_image.stats.phase_b_serial_items = steps(&wrapped_image);
            }
            assert_eq!(bare_image, wrapped_image, "{cell}: the per-lane adapter changed the run");
            assert_eq!(
                counters(&bare),
                counters(&wrapped.0),
                "{cell}: mechanism counters diverged"
            );
        }
    }
}

#[test]
fn per_lane_only_wrappers_match_the_warp_forms() {
    // LMI: an out-of-bounds store (the higher lanes of each 48-thread
    // block step past a 32-byte allocation) and a use-after-free, so
    // poisons, faults and poison-to-fault forensics all occur.
    let mut b = FunctionBuilder::new("oob-uaf");
    let size = b.const_i32(32);
    let p = b.malloc(size);
    let tid = b.tid();
    let e = b.gep(p, tid, 16);
    b.store(e, tid, 4);
    b.free(p);
    let e2 = b.gep(p, tid, 4);
    b.store(e2, tid, 4);
    b.ret();
    let kernel = compile(&b.build(), CompileOptions::default()).unwrap();
    let launch = Launch::new(kernel.program).grid(8).block(48);
    assert_per_lane_adapter_is_transparent(
        GpuConfig::small(),
        &launch,
        LmiMechanism::default_config,
        |_| Vec::new(),
        "oob-uaf/lmi",
    );
    let mut mech = LmiMechanism::default_config();
    let image = run_at(GpuConfig::small(), 1, &launch, &mut mech, &[]);
    assert!(image.stats.poisoned > 0 && image.stats.violated(), "the kernel poisons and faults");
    assert!(!image.stats.forensics.is_empty(), "faults carry poison provenance");

    // Null and LMI on gaussian: pointer-op dense, so the bare mechanisms'
    // rules settle most marked ops and memory ops on their SMs.
    let spec = workload("gaussian").scaled_down(4);
    let prepared = prepare(&spec, AlignmentPolicy::CudaDefault);
    let launch = &prepared.launch;
    let small = GpuConfig::small();
    assert_per_lane_adapter_is_transparent(
        small,
        launch,
        || NullMechanism,
        |_| vec![],
        "gaussian/null",
    );
    // Without LSU overlap, LMI's OCU delay stalls the dependent accesses,
    // so the verdict cycle a settled marked op writes back is observable.
    let prepared = prepare(&spec, AlignmentPolicy::PowerOfTwo);
    let mut no_overlap = small;
    no_overlap.lsu_verdict_overlap = 0;
    for (cfg, label) in [(small, "gaussian/lmi"), (no_overlap, "gaussian/lmi/no-overlap")] {
        let lmi = LmiMechanism::default_config;
        assert_per_lane_adapter_is_transparent(cfg, &prepared.launch, lmi, |_| vec![], label);
    }

    // GPUShield: needle thrashes the per-warp RCaches.
    let prepared = prepare(&workload("needle").scaled_down(4), AlignmentPolicy::CudaDefault);
    let shield = || GpuShield::with_buffers(&prepared.buffers);
    let gs = |g: &GpuShield| vec![g.rcache_hits, g.rcache_misses];
    assert_per_lane_adapter_is_transparent(
        GpuConfig::small(),
        &prepared.launch,
        shield,
        gs,
        "needle/gpushield",
    );
}

/// Everything observable about one multi-stream runtime session.
#[derive(Debug, PartialEq)]
struct SessionImage {
    report: RuntimeReport,
    counters: Vec<(Scope, &'static str, u64)>,
    event_times: Vec<Option<u64>>,
    readbacks: Vec<Vec<u64>>,
}

/// Replays a [`TrafficMix`] through the async runtime at `threads` worker
/// threads: per stream an upload → kernel → readback pipeline plus a
/// completion event, then one synchronize.
fn run_mix_at(mix: &TrafficMix, threads: usize, banks: usize) -> SessionImage {
    let mut rt = Runtime::new(GpuConfig::small().with_sim_threads(threads).with_mem_banks(banks));
    let tenants: Vec<usize> =
        mix.tenants.iter().map(|&protected| rt.add_tenant(protected)).collect();
    let mut events = Vec::new();
    let mut handles = Vec::new();
    for (i, traffic) in mix.streams.iter().enumerate() {
        let spec = mix.spec_of(i);
        let tenant = tenants[traffic.tenant];
        let prepared = prepare_in(&spec, &mut rt.tenant_mut(tenant).allocator);
        let stream = rt.create_stream(tenant).unwrap();
        let buf = prepared.launch.params[0];
        let words: Vec<u64> = (0..traffic.h2d_words as u64).collect();
        rt.memcpy_h2d(stream, buf, &words).unwrap();
        rt.launch(stream, prepared.launch).unwrap();
        handles.push(rt.memcpy_d2h(stream, buf, traffic.d2h_bytes).unwrap());
        let ev = rt.create_event();
        rt.record_event(stream, ev).unwrap();
        events.push(ev);
    }
    rt.synchronize().unwrap();
    SessionImage {
        report: rt.report().clone(),
        counters: rt.counters().iter().collect(),
        event_times: events.iter().map(|&e| rt.event_time(e)).collect(),
        readbacks: handles.iter().map(|&h| rt.copy_result(h).unwrap().to_vec()).collect(),
    }
}

#[test]
fn concurrent_runtime_streams_are_bit_identical_across_thread_counts() {
    // The runtime layer extends the invariant to whole host programs:
    // concurrent multi-tenant streams must produce bit-identical per-kernel
    // SimStats, per-stream/per-tenant counters, event timestamps, and
    // readback payloads at any `sim_threads` and any `mem_banks` — the
    // tenants' 4 GiB global slices sit at wildly different addresses, but
    // line-granular interleaving spreads every slice across every bank.
    for mix in runtime_mixes() {
        let serial = run_mix_at(&mix, 1, 1);
        assert!(serial.report.total_cycles > 0, "{}: session ran", mix.name);
        assert!(
            serial.event_times.iter().all(Option::is_some),
            "{}: all completion events recorded",
            mix.name
        );
        for (threads, banks) in [(2, 1), (8, 1), (2, 4), (8, 4)] {
            let parallel = run_mix_at(&mix, threads, banks);
            let cell = format!("{}: {threads} threads x {banks} banks", mix.name);
            assert_eq!(serial.report, parallel.report, "{cell}: runtime report diverged");
            assert_eq!(
                serial.counters, parallel.counters,
                "{cell}: stream/tenant counters diverged"
            );
            assert_eq!(
                serial.event_times, parallel.event_times,
                "{cell}: event timestamps diverged"
            );
            assert_eq!(serial.readbacks, parallel.readbacks, "{cell}: D2H payloads diverged");
        }
    }
}

#[test]
fn random_kernels_property_bit_identical_across_thread_counts() {
    // Property test: randomized variations of the Table V generator specs
    // must stay thread-count invariant. SplitMix64 keeps it reproducible.
    let mut rng = SplitMix64::new(0x1E71_0001);
    let base = all_workloads();
    for case in 0..6u64 {
        let mut spec = base[rng.below(base.len() as u64) as usize].clone();
        spec.iters = rng.range(2, 6) as u32;
        spec.blocks = rng.range(4, 17) as usize;
        spec.threads_per_block = 32 << rng.below(3); // 32/64/128
        spec.compute_per_mem = rng.below(8) as u32;
        spec.ptr_ops_per_mem_x2 = rng.range(1, 5) as u32;
        spec.uncoalesced = rng.below(2) == 1;
        spec.barrier_per_iter = rng.below(2) == 1;
        let prepared = prepare(&spec, AlignmentPolicy::PowerOfTwo);
        let probe: Vec<u64> = prepared.buffers.iter().map(|&(b, _)| b).collect();
        let label = format!("random case {case} ({})", spec.name);
        assert_thread_invariant(
            GpuConfig::small(),
            &prepared.launch,
            || Box::new(LmiMechanism::default_config()),
            &probe,
            &label,
        );
    }
}

#[test]
fn fast_forward_skips_identically_across_thread_counts() {
    // One warp per SM running a chain of dependent MUFUs: after every
    // issue the sole warp stalls on the scoreboard for the full MUFU
    // latency, so every simulated cycle between issues is dead. The
    // engine's `next_ready` fast-forward must skip those cycles — and the
    // serial driver and the parallel leader must skip to the *identical*
    // cycle, which the bit-identity assertion below enforces via
    // `SimStats` (cycles, stalls, samples) and the full telemetry image.
    const CHAIN: u64 = 64;
    let cfg = GpuConfig::small();
    let mufu_latency = u64::from(cfg.fpu_latency) * 2;
    let mut b = ProgramBuilder::new("ff-chain");
    for _ in 0..CHAIN {
        b.push(Instruction::float2(lmi_isa::Opcode::Mufu, Reg(8), Reg(8), Reg(8)));
    }
    b.push(Instruction::exit());
    let launch = Launch::new(b.build()).grid(cfg.num_sms).block(32).phase(7);
    assert_thread_invariant(cfg, &launch, || Box::new(NullMechanism), &[], "fast-forward chain");

    // The skip actually happened: each issue records at most one
    // scoreboard-stall cycle (the probe that discovers the dependency)
    // instead of `latency - 1` of them, yet the clock still advances the
    // full dependency chain.
    let mut gpu = Gpu::new(cfg);
    let mut mech = NullMechanism;
    let stats = gpu.run(&launch, &mut mech);
    assert!(
        stats.cycles >= (CHAIN - 1) * mufu_latency,
        "dependency chain must pay full latency ({} cycles for chain of {CHAIN})",
        stats.cycles,
    );
    assert!(
        stats.stalls.scoreboard <= stats.issued,
        "fast-forward must collapse stall runs to one probe per issue \
         ({} scoreboard stalls vs {} issues)",
        stats.stalls.scoreboard,
        stats.issued,
    );
}

#[test]
fn kernel_without_exit_retires_at_the_program_end() {
    // One MOV and no trailing EXIT: every warp runs off the end of the
    // program, which retires it as an implicit EXIT — an issued
    // instruction like any other — at every engine point.
    let mut b = ProgramBuilder::new("no-exit");
    b.push(Instruction::mov(Reg(2), 7));
    let launch = Launch::new(b.build()).grid(2).block(64);
    let warps = 2 * 2;
    let run = |threads, banks| {
        let cfg = GpuConfig::small().with_sim_threads(threads).with_mem_banks(banks);
        let mut sink = TelemetrySink::counters_only();
        let stats = Gpu::new(cfg).try_run(&launch, &mut NullMechanism, &mut sink).unwrap();
        (stats, sink.counters)
    };
    let (serial, counters) = run(1, 1);
    let (banked, banked_counters) = run(2, 4);
    assert_eq!(serial, banked, "SimStats diverged at 2 threads x 4 banks");
    assert_eq!(counters, banked_counters, "counters diverged at 2 threads x 4 banks");
    assert_eq!(serial.issued, 2 * warps, "each warp issues its MOV and an implicit EXIT");
    assert_eq!(counters.sum_sms("issued"), serial.issued);
    let per_warp: Vec<u64> = counters
        .iter()
        .filter(|(scope, name, _)| matches!(scope, Scope::Warp { .. }) && *name == "issued")
        .map(|(_, _, n)| n)
        .collect();
    assert_eq!(per_warp, vec![2; warps as usize], "every warp retired after its two issues");
}

/// Long-latency loads, a `BAR` that parks four of each block's six warps
/// while the first two still loop on loads, hint-marked pointer ops, and a
/// block (the last) that exits at once: the SMs spend most of this kernel
/// stalled between issues, in each way a scheduler slot can stall.
fn stall_heavy_launch() -> Launch {
    use lmi_isa::instr::CmpOp;
    use lmi_isa::op::SpecialReg;
    use lmi_isa::{PredReg, Predicate};
    let base = layout::GLOBAL_BASE + 0x40000;
    let buf = lmi_core::DevicePtr::encode(base, 1024, &PtrConfig::default()).unwrap().raw();
    let mut b = ProgramBuilder::new("stall-heavy");
    b.push(Instruction::s2r(Reg(0), SpecialReg::CtaIdX));
    b.push(Instruction::isetp(PredReg(0), Reg(0), CmpOp::Eq, 2));
    b.push(Instruction::exit().with_pred(Predicate::when(PredReg(0))));
    b.push(Instruction::s2r(Reg(1), SpecialReg::TidX));
    b.push(Instruction::ldc(Reg(4), abi::LAUNCH_BANK, abi::param_offset(0), 8));
    b.push(Instruction::lea64(Reg(6), Reg(4), Reg(1), 2).with_hints(HintBits::check_operand(0)));
    b.push(Instruction::ldg(Reg(8), MemRef::new(Reg(6), 0, 4)));
    b.push(Instruction::isetp(PredReg(1), Reg(1), CmpOp::Lt, 64));
    let park = b.forward_branch_if(PredReg(1), true);
    b.push(Instruction::mov(Reg(2), 0));
    let top = b.label();
    b.push(Instruction::ldg(Reg(9), MemRef::new(Reg(6), 0, 4)));
    b.push(Instruction::iadd3(Reg(8), Reg(8), Reg(9)));
    b.push(Instruction::iadd3(Reg(2), Reg(2), 1));
    b.push(Instruction::isetp(PredReg(2), Reg(2), CmpOp::Lt, 4));
    b.branch_if(top, PredReg(2), false);
    b.bind(park);
    b.push(Instruction::bar());
    b.push(Instruction::iadd64(Reg(6), Reg(6), 4).with_hints(HintBits::check_operand(0)));
    b.push(Instruction::stg(MemRef::new(Reg(6), 0, 4), Reg(8)));
    b.push(Instruction::exit());
    Launch::new(b.build()).grid(3).block(192).param(buf)
}

#[test]
fn sleeping_sms_leave_stalls_and_profiles_unchanged() {
    // Pinned from the engine that stepped every SM on every visited cycle.
    // An SM whose phase A issued nothing now sleeps until its `next_ready`
    // and is charged the stalls of the steps it skips; a census cycle
    // still steps it. Neither may move a cycle, a stall or a sample.
    let stalls =
        StallBreakdown { scoreboard: 102, lsu_busy: 290, ocu_verdict: 0, no_ready_warp: 504 };
    let sm_stalls = [
        (Scope::Sm(0), "stall.lsu_busy", 204),
        (Scope::Sm(0), "stall.no_ready_warp", 285),
        (Scope::Sm(0), "stall.scoreboard", 47),
        (Scope::Sm(1), "stall.lsu_busy", 86),
        (Scope::Sm(1), "stall.no_ready_warp", 167),
        (Scope::Sm(1), "stall.scoreboard", 47),
        (Scope::Sm(2), "stall.no_ready_warp", 52),
        (Scope::Sm(2), "stall.scoreboard", 8),
    ];
    // Per sample period: census count, warp states, and the issue samples
    // at each of the program's 19 pcs.
    let profiles = [
        (0, 0, [0; 8], [0; 19]),
        (
            1,
            1320,
            [258, 20, 138, 338, 0, 201, 752, 1263],
            [18, 18, 18, 12, 12, 12, 12, 12, 12, 4, 16, 16, 16, 16, 16, 12, 12, 12, 12],
        ),
        (
            7,
            176,
            [48, 0, 10, 42, 0, 39, 94, 163],
            [12, 0, 0, 4, 0, 4, 4, 0, 4, 0, 0, 4, 4, 0, 4, 4, 0, 4, 0],
        ),
    ];
    let launch = stall_heavy_launch();
    for (period, samples, states, pcs) in profiles {
        for (threads, banks) in [(1, 1), (2, 4)] {
            let cfg = GpuConfig::small()
                .with_sim_threads(threads)
                .with_mem_banks(banks)
                .with_sample_period(period);
            let mut sink = TelemetrySink::counters_only();
            let mut mech = LmiMechanism::default_config();
            let stats = Gpu::new(cfg).try_run(&launch, &mut mech, &mut sink).unwrap();
            let cell = format!("period {period}, {threads} thread(s) x {banks} bank(s)");
            assert_eq!((stats.cycles, stats.issued), (715, 258), "{cell}: cycles, issued");
            assert_eq!(stats.stalls, stalls, "{cell}: stall breakdown");
            let per_sm: Vec<_> =
                sink.counters.iter().filter(|(_, name, _)| name.starts_with("stall.")).collect();
            assert_eq!(per_sm, sm_stalls, "{cell}: per-SM stall keys");
            let profile = &stats.profile;
            assert_eq!(profile.samples(), samples, "{cell}: census count");
            assert_eq!(profile.states(), states, "{cell}: warp states");
            let issue_pcs = profile.pcs();
            assert_eq!(issue_pcs.total(), pcs.iter().sum::<u64>(), "{cell}: pcs past the end");
            assert_eq!(
                (0..19).map(|pc| issue_pcs.get(pc)).collect::<Vec<_>>(),
                pcs,
                "{cell}: issue pcs"
            );
        }
    }
}
