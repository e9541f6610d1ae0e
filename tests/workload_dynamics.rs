//! Dynamic workload validation: the synthetic benchmarks must *execute*
//! with the properties the paper's figures rest on, not just encode them
//! statically.

use lmi::alloc::AlignmentPolicy;
use lmi::baselines::GpuShield;
use lmi::isa::MemSpace;
use lmi::sim::{Gpu, GpuConfig, LmiMechanism, NullMechanism};
use lmi::workloads::{all_workloads, malloc_stress_workload, prepare, WorkloadSpec};

fn spec(name: &str) -> WorkloadSpec {
    all_workloads().into_iter().find(|w| w.name == name).unwrap()
}

fn run_baseline(spec: &WorkloadSpec) -> lmi::sim::SimStats {
    let prepared = prepare(spec, AlignmentPolicy::CudaDefault);
    let mut gpu = Gpu::new(GpuConfig::small());
    gpu.run(&prepared.launch, &mut NullMechanism)
}

/// Fig. 1: the executed region mix matches each spec within tolerance.
#[test]
fn executed_region_mix_matches_fig1_specs() {
    for name in ["bert", "lud_cuda", "needle", "hotspot", "nn"] {
        let w = spec(name);
        let scaled = w.scaled_down(2);
        let stats = run_baseline(&scaled);
        assert!(
            (stats.mem_ratio(MemSpace::Global) - w.global_frac).abs() < 0.08,
            "{name}: global {} vs {}",
            stats.mem_ratio(MemSpace::Global),
            w.global_frac
        );
        assert!((stats.mem_ratio(MemSpace::Shared) - w.shared_frac).abs() < 0.08, "{name}: shared");
    }
}

/// Fig. 1 call-outs, dynamically.
#[test]
fn fig1_callouts_hold_dynamically() {
    let bert = run_baseline(&spec("bert").scaled_down(2));
    assert!(bert.mem_ratio(MemSpace::Global) > 0.9);
    let needle = run_baseline(&spec("needle").scaled_down(2));
    assert!(needle.mem_ratio(MemSpace::Shared) > 0.8);
}

/// §XI-A: needle really thrashes GPUShield's per-warp RCache.
#[test]
fn needle_thrashes_the_rcache_dynamically() {
    let w = spec("needle");
    let prepared = prepare(&w, AlignmentPolicy::CudaDefault);
    let mut shield = GpuShield::with_buffers(&prepared.buffers);
    let mut gpu = Gpu::new(GpuConfig::small());
    let stats = gpu.run(&prepared.launch, &mut shield);
    assert!(stats.violations.is_empty());
    let lookups = shield.rcache_hits + shield.rcache_misses;
    assert!(lookups > 0);
    let warp_level_miss_share = shield.rcache_misses as f64 * 32.0 / lookups as f64;
    assert!(
        warp_level_miss_share > 0.3,
        "needle should miss on a large share of warp-level lookups: {warp_level_miss_share}"
    );
}

/// §X-B: gaussian's dynamic check:LDST ratio dwarfs swin's.
#[test]
fn dynamic_check_ratios_order_gaussian_above_swin() {
    let gaussian = run_baseline(&spec("gaussian").scaled_down(2));
    let swin = run_baseline(&spec("swin").scaled_down(2));
    // The Fig. 13 metric, checks per LD/ST: LMI-DBI instruments the marked
    // integer instructions *and* the LD/STs, so its site count is the sum.
    let ratio = |s: &lmi::sim::SimStats| {
        (s.marked_issued + s.mem_total()) as f64 / s.mem_total().max(1) as f64
    };
    let (rg, rs) = (ratio(&gaussian), ratio(&swin));
    assert!(rg > 2.0 * rs, "gaussian {rg} vs swin {rs}");
}

/// The abstract's scenario: thousands of threads allocating concurrently
/// on the device heap, fine-grained-checked at negligible cost.
#[test]
fn concurrent_heap_stress_is_clean_under_lmi() {
    let w = malloc_stress_workload();
    let prepared = prepare(&w, AlignmentPolicy::PowerOfTwo);
    let mut gpu = Gpu::with_heap_policy(GpuConfig::small(), AlignmentPolicy::PowerOfTwo);
    let stats = gpu.run(&prepared.launch, &mut LmiMechanism::default_config());
    assert!(!stats.violated());
    assert!(stats.mallocs >= 4096, "thousands of device mallocs ran");
    assert_eq!(stats.mallocs, stats.frees);
    assert_eq!(gpu.heap().stats().live, 0, "everything returned to the heap");
    assert_eq!(stats.poisoned, 0);
}
