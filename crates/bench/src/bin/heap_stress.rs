//! Device-heap stress harness: the abstract's "thousands of concurrent
//! threads perform memory operations across buffers in heap and local
//! memory" scenario. Every thread `malloc`s a variable-size buffer, touches
//! it through a hint-marked pointer, and frees it, each iteration — and LMI
//! must stay violation-free and near-zero-overhead while doing per-thread
//! fine-grained checking that GPUShield's coarse heap region cannot.

use lmi_alloc::AlignmentPolicy;
use lmi_sim::{Gpu, GpuConfig, LmiMechanism, NullMechanism};
use lmi_workloads::{malloc_stress_workload, prepare};

fn main() {
    let spec = malloc_stress_workload();
    println!(
        "heap stress: {} threads x {} iterations of malloc/use/free\n",
        spec.blocks * spec.threads_per_block,
        spec.iters
    );

    let prepared = prepare(&spec, AlignmentPolicy::CudaDefault);
    let mut gpu = Gpu::with_heap_policy(GpuConfig::small(), AlignmentPolicy::CudaDefault);
    let base = gpu.run(&prepared.launch, &mut NullMechanism);

    let prepared = prepare(&spec, AlignmentPolicy::PowerOfTwo);
    let mut gpu = Gpu::with_heap_policy(GpuConfig::small(), AlignmentPolicy::PowerOfTwo);
    let lmi = gpu.run(&prepared.launch, &mut LmiMechanism::default_config());

    println!("baseline: {} cycles, {} mallocs, {} frees", base.cycles, base.mallocs, base.frees);
    println!("LMI:      {} cycles, {} mallocs, {} frees", lmi.cycles, lmi.mallocs, lmi.frees);
    println!(
        "LMI overhead: {:+.3}%  (violations: {}, pointers poisoned: {})",
        (lmi.cycles as f64 / base.cycles as f64 - 1.0) * 100.0,
        lmi.violations.len(),
        lmi.poisoned
    );
    println!("device heap after run: {} live allocations (all freed)", gpu.heap().stats().live);
    assert!(lmi.violations.is_empty(), "benign stress must be violation-free");
    assert_eq!(gpu.heap().stats().live, 0);
    assert_eq!(lmi.mallocs, lmi.frees);
    println!("\npaper claim reproduced: per-thread heap checking at negligible cost,");
    println!("with no bounds-metadata memory traffic (the extent rides in the pointer).");
}
