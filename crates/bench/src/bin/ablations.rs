//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. **OCU verdict overlap** (§XI-C / §XI-A): what LMI would cost if the
//!    three-cycle OCU delay were *not* hidden inside the LSU front end.
//! 2. **Minimum alignment K** (§V-A1): fragmentation vs. extent-bit budget
//!    as K sweeps 16 B → 4 KiB.
//! 3. **GPUShield RCache capacity** (§XI-A): needle's overhead as the
//!    RCache grows past the benchmark's buffer working set.
//! 4. **Liveness-tracker page-invalidation** (§XII-C, Algorithm 1):
//!    membership-table pressure with and without `pageInvalidOpt`.

use lmi_alloc::{AlignmentPolicy, GlobalAllocator};
use lmi_baselines::GpuShield;
use lmi_bench::{cycles, print_row, MechanismKind};
use lmi_core::{DevicePtr, LivenessTracker, PtrConfig};
use lmi_mem::layout;
use lmi_sim::{Gpu, GpuConfig, LmiMechanism};
use lmi_workloads::{all_workloads, prepare, rodinia_workloads};

fn spec(name: &str) -> lmi_workloads::WorkloadSpec {
    all_workloads().into_iter().find(|w| w.name == name).unwrap()
}

fn main() {
    ablation_verdict_overlap();
    ablation_min_alignment();
    ablation_rcache_capacity();
    ablation_page_invalidation();
    ablation_statelessness();
}

fn ablation_verdict_overlap() {
    println!("== Ablation 1: OCU verdict / LSU overlap ==\n");
    print_row("workload", &["overlap=3".into(), "overlap=1".into(), "overlap=0".into()]);
    for name in ["LSTM", "gaussian", "bert"] {
        let w = spec(name);
        let base = cycles(&w, MechanismKind::Null);
        let cols: Vec<String> = [3u32, 1, 0]
            .iter()
            .map(|&overlap| {
                let prepared = prepare(&w, AlignmentPolicy::PowerOfTwo);
                let mut cfg = GpuConfig::small();
                cfg.lsu_verdict_overlap = overlap;
                let mut gpu = Gpu::new(cfg);
                let mut m = LmiMechanism::default_config();
                let c = gpu.run(&prepared.launch, &mut m).cycles as f64;
                format!("{:.4}", c / base)
            })
            .collect();
        print_row(name, &cols);
    }
    println!("(overlap=3 is the paper's design; overlap=0 exposes the raw 3-cycle OCU delay)\n");
}

fn ablation_min_alignment() {
    println!("== Ablation 2: minimum alignment K vs fragmentation ==\n");
    print_row("K", &["extent bits".into(), "max size".into(), "rodinia frag".into()]);
    for min_log2 in [4u32, 6, 8, 10, 12] {
        let cfg = PtrConfig { min_align_log2: min_log2, max_size_log2: 38 };
        // Extent values needed to span K..256 GiB.
        let extents = cfg.max_size_extent();
        let bits = 8 - extents.leading_zeros(); // bits to encode 0..=extents
                                                // Fragmentation over the Rodinia profiles at this K.
        let mut lnsum = 0.0;
        let mut n = 0;
        for w in rodinia_workloads() {
            let run = |policy: AlignmentPolicy| {
                let mut a = GlobalAllocator::new(cfg, policy, layout::GLOBAL_BASE, 16 << 30);
                for &(size, count) in w.alloc_profile {
                    for _ in 0..count {
                        a.alloc(size).unwrap();
                    }
                }
                a.rss().peak as f64
            };
            lnsum += (run(AlignmentPolicy::PowerOfTwo) / run(AlignmentPolicy::CudaDefault)).ln();
            n += 1;
        }
        let frag = ((lnsum / n as f64).exp() - 1.0) * 100.0;
        print_row(
            &format!("{} B", 1u64 << min_log2),
            &[format!("{bits}"), format!("{} GiB", (1u64 << 38) >> 30), format!("{frag:.2}%")],
        );
    }
    println!("(K = 256 B is the paper's choice: 5 extent bits, 18.7% fragmentation)\n");
}

fn ablation_rcache_capacity() {
    println!("== Ablation 3: GPUShield RCache capacity on needle ==\n");
    let w = spec("needle");
    let base = cycles(&w, MechanismKind::Null);
    print_row("RCache entries", &["normalized time".into(), "miss rate".into()]);
    for entries in [8u64, 16, 28, 40, 64] {
        let prepared = prepare(&w, AlignmentPolicy::CudaDefault);
        let mut shield = GpuShield::with_rcache_entries(entries);
        for &(b, s) in &prepared.buffers {
            shield.register_buffer(b, s);
        }
        let mut gpu = Gpu::new(GpuConfig::small());
        let c = gpu.run(&prepared.launch, &mut shield).cycles as f64;
        let miss_rate =
            shield.rcache_misses as f64 / (shield.rcache_hits + shield.rcache_misses).max(1) as f64;
        print_row(
            &format!("{entries}"),
            &[format!("{:.4}", c / base), format!("{:.1}%", miss_rate * 100.0)],
        );
    }
    println!("(the paper's ~28-entry budget sits below needle's 32-buffer working set)\n");
}

fn ablation_page_invalidation() {
    println!("== Ablation 4: liveness tracker pageInvalidOpt (Algorithm 1) ==\n");
    let cfg = PtrConfig::default();
    print_row(
        "allocation mix",
        &["table peak (off)".into(), "table peak (on)".into(), "pages".into()],
    );
    for (label, sizes) in [
        ("small buffers (1 KiB x 512)", vec![1024u64; 512]),
        ("large buffers (128 KiB x 64)", vec![128 * 1024; 64]),
        ("mixed", {
            let mut v = vec![1024u64; 256];
            v.extend(vec![128 * 1024u64; 32]);
            v
        }),
    ] {
        let run = |opt: bool| {
            let mut tracker = if opt {
                LivenessTracker::with_page_invalidation(cfg, 64 * 1024)
            } else {
                LivenessTracker::new(cfg)
            };
            let mut alloc = GlobalAllocator::new(
                cfg,
                AlignmentPolicy::PowerOfTwo,
                layout::GLOBAL_BASE,
                16 << 30,
            );
            let mut ptrs = Vec::new();
            for &s in &sizes {
                let raw = alloc.alloc(s).unwrap();
                tracker.on_malloc(DevicePtr::from_raw(raw)).unwrap();
                ptrs.push(raw);
            }
            for raw in ptrs {
                tracker.on_free(DevicePtr::from_raw(raw)).unwrap();
            }
            tracker
        };
        let off = run(false);
        let on = run(true);
        print_row(
            label,
            &[
                format!("{}", off.peak_table_len()),
                format!("{}", on.peak_table_len()),
                format!("{}", on.invalidated_page_count()),
            ],
        );
    }
    println!("(pageInvalidOpt keeps large buffers out of the membership table entirely)");
    println!();
}

fn ablation_statelessness() {
    println!("== Ablation 5: in-pointer metadata vs in-memory metadata (§IV-B1) ==\n");
    print_row("workload", &["LMI (stateless)".into(), "bounds table, no cache".into()]);
    for name in ["bert", "bfs", "needle"] {
        let w = spec(name);
        let base = cycles(&w, MechanismKind::Null);
        let lmi = cycles(&w, MechanismKind::Lmi);
        // The strawman: every global access fetches its bounds entry from
        // memory (GPUShield with a zero-entry RCache).
        let prepared = prepare(&w, AlignmentPolicy::CudaDefault);
        let mut shield = GpuShield::with_rcache_entries(0);
        for &(b, s) in &prepared.buffers {
            shield.register_buffer(b, s);
        }
        let mut gpu = Gpu::new(GpuConfig::small());
        let table = gpu.run(&prepared.launch, &mut shield).cycles as f64;
        print_row(name, &[format!("{:.4}", lmi / base), format!("{:.4}", table / base)]);
    }
    println!("(the cost LMI's in-pointer extents avoid: per-access bounds-metadata traffic)");
}
