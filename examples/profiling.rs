//! Profiling quickstart: turn on the cycle-driven sampling profiler,
//! run a two-tenant traffic mix, and read the session's metrics surface —
//! latency histograms with tail quantiles, per-kernel hot-PC profiles
//! with warp-state breakdowns, the per-tenant SLO table, and the same
//! numbers re-rendered as a Prometheus exposition and a JSON snapshot.
//!
//! Sampling is driven by *simulated* cycles (here every 64), so the
//! profile below is bit-identical at any `LMI_SIM_THREADS` setting.
//!
//! Run with: `cargo run --example profiling`

use lmi::runtime::Runtime;
use lmi::sim::GpuConfig;
use lmi::telemetry::{parse_prometheus, Scope, WARP_STATE_NAMES};
use lmi::workloads::{prepare_in, runtime_mixes};

fn main() {
    // `with_sample_period(64)` is the only knob: 0 (the default) keeps
    // the profiler off and the simulation byte-for-byte unchanged.
    let mix = runtime_mixes().into_iter().find(|m| m.name == "dual-tenant").unwrap();
    let mut rt = Runtime::new(GpuConfig::small().with_sample_period(64));

    let tenants: Vec<usize> = mix.tenants.iter().map(|&p| rt.add_tenant(p)).collect();

    // Snapshots are cheap owned values, so the idiomatic pattern is
    // before/after + diff: the delta is exactly this workload's activity.
    let before = rt.metrics_snapshot();

    for (i, traffic) in mix.streams.iter().enumerate() {
        let spec = mix.spec_of(i);
        let tenant = tenants[traffic.tenant];
        let prepared = prepare_in(&spec, &mut rt.tenant_mut(tenant).allocator);
        let stream = rt.create_stream(tenant).unwrap();
        let buf = prepared.launch.params[0];
        let words: Vec<u64> = (0..traffic.h2d_words as u64).collect();
        rt.memcpy_h2d(stream, buf, &words).unwrap();
        rt.launch(stream, prepared.launch).unwrap();
        rt.memcpy_d2h(stream, buf, traffic.d2h_bytes).unwrap();
    }
    rt.synchronize().unwrap();

    let snap = rt.metrics_snapshot().diff(&before);

    // 1. Latency histograms: queue wait, execution, and copy durations
    //    are recorded per GPU, per stream, and per tenant.
    println!("== session latency ({} cycles total) ==", snap.total_cycles);
    for name in ["kernel_queue_wait", "kernel_exec_cycles", "copy_cycles"] {
        let h = snap.frame.histograms.get(Scope::Gpu, name).unwrap();
        println!(
            "  {name:<18} n={:<3} p50={:<6} p95={:<6} p99={:<6} max={}",
            h.count(),
            h.p50(),
            h.p95(),
            h.p99(),
            h.max()
        );
    }

    // 2. Sampling profiles: every 64 simulated cycles each SM records
    //    which PCs issued and why stalled warps were waiting.
    println!("\n== kernel profiles (sampled every 64 cycles) ==");
    for (kernel, profile) in &snap.frame.profiles {
        let states = profile.states();
        let total: u64 = states.iter().sum::<u64>().max(1);
        let busiest = WARP_STATE_NAMES
            .iter()
            .zip(&states)
            .max_by_key(|(_, &n)| n)
            .map(|(name, &n)| format!("{name} {:.0}%", 100.0 * n as f64 / total as f64))
            .unwrap();
        println!(
            "  {kernel:<10} {:>4} samples, avg occupancy {:>4.1} warps/SM, dominant state {busiest}",
            profile.samples(),
            profile.avg_occupancy()
        );
        for (pc, n) in profile.top_pcs(3) {
            println!("      hot pc {pc:>3}: {n} samples");
        }
    }
    assert!(snap.frame.profiles.values().all(|p| p.samples() > 0));

    // 3. The SLO table: serving-style per-tenant signals.
    println!("\n== tenant SLO ==");
    for t in &snap.tenants {
        println!(
            "  tenant{} kernels={} violations={} (rate {:.2}) exec p99={} queue p99={}",
            t.tenant, t.kernels, t.violations, t.violation_rate, t.exec_p99, t.queue_p99
        );
    }

    // 4. Exports: the same snapshot renders as Prometheus text exposition
    //    (scrapeable) and JSON — and the exposition round-trips through
    //    the crate's own parser with the same values.
    let samples = parse_prometheus(&snap.to_prometheus()).unwrap();
    let cycles = samples.iter().find(|s| s.name == "lmi_session_total_cycles").unwrap();
    assert_eq!(cycles.value, snap.total_cycles as f64);
    println!(
        "\nexports: {} Prometheus samples, {} bytes of JSON — \
         try `profile --quick` for the full report bin",
        samples.len(),
        snap.to_json().to_compact().len()
    );
}
