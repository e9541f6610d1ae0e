//! `profile` — the sampling-profiler report for a multi-tenant session.
//!
//! Replays one of the canned `lmi_workloads::runtime_mixes()` through the
//! `lmi-runtime` scheduler with the cycle-driven sampling profiler
//! enabled, then renders `Runtime::metrics_snapshot()` three ways:
//!
//! * **human** (default) — per-kernel top-K hot PCs with disassembly,
//!   the warp-state/stall breakdown, session latency tails, and the
//!   per-tenant SLO table;
//! * `--prom` — Prometheus text exposition of every counter, histogram
//!   and profile (scrape-file format);
//! * `--json` — the standard report envelope (pipeable to `jsonlint`).
//!
//! Usage: `profile [--quick] [--mix NAME] [--period N] [--top K]
//!                 [--prom | --json]`
//!
//! * `--quick`  — 8-SM config (CI smoke); default is the 80-SM Table IV.
//! * `--mix`    — traffic mix name (default `quad-stream`, the
//!   two-tenant four-stream mix).
//! * `--period` — sampling period in simulated cycles (default 64).
//! * `--top`    — hot PCs shown per kernel (default 5).
//!
//! Profiles are deterministic: the sampling hook runs on simulated
//! cycles and merges in the engine's apply phase, so this report is
//! bit-identical at any `LMI_SIM_THREADS`.

use std::collections::BTreeMap;

use lmi_bench::print_row;
use lmi_bench::report::{self, ReportOpts};
use lmi_isa::Program;
use lmi_runtime::{MetricsSnapshot, Runtime};
use lmi_sim::GpuConfig;
use lmi_telemetry::{Scope, WARP_STATE_NAMES};
use lmi_workloads::{prepare_in, runtime_mixes, TrafficMix};

/// Runs `mix` with sampling at `period` and returns the session snapshot
/// plus the programs it executed (for PC → instruction attribution).
fn run_profiled(mix: &TrafficMix, cfg: GpuConfig) -> (MetricsSnapshot, BTreeMap<String, Program>) {
    let mut rt = Runtime::new(cfg);
    let tenants: Vec<usize> =
        mix.tenants.iter().map(|&protected| rt.add_tenant(protected)).collect();
    let mut programs = BTreeMap::new();
    for (i, traffic) in mix.streams.iter().enumerate() {
        let spec = mix.spec_of(i);
        let tenant = tenants[traffic.tenant];
        let prepared = prepare_in(&spec, &mut rt.tenant_mut(tenant).allocator);
        let stream = rt.create_stream(tenant).expect("tenant exists");
        programs.insert(prepared.launch.program.name.clone(), prepared.launch.program.clone());
        let buf = prepared.launch.params[0];
        let words: Vec<u64> = (0..traffic.h2d_words as u64).collect();
        rt.memcpy_h2d(stream, buf, &words).expect("stream exists");
        rt.launch(stream, prepared.launch).expect("workload launches are valid");
        rt.memcpy_d2h(stream, buf, traffic.d2h_bytes).expect("stream exists");
    }
    rt.synchronize().expect("mix drains without deadlock");
    (rt.metrics_snapshot(), programs)
}

fn human_report(
    snap: &MetricsSnapshot,
    programs: &BTreeMap<String, Program>,
    mix: &TrafficMix,
    period: u64,
    top_k: usize,
) {
    println!(
        "profile: mix {} ({} streams, {} tenants), sampling every {period} cycles",
        mix.name,
        mix.streams.len(),
        mix.tenants.len()
    );
    println!("session: {} cycles total", snap.total_cycles);
    for name in ["kernel_exec_cycles", "kernel_queue_wait", "copy_cycles"] {
        if let Some(h) = snap.frame.histograms.get(Scope::Gpu, name) {
            println!(
                "  {name:<18} n={:<3} p50={} p95={} p99={} max={}",
                h.count(),
                h.p50(),
                h.p95(),
                h.p99(),
                h.max()
            );
        }
    }

    for (kernel, profile) in &snap.frame.profiles {
        println!(
            "\nkernel {kernel}: {} samples, avg occupancy {:.1} warps/SM",
            profile.samples(),
            profile.avg_occupancy()
        );
        // Warp-state / stall breakdown as percentages of warp-samples.
        let states = profile.states();
        let total: u64 = states.iter().sum();
        if total > 0 {
            let line: Vec<String> = WARP_STATE_NAMES
                .iter()
                .zip(&states)
                .filter(|(_, &n)| n > 0)
                .map(|(name, &n)| format!("{name} {:.1}%", 100.0 * n as f64 / total as f64))
                .collect();
            println!("  warp states: {}", line.join(", "));
        }
        let pcs = profile.top_pcs(top_k);
        let pc_total = profile.pcs().total().max(1);
        for (pc, n) in pcs {
            let text = programs
                .get(kernel)
                .and_then(|p| p.instructions.get(pc as usize))
                .map(|ins| ins.to_string())
                .unwrap_or_else(|| "<unknown>".to_string());
            println!(
                "    pc {pc:>4}  {:>5.1}%  {:>8}  {text}",
                100.0 * n as f64 / pc_total as f64,
                n
            );
        }
    }

    println!("\ntenant SLO:");
    print_row(
        "tenant",
        &["kernels", "rejected", "viol", "viol rate", "exec p50", "exec p99", "queue p99"]
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>(),
    );
    for t in &snap.tenants {
        print_row(
            &format!("{}", t.tenant),
            &[
                format!("{}", t.kernels),
                format!("{}", t.rejected),
                format!("{}", t.violations),
                format!("{:.3}", t.violation_rate),
                format!("{}", t.exec_p50),
                format!("{}", t.exec_p99),
                format!("{}", t.queue_p99),
            ],
        );
    }
}

fn main() {
    let opts = ReportOpts::from_env();
    let mut quick = false;
    let mut prom = false;
    let mut mix_name = "quad-stream".to_string();
    let mut period = 64u64;
    let mut top_k = 5usize;
    let mut it = opts.positional.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--prom" => prom = true,
            "--mix" => mix_name = it.next().expect("--mix needs a name").clone(),
            "--period" => {
                period = it.next().expect("--period needs a value").parse().expect("cycle count")
            }
            "--top" => top_k = it.next().expect("--top needs a value").parse().expect("a count"),
            other => panic!("unknown argument: {other}"),
        }
    }

    let mix = runtime_mixes()
        .into_iter()
        .find(|m| m.name == mix_name)
        .unwrap_or_else(|| panic!("unknown mix {mix_name:?}"));
    let base = if quick { GpuConfig::small() } else { GpuConfig::table4() };
    let cfg = base.with_sample_period(period);
    let (snap, programs) = run_profiled(&mix, cfg);

    if prom {
        print!("{}", snap.to_prometheus());
        return;
    }
    if opts.json {
        let doc = report::envelope(
            "profile",
            snap.to_json()
                .with("git_rev", report::git_rev())
                .with("mix", mix.name)
                .with("quick", quick)
                .with("sample_period", period),
        );
        report::emit(&doc);
        return;
    }
    human_report(&snap, &programs, &mix, period, top_k);
}
