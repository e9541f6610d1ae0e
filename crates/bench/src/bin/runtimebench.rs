//! `runtimebench` — overlap report of the multi-stream runtime.
//!
//! Sweeps the canned `lmi_workloads::runtime_mixes()` (1, 2 and 4
//! streams) through the `lmi-runtime` scheduler twice per mix:
//!
//! * **concurrent** — streams submitted as written; kernels from
//!   different streams share the GPU on disjoint SM partitions and
//!   copies overlap compute;
//! * **serial** — the identical submissions chained behind events so
//!   every stream waits for the previous one: the back-to-back baseline.
//!
//! Every number is **simulated**: cycles, the overlap speedup (serial /
//! concurrent) and the session's kernel-latency tails, so the report is
//! host-independent and identical at any `sim_threads` and `mem_banks`.
//! Host time of the same sessions is perfbench's `runtime-mixes` workload.
//!
//! Usage: `runtimebench [--quick] [--json]`
//!
//! * `--quick` — 8-SM config; default is the 80-SM Table IV.
//! * `--json`  — print the JSON document on stdout instead of the table.

use lmi_bench::report::{self, ReportOpts};
use lmi_bench::{geomean, print_row};
use lmi_runtime::{MetricsSnapshot, Runtime, RuntimeReport};
use lmi_sim::GpuConfig;
use lmi_telemetry::{Json, Scope};
use lmi_workloads::{prepare_in, runtime_mixes, TrafficMix};

/// Builds a runtime, submits the whole mix, synchronizes, and returns the
/// report and the session metrics snapshot. `serialize` chains each
/// stream behind the previous via events — the back-to-back baseline.
fn run_mix(mix: &TrafficMix, cfg: GpuConfig, serialize: bool) -> (RuntimeReport, MetricsSnapshot) {
    let mut rt = Runtime::new(cfg);
    let tenants: Vec<usize> =
        mix.tenants.iter().map(|&protected| rt.add_tenant(protected)).collect();
    let streams: Vec<usize> = mix
        .streams
        .iter()
        .map(|t| rt.create_stream(tenants[t.tenant]).expect("tenant exists"))
        .collect();
    let mut chain: Option<usize> = None;
    for (i, traffic) in mix.streams.iter().enumerate() {
        let spec = mix.spec_of(i);
        let tenant = tenants[traffic.tenant];
        let prepared = prepare_in(&spec, &mut rt.tenant_mut(tenant).allocator);
        let stream = streams[i];
        if serialize {
            if let Some(prev) = chain {
                rt.wait_event(stream, prev).expect("event exists");
            }
        }
        let buf = prepared.launch.params[0];
        let words: Vec<u64> = (0..traffic.h2d_words as u64).collect();
        rt.memcpy_h2d(stream, buf, &words).expect("stream exists");
        rt.launch(stream, prepared.launch).expect("workload launches are valid");
        rt.memcpy_d2h(stream, buf, traffic.d2h_bytes).expect("stream exists");
        if serialize {
            let ev = rt.create_event();
            rt.record_event(stream, ev).expect("event exists");
            chain = Some(ev);
        }
    }
    rt.synchronize().expect("mix drains without deadlock");
    (rt.report().clone(), rt.metrics_snapshot())
}

/// Session-wide kernel-latency tails: p50/p99/max execution cycles and
/// p99 queue wait, from the GPU-scope histograms.
fn latency_tails(snap: &MetricsSnapshot) -> [u64; 4] {
    let exec = snap.frame.histograms.get(Scope::Gpu, "kernel_exec_cycles");
    let queue = snap.frame.histograms.get(Scope::Gpu, "kernel_queue_wait");
    [
        exec.map(|h| h.p50()).unwrap_or(0),
        exec.map(|h| h.p99()).unwrap_or(0),
        exec.map(|h| h.max()).unwrap_or(0),
        queue.map(|h| h.p99()).unwrap_or(0),
    ]
}

fn main() {
    let opts = ReportOpts::from_env();
    let mut quick = false;
    for arg in &opts.positional {
        match arg.as_str() {
            "--quick" => quick = true,
            other => panic!("unknown argument: {other}"),
        }
    }
    let cfg = if quick { GpuConfig::small() } else { GpuConfig::table4() };

    if !opts.json {
        println!(
            "runtimebench — stream overlap on {} SMs (simulated cycles){}\n",
            cfg.num_sms,
            if quick { " [quick]" } else { "" },
        );
        print_row(
            "mix",
            &["streams", "serial cyc", "conc cyc", "overlap", "exec p50", "exec p99", "queue p99"]
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>(),
        );
    }
    let mut rows = Vec::new();
    let mut overlaps = Vec::new();
    for mix in runtime_mixes() {
        let (concurrent, snap) = run_mix(&mix, cfg, false);
        let (serial, _) = run_mix(&mix, cfg, true);
        if mix.streams.len() > 1 {
            assert!(
                concurrent.total_cycles < serial.total_cycles,
                "{}: concurrent streams must beat back-to-back ({} vs {})",
                mix.name,
                concurrent.total_cycles,
                serial.total_cycles
            );
        }
        let overlap = serial.total_cycles as f64 / concurrent.total_cycles as f64;
        overlaps.push(overlap);
        let [exec_p50, exec_p99, exec_max, queue_p99] = latency_tails(&snap);
        if !opts.json {
            print_row(
                mix.name,
                &[
                    format!("{}", mix.streams.len()),
                    format!("{}", serial.total_cycles),
                    format!("{}", concurrent.total_cycles),
                    format!("{overlap:.2}x"),
                    format!("{exec_p50}"),
                    format!("{exec_p99}"),
                    format!("{queue_p99}"),
                ],
            );
        }
        rows.push(
            Json::obj()
                .with("mix", mix.name)
                .with("streams", mix.streams.len() as u64)
                .with("tenants", mix.tenants.len() as u64)
                .with("serial_cycles", serial.total_cycles)
                .with("concurrent_cycles", concurrent.total_cycles)
                .with("overlap_speedup", overlap)
                .with(
                    "kernel_latency",
                    Json::obj()
                        .with("exec_p50", exec_p50)
                        .with("exec_p99", exec_p99)
                        .with("exec_max", exec_max)
                        .with("queue_p99", queue_p99),
                )
                .with("concurrent", concurrent.to_json()),
        );
    }
    let gm = geomean(overlaps.iter().copied());

    if opts.json {
        report::emit(&report::envelope(
            "runtimebench",
            Json::obj()
                .with("quick", quick)
                .with("num_sms", cfg.num_sms)
                .with("mixes", Json::Arr(rows))
                .with("geomean_overlap_speedup", gm),
        ));
    } else {
        println!("\ngeomean overlap speedup {gm:.2}x (serial / concurrent)");
    }
}
