//! `runtime-mixes`: whole `lmi-runtime` sessions.
//!
//! One op is one session over a canned `runtime_mixes()` mix on the 8-SM
//! `small()` GPU at `sim_threads = 1`: `Runtime::new`, tenants and
//! streams, per-stream upload → kernel → readback, `synchronize` and
//! `metrics_snapshot`. The seed orders the mixes and picks each op's
//! launch phase.

use lmi_bench::alloc_audit::CountingAlloc;
use lmi_bench::PHASES;
use lmi_runtime::Runtime;
use lmi_sim::GpuConfig;
use lmi_telemetry::{Json, SplitMix64};
use lmi_workloads::{prepare_in, runtime_mixes, TrafficMix};

use crate::pins::{field, Fingerprint, Pins};
use crate::sim::phase_of;
use crate::stats::{median, ratio};
use crate::trace::Tracer;
use crate::{Op, Workload};

const SIM_THREADS: usize = 1;
const MEM_BANKS: usize = 1;

fn gpu_config() -> GpuConfig {
    GpuConfig::small().with_sim_threads(SIM_THREADS).with_mem_banks(MEM_BANKS)
}

/// A session's fingerprint: makespan, per-kernel statistics summed, and
/// the GPU's shared L2 and DRAM totals (kernels in a cohort share them).
fn fingerprint(rt: &Runtime) -> Fingerprint {
    let report = rt.report();
    let sum = |f: fn(&lmi_sim::SimStats) -> u64| report.kernels.iter().map(|k| f(&k.stats)).sum();
    let l2 = rt.gpu().l2_stats();
    vec![
        ("total_cycles", report.total_cycles),
        ("kernels", report.kernels.len() as u64),
        ("cycles", sum(|s| s.cycles)),
        ("issued", sum(|s| s.issued)),
        ("l2_hits", l2.hits),
        ("l2_misses", l2.misses),
        ("dram", rt.gpu().dram_transactions()),
        ("violations", sum(|s| s.violations.len() as u64)),
    ]
}

/// Runs one whole session; returns its fingerprint and the allocations
/// `synchronize` made, or `Err` when the runtime refuses a call or fails
/// to drain.
fn session(
    mix: &TrafficMix,
    phase: u64,
    op: u64,
    tr: &mut Tracer,
) -> Result<(Fingerprint, u64), String> {
    let (mut rt, streams) = tr.span("runtime.setup", op, |_| {
        let mut rt = Runtime::new(gpu_config());
        let tenants: Vec<usize> = mix.tenants.iter().map(|&p| rt.add_tenant(p)).collect();
        let streams = mix
            .streams
            .iter()
            .map(|t| rt.create_stream(tenants[t.tenant]).map(|s| (s, tenants[t.tenant])))
            .collect::<Result<Vec<_>, _>>();
        (rt, streams)
    });
    let streams = streams.map_err(|e| e.to_string())?;

    tr.span("runtime.submit", op, |tr| {
        for (i, traffic) in mix.streams.iter().enumerate() {
            let (stream, tenant) = streams[i];
            let spec = mix.spec_of(i);
            let mut prepared = tr.span("workloads.prepare", op, |_| {
                prepare_in(&spec, &mut rt.tenant_mut(tenant).allocator)
            });
            prepared.launch.phase = phase;
            let buf = prepared.launch.params[0];
            let words: Vec<u64> = (0..traffic.h2d_words as u64).collect();
            rt.memcpy_h2d(stream, buf, &words).map_err(|e| e.to_string())?;
            rt.launch(stream, prepared.launch).map_err(|e| e.to_string())?;
            rt.memcpy_d2h(stream, buf, traffic.d2h_bytes).map_err(|e| e.to_string())?;
            let ev = rt.create_event();
            rt.record_event(stream, ev).map_err(|e| e.to_string())?;
        }
        Ok::<(), String>(())
    })?;

    let allocs0 = CountingAlloc::allocations();
    let synced = tr.span("runtime.sync", op, |_| rt.synchronize());
    let allocs = CountingAlloc::allocations() - allocs0;
    synced.map_err(|e| e.to_string())?;
    let snapshot = tr.span("runtime.snapshot", op, |_| rt.metrics_snapshot());
    std::hint::black_box(snapshot);
    Ok((fingerprint(&rt), allocs))
}

/// The runtime-session workload.
pub struct Mixes {
    seed: u64,
    mixes: Vec<TrafficMix>,
    pins: Pins,
    issued: u64,
    allocs_per_kcycle: Vec<f64>,
}

impl Mixes {
    /// The canned mixes in seed order.
    pub fn new(seed: u64, tr: &mut Tracer) -> Mixes {
        let mut mixes = tr.span("workloads.mixes", 0, |_| runtime_mixes());
        SplitMix64::new(seed).shuffle(&mut mixes);
        Mixes { seed, mixes, pins: Pins::committed(), issued: 0, allocs_per_kcycle: Vec::new() }
    }
}

impl Workload for Mixes {
    fn cells(&self) -> Vec<String> {
        self.mixes.iter().map(|m| m.name.to_string()).collect()
    }

    fn run_op(&mut self, index: u64, tr: &mut Tracer) -> Op {
        let at = (index % self.mixes.len() as u64) as usize;
        let mix = &self.mixes[at];
        let phase = phase_of(self.seed, index);
        let outcome = session(mix, phase, index, tr);
        let (ok, issued) = match &outcome {
            Ok((fp, allocs)) => {
                let issued = field(fp, "issued");
                if tr.enabled() {
                    self.issued += issued;
                    let kcycles = field(fp, "total_cycles") as f64 / 1e3;
                    self.allocs_per_kcycle.push(ratio(*allocs as f64, kcycles));
                }
                (self.pins.check(&format!("runtime/{}@{phase}", mix.name), fp), issued)
            }
            Err(e) => {
                eprintln!("runtime/{}: {e}", mix.name);
                (false, 0)
            }
        };
        Op { cell: at, ok, issued }
    }

    fn layer_metrics(&self, tr: &Tracer) -> Vec<(&'static str, f64)> {
        vec![
            ("workloads.prepare_ms", median(&tr.durations_ms("workloads.prepare"))),
            ("runtime.setup_ms", median(&tr.durations_ms("runtime.setup"))),
            ("runtime.submit_ms", median(&tr.durations_ms("runtime.submit"))),
            ("runtime.sync_ms", median(&tr.durations_ms("runtime.sync"))),
            ("runtime.snapshot_ms", median(&tr.durations_ms("runtime.snapshot"))),
            ("runtime.ns_per_instr", ratio(tr.total_ns("runtime.sync"), self.issued as f64)),
            ("runtime.allocs_per_kcycle", median(&self.allocs_per_kcycle)),
        ]
    }

    fn config(&self) -> Json {
        let cfg = gpu_config();
        Json::obj()
            .with("gpu", "small")
            .with("num_sms", cfg.num_sms)
            .with("sim_threads", cfg.sim_threads)
            .with("mem_banks", cfg.mem_banks)
            .with("resolved_sim_threads", cfg.resolve_sim_threads())
            .with("resolved_mem_banks", cfg.resolve_mem_banks())
    }
}

/// Pins every mix at every phase.
pub fn write_pins(out: &mut Pins) {
    let mut quiet = Tracer::new(false);
    for mix in runtime_mixes() {
        for phase in PHASES {
            let (fp, _) = session(&mix, phase, 0, &mut quiet).expect("canned mixes run cleanly");
            out.set(&format!("runtime/{}@{phase}", mix.name), &fp);
        }
    }
}
