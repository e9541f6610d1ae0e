//! `table4-serial` and `table4-parallel`: Fig. 12-shaped kernel runs on
//! the 80-SM Table IV GPU.
//!
//! Cells are {hotspot, needle, gaussian, bfs} × {null, LMI, GPUShield}.
//! One op is one `Gpu::run` on a fresh GPU at a launch phase the seed
//! picks from `lmi_bench::PHASES`. Both workloads share one pin per cell
//! and phase: the engine is bit-identical at every `sim_threads` ×
//! `mem_banks` point.

use lmi_alloc::AlignmentPolicy;
use lmi_baselines::GpuShield;
use lmi_bench::alloc_audit::CountingAlloc;
use lmi_bench::PHASES;
use lmi_sim::{Gpu, GpuConfig, LmiMechanism, Mechanism, NullMechanism, SimStats};
use lmi_telemetry::{Json, SplitMix64};
use lmi_workloads::{all_workloads, prepare, PreparedWorkload, WorkloadSpec};

use crate::pins::{self, Pins};
use crate::stats::{median, ratio};
use crate::trace::{HookStats, TimedMechanism, Tracer};
use crate::{Op, Workload};

/// needle is RCache-hostile, gaussian dense in pointer ops, bfs
/// uncoalesced, hotspot compute-bound.
const KERNELS: [&str; 4] = ["hotspot", "needle", "gaussian", "bfs"];

/// One block per SM.
const BLOCKS: usize = 80;

/// Main-loop iterations per kernel, sizing one op to a few hundred ms.
const ITERS: u32 = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mech {
    Null,
    Lmi,
    GpuShield,
}

const MECHS: [Mech; 3] = [Mech::Null, Mech::Lmi, Mech::GpuShield];

impl Mech {
    fn name(self) -> &'static str {
        match self {
            Mech::Null => "null",
            Mech::Lmi => "lmi",
            Mech::GpuShield => "gpushield",
        }
    }

    fn policy(self) -> AlignmentPolicy {
        match self {
            Mech::Lmi => AlignmentPolicy::PowerOfTwo,
            _ => AlignmentPolicy::CudaDefault,
        }
    }
}

struct ShieldAdapter<'a>(&'a mut GpuShield);

impl lmi_workloads::prepare::RegisterBuffers for ShieldAdapter<'_> {
    fn register_buffer(&mut self, base: u64, size: u64) {
        self.0.register_buffer(base, size);
    }
}

struct Cell {
    kernel: &'static str,
    mech: Mech,
    prepared: PreparedWorkload,
}

impl Cell {
    fn name(&self) -> String {
        format!("{}/{}", self.kernel, self.mech.name())
    }

    fn pin_key(&self, phase: u64) -> String {
        format!("table4/{}@{phase}", self.name())
    }
}

fn spec(kernel: &str) -> WorkloadSpec {
    let mut spec = all_workloads()
        .into_iter()
        .find(|w| w.name == kernel)
        .expect("table4 kernels are Table V workloads");
    spec.blocks = BLOCKS;
    spec.iters = ITERS;
    spec
}

/// The launch phase of op `index` under `seed`.
pub fn phase_of(seed: u64, index: u64) -> u64 {
    let mut rng = SplitMix64::new(seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    PHASES[rng.below(PHASES.len() as u64) as usize]
}

/// Runs `launch` on `gpu` under `mech`; with `hooks`, through the timing
/// wrapper.
fn run_under(
    gpu: &mut Gpu,
    prepared: &PreparedWorkload,
    mech: Mech,
    hooks: Option<&mut HookStats>,
) -> SimStats {
    let mut lmi = LmiMechanism::default_config();
    let mut shield = GpuShield::new();
    let inner: &mut dyn Mechanism = match mech {
        Mech::Null => return gpu.run(&prepared.launch, &mut NullMechanism),
        Mech::Lmi => &mut lmi,
        Mech::GpuShield => {
            prepared.register_with(&mut ShieldAdapter(&mut shield));
            &mut shield
        }
    };
    match hooks {
        None => gpu.run(&prepared.launch, inner),
        Some(hooks) => {
            let mut timed = TimedMechanism { inner, hooks: HookStats::default() };
            let stats = gpu.run(&prepared.launch, &mut timed);
            hooks.absorb(&timed.hooks);
            stats
        }
    }
}

/// Counts the traced ops add up.
#[derive(Default)]
struct Layers {
    issued: u64,
    cycles: u64,
    allocs_per_kcycle: Vec<f64>,
    l1_hits: u64,
    l1_accesses: u64,
    l2_hits: u64,
    l2_accesses: u64,
    dram: u64,
    mshr_merges: u64,
    bank_imbalance: Vec<f64>,
    pb_serial: u64,
    pb_banked: u64,
    hooks: HookStats,
    protected_ops: u64,
    protected_run_ns: f64,
    ops: u64,
}

/// A Table IV workload at one explicit engine point.
pub struct Table4 {
    sim_threads: usize,
    mem_banks: usize,
    seed: u64,
    cells: Vec<Cell>,
    pins: Pins,
    layers: Layers,
}

impl Table4 {
    /// Prepares every cell and orders them by `seed`.
    pub fn new(seed: u64, sim_threads: usize, mem_banks: usize, tr: &mut Tracer) -> Table4 {
        let mut cells = Vec::new();
        for kernel in KERNELS {
            let spec = spec(kernel);
            for mech in MECHS {
                let prepared = tr.span("workloads.prepare", 0, |_| prepare(&spec, mech.policy()));
                cells.push(Cell { kernel, mech, prepared });
            }
        }
        SplitMix64::new(seed).shuffle(&mut cells);
        Table4 {
            sim_threads,
            mem_banks,
            seed,
            cells,
            pins: Pins::committed(),
            layers: Layers::default(),
        }
    }

    fn gpu_config(&self) -> GpuConfig {
        GpuConfig::table4().with_sim_threads(self.sim_threads).with_mem_banks(self.mem_banks)
    }
}

impl Workload for Table4 {
    fn cells(&self) -> Vec<String> {
        self.cells.iter().map(Cell::name).collect()
    }

    fn run_op(&mut self, index: u64, tr: &mut Tracer) -> Op {
        let cfg = self.gpu_config();
        let at = (index % self.cells.len() as u64) as usize;
        let phase = phase_of(self.seed, index);
        let cell = &mut self.cells[at];
        cell.prepared.launch.phase = phase;

        let mut gpu =
            tr.span("sim.gpu_new", index, |_| Gpu::with_heap_policy(cfg, cell.mech.policy()));
        let traced = tr.enabled();
        let protected = cell.mech != Mech::Null;
        let mut hooks = HookStats::default();
        let allocs0 = CountingAlloc::allocations();
        let span = tr.open("sim.run", index);
        let stats = run_under(
            &mut gpu,
            &cell.prepared,
            cell.mech,
            (traced && protected).then_some(&mut hooks),
        );
        let run_ns = tr.close(span) as f64;
        let allocs = CountingAlloc::allocations() - allocs0;

        let ok = stats.violations.is_empty()
            && self.pins.check(&cell.pin_key(phase), &pins::of_stats(&stats));
        if traced {
            let l = &mut self.layers;
            l.ops += 1;
            l.issued += stats.issued;
            l.cycles += stats.cycles;
            l.allocs_per_kcycle.push(ratio(allocs as f64, stats.cycles as f64 / 1e3));
            let l1 = stats.l1_total();
            l.l1_hits += l1.hits;
            l.l1_accesses += l1.accesses();
            l.l2_hits += stats.l2.hits;
            l.l2_accesses += stats.l2.accesses();
            l.dram += stats.dram_transactions;
            l.mshr_merges += stats.mshr_merges;
            let banks: Vec<f64> =
                gpu.dram_transactions_per_bank().iter().map(|&n| n as f64).collect();
            let mean = banks.iter().sum::<f64>() / banks.len() as f64;
            l.bank_imbalance.push(ratio(banks.iter().copied().fold(0.0, f64::max), mean));
            l.pb_serial += stats.phase_b_serial_items;
            l.pb_banked += stats.phase_b_banked_items;
            if protected {
                l.hooks.absorb(&hooks);
                l.protected_ops += 1;
                l.protected_run_ns += run_ns;
            }
        }
        Op { cell: at, ok, issued: stats.issued }
    }

    fn layer_metrics(&self, tr: &Tracer) -> Vec<(&'static str, f64)> {
        let l = &self.layers;
        let run_ns = tr.total_ns("sim.run");
        let ops = l.ops as f64;
        let protected = l.protected_ops as f64;
        vec![
            ("workloads.prepare_ms", median(&tr.durations_ms("workloads.prepare"))),
            ("sim.gpu_new_ms", median(&tr.durations_ms("sim.gpu_new"))),
            ("sim.run_ms", median(&tr.durations_ms("sim.run"))),
            ("sim.ns_per_instr", ratio(run_ns, l.issued as f64)),
            ("sim.allocs_per_kcycle", median(&l.allocs_per_kcycle)),
            ("sim.ns_per_cycle", ratio(run_ns, l.cycles as f64)),
            (
                "sim.phase_b_serial_fraction",
                ratio(l.pb_serial as f64, (l.pb_serial + l.pb_banked) as f64),
            ),
            ("mem.l1_hit_rate", ratio(l.l1_hits as f64, l.l1_accesses as f64)),
            ("mem.l2_hit_rate", ratio(l.l2_hits as f64, l.l2_accesses as f64)),
            ("mem.dram_transactions", ratio(l.dram as f64, ops)),
            ("mem.mshr_merges", ratio(l.mshr_merges as f64, ops)),
            ("mem.bank_imbalance", median(&l.bank_imbalance)),
            ("mech.mem_access_calls", ratio(l.hooks.mem_calls as f64, protected)),
            ("mech.mem_access_ns", l.hooks.mem_ns_per_call()),
            ("mech.marked_int_calls", ratio(l.hooks.int_calls as f64, protected)),
            ("mech.marked_int_ns", l.hooks.int_ns_per_call()),
            ("mech.run_share", ratio(l.hooks.estimated_ns(), l.protected_run_ns)),
        ]
    }

    fn config(&self) -> Json {
        let cfg = self.gpu_config();
        Json::obj()
            .with("gpu", "table4")
            .with("num_sms", cfg.num_sms)
            .with("sim_threads", cfg.sim_threads)
            .with("mem_banks", cfg.mem_banks)
            .with("resolved_sim_threads", cfg.resolve_sim_threads())
            .with("resolved_mem_banks", cfg.resolve_mem_banks())
            .with("blocks", BLOCKS)
            .with("iters", ITERS)
    }
}

/// Pins every cell at every phase, run serially.
pub fn write_pins(out: &mut Pins) {
    let cfg = GpuConfig::table4().with_sim_threads(1).with_mem_banks(1);
    for kernel in KERNELS {
        let spec = spec(kernel);
        for mech in MECHS {
            let mut cell = Cell { kernel, mech, prepared: prepare(&spec, mech.policy()) };
            for phase in PHASES {
                cell.prepared.launch.phase = phase;
                let mut gpu = Gpu::with_heap_policy(cfg, mech.policy());
                let stats = run_under(&mut gpu, &cell.prepared, mech, None);
                out.set(&cell.pin_key(phase), &pins::of_stats(&stats));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tally;

    /// A corrupted pin turns the op into a counted failure; the committed
    /// pin passes the same op.
    #[test]
    fn corrupted_pin_is_a_counted_failed_op() {
        let mut tr = Tracer::new(false);
        let mut w = Table4::new(7, 1, 1, &mut tr);
        let key = w.cells[0].pin_key(phase_of(7, 0));
        let mut tally = Tally::default();
        tally.record(w.run_op(0, &mut tr).ok);
        assert_eq!((tally.attempted, tally.failed), (1, 0), "committed pin {key} holds");

        w.pins.set(&key, &vec![("cycles", 1)]);
        tally.record(w.run_op(0, &mut tr).ok);
        assert_eq!((tally.attempted, tally.failed), (2, 1));
    }
}
