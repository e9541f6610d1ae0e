//! # lmi-bench — experiment harness
//!
//! Shared machinery for the figure/table regeneration binaries (one binary
//! per paper table/figure, see `src/bin/`) and the counting allocator of
//! the allocation audits. Host time is measured by `perfbench/` alone. The
//! per-experiment index lives in `DESIGN.md`; measured-vs-paper numbers
//! are recorded in `EXPERIMENTS.md`.

pub mod alloc_audit;
pub mod report;

use lmi_alloc::AlignmentPolicy;
use lmi_baselines::{instrument_baggy, instrument_lmi_dbi, instrument_memcheck, GpuShield};
use lmi_sim::{Gpu, GpuConfig, LmiMechanism, NullMechanism, SimStats};
use lmi_workloads::{prepare, PreparedWorkload, WorkloadSpec};

/// The protection mechanism a run is executed under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mechanism {
    /// Unprotected baseline.
    Baseline,
    /// LMI in hardware (OCU + EC).
    Lmi,
    /// GPUShield (region bounds table + RCache).
    GpuShield,
    /// Baggy Bounds software checks.
    BaggySoftware,
    /// LMI implemented via NVBit-style DBI.
    LmiDbi,
    /// Compute-Sanitizer memcheck via DBI.
    Memcheck,
}

impl Mechanism {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Mechanism::Baseline => "baseline",
            Mechanism::Lmi => "LMI",
            Mechanism::GpuShield => "GPUShield",
            Mechanism::BaggySoftware => "BaggyBounds",
            Mechanism::LmiDbi => "LMI-DBI",
            Mechanism::Memcheck => "memcheck",
        }
    }
}

fn prepared_for(spec: &WorkloadSpec, mechanism: Mechanism) -> PreparedWorkload {
    let policy = match mechanism {
        // LMI and Baggy need 2ⁿ-aligned, extent-carrying pointers.
        Mechanism::Lmi | Mechanism::BaggySoftware => AlignmentPolicy::PowerOfTwo,
        _ => AlignmentPolicy::CudaDefault,
    };
    let mut prepared = prepare(spec, policy);
    match mechanism {
        Mechanism::BaggySoftware => {
            prepared.launch.program = instrument_baggy(&prepared.launch.program);
        }
        Mechanism::LmiDbi => {
            prepared.launch.program = instrument_lmi_dbi(&prepared.launch.program);
        }
        Mechanism::Memcheck => {
            prepared.launch.program = instrument_memcheck(&prepared.launch.program);
        }
        _ => {}
    }
    prepared
}

/// Runs `spec` once under `mechanism` on the scaled-down (8-SM) Table IV
/// configuration; returns the statistics.
pub fn run_workload(spec: &WorkloadSpec, mechanism: Mechanism) -> SimStats {
    let prepared = prepared_for(spec, mechanism);
    let mut gpu = Gpu::with_heap_policy(
        GpuConfig::small(),
        match mechanism {
            Mechanism::Lmi | Mechanism::BaggySoftware => AlignmentPolicy::PowerOfTwo,
            _ => AlignmentPolicy::CudaDefault,
        },
    );
    let stats = match mechanism {
        Mechanism::Lmi => {
            let mut m = LmiMechanism::default_config();
            gpu.run(&prepared.launch, &mut m)
        }
        Mechanism::GpuShield => {
            let mut m = GpuShield::new();
            prepared.register_with(&mut ShieldAdapter(&mut m));
            gpu.run(&prepared.launch, &mut m)
        }
        _ => gpu.run(&prepared.launch, &mut NullMechanism),
    };
    assert!(
        stats.violations.is_empty(),
        "{} under {}: benign workload must not fault: {:?}",
        spec.name,
        mechanism.name(),
        stats.violations.first()
    );
    stats
}

struct ShieldAdapter<'a>(&'a mut GpuShield);

impl lmi_workloads::prepare::RegisterBuffers for ShieldAdapter<'_> {
    fn register_buffer(&mut self, base: u64, size: u64) {
        self.0.register_buffer(base, size);
    }
}

/// Launch phases averaged over for hardware-mechanism timing (marginalizes
/// scheduler-resonance noise; the mechanisms themselves are deterministic).
pub const PHASES: [u64; 4] = [0, 3, 7, 12];

fn run_at_phase(spec: &WorkloadSpec, mechanism: Mechanism, phase: u64) -> SimStats {
    let mut prepared = prepared_for(spec, mechanism);
    prepared.launch.phase = phase;
    let mut gpu = Gpu::with_heap_policy(
        GpuConfig::small(),
        match mechanism {
            Mechanism::Lmi | Mechanism::BaggySoftware => AlignmentPolicy::PowerOfTwo,
            _ => AlignmentPolicy::CudaDefault,
        },
    );
    match mechanism {
        Mechanism::Lmi => {
            let mut m = LmiMechanism::default_config();
            gpu.run(&prepared.launch, &mut m)
        }
        Mechanism::GpuShield => {
            let mut m = GpuShield::new();
            prepared.register_with(&mut ShieldAdapter(&mut m));
            gpu.run(&prepared.launch, &mut m)
        }
        _ => gpu.run(&prepared.launch, &mut NullMechanism),
    }
}

/// Simulated-cycle count of `spec` under `mechanism`: phase-averaged for
/// the hardware mechanisms, single-phase (with the §XI-B JIT factor) for
/// the DBI tools whose overheads dwarf phase noise.
pub fn cycles(spec: &WorkloadSpec, mechanism: Mechanism) -> f64 {
    match mechanism {
        Mechanism::LmiDbi | Mechanism::Memcheck => {
            run_workload(spec, mechanism).cycles as f64 * lmi_baselines::JIT_OVERHEAD
        }
        Mechanism::BaggySoftware => run_workload(spec, mechanism).cycles as f64,
        _ => {
            let sum: u64 = PHASES.iter().map(|&ph| run_at_phase(spec, mechanism, ph).cycles).sum();
            sum as f64 / PHASES.len() as f64
        }
    }
}

/// Execution time normalized to the unprotected baseline (the paper's
/// Fig. 12 / Fig. 13 metric).
pub fn normalized(spec: &WorkloadSpec, mechanism: Mechanism) -> f64 {
    let spec = match mechanism {
        // DBI runs execute 20-60x more instructions; measure them (and
        // their baseline) at reduced scale to keep runs tractable.
        Mechanism::LmiDbi | Mechanism::Memcheck => spec.scaled_down(4),
        _ => spec.clone(),
    };
    cycles(&spec, mechanism) / cycles(&spec, Mechanism::Baseline)
}

/// Geometric mean.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values.into_iter().fold((0.0f64, 0usize), |(s, n), v| (s + v.ln(), n + 1));
    if n == 0 {
        1.0
    } else {
        (sum / n as f64).exp()
    }
}

/// Arithmetic mean.
pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values.into_iter().fold((0.0f64, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Prints an aligned row: name column then fixed-width numeric columns.
pub fn print_row(name: &str, cols: &[String]) {
    let mut row = format!("{name:<24}");
    for c in cols {
        row.push_str(&format!(" {c:>12}"));
    }
    println!("{row}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmi_workloads::all_workloads;

    fn spec(name: &str) -> WorkloadSpec {
        all_workloads().into_iter().find(|w| w.name == name).unwrap()
    }

    #[test]
    fn geomean_and_mean_basics() {
        assert!((geomean([1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((mean([1.0, 3.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(std::iter::empty()), 1.0);
    }

    #[test]
    fn lmi_overhead_is_negligible_on_a_representative_workload() {
        let w = spec("hotspot");
        let overhead = normalized(&w, Mechanism::Lmi) - 1.0;
        assert!(overhead.abs() < 0.02, "LMI overhead {overhead}");
    }

    #[test]
    fn gpushield_suffers_on_needle_but_not_on_friendly_workloads() {
        let needle = normalized(&spec("needle"), Mechanism::GpuShield) - 1.0;
        let hotspot = normalized(&spec("hotspot"), Mechanism::GpuShield) - 1.0;
        assert!(needle > 0.10, "needle RCache thrash overhead {needle}");
        assert!(hotspot < needle / 2.0, "hotspot {hotspot} vs needle {needle}");
    }

    #[test]
    fn baggy_costs_much_more_than_lmi() {
        let w = spec("gaussian");
        let baggy = normalized(&w, Mechanism::BaggySoftware);
        let lmi = normalized(&w, Mechanism::Lmi);
        assert!(baggy > 1.3, "baggy on pointer-heavy kernel: {baggy}");
        assert!(lmi < 1.05, "lmi: {lmi}");
    }

    #[test]
    fn dbi_tools_cost_an_order_of_magnitude() {
        let w = spec("bfs");
        let lmi_dbi = normalized(&w, Mechanism::LmiDbi);
        let memcheck = normalized(&w, Mechanism::Memcheck);
        assert!(lmi_dbi > 3.0, "LMI-DBI {lmi_dbi}");
        assert!(memcheck > 2.0, "memcheck {memcheck}");
        assert!(lmi_dbi >= memcheck, "LMI-DBI instruments strictly more sites");
    }
}
