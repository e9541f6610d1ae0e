//! # lmi-bench — experiment harness
//!
//! Shared machinery for the figure/table regeneration binaries (one binary
//! per paper table/figure, see `src/bin/`) and the counting allocator of
//! the allocation audits. Host time is measured by `perfbench/` alone. The
//! per-experiment index lives in `DESIGN.md`; measured-vs-paper numbers
//! are recorded in `EXPERIMENTS.md`.
//!
//! What a mechanism runs (policy, build, rewrite, instance) is defined
//! once by [`MechanismKind`] in `lmi-baselines`; this crate keeps only how
//! Fig 12/13 measure it: [`cycles`] averages the hardware kinds over
//! [`PHASES`] and runs the DBI tools once with the §XI-B JIT factor, and
//! [`normalized`] measures the DBI tools at a quarter of the scale.

pub mod alloc_audit;
pub mod report;

pub use lmi_baselines::MechanismKind;
use lmi_sim::{Gpu, GpuConfig, SimStats};
use lmi_workloads::{prepare, WorkloadSpec};

/// Runs `spec` once under `kind` on the scaled-down (8-SM) Table IV
/// configuration; returns the statistics.
pub fn run_workload(spec: &WorkloadSpec, kind: MechanismKind) -> SimStats {
    let stats = run_at_phase(spec, kind, 0);
    assert!(
        stats.violations.is_empty(),
        "{} under {}: benign workload must not fault: {:?}",
        spec.name,
        kind.label(),
        stats.violations.first()
    );
    stats
}

/// Launch phases averaged over for hardware-mechanism timing (marginalizes
/// scheduler-resonance noise; the mechanisms themselves are deterministic).
pub const PHASES: [u64; 4] = [0, 3, 7, 12];

fn run_at_phase(spec: &WorkloadSpec, kind: MechanismKind, phase: u64) -> SimStats {
    let mut prepared = prepare(spec, kind.policy());
    if let Some(program) = kind.rewrite(&prepared.launch.program) {
        prepared.launch.program = program;
    }
    prepared.launch.phase = phase;
    let mut gpu = Gpu::with_heap_policy(GpuConfig::small(), kind.policy());
    gpu.run(&prepared.launch, kind.instance(&prepared.buffers).as_mut())
}

/// Simulated-cycle count of `spec` under `kind`: phase-averaged for the
/// hardware mechanisms, single-phase (with the §XI-B JIT factor) for the
/// DBI tools whose overheads dwarf phase noise.
pub fn cycles(spec: &WorkloadSpec, kind: MechanismKind) -> f64 {
    match kind {
        MechanismKind::LmiDbi | MechanismKind::Memcheck => {
            run_workload(spec, kind).cycles as f64 * lmi_baselines::JIT_OVERHEAD
        }
        MechanismKind::Baggy => run_workload(spec, kind).cycles as f64,
        _ => {
            let sum: u64 = PHASES.iter().map(|&ph| run_at_phase(spec, kind, ph).cycles).sum();
            sum as f64 / PHASES.len() as f64
        }
    }
}

/// Execution time normalized to the unprotected baseline (the paper's
/// Fig. 12 / Fig. 13 metric).
pub fn normalized(spec: &WorkloadSpec, kind: MechanismKind) -> f64 {
    let spec = match kind {
        // DBI runs execute 20-60x more instructions; measure them (and
        // their baseline) at reduced scale to keep runs tractable.
        MechanismKind::LmiDbi | MechanismKind::Memcheck => spec.scaled_down(4),
        _ => spec.clone(),
    };
    cycles(&spec, kind) / cycles(&spec, MechanismKind::Null)
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

    /// Every registry kind's cycle count on one small workload, pinned
    /// exactly: a change to a kind's policy, build, rewrite or instance
    /// moves at least one of these.
    #[test]
    fn cycles_per_kind_are_pinned() {
        let bfs = spec("bfs").scaled_down(4);
        let pins = [
            (MechanismKind::Null, 4763.25),
            (MechanismKind::Lmi, 4746.0),
            (MechanismKind::GpuShield, 5689.25),
            (MechanismKind::Baggy, 7620.0),
            (MechanismKind::LmiDbi, 121798.95000000001),
            (MechanismKind::Memcheck, 41064.450000000004),
            // Canary guards no buffers here: the null run, phase-averaged.
            (MechanismKind::Canary, 4763.25),
        ];
        for (kind, expect) in pins {
            assert_eq!(cycles(&bfs, kind), expect, "{}", kind.label());
        }
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
        let overhead = normalized(&w, MechanismKind::Lmi) - 1.0;
        assert!(overhead.abs() < 0.02, "LMI overhead {overhead}");
    }

    #[test]
    fn gpushield_suffers_on_needle_but_not_on_friendly_workloads() {
        let needle = normalized(&spec("needle"), MechanismKind::GpuShield) - 1.0;
        let hotspot = normalized(&spec("hotspot"), MechanismKind::GpuShield) - 1.0;
        assert!(needle > 0.10, "needle RCache thrash overhead {needle}");
        assert!(hotspot < needle / 2.0, "hotspot {hotspot} vs needle {needle}");
    }

    #[test]
    fn baggy_costs_much_more_than_lmi() {
        let w = spec("gaussian");
        let baggy = normalized(&w, MechanismKind::Baggy);
        let lmi = normalized(&w, MechanismKind::Lmi);
        assert!(baggy > 1.3, "baggy on pointer-heavy kernel: {baggy}");
        assert!(lmi < 1.05, "lmi: {lmi}");
    }

    #[test]
    fn dbi_tools_cost_an_order_of_magnitude() {
        let w = spec("bfs");
        let lmi_dbi = normalized(&w, MechanismKind::LmiDbi);
        let memcheck = normalized(&w, MechanismKind::Memcheck);
        assert!(lmi_dbi > 3.0, "LMI-DBI {lmi_dbi}");
        assert!(memcheck > 2.0, "memcheck {memcheck}");
        assert!(lmi_dbi >= memcheck, "LMI-DBI instruments strictly more sites");
    }
}
