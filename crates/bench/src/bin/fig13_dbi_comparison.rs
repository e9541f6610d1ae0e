//! Regenerates paper Fig. 13: normalized execution time (log scale) of the
//! LMI DBI implementation vs. Compute Sanitizer's memcheck. AD benchmarks
//! are excluded, as in the paper (NVBit/compute-sanitizer incompatibility).
//!
//! The per-benchmark crossovers are governed by the ratio of LMI bound
//! checks to LD/ST instructions, also printed (paper: 67.14 for gaussian
//! vs 28.13 for swin — our synthetic kernels have proportionally lower
//! ratios, same ordering).

use lmi_baselines::dbi::check_site_counts;
use lmi_bench::report::{self, ReportOpts};
use lmi_bench::{geomean, normalized, print_row, MechanismKind};
use lmi_telemetry::Json;
use lmi_workloads::{all_workloads, generate, Suite};

fn main() {
    let opts = ReportOpts::from_env();
    let rows: Vec<(&'static str, f64, f64, f64)> = all_workloads()
        .iter()
        .filter(|spec| spec.suite != Suite::Ad) // excluded in the paper (footnote 1)
        .map(|spec| {
            let lmi_dbi = normalized(spec, MechanismKind::LmiDbi);
            let memcheck = normalized(spec, MechanismKind::Memcheck);
            let (sites, mem_sites) = check_site_counts(&generate(spec));
            (spec.name, lmi_dbi, memcheck, sites as f64 / mem_sites as f64)
        })
        .collect();
    let lmi_all: Vec<f64> = rows.iter().map(|r| r.1).collect();
    let mc_all: Vec<f64> = rows.iter().map(|r| r.2).collect();

    if opts.json {
        let mut out = Vec::new();
        for &(name, lmi_dbi, memcheck, ratio) in &rows {
            out.push(
                Json::obj()
                    .with("workload", name)
                    .with("lmi_dbi", lmi_dbi)
                    .with("memcheck", memcheck)
                    .with("checks_per_ldst", ratio),
            );
        }
        let body = Json::obj()
            .with("rows", Json::Arr(out))
            .with(
                "geomean",
                Json::obj()
                    .with("lmi_dbi", geomean(lmi_all.iter().copied()))
                    .with("memcheck", geomean(mc_all.iter().copied())),
            )
            .with("jit_overhead", lmi_baselines::JIT_OVERHEAD);
        report::emit(&report::envelope("fig13_dbi_comparison", body));
        return;
    }

    println!("Fig. 13 — DBI tools, normalized execution time (log scale)\n");
    print_row(
        "workload",
        &["LMI-DBI", "memcheck", "checks:LDST"].iter().map(|s| s.to_string()).collect::<Vec<_>>(),
    );
    for &(name, lmi_dbi, memcheck, ratio) in &rows {
        print_row(
            name,
            &[format!("{lmi_dbi:.2}x"), format!("{memcheck:.2}x"), format!("{ratio:.2}")],
        );
    }
    println!();
    print_row(
        "geometric mean",
        &[
            format!("{:.2}x", geomean(lmi_all.iter().copied())),
            format!("{:.2}x", geomean(mc_all.iter().copied())),
            String::new(),
        ],
    );
    println!(
        "\npaper: LMI-DBI geomean 72.95x, memcheck 32.98x; memcheck wins \
         big on gaussian (check-dense), the gap narrows on swin. JIT \
         overhead ({}x) applied per §XI-B.",
        lmi_baselines::JIT_OVERHEAD
    );
}
