//! Regenerates paper Fig. 12: normalized execution time of Baggy Bounds
//! Checking (software, naively ported to the GPU), GPUShield, and LMI over
//! the 28 Table V benchmarks on the simulator.

use lmi_bench::report::{self, ReportOpts};
use lmi_bench::{geomean, mean, normalized, print_row, MechanismKind};
use lmi_telemetry::Json;
use lmi_workloads::all_workloads;

fn main() {
    let opts = ReportOpts::from_env();
    let rows: Vec<(&'static str, f64, f64, f64)> = all_workloads()
        .iter()
        .map(|spec| {
            (
                spec.name,
                normalized(spec, MechanismKind::Baggy),
                normalized(spec, MechanismKind::GpuShield),
                normalized(spec, MechanismKind::Lmi),
            )
        })
        .collect();
    let baggy_all: Vec<f64> = rows.iter().map(|r| r.1).collect();
    let shield_all: Vec<f64> = rows.iter().map(|r| r.2).collect();
    let lmi_all: Vec<f64> = rows.iter().map(|r| r.3).collect();

    if opts.json {
        let mut out = Vec::new();
        for &(name, baggy, shield, lmi) in &rows {
            out.push(
                Json::obj()
                    .with("workload", name)
                    .with("baggy", baggy)
                    .with("gpushield", shield)
                    .with("lmi", lmi),
            );
        }
        let body = Json::obj()
            .with("rows", Json::Arr(out))
            .with(
                "mean",
                Json::obj()
                    .with("baggy", mean(baggy_all.iter().copied()))
                    .with("gpushield", mean(shield_all.iter().copied()))
                    .with("lmi", mean(lmi_all.iter().copied())),
            )
            .with(
                "geomean",
                Json::obj()
                    .with("baggy", geomean(baggy_all.iter().copied()))
                    .with("gpushield", geomean(shield_all.iter().copied()))
                    .with("lmi", geomean(lmi_all.iter().copied())),
            )
            .with("lmi_avg_overhead_pct", (mean(lmi_all.iter().copied()) - 1.0) * 100.0);
        report::emit(&report::envelope("fig12_hw_comparison", body));
        return;
    }

    println!("Fig. 12 — normalized execution time (baseline = 1.0)\n");
    print_row(
        "workload",
        &["Baggy", "GPUShield", "LMI"].iter().map(|s| s.to_string()).collect::<Vec<_>>(),
    );
    for &(name, baggy, shield, lmi) in &rows {
        print_row(name, &[format!("{baggy:.4}"), format!("{shield:.4}"), format!("{lmi:.4}")]);
    }
    println!();
    print_row(
        "arithmetic mean",
        &[
            format!("{:.4}", mean(baggy_all.iter().copied())),
            format!("{:.4}", mean(shield_all.iter().copied())),
            format!("{:.4}", mean(lmi_all.iter().copied())),
        ],
    );
    print_row(
        "geometric mean",
        &[
            format!("{:.4}", geomean(baggy_all.iter().copied())),
            format!("{:.4}", geomean(shield_all.iter().copied())),
            format!("{:.4}", geomean(lmi_all.iter().copied())),
        ],
    );
    let baggy_peak = baggy_all.iter().cloned().fold(0.0f64, f64::max);
    println!(
        "\nBaggy peak: {:.2}x; LMI average overhead: {:.3}%",
        baggy_peak,
        (mean(lmi_all.iter().copied()) - 1.0) * 100.0
    );
    println!(
        "paper: LMI 0.22% average; GPUShield competitive except needle (+42.5%) \
         and LSTM (+24.0%); Baggy 87% average, up to 503% on compute-bound kernels."
    );
}
