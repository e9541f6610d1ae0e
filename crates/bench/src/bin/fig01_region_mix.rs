//! Regenerates paper Fig. 1: ratio of memory instructions per region
//! (LDG/STG vs LDS/STS vs LDL/STL) for every Table V workload, measured by
//! executing each kernel on the simulator and counting warp-level
//! loads/stores.

use lmi_bench::report::{self, ReportOpts};
use lmi_bench::{print_row, run_workload, MechanismKind};
use lmi_isa::MemSpace;
use lmi_telemetry::Json;
use lmi_workloads::all_workloads;

fn main() {
    let opts = ReportOpts::from_env();
    let rows: Vec<(&'static str, [f64; 3])> = all_workloads()
        .iter()
        .map(|spec| {
            let stats = run_workload(spec, MechanismKind::Null);
            (
                spec.name,
                [
                    stats.mem_ratio(MemSpace::Global),
                    stats.mem_ratio(MemSpace::Shared),
                    stats.mem_ratio(MemSpace::Local),
                ],
            )
        })
        .collect();

    if opts.json {
        let mut out = Vec::new();
        for (name, [g, s, l]) in &rows {
            out.push(
                Json::obj()
                    .with("workload", *name)
                    .with("global", *g)
                    .with("shared", *s)
                    .with("local", *l),
            );
        }
        report::emit(&report::envelope(
            "fig01_region_mix",
            Json::obj().with("rows", Json::Arr(out)),
        ));
        return;
    }

    println!("Fig. 1 — memory instructions per region (measured)\n");
    print_row(
        "workload",
        &["global", "shared", "local"].iter().map(|s| s.to_string()).collect::<Vec<_>>(),
    );
    for (name, ratios) in &rows {
        let cols = ratios.iter().map(|r| format!("{:5.1}%", r * 100.0)).collect::<Vec<_>>();
        print_row(name, &cols);
    }
    println!(
        "\npaper call-outs: bert/decoding are global-dominant; lud_cuda and \
         needle issue >80% shared-memory operations."
    );
}
