//! Internal calibration probe: prints normalized overheads for a few
//! representative workloads so mechanism parameters can be tuned against
//! the paper's targets before running the full figure harnesses.

use lmi_bench::{normalized, print_row, MechanismKind};
use lmi_workloads::all_workloads;

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let all = all_workloads();
    let picks: Vec<_> = if names.is_empty() {
        ["hotspot", "needle", "LSTM", "gaussian", "swin", "bert", "bfs"]
            .iter()
            .map(|n| all.iter().find(|w| w.name == *n).unwrap())
            .collect()
    } else {
        all.iter().filter(|w| names.iter().any(|n| n == w.name)).collect()
    };
    print_row(
        "workload",
        &["LMI", "GPUShield", "Baggy", "LMI-DBI", "memcheck"]
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>(),
    );
    for w in picks {
        let cols = [
            MechanismKind::Lmi,
            MechanismKind::GpuShield,
            MechanismKind::Baggy,
            MechanismKind::LmiDbi,
            MechanismKind::Memcheck,
        ]
        .iter()
        .map(|&m| format!("{:.4}", normalized(w, m)))
        .collect::<Vec<_>>();
        print_row(w.name, &cols);
    }
}
