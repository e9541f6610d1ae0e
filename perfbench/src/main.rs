//! `lmi-perfbench` — the repository benchmark: host cost of the simulator,
//! end to end and layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <table4-serial|table4-parallel|runtime-mixes|fuzz-oracle> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --write-pins > perfbench/pins.txt
//! ```
//!
//! Every workload is a closed loop: one client runs ops back to back,
//! round-robin over the workload's cells, and checks each op's output.
//! The last stdout line is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. End-to-end times are scaled to a
//! steady host speed by a reference timed between ops (`host.rs`); the
//! line before the result records the run's provenance, the same metrics
//! as measured among it. `NOTES.md` maps each metric to its layer.

mod fuzz;
mod host;
mod pins;
mod runtime;
mod sim;
mod stats;
mod trace;

use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use lmi_bench::alloc_audit::CountingAlloc;
use lmi_telemetry::{json, Json};

use host::{Reference, REFERENCE_MS, SAMPLE_EVERY_MS};
use stats::{geomean, median, percentile, ratio};
use trace::Tracer;

// One relaxed atomic per allocation; it makes the `*.allocs_per_*`
// counts possible and is installed in timed and traced runs alike.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Worker processes per run, run one after another. Each sets up on its
/// own, so `setup_s` is the median of several set-ups, and the run's
/// samples span several process memory layouts (see `NOTES.md`).
const WORKERS: u64 = 4;

/// Rounds between the first op indices of two workers, so that workers
/// run different ops.
const WORKER_STRIDE_ROUNDS: u64 = 1 << 20;

/// Fewest timed ops per run, so `op_ms_p90` has at least ten samples
/// beyond it.
const MIN_OPS: usize = 100;

/// Where a traced run writes its spans, inside the checkout.
const SPAN_DIR: &str = ".bench_build/perfbench";

/// The per-layer metrics every traced run reports, with their units. A
/// layer a workload does not exercise reads 0 there (see `NOTES.md`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.prepare_ms", "ms"),
    ("sim.gpu_new_ms", "ms"),
    ("sim.run_ms", "ms"),
    ("sim.ns_per_instr", "ns"),
    ("sim.allocs_per_kcycle", "count/kcycle"),
    ("sim.ns_per_cycle", "ns"),
    ("sim.phase_b_serial_fraction", "ratio"),
    ("mem.l1_hit_rate", "ratio"),
    ("mem.l2_hit_rate", "ratio"),
    ("mem.dram_transactions", "count/op"),
    ("mem.mshr_merges", "count/op"),
    ("mem.bank_imbalance", "ratio"),
    ("mech.mem_access_calls", "count/op"),
    ("mech.mem_access_ns", "ns"),
    ("mech.marked_int_calls", "count/op"),
    ("mech.marked_int_ns", "ns"),
    ("mech.run_share", "ratio"),
    ("runtime.setup_ms", "ms"),
    ("runtime.submit_ms", "ms"),
    ("runtime.sync_ms", "ms"),
    ("runtime.snapshot_ms", "ms"),
    ("runtime.ns_per_instr", "ns"),
    ("runtime.allocs_per_kcycle", "count/kcycle"),
    ("fuzz.generate_us", "us"),
    ("fuzz.mutate_us", "us"),
    ("fuzz.build_us", "us"),
    ("fuzz.oracle_ms", "ms"),
    ("fuzz.allocs_per_case", "count"),
    ("trace.ops_per_s", "1/s"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.overhead_pct", "%"),
];

/// What one op did.
pub struct Op {
    /// Index of the op's cell within a round.
    pub cell: usize,
    /// Whether the op's output passed its check.
    pub ok: bool,
    /// Simulated warp-instructions the op executed (for `kips`).
    pub issued: u64,
}

/// A closed-loop workload: rounds of ops, one per cell, in seed order.
pub trait Workload {
    /// Cell names in round order.
    fn cells(&self) -> Vec<String>;

    /// Runs and checks op `index` (its cell is `index % cells().len()`).
    fn run_op(&mut self, index: u64, tr: &mut Tracer) -> Op;

    /// Untimed work after op `index`; returns simulated warp-instructions
    /// to credit to it when `run_op` could not see them.
    fn after_op(&mut self, _index: u64, _tr: &mut Tracer) -> u64 {
        0
    }

    /// Per-layer metrics from the traced ops (`name` → value).
    fn layer_metrics(&self, tr: &Tracer) -> Vec<(&'static str, f64)>;

    /// The explicit engine configuration the workload runs at.
    fn config(&self) -> Json;
}

/// Ops attempted and failed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Ops run, warm-up included.
    pub attempted: u64,
    /// Ops whose check failed.
    pub failed: u64,
}

impl Tally {
    /// Counts one op.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    write_pins: bool,
    /// Set in worker processes: the worker's number.
    worker: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        write_pins: false,
        worker: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--write-pins" {
            args.write_pins = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            "--worker" => args.worker = Some(value.parse().map_err(|_| bad())?),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload.is_empty() && !args.write_pins {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn make(name: &str, seed: u64, tr: &mut Tracer) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "table4-serial" => Box::new(sim::Table4::new(seed, 1, 1, tr)),
        "table4-parallel" => Box::new(sim::Table4::new(seed, 2, 4, tr)),
        "runtime-mixes" => Box::new(runtime::Mixes::new(seed, tr)),
        "fuzz-oracle" => Box::new(fuzz::Oracle::new(seed)),
        _ => return Err(format!("unknown workload {name}")),
    })
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.write_pins {
        print!("{}", write_pins().to_text());
        return ExitCode::SUCCESS;
    }
    let outcome = match args.worker {
        Some(k) => worker(&args, k, start).map(|report| println!("{}", report.to_compact())),
        None => run(&args),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// One worker process: set-up (inputs, preparation, one untimed warm-up
/// op per cell), then timed rounds over its own range of op indices.
/// Prints a JSON report of raw samples for the parent to aggregate.
fn worker(args: &Args, k: u64, start: Instant) -> Result<Json, String> {
    let mut host = Reference::new();
    host.sample();
    let mut tr = Tracer::new(args.trace);
    let mut quiet = Tracer::new(false);
    let mut tally = Tally::default();
    let mut w = make(&args.workload, args.seed, &mut tr)?;
    let cells = w.cells();
    let round = cells.len() as u64;
    let first = k * WORKER_STRIDE_ROUNDS * round;
    for i in first..first + round {
        tally.record(w.run_op(i, &mut quiet).ok);
    }
    host.sample();
    let setup_raw_s = start.elapsed().as_secs_f64() - host.spent_s();
    let setup_s = setup_raw_s * host.scale_after(1);

    // A traced run traces every other round, so it also measures its own
    // untraced speed.
    let (seconds, min_ops) = (args.seconds / WORKERS as f64, MIN_OPS.div_ceil(WORKERS as usize));
    // (cell, ms, issued, reference samples taken before the op)
    let mut ops: Vec<(usize, f64, u64, usize)> = Vec::new();
    let (mut traced, mut untraced) = ((0u64, 0.0f64), (0u64, 0.0f64));
    let mut index = first + round;
    let mut rounds = 0u64;
    let mut timed = 0.0f64;
    let mut since_sample_ms = 0.0f64;
    while timed < seconds || ops.len() < min_ops {
        let tracing = args.trace && rounds.is_multiple_of(2);
        for _ in 0..round {
            let t = if tracing { &mut tr } else { &mut quiet };
            let t0 = Instant::now();
            let span = t.open("op", index);
            let op = w.run_op(index, t);
            t.close(span);
            let secs = t0.elapsed().as_secs_f64();
            let issued = op.issued + w.after_op(index, t);
            tally.record(op.ok);
            timed += secs;
            ops.push((op.cell, secs * 1e3, issued, host.taken()));
            let side = if tracing { &mut traced } else { &mut untraced };
            side.0 += 1;
            side.1 += secs;
            index += 1;
            since_sample_ms += secs * 1e3;
            if since_sample_ms >= SAMPLE_EVERY_MS {
                host.sample();
                since_sample_ms = 0.0;
            }
        }
        rounds += 1;
    }
    // Two more samples, so the last ops have samples after them too.
    host.sample();
    host.sample();
    let ops = ops
        .into_iter()
        .map(|(cell, ms, issued, taken)| {
            Json::Arr(vec![cell.into(), ms.into(), issued.into(), host.scale_after(taken).into()])
        })
        .collect();

    let mut layers = Json::obj();
    if args.trace {
        for (name, value) in w.layer_metrics(&tr) {
            layers.set(name, value);
        }
    }
    let spans_file = if args.trace { write_spans(&tr, args, k) } else { None };
    Ok(Json::obj()
        .with("attempted", tally.attempted)
        .with("failed", tally.failed)
        .with("setup_s", setup_s)
        .with("setup_raw_s", setup_raw_s)
        .with("reference_ms", host.median_ms())
        .with("peak_rss_mb", peak_rss_mb())
        .with("rounds", rounds)
        .with("ops", Json::Arr(ops))
        .with("traced_ops", traced.0)
        .with("traced_s", traced.1)
        .with("untraced_ops", untraced.0)
        .with("untraced_s", untraced.1)
        .with("layers", layers)
        .with("config", w.config())
        .with("cells", Json::Arr(cells.iter().map(|c| Json::from(c.as_str())).collect()))
        .with("spans_file", spans_file.unwrap_or_default()))
}

/// Runs the workers one after another, waits for each, and aggregates
/// their samples into the run's metrics.
fn run(args: &Args) -> Result<(), String> {
    let load_start = loadavg();
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let mut reports = Vec::new();
    for k in 0..WORKERS {
        let out = Command::new(&exe)
            .args(["--workload", &args.workload, "--seed", &args.seed.to_string()])
            .args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ])
            .args(["--worker", &k.to_string()])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start worker {k}: {e}"))?;
        if !out.status.success() {
            return Err(format!("worker {k} failed: {}", out.status));
        }
        let text = String::from_utf8_lossy(&out.stdout);
        let last = text.lines().last().ok_or_else(|| format!("worker {k} printed nothing"))?;
        reports.push(json::parse(last).map_err(|e| format!("worker {k} report: {e}"))?);
    }

    let num = |r: &Json, key: &str| r.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    let sum = |key: &str| reports.iter().map(|r| num(r, key)).sum::<f64>();
    let (attempted, failed) = (sum("attempted"), sum("failed"));
    let cells = reports[0].get("cells").map(Json::items).unwrap_or(&[]).len();
    // (cell, ms as measured, issued, scale to the reference host speed)
    let ops: Vec<(usize, f64, f64, f64)> = reports
        .iter()
        .flat_map(|r| r.get("ops").map(Json::items).unwrap_or(&[]))
        .map(|op| {
            let f = |i: usize| op.items().get(i).and_then(Json::as_f64).unwrap_or(0.0);
            (f(0) as usize, f(1), f(2), f(3))
        })
        .collect();
    let setups: Vec<(f64, f64)> =
        reports.iter().map(|r| (num(r, "setup_raw_s"), num(r, "setup_s"))).collect();
    let peak_rss = reports.iter().map(|r| num(r, "peak_rss_mb")).fold(0.0, f64::max);
    let measured = end_to_end(&ops, cells, &setups, peak_rss, false);

    let mut metrics = Json::obj();
    let mut put = |name: &str, value: f64, unit: &str| {
        metrics.set(name, Json::obj().with("value", value).with("unit", unit));
    };
    if args.trace {
        let traced = (sum("traced_ops"), sum("traced_s"));
        let untraced = (sum("untraced_ops"), sum("untraced_s"));
        for &(name, unit) in PER_LAYER {
            let value = match name {
                "trace.ops_per_s" => ratio(traced.0, traced.1),
                "trace.untraced_ops_per_s" => ratio(untraced.0, untraced.1),
                "trace.overhead_pct" => {
                    100.0 * (ratio(traced.1, traced.0) / ratio(untraced.1, untraced.0) - 1.0)
                }
                _ => {
                    let per_worker: Vec<f64> = reports
                        .iter()
                        .filter_map(|r| r.get("layers")?.get(name)?.as_f64())
                        .collect();
                    median(&per_worker)
                }
            };
            put(name, value, unit);
        }
    } else {
        for (name, value, unit) in end_to_end(&ops, cells, &setups, peak_rss, true) {
            put(name, value, unit);
        }
    }

    let collect =
        |key: &str| Json::Arr(reports.iter().filter_map(|r| r.get(key).cloned()).collect());
    let mut as_measured = Json::obj();
    for (name, value, _) in measured {
        as_measured.set(name, value);
    }
    let provenance = Json::obj()
        .with("workload", args.workload.as_str())
        .with("seed", args.seed)
        .with("seconds", args.seconds)
        .with("trace", args.trace)
        .with("git_rev", git_rev())
        .with("nproc", std::thread::available_parallelism().map_or(1, |n| n.get()))
        .with("config", reports[0].get("config").cloned().unwrap_or(Json::Null))
        .with("cells", reports[0].get("cells").cloned().unwrap_or(Json::Null))
        .with("workers", WORKERS)
        .with("timed_ops", ops.len())
        .with("as_measured", as_measured)
        .with("reference_ms", REFERENCE_MS)
        .with("measured_reference_ms", collect("reference_ms"))
        .with("setup_s", collect("setup_s"))
        .with("rounds", collect("rounds"))
        .with("loadavg_start", load_start)
        .with("loadavg_end", loadavg())
        .with("spans_files", collect("spans_file"));
    println!("{}", Json::obj().with("provenance", provenance).to_compact());
    let result = Json::obj()
        .with("correct", failed == 0.0)
        .with("attempted", attempted as u64)
        .with("failed", failed as u64)
        .with("metrics", metrics);
    println!("{}", result.to_compact());
    Ok(())
}

/// The end-to-end metrics of a run's pooled ops `(cell, ms, issued,
/// scale)` and its workers' set-ups `(as measured, scaled)`: times scaled
/// to the reference host speed when `scaled`, as measured otherwise.
fn end_to_end(
    ops: &[(usize, f64, f64, f64)],
    cells: usize,
    setups: &[(f64, f64)],
    peak_rss_mb: f64,
    scaled: bool,
) -> Vec<(&'static str, f64, &'static str)> {
    let op_ms: Vec<f64> =
        ops.iter().map(|&(_, ms, _, scale)| if scaled { ms * scale } else { ms }).collect();
    let mut cell_kips = vec![Vec::new(); cells];
    for (&(cell, _, issued, _), &ms) in ops.iter().zip(&op_ms) {
        if issued > 0.0 && cell < cells {
            cell_kips[cell].push(issued / ms);
        }
    }
    let kips: Vec<f64> = cell_kips.iter().filter(|k| !k.is_empty()).map(|k| median(k)).collect();
    let setup_s: Vec<f64> = setups.iter().map(|&(raw, s)| if scaled { s } else { raw }).collect();
    vec![
        ("ops_per_s", op_ms.len() as f64 / (op_ms.iter().sum::<f64>() / 1e3), "1/s"),
        ("op_ms_p50", median(&op_ms), "ms"),
        ("op_ms_p90", percentile(&op_ms, 90.0), "ms"),
        ("kips", geomean(&kips), "kinstr/s"),
        ("setup_s", median(&setup_s), "s"),
        ("peak_rss_mb", peak_rss_mb, "MB"),
    ]
}

/// Recomputes every pin at the reference engine point.
fn write_pins() -> pins::Pins {
    let mut out = pins::Pins::default();
    sim::write_pins(&mut out);
    runtime::write_pins(&mut out);
    out
}

fn write_spans(tr: &Tracer, args: &Args, worker: u64) -> Option<String> {
    let path = format!("{SPAN_DIR}/spans-{}-{}-w{worker}.json", args.workload, args.seed);
    let written = std::fs::create_dir_all(SPAN_DIR)
        .and_then(|()| std::fs::write(&path, tr.to_json().to_compact()));
    match written {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("perfbench: could not write {path}: {e}");
            None
        }
    }
}

/// `VmHWM` (peak resident set) of this process in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .unwrap_or(0.0);
    kb / 1024.0
}

fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg").map(|s| s.trim().to_string()).unwrap_or_default()
}

/// The checked-out revision, read from `.git` in the working directory
/// (no `git` process); "unknown" outside a git checkout.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        None => Some(head.to_string()),
        Some(name) => std::fs::read_to_string(format!(".git/{name}")).ok().or_else(|| {
            let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
            packed
                .lines()
                .find(|l| l.ends_with(name))
                .and_then(|l| l.split(' ').next())
                .map(str::to_string)
        }),
    };
    match rev.map(|r| r.trim().chars().take(12).collect::<String>()) {
        Some(r) if !r.is_empty() => r,
        _ => "unknown".into(),
    }
}
