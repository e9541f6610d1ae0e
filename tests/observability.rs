//! Observability contract tests.
//!
//! * **Golden trace export**: a traced simulation's Chrome trace document
//!   round-trips through the crate's own JSON parser, and its events obey
//!   the trace-event format (monotonically non-decreasing timestamps,
//!   `ph`/`ts`/`pid`/`tid` on every event, `dur` on complete spans).
//! * **Counter/stats consistency**: across random well-typed kernels
//!   (seeded SplitMix64, as in `conformance`), a memory-free kernel
//!   and a heap-violation kernel, every engine-emitted counter agrees with
//!   the `SimStats` total the same run reports, and its key
//!   exists exactly when its site was reached — the two observability
//!   paths cannot drift apart.
//! * **Golden registries**: the complete counter listings of three runs
//!   (LMI heap violations, GPUShield `bfs`, a two-tenant LMI session) are
//!   pinned in `tests/golden/` at two engine points.
//! * **Profiler/metrics contract**: histogram merge is associative and
//!   order-independent; a sampled multi-tenant session's metrics snapshot
//!   is bit-identical at 1/2/8 sim threads; sampling off changes no
//!   existing stats; and the Prometheus exposition (what `profile --prom`
//!   prints) round-trips against the JSON snapshot (what `profile --json`
//!   prints), name for name, label for label, value for value.

use lmi::alloc::AlignmentPolicy;
use lmi::baselines::GpuShield;
use lmi::compiler::ir::{Function, FunctionBuilder, IBinOp, Region, Ty};
use lmi::compiler::{compile, CompileOptions};
use lmi::core::{DevicePtr, PtrConfig, TemporalKind, Violation};
use lmi::isa::MemSpace;
use lmi::mem::layout;
use lmi::runtime::{MetricsSnapshot, Runtime};
use lmi::sim::{Gpu, GpuConfig, Launch, LmiMechanism};
use lmi::telemetry::export::metric_name;
use lmi::telemetry::{json, parse_prometheus, Histogram, Scope, SplitMix64, TelemetrySink};
use lmi::workloads::{all_workloads, prepare, prepare_in, runtime_mixes, TrafficMix};

/// A random-but-safe straight-line kernel: a few strided global accesses,
/// some arithmetic, one published result per thread.
fn random_kernel(rng: &mut SplitMix64) -> Function {
    let mut b = FunctionBuilder::new("obs");
    let data = b.param(Ty::Ptr(Region::Global));
    let tid = b.tid();
    let zero = b.const_i32(0);
    let acc = b.var(zero);
    for _ in 0..rng.range(1, 6) {
        let off_v = b.const_i32(rng.below(900) as i32);
        let idx = b.ibin(IBinOp::Add, tid, off_v);
        let e = b.gep(data, idx, 4);
        if rng.chance(0.5) {
            let v = b.read_var(acc);
            b.store(e, v, 4);
        } else {
            let v = b.load_i32(e);
            let cur = b.read_var(acc);
            let next = b.ibin(IBinOp::Add, cur, v);
            b.write_var(acc, next);
        }
    }
    for _ in 0..rng.below(4) {
        let c = b.const_i32(rng.below(100) as i32 + 1);
        let cur = b.read_var(acc);
        let next = b.ibin(IBinOp::Mul, cur, c);
        b.write_var(acc, next);
    }
    let out = b.gep(data, tid, 4);
    let v = b.read_var(acc);
    b.store(out, v, 4);
    b.ret();
    b.build()
}

/// A kernel that trips every mechanism counter the engine emits: a
/// device-heap `malloc` of LMI's minimum extent (256 bytes), a marked
/// 16-byte-per-thread bump that leaves it on lanes 16 and up (OCU poison),
/// a store through it (EC fault), `free` (extent nullification), and a
/// load and a marked bump through the dangling pointer (use-after-free).
fn heap_violation_kernel() -> Function {
    let mut b = FunctionBuilder::new("heap-violations");
    let _data = b.param(Ty::Ptr(Region::Global));
    let tid = b.tid();
    let size = b.const_i32(256);
    let p = b.malloc(size);
    let e = b.gep(p, tid, 16);
    b.store(e, tid, 4);
    b.free(p);
    let stale = b.load_i32(p);
    let out = b.gep(p, stale, 4);
    b.store(out, stale, 4);
    b.ret();
    b.build()
}

/// A kernel with no memory access at all: per-thread arithmetic only.
fn arithmetic_kernel() -> Function {
    let mut b = FunctionBuilder::new("alu-only");
    let tid = b.tid();
    let c = b.const_i32(7);
    let _ = b.ibin(IBinOp::Mul, tid, c);
    b.ret();
    b.build()
}

/// A memory-bound kernel: four strided global loads per thread, summed
/// into one store.
fn memory_bound_kernel() -> Function {
    let mut b = FunctionBuilder::new("mem-bound");
    let data = b.param(Ty::Ptr(Region::Global));
    let tid = b.tid();
    let mut sum = b.const_i32(0);
    for k in 0..4 {
        let stride = b.const_i32(k * 128);
        let idx = b.ibin(IBinOp::Add, tid, stride);
        let e = b.gep(data, idx, 4);
        let v = b.load_i32(e);
        sum = b.ibin(IBinOp::Add, sum, v);
    }
    let out = b.gep(data, tid, 4);
    b.store(out, sum, 4);
    b.ret();
    b.build()
}

fn run_telemetered_on(
    kernel: &Function,
    sink: &mut TelemetrySink,
    gpu_cfg: GpuConfig,
) -> lmi::sim::SimStats {
    let cfg = PtrConfig::default();
    let bin = compile(kernel, CompileOptions::default()).unwrap();
    let base_addr = layout::GLOBAL_BASE + 0x300000;
    let ptr = DevicePtr::encode(base_addr, 4096, &cfg).unwrap();
    let launch = Launch::new(bin.program).grid(2).block(64).param(ptr.raw());
    let mut gpu = Gpu::new(gpu_cfg);
    for i in 0..1024u64 {
        gpu.memory.write(base_addr + i * 4, i.wrapping_mul(2654435761), 4);
    }
    gpu.try_run(&launch, &mut LmiMechanism::default_config(), sink).unwrap()
}

fn run_telemetered(kernel: &Function, sink: &mut TelemetrySink) -> lmi::sim::SimStats {
    run_telemetered_on(kernel, sink, GpuConfig::small())
}

/// Replays a whole traffic mix through a runtime session (the `profile`
/// bin's submission pattern) and returns its metrics snapshot.
fn run_traffic_session(mix: &TrafficMix, threads: usize, period: u64) -> MetricsSnapshot {
    traffic_session_on(mix, GpuConfig::small().with_sim_threads(threads).with_sample_period(period))
}

fn traffic_session_on(mix: &TrafficMix, cfg: GpuConfig) -> MetricsSnapshot {
    let mut rt = Runtime::new(cfg);
    let tenants: Vec<usize> =
        mix.tenants.iter().map(|&protected| rt.add_tenant(protected)).collect();
    for (i, traffic) in mix.streams.iter().enumerate() {
        let spec = mix.spec_of(i);
        let tenant = tenants[traffic.tenant];
        let prepared = prepare_in(&spec, &mut rt.tenant_mut(tenant).allocator);
        let stream = rt.create_stream(tenant).expect("tenant exists");
        let buf = prepared.launch.params[0];
        let words: Vec<u64> = (0..traffic.h2d_words as u64).collect();
        rt.memcpy_h2d(stream, buf, &words).expect("stream exists");
        rt.launch(stream, prepared.launch).expect("workload launches are valid");
        rt.memcpy_d2h(stream, buf, traffic.d2h_bytes).expect("stream exists");
    }
    rt.synchronize().expect("mix drains without deadlock");
    rt.metrics_snapshot()
}

fn mix_named(name: &str) -> TrafficMix {
    runtime_mixes().into_iter().find(|m| m.name == name).expect("known mix")
}

#[test]
fn chrome_trace_export_is_valid_json_with_monotonic_timestamps() {
    let mut rng = SplitMix64::new(0x7ACE);
    let kernel = random_kernel(&mut rng);
    let mut sink = TelemetrySink::with_trace_capacity(1 << 14);
    let stats = run_telemetered(&kernel, &mut sink);
    assert!(!stats.violated());
    assert!(!sink.tracer.is_empty(), "traced run produced no events");

    // The golden property: the serialized document parses with the crate's
    // own parser (compact and pretty forms agree), and the events are
    // well-formed trace events in non-decreasing timestamp order.
    let doc = sink.tracer.chrome_trace();
    let reparsed = json::parse(&doc.to_compact()).expect("compact trace must be valid JSON");
    let reparsed_pretty = json::parse(&doc.to_pretty()).expect("pretty trace must be valid JSON");
    assert_eq!(reparsed.to_compact(), reparsed_pretty.to_compact());

    let events = reparsed.get("traceEvents").expect("traceEvents").items();
    assert_eq!(events.len(), sink.tracer.len());
    let mut last_ts = 0u64;
    for ev in events {
        let ts = ev.get("ts").and_then(|t| t.as_u64()).expect("every event has ts");
        assert!(ts >= last_ts, "timestamps must be non-decreasing ({ts} < {last_ts})");
        last_ts = ts;
        assert!(ev.get("name").and_then(|n| n.as_str()).is_some());
        assert!(ev.get("pid").and_then(|p| p.as_u64()).is_some());
        assert!(ev.get("tid").and_then(|t| t.as_u64()).is_some());
        match ev.get("ph").and_then(|p| p.as_str()).expect("every event has ph") {
            "X" => assert!(ev.get("dur").and_then(|d| d.as_u64()).is_some()),
            "i" => assert_eq!(ev.get("s").and_then(|s| s.as_str()), Some("t")),
            other => panic!("unexpected phase {other:?}"),
        }
    }
    assert!(reparsed.get("droppedEvents").and_then(|d| d.as_u64()).is_some());
}

#[test]
fn registry_counters_agree_with_sim_stats_on_random_kernels() {
    // Sixteen safe random kernels, then a kernel with no memory access at
    // all and the heap-violation kernel, so every engine-emitted name is
    // both present and absent somewhere.
    let mut rng = SplitMix64::new(0x0B5E);
    let mut kernels: Vec<Function> = (0..16).map(|_| random_kernel(&mut rng)).collect();
    kernels.push(arithmetic_kernel());
    kernels.push(heap_violation_kernel());
    for (case, kernel) in kernels.iter().enumerate() {
        let mut sink = TelemetrySink::counters_only();
        let stats = run_telemetered_on(kernel, &mut sink, GpuConfig::small());
        assert_eq!(stats.violated(), case == kernels.len() - 1, "case {case}");

        let c = &sink.counters;
        // A counter's key exists iff some event reached its site.
        let has = |name: &str| c.iter().any(|(_, n, _)| n == name);
        // Every LD/ST the SMs issued, constant-bank loads included.
        let mem_insts = stats.mem_total() + stats.mem_count(MemSpace::Const);
        assert_eq!(c.sum_sms("mem_insts"), mem_insts, "case {case}: mem_insts");
        assert_eq!(has("mem_insts"), mem_insts > 0, "case {case}: mem_insts key");
        assert_eq!(has("transactions"), mem_insts > 0, "case {case}: transactions key");
        // One heap call per warp-instruction; every warp of the launch is
        // full, so each call allocates or frees for 32 lanes.
        let heap_lanes = stats.mallocs + stats.frees;
        assert_eq!(c.sum_sms("heap_calls") * 32, heap_lanes, "case {case}: heap_calls");
        assert_eq!(has("heap_calls"), heap_lanes > 0, "case {case}: heap_calls key");
        // The mechanism scope: compiled code marks wide ops only, and the
        // OCU checks each once; `faults` counts the EC's faulting lanes,
        // the violations that are not heap-call errors.
        let lmi = Scope::Mechanism("lmi");
        assert_eq!(c.get(lmi, "checks"), stats.marked_issued, "case {case}: checks");
        assert_eq!(has("checks"), stats.marked_issued > 0, "case {case}: checks key");
        assert_eq!(c.get(lmi, "poisoned"), stats.poisoned, "case {case}: poisoned");
        assert_eq!(has("poisoned"), stats.poisoned > 0, "case {case}: poisoned key");
        let heap_error = |v: &Violation| {
            matches!(v, Violation::Temporal(TemporalKind::InvalidFree | TemporalKind::DoubleFree))
        };
        let ec_faults =
            stats.violations.iter().filter(|e| !heap_error(&e.violation)).count() as u64;
        assert_eq!(c.get(lmi, "faults"), ec_faults, "case {case}: faults");
        assert_eq!(has("faults"), ec_faults > 0, "case {case}: faults key");
        assert_eq!(c.sum_sms("issued"), stats.issued, "case {case}: issued");
        assert_eq!(c.sum_sms("transactions"), stats.transactions, "case {case}: transactions");
        assert_eq!(c.get(Scope::Gpu, "cycles"), stats.cycles, "case {case}: cycles");
        assert_eq!(
            c.sum_sms("stall.scoreboard"),
            stats.stalls.scoreboard,
            "case {case}: scoreboard stalls"
        );
        assert_eq!(c.sum_sms("stall.lsu_busy"), stats.stalls.lsu_busy, "case {case}: lsu stalls");
        assert_eq!(
            c.sum_sms("stall.ocu_verdict"),
            stats.stalls.ocu_verdict,
            "case {case}: ocu stalls"
        );
        assert_eq!(
            c.sum_sms("stall.no_ready_warp"),
            stats.stalls.no_ready_warp,
            "case {case}: idle stalls"
        );
        let l1 = stats.l1_total();
        assert_eq!(c.sum_sms("l1.hits"), l1.hits, "case {case}: l1 hits");
        assert_eq!(c.sum_sms("l1.misses"), l1.misses, "case {case}: l1 misses");
        assert_eq!(c.get(Scope::Gpu, "l2.hits"), stats.l2.hits, "case {case}: l2 hits");
        assert_eq!(c.get(Scope::Gpu, "l2.misses"), stats.l2.misses, "case {case}: l2 misses");
        assert_eq!(c.get(Scope::Gpu, "mshr_merges"), stats.mshr_merges, "case {case}: mshr merges");
        assert_eq!(
            c.get(Scope::Gpu, "dram_transactions"),
            stats.dram_transactions,
            "case {case}: dram transactions"
        );
        // Per-warp issue counters partition the per-SM totals.
        let warp_issued: u64 = c
            .iter()
            .filter(|(scope, name, _)| matches!(scope, Scope::Warp { .. }) && *name == "issued")
            .map(|(_, _, v)| v)
            .sum();
        assert_eq!(warp_issued, stats.issued, "case {case}: warp-scope issued");
    }
}

/// A registry listing, one `scope name value` line per counter in the
/// registry's own (scope, name) order.
fn render(counters: impl Iterator<Item = (Scope, &'static str, u64)>) -> String {
    counters.map(|(scope, name, v)| format!("{} {name} {v}\n", scope.label())).collect()
}

/// The engine point `(sim_threads, mem_banks)` on the 8-SM `small()` GPU.
fn engine_point(threads: usize, banks: usize) -> GpuConfig {
    GpuConfig::small().with_sim_threads(threads).with_mem_banks(banks)
}

/// LMI over [`heap_violation_kernel`]: poison, faults and heap calls.
fn lmi_heap_violation_registry(threads: usize, banks: usize) -> String {
    let mut sink = TelemetrySink::counters_only();
    let kernel = heap_violation_kernel();
    let stats = run_telemetered_on(&kernel, &mut sink, engine_point(threads, banks));
    assert!(stats.violated() && stats.poisoned > 0, "the kernel poisons and faults");
    render(sink.counters.iter())
}

/// GPUShield over a scaled-down `bfs` from the Fig 12 workload set.
fn gpushield_workload_registry(threads: usize, banks: usize) -> String {
    let spec = all_workloads().into_iter().find(|w| w.name == "bfs").expect("bfs").scaled_down(4);
    let prepared = prepare(&spec, AlignmentPolicy::CudaDefault);
    let mut shield = GpuShield::with_buffers(&prepared.buffers);
    let mut gpu = Gpu::new(engine_point(threads, banks));
    let mut sink = TelemetrySink::counters_only();
    let stats = gpu.try_run(&prepared.launch, &mut shield, &mut sink).unwrap();
    assert!(!stats.violated());
    render(sink.counters.iter())
}

/// The `dual-tenant` mix (two LMI tenants in one cohort) through a whole
/// runtime session: engine counters under one merged `mech:lmi` scope,
/// plus the stream and tenant scopes.
fn dual_tenant_session_registry(threads: usize, banks: usize) -> String {
    let mix = mix_named("dual-tenant");
    assert!(mix.tenants.iter().all(|&protected| protected), "both tenants run LMI");
    render(traffic_session_on(&mix, engine_point(threads, banks)).frame.counters.iter())
}

#[test]
fn engine_counters_match_the_golden_registries() {
    // The exact registries (every key, every value) of three runs, as
    // rendered by `render`: a change to how the engine accumulates its
    // counters must not move a single line. Identical at every engine
    // point, so one listing serves both.
    for (threads, banks) in [(1, 1), (2, 4)] {
        let at = format!("sim_threads={threads} mem_banks={banks}");
        assert_eq!(
            lmi_heap_violation_registry(threads, banks),
            include_str!("golden/registry_lmi_heap_violations.txt"),
            "{at}: LMI heap-violation registry"
        );
        assert_eq!(
            gpushield_workload_registry(threads, banks),
            include_str!("golden/registry_gpushield_bfs.txt"),
            "{at}: GPUShield bfs registry"
        );
        assert_eq!(
            dual_tenant_session_registry(threads, banks),
            include_str!("golden/registry_dual_tenant_session.txt"),
            "{at}: dual-tenant session registry"
        );
    }
}

#[test]
fn phase_b_serial_items_count_the_leaders_steps() {
    // The B-check steps once over each quiet slot, and once per live event
    // of each busy slot (one with an op deferred without a verdict), every
    // visited cycle. Neither kernel defers anything under LMI: the
    // ALU-only kernel has no shared op, and every access of the
    // memory-bound kernel passes the EC on its SM. So every item is a
    // quiet step: the count is the 8 slots times the visited cycles, not
    // the issues.
    for (threads, banks) in [(1, 1), (2, 4)] {
        let at = format!("sim_threads={threads} mem_banks={banks}");
        let run = |kernel: &Function| {
            let mut sink = TelemetrySink::counters_only();
            let st = run_telemetered_on(kernel, &mut sink, engine_point(threads, banks));
            (st.issued, st.phase_b_serial_items, st.phase_b_banked_items)
        };
        assert_eq!(run(&arithmetic_kernel()), (16, 88, 0), "{at}: ALU-only kernel");
        assert_eq!(run(&memory_bound_kernel()), (104, 872, 656), "{at}: memory-bound kernel");
    }
}

#[test]
fn histogram_merge_is_associative_and_order_independent() {
    let mut rng = SplitMix64::new(0x4157_0611);
    for case in 0..8 {
        // Random values spread across ~54 octaves of magnitude (small
        // enough that 400 of them cannot overflow a u64 sum), recorded
        // once into a reference and split across three parts.
        let values: Vec<u64> =
            (0..rng.range(3, 400)).map(|_| rng.next_u64() >> (10 + rng.below(54))).collect();
        let mut reference = Histogram::new();
        let mut parts = [Histogram::new(), Histogram::new(), Histogram::new()];
        for (i, &v) in values.iter().enumerate() {
            reference.record(v);
            parts[i % 3].record(v);
        }
        let [a, b, c] = &parts;

        // Associative: (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c).
        let mut left = a.clone();
        left.merge(b);
        left.merge(c);
        let mut bc = b.clone();
        bc.merge(c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right, "case {case}: merge must be associative");

        // Order-independent, and splitting loses nothing: any permutation
        // equals recording every value into one histogram.
        let mut reversed = c.clone();
        reversed.merge(a);
        reversed.merge(b);
        assert_eq!(left, reversed, "case {case}: merge must be order-independent");
        assert_eq!(left, reference, "case {case}: merged parts must equal the whole");
        assert_eq!(left.count(), values.len() as u64, "case {case}");
        assert_eq!(left.sum(), values.iter().sum::<u64>(), "case {case}");
    }
}

#[test]
fn profiler_output_is_bit_identical_across_sim_threads() {
    // The acceptance bar: with sampling enabled, a multi-tenant traffic
    // session produces bit-identical profiler + histogram output at 1, 2
    // and 8 sim threads. Each SM samples its own state in phase A into
    // its own profile, folded per SM id after the run, so the whole
    // snapshot — not just the profiles — must compare equal.
    let mix = mix_named("quad-stream");
    let reference = run_traffic_session(&mix, 1, 64);
    assert!(!reference.frame.profiles.is_empty(), "sampling on must produce profiles");
    assert!(
        reference.frame.profiles.values().all(|p| p.samples() > 0),
        "every profiled kernel must have samples"
    );
    assert!(!reference.frame.histograms.is_empty(), "latency histograms must be populated");
    for threads in [2, 8] {
        let other = run_traffic_session(&mix, threads, 64);
        assert_eq!(reference, other, "metrics snapshot diverged at {threads} sim threads");
    }
}

#[test]
fn sampling_disabled_changes_no_existing_stats() {
    // Default-off means exactly that: with the period at 0 the run's
    // stats and counters are byte-for-byte what they were before the
    // profiler existed; turning sampling on only ever *adds* a profile.
    let mut rng = SplitMix64::new(0x0FF5);
    for case in 0..4 {
        let kernel = random_kernel(&mut rng);
        let mut sink_off = TelemetrySink::counters_only();
        let mut sink_on = TelemetrySink::counters_only();
        let off = run_telemetered_on(&kernel, &mut sink_off, GpuConfig::small());
        let on =
            run_telemetered_on(&kernel, &mut sink_on, GpuConfig::small().with_sample_period(32));
        assert!(off.profile.is_empty(), "case {case}: period 0 must not sample");
        assert!(!on.profile.is_empty(), "case {case}: period 32 must sample");
        let mut on_sans_profile = on.clone();
        on_sans_profile.profile = Default::default();
        assert_eq!(off, on_sans_profile, "case {case}: sampling altered pre-existing stats");
        assert_eq!(sink_off.counters, sink_on.counters, "case {case}: counters diverged");
    }
}

#[test]
fn prometheus_exposition_round_trips_against_the_json_snapshot() {
    // What `profile --prom` prints is `snap.to_prometheus()` and what
    // `profile --json` wraps is `snap.to_json()`; parsing the former and
    // walking the latter must yield the same numbers, name for name,
    // label for label, value for value.
    let mix = mix_named("dual-tenant");
    let snap = run_traffic_session(&mix, 2, 64);
    assert!(!snap.frame.is_empty());
    let samples = parse_prometheus(&snap.to_prometheus()).expect("exposition must parse");
    let doc = snap.to_json();
    let find = |name: &str, labels: &[(&str, &str)]| -> f64 {
        samples
            .iter()
            .find(|s| s.name == name && labels.iter().all(|(k, v)| s.label(k) == Some(*v)))
            .unwrap_or_else(|| panic!("sample {name} {labels:?} missing from exposition"))
            .value
    };

    // Every counter appears in both renderings with the same value.
    let counters_json = doc.get("counters").expect("counters");
    for (scope, name, v) in snap.frame.counters.iter() {
        let label = scope.label();
        assert_eq!(find(&metric_name(name), &[("scope", &label)]), v as f64, "{label}/{name}");
        let jv = counters_json.get(&label).and_then(|s| s.get(name)).and_then(|n| n.as_u64());
        assert_eq!(jv, Some(v), "JSON counter {label}/{name}");
    }

    // Every histogram's count and sum agree across all three sources.
    let hists_json = doc.get("histograms").expect("histograms");
    for (scope, name, h) in snap.frame.histograms.iter() {
        let label = scope.label();
        let family = metric_name(name);
        let scoped: [(&str, &str); 1] = [("scope", &label)];
        assert_eq!(find(&format!("{family}_count"), &scoped), h.count() as f64);
        assert_eq!(find(&format!("{family}_sum"), &scoped), h.sum() as f64);
        assert_eq!(
            find(&format!("{family}_bucket"), &[("scope", &label), ("le", "+Inf")]),
            h.count() as f64
        );
        let hj = hists_json.get(&label).and_then(|s| s.get(name)).expect("JSON histogram");
        assert_eq!(hj.get("count").and_then(|n| n.as_u64()), Some(h.count()));
        assert_eq!(hj.get("sum").and_then(|n| n.as_u64()), Some(h.sum()));
    }

    // Profiles: per-kernel sample totals and warp-state counts line up.
    let profiles_json = doc.get("profiles").expect("profiles");
    assert!(!snap.frame.profiles.is_empty());
    for (kernel, p) in &snap.frame.profiles {
        assert_eq!(find("lmi_profile_samples", &[("kernel", kernel)]), p.samples() as f64);
        let pj = profiles_json.get(kernel).expect("JSON profile");
        assert_eq!(pj.get("samples").and_then(|n| n.as_u64()), Some(p.samples()));
        for (state, &n) in lmi::telemetry::WARP_STATE_NAMES.iter().zip(&p.states()) {
            assert_eq!(
                find("lmi_profile_warp_state", &[("kernel", kernel), ("state", state)]),
                n as f64,
                "{kernel}/{state}"
            );
        }
    }

    // Session framing: makespan gauge and the JSON field agree.
    assert_eq!(find("lmi_session_total_cycles", &[]), snap.total_cycles as f64);
    assert_eq!(doc.get("total_cycles").and_then(|n| n.as_u64()), Some(snap.total_cycles));
    assert_eq!(
        doc.get("tenants").expect("tenants").items().len(),
        snap.tenants.len(),
        "one SLO row per tenant"
    );
}
