//! Integration tests for the `lmi-runtime` stream/event layer — the
//! acceptance criteria of the runtime subsystem:
//!
//! * kernels from different streams run **concurrently** on disjoint SM
//!   partitions, in measurably fewer total simulated cycles than the same
//!   submissions chained back-to-back;
//! * per-kernel `SimStats` are bit-identical at `sim_threads` ∈ {1, 2, 8};
//! * a cross-tenant OOB attempt is caught by the victim-independent LMI
//!   check and attributed to the offending stream and tenant in telemetry.

use lmi_core::DevicePtr;
use lmi_isa::instr::CmpOp;
use lmi_isa::reg::PredReg;
use lmi_isa::{abi, op, HintBits, Instruction, MemRef, Program, ProgramBuilder, Reg};
use lmi_runtime::{Runtime, RuntimeReport, SubmitError};
use lmi_sim::{GpuConfig, Launch, LaunchError};
use lmi_telemetry::Scope;

/// `buf[tid] += tid`, repeated `iters` times.
fn worker(name: &str, iters: u32) -> Program {
    let mut b = ProgramBuilder::new(name);
    b.push(Instruction::s2r(Reg(0), op::SpecialReg::TidX));
    b.push(Instruction::ldc(Reg(4), abi::LAUNCH_BANK, abi::param_offset(0), 8));
    b.push(Instruction::lea64(Reg(6), Reg(4), Reg(0), 3));
    b.push(Instruction::mov(Reg(2), 0));
    let top = b.label();
    b.push(Instruction::ldg(Reg(8), MemRef::new(Reg(6), 0, 8)));
    b.push(Instruction::iadd3(Reg(8), Reg(8), Reg(0)));
    b.push(Instruction::stg(MemRef::new(Reg(6), 0, 8), Reg(8)));
    b.push(Instruction::iadd3(Reg(2), Reg(2), 1));
    b.push(Instruction::isetp(PredReg(0), Reg(2), CmpOp::Lt, iters as i32));
    b.branch_if(top, PredReg(0), false);
    b.push(Instruction::exit());
    b.build()
}

/// Submits the two-tenant, two-stream pipeline. With `chained`, stream B
/// waits on an event recorded after stream A's kernel — the back-to-back
/// serial baseline; otherwise both kernels are free to share the GPU.
fn two_stream_run(threads: usize, chained: bool) -> RuntimeReport {
    let mut rt = Runtime::new(GpuConfig::small().with_sim_threads(threads));
    let ta = rt.add_tenant(true);
    let tb = rt.add_tenant(true);
    let sa = rt.create_stream(ta).unwrap();
    let sb = rt.create_stream(tb).unwrap();
    let buf_a = rt.malloc(ta, 4096).unwrap();
    let buf_b = rt.malloc(tb, 4096).unwrap();
    rt.memcpy_h2d(sa, buf_a, &vec![10u64; 512]).unwrap();
    rt.memcpy_h2d(sb, buf_b, &vec![20u64; 512]).unwrap();
    rt.launch(sa, Launch::new(worker("wa", 256)).grid(4).block(64).param(buf_a)).unwrap();
    if chained {
        let ev = rt.create_event();
        rt.record_event(sa, ev).unwrap();
        rt.wait_event(sb, ev).unwrap();
    }
    rt.launch(sb, Launch::new(worker("wb", 256)).grid(4).block(64).param(buf_b)).unwrap();
    rt.synchronize().unwrap();
    rt.report().clone()
}

#[test]
fn concurrent_streams_beat_back_to_back_on_disjoint_partitions() {
    let concurrent = two_stream_run(1, false);
    let serial = two_stream_run(1, true);

    let (ka, kb) = (&concurrent.kernels[0], &concurrent.kernels[1]);
    assert!(
        ka.partition.end <= kb.partition.start || kb.partition.end <= ka.partition.start,
        "concurrent kernels must own disjoint SM partitions: {:?} vs {:?}",
        ka.partition,
        kb.partition
    );
    assert!(!ka.partition.is_empty() && !kb.partition.is_empty());
    assert!(
        ka.started_at < kb.completed_at && kb.started_at < ka.completed_at,
        "the two kernels must overlap in simulated time"
    );

    // "Measurably fewer": well beyond cycle-level noise.
    assert!(
        concurrent.total_cycles as f64 <= serial.total_cycles as f64 * 0.75,
        "concurrent {} vs serial {} cycles",
        concurrent.total_cycles,
        serial.total_cycles
    );

    // The serial baseline really is back-to-back.
    let (sa, sb) = (&serial.kernels[0], &serial.kernels[1]);
    assert!(sb.started_at >= sa.completed_at, "chained kernel starts after the event");
}

#[test]
fn per_kernel_stats_are_identical_across_sim_threads() {
    let reference = two_stream_run(1, false);
    for threads in [2, 8] {
        let other = two_stream_run(threads, false);
        assert_eq!(reference, other, "RuntimeReport diverged at {threads} threads");
        for (a, b) in reference.kernels.iter().zip(&other.kernels) {
            assert_eq!(a.stats, b.stats, "SimStats for {} diverged at {threads} threads", a.name);
        }
    }
}

#[test]
fn cross_tenant_oob_is_caught_and_attributed() {
    let mut rt = Runtime::new(GpuConfig::small());
    let alice = rt.add_tenant(true);
    let bob = rt.add_tenant(true);
    let s_alice = rt.create_stream(alice).unwrap();
    let s_bob = rt.create_stream(bob).unwrap();

    let buf_a = rt.malloc(alice, 4096).unwrap();
    let buf_b = rt.malloc(bob, 4096).unwrap();
    rt.memcpy_h2d(s_bob, buf_b, &[777]).unwrap();

    // Alice redirects her own pointer into Bob's arena via a marked add;
    // the delta arrives as a 64-bit launch parameter.
    let delta = DevicePtr::from_raw(buf_b).addr() - DevicePtr::from_raw(buf_a).addr();
    let mut b = ProgramBuilder::new("cross_tenant");
    b.push(Instruction::ldc(Reg(4), abi::LAUNCH_BANK, abi::param_offset(0), 8));
    b.push(Instruction::ldc(Reg(6), abi::LAUNCH_BANK, abi::param_offset(1), 8));
    b.push(Instruction::iadd64(Reg(4), Reg(4), Reg(6)).with_hints(HintBits::check_operand(0)));
    b.push(Instruction::mov(Reg(0), 0xBAD));
    b.push(Instruction::stg(MemRef::new(Reg(4), 0, 4), Reg(0)));
    b.push(Instruction::exit());
    rt.launch(s_alice, Launch::new(b.build()).grid(1).block(1).param(buf_a).param(delta)).unwrap();
    rt.synchronize().unwrap();

    let attack = rt.report().kernels.last().unwrap();
    assert_eq!(attack.stats.violations.len(), 1, "the cross-tenant store must fault");
    assert_eq!(attack.tenant, alice);
    assert_eq!(attack.stream, s_alice);
    assert_eq!(rt.read(buf_b, 0, 8), 777, "bob's memory is untouched");

    let c = rt.counters();
    assert_eq!(c.get(Scope::Stream(s_alice), "violations"), 1);
    assert_eq!(c.get(Scope::Tenant(alice), "violations"), 1);
    assert_eq!(c.get(Scope::Stream(s_bob), "violations"), 0);
    assert_eq!(c.get(Scope::Tenant(bob), "violations"), 0);
}

#[test]
fn unprotected_tenant_coexists_with_a_protected_one() {
    // A null-mechanism tenant shares the GPU with an LMI tenant; both
    // pipelines complete and only the protected tenant carries extents.
    let mut rt = Runtime::new(GpuConfig::small());
    let prot = rt.add_tenant(true);
    let raw = rt.add_tenant(false);
    let sp = rt.create_stream(prot).unwrap();
    let sr = rt.create_stream(raw).unwrap();
    let bp = rt.malloc(prot, 4096).unwrap();
    let br = rt.malloc(raw, 4096).unwrap();
    assert!(DevicePtr::from_raw(bp).extent() > 0, "protected pointer carries an extent");
    assert_eq!(DevicePtr::from_raw(br).extent(), 0, "unprotected pointer is a plain address");

    rt.memcpy_h2d(sp, bp, &vec![1u64; 64]).unwrap();
    rt.memcpy_h2d(sr, br, &vec![2u64; 64]).unwrap();
    rt.launch(sp, Launch::new(worker("wp", 4)).grid(1).block(64).param(bp)).unwrap();
    rt.launch(sr, Launch::new(worker("wr", 4)).grid(1).block(64).param(br)).unwrap();
    let hp = rt.memcpy_d2h(sp, bp, 512).unwrap();
    let hr = rt.memcpy_d2h(sr, br, 512).unwrap();
    rt.synchronize().unwrap();

    assert_eq!(rt.copy_result(hp).unwrap()[3], 1 + 4 * 3);
    assert_eq!(rt.copy_result(hr).unwrap()[3], 2 + 4 * 3);
    assert!(rt.report().kernels.iter().all(|k| k.stats.violations.is_empty()));
}

#[test]
fn oversized_launch_is_rejected_as_a_typed_error() {
    let mut rt = Runtime::new(GpuConfig::small());
    let t = rt.add_tenant(true);
    let s = rt.create_stream(t).unwrap();
    let cap = GpuConfig::small();
    let too_many = cap.num_sms * cap.max_warps_per_sm + 1;
    let err = rt
        .launch(s, Launch::new(worker("big", 1)).grid(too_many).block(32))
        .expect_err("launch beyond whole-GPU capacity must be rejected");
    match err {
        SubmitError::Launch(LaunchError::WarpCapacityExceeded { .. }) => {}
        other => panic!("expected WarpCapacityExceeded, got {other:?}"),
    }
    // The rejection is recorded, and the runtime stays usable.
    assert_eq!(rt.counters().get(Scope::Stream(s), "rejected"), 1);
    let buf = rt.malloc(t, 256).unwrap();
    rt.launch(s, Launch::new(worker("ok", 1)).grid(1).block(32).param(buf)).unwrap();
    rt.synchronize().unwrap();
    assert_eq!(rt.report().kernels.len(), 1);
}

/// `LDC param0; IADD64 p += 256 (marked); [LDG through p;] EXIT`: on a
/// 256-byte buffer the marked add poisons every lane's pointer.
fn poisoner(name: &str, dereference: bool) -> Program {
    let mut b = ProgramBuilder::new(name);
    b.push(Instruction::ldc(Reg(4), abi::LAUNCH_BANK, abi::param_offset(0), 8));
    b.push(Instruction::iadd64(Reg(4), Reg(4), 256).with_hints(HintBits::check_operand(0)));
    if dereference {
        b.push(Instruction::ldg(Reg(8), MemRef::new(Reg(4), 0, 4)));
    }
    b.push(Instruction::exit());
    b.build()
}

#[test]
fn poison_to_fault_latencies_land_at_the_faulting_scopes() {
    let mut rt = Runtime::new(GpuConfig::small());
    let culprit = rt.add_tenant(true);
    let bystander = rt.add_tenant(true);
    let sc = rt.create_stream(culprit).unwrap();
    let sb = rt.create_stream(bystander).unwrap();
    let buf_c = rt.malloc(culprit, 256).unwrap();
    let buf_b = rt.malloc(bystander, 4096).unwrap();
    rt.launch(sc, Launch::new(poisoner("oob", true)).grid(1).block(32).param(buf_c)).unwrap();
    rt.launch(sb, Launch::new(worker("wb", 2)).grid(1).block(32).param(buf_b)).unwrap();
    rt.synchronize().unwrap();

    let oob = rt.report().kernels.iter().find(|k| k.stream == sc).unwrap();
    assert_eq!(oob.stats.poisoned, 32);
    assert_eq!(oob.stats.forensics.len(), 32, "every lane's fault matches its poison");
    let h = rt.histograms();
    let samples = |scope| h.get(scope, "poison_to_fault").map_or(0, |hist| hist.count());
    for scope in [Scope::Gpu, Scope::Stream(sc), Scope::Tenant(culprit)] {
        assert_eq!(samples(scope), 32, "one sample per matched lane at {scope:?}");
    }
    assert_eq!(samples(Scope::Stream(sb)), 0);
    assert_eq!(samples(Scope::Tenant(bystander)), 0);
}

#[test]
fn a_poison_does_not_follow_the_session_into_another_tenants_kernel() {
    // Tenant A poisons every lane's pointer and exits without a
    // dereference. Tenant B, later in the same session and on the same
    // SM/warp/lanes, faults on a pointer the host freed. B's faults have
    // no in-register provenance: A's poisons died with A's run.
    let mut rt = Runtime::new(GpuConfig::small().with_sim_threads(1).with_mem_banks(1));
    let ta = rt.add_tenant(true);
    let tb = rt.add_tenant(true);
    let sa = rt.create_stream(ta).unwrap();
    let sb = rt.create_stream(tb).unwrap();
    let buf = rt.malloc(ta, 256).unwrap();
    rt.launch(sa, Launch::new(poisoner("poison", false)).grid(1).block(32).param(buf)).unwrap();
    rt.synchronize().unwrap();
    let stale = rt.free(ta, buf).unwrap();
    let mut b = ProgramBuilder::new("stale");
    b.push(Instruction::ldc(Reg(4), abi::LAUNCH_BANK, abi::param_offset(0), 8));
    b.push(Instruction::ldg(Reg(8), MemRef::new(Reg(4), 0, 4)));
    b.push(Instruction::exit());
    rt.launch(sb, Launch::new(b.build()).grid(1).block(32).param(stale)).unwrap();
    rt.synchronize().unwrap();

    let [a, b] = &rt.report().kernels[..] else { panic!("two kernels ran") };
    assert_eq!((a.tenant, a.stats.poisoned, a.stats.violations.len()), (ta, 32, 0));
    assert_eq!((b.tenant, b.stats.violations.len()), (tb, 32));
    assert!(b.stats.forensics.is_empty(), "tenant A's poisons are not tenant B's provenance");
    assert!(rt.histograms().get(Scope::Tenant(tb), "poison_to_fault").is_none());
}

#[test]
fn malformed_memory_shapes_are_rejected_at_launch() {
    // A corrupted mem-valid bit: a load with no address, or an IADD64
    // that gained one (its sources plus the address pair would overflow
    // the decoded scoreboard list). Both are typed rejections at submit,
    // and the session stays usable.
    let mut rt = Runtime::new(GpuConfig::small());
    let t = rt.add_tenant(true);
    let s = rt.create_stream(t).unwrap();
    let buf = rt.malloc(t, 256).unwrap();
    let mut load = worker("noaddr", 1);
    let ldg = load.instructions.iter().position(|i| i.opcode == op::Opcode::Ldg).unwrap();
    load.instructions[ldg].mem = None;
    let mut b = ProgramBuilder::new("straddr");
    b.push(Instruction::iadd64(Reg(4), Reg(6), Reg(2)));
    b.push(Instruction::exit());
    let mut alu = b.build();
    alu.instructions[0].srcs[2] = lmi_isa::Operand::Reg(Reg(10));
    alu.instructions[0].mem = Some(MemRef::new(Reg(12), 0, 8));
    for program in [load, alu] {
        match rt.launch(s, Launch::new(program).grid(1).block(32).param(buf)) {
            Err(SubmitError::Launch(LaunchError::Decode(_))) => {}
            other => panic!("expected a decode rejection, got {other:?}"),
        }
    }
    assert_eq!(rt.counters().get(Scope::Stream(s), "rejected"), 2);
    assert_eq!(rt.counters().get(Scope::Tenant(t), "rejected"), 2);
    rt.launch(s, Launch::new(worker("ok", 1)).grid(1).block(32).param(buf)).unwrap();
    rt.synchronize().unwrap();
    assert_eq!(rt.report().kernels.len(), 1);
}
