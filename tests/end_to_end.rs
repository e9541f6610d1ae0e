//! Cross-crate integration tests: IR → LMI pass → codegen → simulator →
//! detection, the full pipeline of the paper's Fig. 2 architecture.

use lmi::compiler::ir::{CmpKind, FunctionBuilder, IBinOp, Region, Ty};
use lmi::compiler::{compile, CompileOptions};
use lmi::core::{DevicePtr, PtrConfig, TemporalKind, Violation};
use lmi::mem::layout;
use lmi::sim::{Gpu, GpuConfig, Launch, LmiMechanism, NullMechanism};

fn cfg() -> PtrConfig {
    PtrConfig::default()
}

/// data[tid] = tid * 3 over a compiled kernel; checks functional output.
#[test]
fn compiled_kernel_computes_correctly_under_lmi() {
    let mut b = FunctionBuilder::new("triple");
    let data = b.param(Ty::Ptr(Region::Global));
    let tid = b.tid();
    let ctaid = b.ctaid();
    let ntid = b.ntid();
    let blk = b.ibin(IBinOp::Mul, ctaid, ntid);
    let gid = b.ibin(IBinOp::Add, blk, tid);
    let three = b.const_i32(3);
    let v = b.ibin(IBinOp::Mul, gid, three);
    let e = b.gep(data, gid, 4);
    b.store(e, v, 4);
    b.ret();
    let kernel = compile(&b.build(), CompileOptions::default()).unwrap();

    let buf = DevicePtr::encode(layout::GLOBAL_BASE, 4096, &cfg()).unwrap();
    let launch = Launch::new(kernel.program).grid(2).block(64).param(buf.raw());
    let mut gpu = Gpu::new(GpuConfig::small());
    let mut mech = LmiMechanism::default_config();
    let stats = gpu.run(&launch, &mut mech);
    assert!(!stats.violated(), "benign kernel must not fault");
    for tid in 0..128u64 {
        assert_eq!(gpu.memory.read(buf.addr() + tid * 4, 4), tid * 3, "thread {tid}");
    }
}

/// The same kernel binary behaves identically with and without LMI hardware
/// (hint bits are inert without an OCU).
#[test]
fn lmi_binary_is_backward_compatible() {
    let mut b = FunctionBuilder::new("bc");
    let data = b.param(Ty::Ptr(Region::Global));
    let tid = b.tid();
    let e = b.gep(data, tid, 4);
    b.store(e, tid, 4);
    b.ret();
    let kernel = compile(&b.build(), CompileOptions::default()).unwrap();
    let buf = DevicePtr::encode(layout::GLOBAL_BASE + 0x100000, 4096, &cfg()).unwrap();

    let launch = Launch::new(kernel.program).grid(1).block(64).param(buf.raw());
    let mut with_hw = Gpu::new(GpuConfig::small());
    with_hw.run(&launch, &mut LmiMechanism::default_config());
    let mut without_hw = Gpu::new(GpuConfig::small());
    without_hw.run(&launch, &mut NullMechanism);
    for tid in 0..64u64 {
        assert_eq!(
            with_hw.memory.read(buf.addr() + tid * 4, 4),
            without_hw.memory.read(buf.addr() + tid * 4, 4)
        );
    }
}

/// Heap use-after-free through the full stack: kernel mallocs, frees, and
/// dereferences; the compiler's extent nullification plus the EC catch it.
#[test]
fn compiled_use_after_free_is_caught() {
    let mut b = FunctionBuilder::new("uaf");
    let sz = b.const_i32(256);
    let p = b.malloc(sz);
    let tid = b.tid();
    let e = b.gep(p, tid, 4);
    b.store(e, tid, 4);
    b.free(p);
    // Use after free — through a pointer derived from the freed value.
    let e2 = b.gep(p, tid, 4);
    b.store(e2, tid, 4);
    b.ret();
    let kernel = compile(&b.build(), CompileOptions::default()).unwrap();

    let launch = Launch::new(kernel.program).grid(1).block(1);
    let mut gpu = Gpu::new(GpuConfig::security());
    let mut mech = LmiMechanism::default_config();
    let stats = gpu.run(&launch, &mut mech);
    assert!(stats.violated(), "UAF store must fault");
}

/// Double free through the runtime: the second free is rejected.
#[test]
fn kernel_double_free_is_reported() {
    let mut b = FunctionBuilder::new("df");
    let sz = b.const_i32(128);
    let p = b.malloc(sz);
    b.free(p);
    b.free(p);
    b.ret();
    // Compile WITHOUT the LMI pass so the second free reaches the runtime
    // (the LMI build nullifies the pointer, and FREE of an invalid pointer
    // is itself rejected).
    let kernel = compile(&b.build(), CompileOptions::baseline()).unwrap();
    let launch = Launch::new(kernel.program).grid(1).block(1);
    let mut gpu = Gpu::new(GpuConfig::security());
    let stats = gpu.run(&launch, &mut NullMechanism);
    assert!(stats
        .violations
        .iter()
        .any(|v| v.violation == Violation::Temporal(TemporalKind::DoubleFree)));
}

/// Use-after-scope: a stack buffer's pointer dies at function return.
#[test]
fn compiled_use_after_scope_nullification() {
    // The compiled kernel invalidates its alloca pointers before EXIT; we
    // verify by inspecting the generated code (the AND with the extent
    // mask) and by the Fig. 11 semantics tested in lmi-core. Here: the
    // full binary runs clean under LMI.
    let mut b = FunctionBuilder::new("uas");
    let buf = b.alloca(128);
    let tid = b.tid();
    let e = b.gep(buf, tid, 4);
    b.store(e, tid, 4);
    b.ret();
    let kernel = compile(&b.build(), CompileOptions::default()).unwrap();
    let and_count =
        kernel.program.instructions.iter().filter(|i| i.opcode == lmi::isa::Opcode::And).count();
    assert!(and_count >= 1, "scope-exit nullification emitted");
    let launch = Launch::new(kernel.program).grid(1).block(32);
    let mut gpu = Gpu::new(GpuConfig::security());
    let mut mech = LmiMechanism::default_config();
    let stats = gpu.run(&launch, &mut mech);
    assert!(!stats.violated());
}

/// An out-of-bounds *loop walk* that never dereferences must not fault
/// (delayed termination, paper Fig. 14), end to end on compiled code.
#[test]
fn compiled_loop_walk_has_no_false_positive() {
    let mut b = FunctionBuilder::new("walk");
    let data = b.param(Ty::Ptr(Region::Global));
    let zero = b.const_i32(0);
    let i = b.var(zero);
    let ptr = b.var(data);
    let body = b.new_block();
    let exit = b.new_block();
    b.jump(body);
    b.switch_to(body);
    let pv = b.read_var(ptr);
    let iv = b.read_var(i);
    let v = b.load_i32(pv);
    let _ = v;
    let four = b.const_i32(4);
    let next_ptr = b.ibin(IBinOp::Add, pv, four);
    b.write_var(ptr, next_ptr);
    let one = b.const_i32(1);
    let next = b.ibin(IBinOp::Add, iv, one);
    b.write_var(i, next);
    let n = b.const_i32(64); // walks exactly to one-past-the-end
    let c = b.cmp(CmpKind::Lt, next, n);
    b.branch(c, body, exit);
    b.switch_to(exit);
    b.ret();
    let kernel = compile(&b.build(), CompileOptions::default()).unwrap();

    // A 256-byte buffer: 64 elements exactly fill the 2^n region.
    let buf = DevicePtr::encode(layout::GLOBAL_BASE + 0x200000, 256, &cfg()).unwrap();
    let launch = Launch::new(kernel.program).grid(1).block(1).param(buf.raw());
    let mut gpu = Gpu::new(GpuConfig::security());
    let stats = gpu.run(&launch, &mut LmiMechanism::default_config());
    assert!(!stats.violated(), "Fig. 14: no dereference, no fault");
    assert!(stats.poisoned >= 1, "the final increment still poisoned");
}
