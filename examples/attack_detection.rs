//! A Mind-Control-style stack-smashing attack (paper §IV-D), written in the
//! kernel IR, compiled twice — unprotected and with the LMI pass — and run
//! on the simulator.
//!
//! The kernel copies `n` words from a global input into a 24-word stack
//! buffer. A malicious launch passes `n = 40`: under the baseline build the
//! overflow silently corrupts stack memory beyond the buffer; under LMI the
//! OCU poisons the pointer at the region boundary and the EC kills the
//! faulting store.
//!
//! Run with: `cargo run --example attack_detection`

use lmi::compiler::ir::{CmpKind, FunctionBuilder, IBinOp, Region, Ty};
use lmi::compiler::{compile, CompileOptions};
use lmi::core::{DevicePtr, PtrConfig};
use lmi::mem::layout;
use lmi::sim::{Gpu, GpuConfig, Launch, LmiMechanism, NullMechanism};

fn vulnerable_kernel() -> lmi::compiler::Function {
    // __global__ void copy(int* input, int n) {
    //     int buf[24];
    //     for (int i = 0; i < n; i++) buf[i] = input[i];   // no bounds check!
    // }
    let mut b = FunctionBuilder::new("vulnerable_copy");
    let input = b.param(Ty::Ptr(Region::Global));
    let n = b.param(Ty::I32);
    let buf = b.alloca(96); // 24 * 4 bytes
    let zero = b.const_i32(0);
    let i = b.var(zero);

    let body = b.new_block();
    let exit = b.new_block();
    b.jump(body);

    b.switch_to(body);
    let iv = b.read_var(i);
    let src = b.gep(input, iv, 4);
    let v = b.load_i32(src);
    let dst = b.gep(buf, iv, 4);
    b.store(dst, v, 4);
    let one = b.const_i32(1);
    let next = b.ibin(IBinOp::Add, iv, one);
    b.write_var(i, next);
    let cond = b.cmp(CmpKind::Lt, next, n);
    b.branch(cond, body, exit);

    b.switch_to(exit);
    b.ret();
    b.build()
}

fn main() {
    let cfg = PtrConfig::default();
    let kernel = vulnerable_kernel();
    // 80 words into a 24-word buffer. Note the two LMI effects: writes into
    // the buffer's power-of-two slack (words 24..63) are *neutralized* —
    // the aligned allocator placed no other object there — and the first
    // write past the 256-byte region boundary (word 64) is *faulted*.
    let n_attack = 80u64;

    // Input buffer holding the attacker's payload.
    let input = DevicePtr::encode(layout::GLOBAL_BASE, 4096, &cfg).unwrap();

    // --- unprotected build ------------------------------------------------
    let base_bin = compile(&kernel, CompileOptions::baseline()).expect("compiles");
    let launch = Launch::new(base_bin.program.clone())
        .grid(1)
        .block(1)
        .param(input.addr()) // baseline pointers carry no extent
        .param(n_attack);
    let mut gpu = Gpu::new(GpuConfig::security());
    // The attacker's payload: a fake return address repeated over the input.
    for i in 0..80 {
        gpu.memory.write(input.addr() + i * 4, 0xDEAD_BEEF, 4);
    }
    let stats = gpu.run(&launch, &mut NullMechanism);
    println!("baseline: {} violations detected", stats.violations.len());
    // The overflow landed: words 24..39 were written past the buffer.
    let frame_base = layout::local_window_base(0, gpu.config().stack_bytes)
        + gpu.config().stack_bytes
        - base_bin.frame_bytes;
    let smashed = gpu.memory.read(frame_base + 24 * 4, 4);
    println!("baseline: word just past the buffer = {smashed:#x} (corrupted)");
    assert!(stats.violations.is_empty(), "the baseline is blind");

    // --- LMI build ---------------------------------------------------------
    let lmi_bin = compile(&kernel, CompileOptions::default()).expect("compiles");
    println!(
        "LMI build: frame {} B (96 B buffer rounded to a power of two), {} hinted instructions",
        lmi_bin.frame_bytes, lmi_bin.hinted
    );
    let launch = Launch::new(lmi_bin.program.clone())
        .grid(1)
        .block(1)
        .param(input.raw()) // extent-carrying pointer
        .param(n_attack);
    let mut gpu = Gpu::new(GpuConfig::security());
    let stats = gpu.run(&launch, &mut LmiMechanism::default_config());
    let event = stats.violations.first().expect("LMI faults the overflow");
    println!(
        "LMI: attack stopped at pc {} with `{}` ({} pointer(s) poisoned)",
        event.pc, event.violation, stats.poisoned
    );
    assert!(stats.poisoned >= 1);
}
