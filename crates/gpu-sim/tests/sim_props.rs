//! Randomized property tests on the simulator: soundness and completeness
//! of the LMI pipeline over randomized pointer-walk kernels, and timing
//! monotonicity. Seeded SplitMix64 keeps failures reproducible.

use lmi_core::{DevicePtr, PtrConfig};
use lmi_isa::{abi, HintBits, Instruction, MemRef, ProgramBuilder, Reg};
use lmi_mem::layout;
use lmi_sim::{Gpu, GpuConfig, Launch, LmiMechanism, NullMechanism};
use lmi_telemetry::SplitMix64;

/// Builds a kernel that performs a sequence of marked pointer offsets from
/// the parameter pointer, dereferencing after each step.
fn walk_kernel(offsets: &[i32], deref: bool) -> lmi_isa::Program {
    let mut b = ProgramBuilder::new("walk");
    b.push(Instruction::ldc(Reg(4), abi::LAUNCH_BANK, abi::param_offset(0), 8));
    for &off in offsets {
        b.push(Instruction::iadd64(Reg(4), Reg(4), off).with_hints(HintBits::check_operand(0)));
        if deref {
            b.push(Instruction::ldg(Reg(8), MemRef::new(Reg(4), 0, 4)));
        }
    }
    b.push(Instruction::exit());
    b.build()
}

fn run_lmi(program: lmi_isa::Program, buf: u64) -> lmi_sim::SimStats {
    let launch = Launch::new(program).grid(1).block(1).param(buf);
    let mut gpu = Gpu::new(GpuConfig::security());
    gpu.run(&launch, &mut LmiMechanism::default_config())
}

/// Completeness: any dereferencing walk that stays inside the buffer
/// never faults.
#[test]
fn in_bounds_walks_never_fault() {
    let mut rng = SplitMix64::new(0x1BFA);
    for _ in 0..60 {
        let cfg = PtrConfig::default();
        let size = 4096u64;
        let buf = DevicePtr::encode(layout::GLOBAL_BASE + 0x40000, size, &cfg).unwrap();
        // Convert absolute in-bounds positions to relative steps.
        let mut offsets = Vec::new();
        let mut pos = 0i64;
        for _ in 0..rng.range(1, 12) {
            let target = (rng.below(1024) % (size / 4)) as i64 * 4;
            offsets.push((target - pos) as i32);
            pos = target;
        }
        let stats = run_lmi(walk_kernel(&offsets, true), buf.raw());
        assert!(!stats.violated(), "{:?}", stats.violations.first());
        assert_eq!(stats.poisoned, 0);
    }
}

/// Soundness: a walk that leaves the region and then dereferences always
/// faults, regardless of how it wandered before.
#[test]
fn escaping_dereference_always_faults() {
    let mut rng = SplitMix64::new(0xE5CA9E);
    for _ in 0..60 {
        let cfg = PtrConfig::default();
        let buf = DevicePtr::encode(layout::GLOBAL_BASE + 0x80000, 1024, &cfg).unwrap();
        let mut offsets: Vec<i32> = Vec::new();
        let mut pos = 0i64;
        for _ in 0..rng.below(6) {
            let target = rng.below(256) as i64 * 4;
            offsets.push((target - pos) as i32);
            pos = target;
        }
        let escape = rng.range_i64(1024, 100_000);
        offsets.push((escape - pos) as i32); // leaves the 1024-byte region
        let stats = run_lmi(walk_kernel(&offsets, true), buf.raw());
        assert!(stats.violated(), "escape {escape} undetected");
        assert!(stats.poisoned >= 1);
    }
}

/// Delayed termination: the same escaping walks never fault when nothing
/// is dereferenced.
#[test]
fn escape_without_dereference_never_faults() {
    let mut rng = SplitMix64::new(0xDE1A7);
    for _ in 0..60 {
        let escape = rng.range_i64(1024, 100_000);
        let cfg = PtrConfig::default();
        let buf = DevicePtr::encode(layout::GLOBAL_BASE + 0xC0000, 1024, &cfg).unwrap();
        let stats = run_lmi(walk_kernel(&[escape as i32], false), buf.raw());
        assert!(!stats.violated());
        assert!(stats.poisoned >= 1, "the pointer was still poisoned");
    }
}

/// Timing sanity: adding compute instructions never makes the kernel
/// finish in fewer issue slots (issued counts are exact).
#[test]
fn issued_instruction_count_is_exact() {
    for extra in 0usize..32 {
        let mut b = ProgramBuilder::new("count");
        for _ in 0..extra {
            b.push(Instruction::ffma(Reg(6), Reg(6), Reg(7), Reg(8)));
        }
        b.push(Instruction::exit());
        let launch = Launch::new(b.build()).grid(1).block(32);
        let mut gpu = Gpu::new(GpuConfig::small());
        let stats = gpu.run(&launch, &mut NullMechanism);
        assert_eq!(stats.issued, extra as u64 + 1);
    }
}
