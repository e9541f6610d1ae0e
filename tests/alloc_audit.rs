//! Allocation audit of the steady-state cycle loop.
//!
//! The hot-path contract (DESIGN.md, *Hot path & allocation discipline*):
//! after warm-up, the cycle loop performs **zero heap allocations per
//! cycle**. Every allocation belongs to launch-time setup — program
//! lowering into a [`lmi_isa::DecodedStream`], warp tables, event-pool
//! warm-up — never to steady state.
//!
//! The audit installs a counting `#[global_allocator]` and runs the same
//! seeded multi-SM workload at `N` and `2N` loop iterations on fresh GPUs,
//! under each hardware mechanism (none, LMI, GPUShield), through
//! `Gpu::run` (telemetry disabled). Doubling the simulated cycle count
//! must leave the total allocation count **exactly equal**: any per-cycle
//! allocation would show up as a difference proportional to the extra
//! cycles. A warm-up run first absorbs one-time lazy process state so it
//! cannot skew the comparison. `tests/alloc_audit_counters.rs` runs the
//! same audit with the counter registry on.
//!
//! This file deliberately holds a single `#[test]` — the allocator is
//! process-global, and a lone test keeps the measured window free of
//! harness concurrency.

mod audit;

use lmi_bench::alloc_audit::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

#[test]
fn cycle_loop_is_allocation_free_after_warmup() {
    audit::assert_cycle_loop_allocation_free(false);
}
