//! Allocation audit of the steady-state cycle loop with counters on.
//!
//! The audit of `tests/alloc_audit.rs`, run through `Gpu::try_run` with a
//! `TelemetrySink::counters_only()` sink — the configuration every
//! `lmi-runtime` session runs. The engine keeps its counters as dense
//! per-run totals and folds them into the registry once, after the cycle
//! loop, so the N-vs-2N allocation counts must still be exactly equal.
//!
//! A file of its own, with a single `#[test]`, for the same reason as
//! `tests/alloc_audit.rs`: the allocator is process-global.

mod audit;

use lmi_bench::alloc_audit::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

#[test]
fn cycle_loop_is_allocation_free_with_counters_on() {
    audit::assert_cycle_loop_allocation_free(true);
}
