//! Allocation auditing: a counting global allocator.
//!
//! The cycle loop's "zero allocations per cycle" claim (see DESIGN.md,
//! *Hot path & allocation discipline*) is enforced empirically: a binary
//! installs [`CountingAlloc`] as its `#[global_allocator]`, runs the same
//! seeded workload at two iteration counts, and asserts the total
//! allocation counts are **equal** — every allocation belongs to setup
//! (launch lowering, warp tables, pool warm-up), none to steady state.
//!
//! Counting is process-global and lock-free (one relaxed atomic per
//! alloc), cheap enough that perfbench keeps it installed while timing and
//! reports `allocs_per_kcycle` next to `kips`. Because it is
//! process-global, an audit must own every thread that can allocate in
//! its measured window: `tests/alloc_audit.rs` runs without a test harness
//! for that reason.
//!
//! ```no_run
//! use lmi_bench::alloc_audit::CountingAlloc;
//!
//! #[global_allocator]
//! static ALLOC: CountingAlloc = CountingAlloc::new();
//!
//! let before = CountingAlloc::allocations();
//! // ... run the region under audit ...
//! let delta = CountingAlloc::allocations() - before;
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide count of heap allocations since program start.
///
/// Static (not per-instance) so `CountingAlloc::allocations()` works
/// without a reference to the installed allocator.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// A [`System`]-backed global allocator that counts every allocation.
///
/// `realloc` counts as one allocation (it may move); `dealloc` is not
/// counted — the audit cares about allocator traffic, not live bytes.
pub struct CountingAlloc;

impl CountingAlloc {
    /// A new counting allocator (const, for `#[global_allocator]`).
    pub const fn new() -> CountingAlloc {
        CountingAlloc
    }

    /// Number of heap allocations made by the process so far.
    pub fn allocations() -> u64 {
        ALLOCATIONS.load(Ordering::Relaxed)
    }
}

impl Default for CountingAlloc {
    fn default() -> CountingAlloc {
        CountingAlloc::new()
    }
}

// SAFETY: delegates directly to `System`, which upholds the `GlobalAlloc`
// contract; the counter is a side effect with no aliasing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}
