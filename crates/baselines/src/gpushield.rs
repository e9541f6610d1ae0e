//! GPUShield (ISCA'22): region-based hardware bounds checking.
//!
//! GPUShield registers the bounds of kernel-argument buffers in a bounds
//! table and tags pointers with the buffer index. At each global-memory
//! access the LSU looks the entry up in a small per-SM **RCache**; a hit is
//! free (parallel lookup), a miss stalls the access while the entry is
//! fetched from the L2-resident bounds table. Because the RCache is much
//! smaller than the L1 data cache, uncoalesced accesses that still hit the
//! L1 can miss the RCache — the paper identifies exactly this as the source
//! of GPUShield's 42.5 % (`needle`) and 24.0 % (`LSTM`) overheads.
//!
//! Heap and local (stack) memory are treated as *single large regions*
//! (paper §IV-D), so intra-heap and intra-stack overflows go undetected —
//! the limitation LMI fixes. Shared memory is unprotected.

use std::collections::HashMap;

use lmi_core::Violation;
use lmi_isa::MemSpace;
use lmi_mem::{layout, Cache, CacheConfig};
use lmi_sim::{Mechanism, MemAccessCtx, MemCheck};

/// Synthetic address of the in-memory bounds table (for RCache miss
/// fills routed through the L2).
const BOUNDS_TABLE_BASE: u64 = 0x00F0_0000_0000;

/// Bytes per bounds-table entry.
const ENTRY_BYTES: u64 = 32;

/// A registered kernel-argument buffer region.
#[derive(Debug, Clone, Copy)]
struct Region {
    base: u64,
    size: u64,
}

/// The GPUShield mechanism.
///
/// The RCache is **per warp** (Table VI budgets it at 910 B/W): each warp
/// keeps its own handful of bounds entries, so there is no cross-warp
/// reuse — the property that makes buffer-cycling workloads thrash it.
#[derive(Debug)]
pub struct GpuShield {
    regions: Vec<Region>,
    rcache_entries: u64,
    rcaches: HashMap<u64, Cache>,
    /// RCache lookups that hit.
    pub rcache_hits: u64,
    /// RCache lookups that missed (each stalls on an L2 fetch).
    pub rcache_misses: u64,
    /// Violations detected.
    pub faults: u64,
}

impl Default for GpuShield {
    fn default() -> Self {
        GpuShield::new()
    }
}

impl GpuShield {
    /// A GPUShield instance with the paper's RCache budget (~910 B per
    /// warp ⇒ a few dozen entries; modeled as a small direct-mapped cache).
    pub fn new() -> GpuShield {
        GpuShield::with_rcache_entries(28)
    }

    /// Custom per-warp RCache capacity in entries (ablation).
    pub fn with_rcache_entries(entries: u64) -> GpuShield {
        GpuShield {
            regions: Vec::new(),
            rcache_entries: entries,
            rcaches: HashMap::new(),
            rcache_hits: 0,
            rcache_misses: 0,
            faults: 0,
        }
    }

    fn warp_rcache(&mut self, warp: u64) -> Option<&mut Cache> {
        let entries = self.rcache_entries;
        if entries == 0 {
            // No RCache at all: the §IV-B1 strawman where every bounds
            // check is an in-memory metadata access.
            return None;
        }
        Some(self.rcaches.entry(warp).or_insert_with(|| {
            Cache::new(CacheConfig {
                capacity_bytes: entries * ENTRY_BYTES,
                line_bytes: ENTRY_BYTES,
                ways: 2,
                hit_latency: 1,
            })
        }))
    }

    /// Registers a kernel-argument buffer in the bounds table.
    pub fn register_buffer(&mut self, base: u64, size: u64) {
        self.regions.push(Region { base, size });
    }

    fn region_index_of(&self, vaddr: u64) -> Option<usize> {
        self.regions.iter().position(|r| vaddr >= r.base && vaddr < r.base + r.size)
    }

    /// Region-level spatial check used by the security suite directly.
    pub fn check_global(&self, vaddr: u64) -> bool {
        self.region_index_of(vaddr).is_some()
    }
}

impl Mechanism for GpuShield {
    fn name(&self) -> &'static str {
        "gpushield"
    }

    fn on_mem_access(&mut self, ctx: &MemAccessCtx) -> MemCheck {
        match ctx.space {
            MemSpace::Global => {
                // Heap addresses travel through LDG too; GPUShield treats
                // the whole device heap as one region.
                if (layout::HEAP_BASE..layout::LOCAL_BASE).contains(&ctx.vaddr) {
                    return MemCheck::allow();
                }
                match self.region_index_of(ctx.vaddr) {
                    Some(index) => {
                        let entry = BOUNDS_TABLE_BASE + index as u64 * ENTRY_BYTES;
                        let warp = ctx.global_tid / 32;
                        let hit = self.warp_rcache(warp).map(|c| c.access(entry)).unwrap_or(false);
                        if hit {
                            self.rcache_hits += 1;
                            MemCheck::allow()
                        } else {
                            self.rcache_misses += 1;
                            MemCheck {
                                violation: None,
                                extra_cycles: 0,
                                metadata_addr: Some(entry),
                            }
                        }
                    }
                    None => {
                        // Outside every registered buffer: fault — but only
                        // if any buffer is registered (otherwise the kernel
                        // predates registration and is unprotected).
                        if self.regions.is_empty() {
                            MemCheck::allow()
                        } else {
                            self.faults += 1;
                            MemCheck::fault(Violation::Spatial { addr: ctx.vaddr })
                        }
                    }
                }
            }
            MemSpace::Local => {
                // Single-region stack check: anywhere in the local arena of
                // this thread's window span is fine; escaping the arena
                // entirely faults.
                if ctx.vaddr >= layout::LOCAL_BASE {
                    MemCheck::allow()
                } else {
                    self.faults += 1;
                    MemCheck::fault(Violation::Spatial { addr: ctx.vaddr })
                }
            }
            // Shared memory and constant memory are unprotected.
            MemSpace::Shared | MemSpace::Const => MemCheck::allow(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(space: MemSpace, vaddr: u64) -> MemAccessCtx {
        MemAccessCtx {
            space,
            raw: vaddr,
            vaddr,
            width: 4,
            is_store: false,
            global_tid: 0,
            pc: 0,
            lane: 0,
        }
    }

    #[test]
    fn registered_buffer_accesses_pass() {
        let mut gs = GpuShield::new();
        gs.register_buffer(layout::GLOBAL_BASE, 4096);
        let check = gs.on_mem_access(&ctx(MemSpace::Global, layout::GLOBAL_BASE + 100));
        assert!(check.violation.is_none());
    }

    #[test]
    fn out_of_all_regions_faults() {
        let mut gs = GpuShield::new();
        gs.register_buffer(layout::GLOBAL_BASE, 4096);
        let check = gs.on_mem_access(&ctx(MemSpace::Global, layout::GLOBAL_BASE + 5000));
        assert!(check.violation.is_some());
        assert_eq!(gs.faults, 1);
    }

    #[test]
    fn first_lookup_misses_rcache_then_hits() {
        let mut gs = GpuShield::new();
        gs.register_buffer(layout::GLOBAL_BASE, 4096);
        let a = ctx(MemSpace::Global, layout::GLOBAL_BASE);
        let first = gs.on_mem_access(&a);
        assert!(first.metadata_addr.is_some(), "miss fetches the bounds entry");
        let second = gs.on_mem_access(&a);
        assert_eq!(second.metadata_addr, None, "RCache hit");
        assert_eq!((gs.rcache_hits, gs.rcache_misses), (1, 1));
    }

    #[test]
    fn many_buffers_thrash_the_rcache() {
        let mut gs = GpuShield::with_rcache_entries(4);
        for i in 0..64u64 {
            gs.register_buffer(layout::GLOBAL_BASE + i * 8192, 8192);
        }
        // Round-robin over 64 buffers with a 4-entry RCache: ~every lookup
        // misses.
        for round in 0..4 {
            for i in 0..64u64 {
                let _ = gs
                    .on_mem_access(&ctx(MemSpace::Global, layout::GLOBAL_BASE + i * 8192 + round));
            }
        }
        assert!(gs.rcache_misses > gs.rcache_hits * 10, "thrashing dominates");
    }

    #[test]
    fn heap_and_stack_are_single_coarse_regions() {
        let mut gs = GpuShield::new();
        gs.register_buffer(layout::GLOBAL_BASE, 4096);
        // Any heap address passes — intra-heap overflows are invisible.
        assert!(gs
            .on_mem_access(&ctx(MemSpace::Global, layout::HEAP_BASE + 0x1234))
            .violation
            .is_none());
        // Any local-arena address passes, even another thread's window.
        assert!(gs
            .on_mem_access(&ctx(MemSpace::Local, layout::LOCAL_BASE + 0x9999))
            .violation
            .is_none());
        // Escaping the local arena downward faults.
        assert!(gs
            .on_mem_access(&ctx(MemSpace::Local, layout::LOCAL_BASE - 8))
            .violation
            .is_some());
    }

    #[test]
    fn shared_memory_is_unprotected() {
        let mut gs = GpuShield::new();
        gs.register_buffer(layout::GLOBAL_BASE, 64);
        assert!(gs
            .on_mem_access(&ctx(MemSpace::Shared, layout::SHARED_BASE + 0xFFFF))
            .violation
            .is_none());
    }
}
