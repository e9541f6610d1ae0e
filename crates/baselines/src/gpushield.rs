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
use lmi_sim::warp::lanes_of;
use lmi_sim::{
    BitRules, Mechanism, MemAccessCtx, MemCheck, OcuRule, WarpMemAccess, WarpMemVerdict,
};

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

/// What the bounds table alone decides about one lane's access.
enum Lookup {
    Allow,
    Fault,
    /// Inside a registered buffer: look its bounds-table entry up in the
    /// warp's RCache.
    Entry(u64),
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
        }
    }

    /// The RCache of `warp` (`global_tid / 32`), created on first use;
    /// `None` with no RCache at all (the §IV-B1 strawman where every
    /// bounds check is an in-memory metadata access).
    fn warp_rcache(
        rcaches: &mut HashMap<u64, Cache>,
        entries: u64,
        warp: u64,
    ) -> Option<&mut Cache> {
        if entries == 0 {
            return None;
        }
        Some(rcaches.entry(warp).or_insert_with(|| {
            Cache::new(CacheConfig {
                capacity_bytes: entries * ENTRY_BYTES,
                line_bytes: ENTRY_BYTES,
                ways: 2,
                hit_latency: 1,
            })
        }))
    }

    fn lookup(&self, space: MemSpace, vaddr: u64) -> Lookup {
        match space {
            MemSpace::Global => {
                // Heap addresses travel through LDG too; GPUShield treats
                // the whole device heap as one region.
                if (layout::HEAP_BASE..layout::LOCAL_BASE).contains(&vaddr) {
                    return Lookup::Allow;
                }
                match self.region_index_of(vaddr) {
                    Some(index) => Lookup::Entry(BOUNDS_TABLE_BASE + index as u64 * ENTRY_BYTES),
                    // Outside every registered buffer: fault — but only if
                    // any buffer is registered (otherwise the kernel
                    // predates registration and is unprotected).
                    None if self.regions.is_empty() => Lookup::Allow,
                    None => Lookup::Fault,
                }
            }
            // Single-region stack check: anywhere in the local arena of
            // this thread's window span is fine; escaping the arena
            // entirely faults.
            MemSpace::Local if vaddr >= layout::LOCAL_BASE => Lookup::Allow,
            MemSpace::Local => Lookup::Fault,
            // Shared memory and constant memory are unprotected.
            MemSpace::Shared | MemSpace::Const => Lookup::Allow,
        }
    }

    /// The check of one lane, given the outcome of the table lookup and,
    /// for an `Entry`, the RCache probe (`hit`).
    fn settle(&mut self, lookup: Lookup, vaddr: u64, hit: bool) -> MemCheck {
        match lookup {
            Lookup::Allow => MemCheck::allow(),
            Lookup::Fault => MemCheck::fault(Violation::Spatial { addr: vaddr }),
            Lookup::Entry(_) if hit => {
                self.rcache_hits += 1;
                MemCheck::allow()
            }
            Lookup::Entry(entry) => {
                self.rcache_misses += 1;
                MemCheck { violation: None, extra_cycles: 0, metadata_addr: Some(entry) }
            }
        }
    }

    /// Registers a kernel-argument buffer in the bounds table.
    pub fn register_buffer(&mut self, base: u64, size: u64) {
        self.regions.push(Region { base, size });
    }

    /// A GPUShield instance (paper RCache budget) with every `(base, size)`
    /// kernel-argument buffer registered, in order.
    pub fn with_buffers(buffers: &[(u64, u64)]) -> GpuShield {
        let mut shield = GpuShield::new();
        for &(base, size) in buffers {
            shield.register_buffer(base, size);
        }
        shield
    }

    fn region_index_of(&self, vaddr: u64) -> Option<usize> {
        self.regions.iter().position(|r| vaddr >= r.base && vaddr < r.base + r.size)
    }
}

impl Mechanism for GpuShield {
    fn name(&self) -> &'static str {
        "gpushield"
    }

    fn on_mem_access(&mut self, ctx: &MemAccessCtx) -> MemCheck {
        let lookup = self.lookup(ctx.space, ctx.vaddr);
        let hit = match lookup {
            Lookup::Entry(entry) => {
                Self::warp_rcache(&mut self.rcaches, self.rcache_entries, ctx.global_tid / 32)
                    .is_some_and(|c| c.access(entry))
            }
            _ => false,
        };
        self.settle(lookup, ctx.vaddr, hit)
    }

    /// The per-lane check for every lane, ascending, with the warp's
    /// RCache looked up in the map once per run of lanes sharing it rather
    /// than once per lane (a warp of a block whose size is not a multiple
    /// of 32 spans two RCaches).
    fn on_mem_access_warp(&mut self, access: &WarpMemAccess<'_>, verdict: &mut WarpMemVerdict) {
        // Moved out for the loop, so the cached `&mut Cache` does not
        // borrow `self`.
        let mut rcaches = std::mem::take(&mut self.rcaches);
        let mut current: Option<(u64, Option<&mut Cache>)> = None;
        for lane in lanes_of(access.mask) {
            let vaddr = access.vaddr[lane];
            let lookup = self.lookup(access.space, vaddr);
            let hit = match lookup {
                Lookup::Entry(entry) => {
                    let key = (access.base_tid + lane as u64) / 32;
                    if current.as_ref().is_none_or(|&(k, _)| k != key) {
                        current =
                            Some((key, Self::warp_rcache(&mut rcaches, self.rcache_entries, key)));
                    }
                    let (_, cache) = current.as_mut().expect("set above");
                    cache.as_mut().is_some_and(|c| c.access(entry))
                }
                _ => false,
            };
            verdict.push(lane, self.settle(lookup, vaddr, hit));
        }
        self.rcaches = rcaches;
    }

    /// No OCU: every marked op passes in phase A. The memory check stays
    /// on the leader, because it probes and fills the RCaches.
    fn bit_rules(&self) -> BitRules {
        BitRules { ocu: Some(OcuRule::Pass), ec: None }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmi_sim::warp::Column64;
    use lmi_telemetry::SplitMix64;

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

    /// Two identical GPUShields over 16 buffers of 4 KiB, spaced 8 KiB
    /// apart so half the global addresses fall between buffers.
    fn twins(entries: u64) -> (GpuShield, GpuShield) {
        let make = || {
            let mut gs = GpuShield::with_rcache_entries(entries);
            for i in 0..16 {
                gs.register_buffer(layout::GLOBAL_BASE + i * 8192, 4096);
            }
            gs
        };
        (make(), make())
    }

    fn address(rng: &mut SplitMix64) -> u64 {
        match rng.below(5) {
            0 => layout::HEAP_BASE + rng.below(1 << 20),
            1 => layout::LOCAL_BASE + rng.below(1 << 20),
            2 => layout::LOCAL_BASE - 1 - rng.below(1 << 10),
            3 => layout::SHARED_BASE + rng.below(1 << 16),
            _ => layout::GLOBAL_BASE + rng.below(16 * 8192 + 4096),
        }
    }

    /// The warp form against the per-lane loop on one SplitMix64 stream:
    /// partial masks, every space plus heap addresses, and warps whose
    /// `base_tid` is not a multiple of 32 (their lanes span two RCaches).
    fn assert_warp_form_matches(entries: u64, tpb: u64, seed: u64) {
        let (mut warp, mut lane) = twins(entries);
        let mut rng = SplitMix64::new(seed);
        let mut verdict = WarpMemVerdict::default();
        let mut faults = 0;
        for _ in 0..600 {
            let spaces = [MemSpace::Global, MemSpace::Local, MemSpace::Shared, MemSpace::Const];
            // Bias towards global, where the RCache lives.
            let space = spaces[rng.below(6).saturating_sub(2) as usize];
            let vaddr: Column64 = std::array::from_fn(|_| address(&mut rng));
            let block = rng.below(8);
            let warp_in_block = rng.below(tpb.div_ceil(32));
            let mask = match rng.below(3) {
                0 => u32::MAX,
                1 => rng.next_u32(),
                _ => rng.next_u32() & rng.next_u32(),
            };
            let access = WarpMemAccess {
                space,
                width: 4,
                is_store: rng.below(2) == 0,
                pc: 3,
                base_tid: block * tpb + warp_in_block * 32,
                mask,
                raw: &vaddr,
                vaddr: &vaddr,
            };
            verdict.clear();
            warp.on_mem_access_warp(&access, &mut verdict);
            let mut expect = WarpMemVerdict::default();
            for l in lanes_of(mask) {
                let check = lane.on_mem_access(&access.lane(l));
                expect.extra_cycles = expect.extra_cycles.max(check.extra_cycles);
                expect.metadata_addrs.extend(check.metadata_addr);
                match check.violation {
                    Some(v) => expect.faults.push((l, v)),
                    None => expect.survivors |= 1 << l,
                }
            }
            assert_eq!(verdict, expect, "entries={entries} tpb={tpb}");
            faults += verdict.faults.len();
            let counters = |g: &GpuShield| (g.rcache_hits, g.rcache_misses);
            assert_eq!(counters(&warp), counters(&lane), "entries={entries} tpb={tpb}");
        }
        assert!(faults > 0 && warp.rcache_misses > 0, "the stream faults and misses");
        if entries > 0 {
            assert!(warp.rcache_hits > 0, "the stream hits the RCache");
        }
    }

    #[test]
    fn warp_form_equals_the_per_lane_loop() {
        for (seed, tpb) in [(1, 64), (2, 48), (3, 100), (4, 33)] {
            for entries in [0, 4, 28] {
                assert_warp_form_matches(entries, tpb, seed);
            }
        }
    }

    #[test]
    fn bit_rules_pass_marked_ops_and_leave_memory_to_the_leader() {
        let mut gs = GpuShield::new();
        let rules = gs.bit_rules();
        assert!(rules.ec.is_none(), "the RCache is state: memory checks stay on the leader");
        let ocu = rules.ocu.expect("marked ops are decided from register bits");
        assert_eq!(ocu.delay(), gs.marked_int_delay());
        let mut rng = SplitMix64::new(5);
        for _ in 0..200 {
            let mask = rng.next_u32();
            let inputs: Column64 = std::array::from_fn(|_| rng.next_u64());
            let results: Column64 = std::array::from_fn(|_| rng.next_u64());
            let (mut by_rule, mut by_warp) = (results, results);
            let poisoned = ocu.check(mask, &inputs, &mut by_rule);
            let expect = gs.on_marked_int_warp(mask, &inputs, &mut by_warp);
            assert_eq!((poisoned, by_rule), (expect, by_warp));
        }
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
