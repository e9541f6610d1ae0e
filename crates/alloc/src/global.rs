//! The host-side global-memory allocator (`cudaMalloc`/`cudaFree` analogue,
//! paper §V-B).
//!
//! Under the [`AlignmentPolicy::PowerOfTwo`] policy the allocator rounds
//! every request to the smallest 2ⁿ size, places it at a 2ⁿ-aligned address,
//! and embeds the 5-bit extent in the returned pointer. `free` validates the
//! pointer (invalid-free / double-free detection is provided by the basic
//! CUDA runtime, paper §IX-B) and recycles the region.
//!
//! The allocator tracks **peak RSS** under both policies so Fig. 4's
//! fragmentation overhead (`LMI RSS / base RSS − 1`) can be measured
//! directly.

use std::collections::{BTreeMap, HashMap};

use lmi_core::{DevicePtr, PtrConfig};

use crate::{AlignmentPolicy, AllocError};

/// Resident-set accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RssStats {
    /// Currently reserved bytes.
    pub current: u64,
    /// High-water mark of reserved bytes.
    pub peak: u64,
    /// Sum of raw requested bytes for live allocations.
    pub requested: u64,
}

impl RssStats {
    fn add(&mut self, reserved: u64, requested: u64) {
        self.current += reserved;
        self.requested += requested;
        self.peak = self.peak.max(self.current);
    }

    fn remove(&mut self, reserved: u64, requested: u64) {
        self.current -= reserved;
        self.requested -= requested;
    }
}

#[derive(Debug, Clone, Copy)]
struct LiveAlloc {
    reserved: u64,
    requested: u64,
}

/// A global-arena allocator with free-list recycling.
#[derive(Debug)]
pub struct GlobalAllocator {
    cfg: PtrConfig,
    policy: AlignmentPolicy,
    arena_base: u64,
    arena_end: u64,
    cursor: u64,
    live: HashMap<u64, LiveAlloc>,
    /// Free regions keyed by reserved size (exact-fit recycling).
    free: BTreeMap<u64, Vec<u64>>,
    rss: RssStats,
    alloc_count: u64,
    /// Owning runtime tenant, if this arena is one slice of a partitioned
    /// multi-tenant address space (`lmi-runtime`). Pure attribution
    /// metadata: allocation behaviour is unchanged.
    tenant: Option<usize>,
}

impl GlobalAllocator {
    /// Creates an allocator over `[arena_base, arena_base + arena_len)`.
    ///
    /// # Panics
    ///
    /// Panics if `arena_base` is not aligned to the minimum allocation size.
    pub fn new(
        cfg: PtrConfig,
        policy: AlignmentPolicy,
        arena_base: u64,
        arena_len: u64,
    ) -> GlobalAllocator {
        assert_eq!(arena_base % cfg.min_align(), 0, "arena base must be K-aligned");
        GlobalAllocator {
            cfg,
            policy,
            arena_base,
            arena_end: arena_base + arena_len,
            cursor: arena_base,
            live: HashMap::new(),
            free: BTreeMap::new(),
            rss: RssStats::default(),
            alloc_count: 0,
            tenant: None,
        }
    }

    /// Tags the arena with its owning runtime tenant (builder style).
    pub fn with_tenant(mut self, tenant: usize) -> GlobalAllocator {
        self.tenant = Some(tenant);
        self
    }

    /// The owning tenant, if the arena is tenant-tagged.
    pub fn tenant(&self) -> Option<usize> {
        self.tenant
    }

    /// `true` if `addr` falls inside this arena's address range — the
    /// runtime's "whose memory is this?" attribution primitive.
    pub fn owns(&self, addr: u64) -> bool {
        (self.arena_base..self.arena_end).contains(&addr)
    }

    /// The alignment policy the arena allocates under.
    pub fn policy(&self) -> AlignmentPolicy {
        self.policy
    }

    /// The pointer-format configuration.
    pub fn config(&self) -> &PtrConfig {
        &self.cfg
    }

    /// The arena's base address.
    pub fn arena_base(&self) -> u64 {
        self.arena_base
    }

    /// Allocates `size` bytes; returns the raw pointer value (with extent
    /// metadata under the `PowerOfTwo` policy, a bare address otherwise).
    ///
    /// # Errors
    ///
    /// [`AllocError::OutOfMemory`] when the arena is exhausted and
    /// [`AllocError::SizeTooLarge`] past the device limit.
    pub fn alloc(&mut self, size: u64) -> Result<u64, AllocError> {
        if self.policy == AlignmentPolicy::PowerOfTwo && size > self.cfg.max_size() {
            return Err(AllocError::SizeTooLarge(size));
        }
        let reserved = self.policy.round(size, &self.cfg);
        let align = self.policy.alignment_for(reserved, &self.cfg);

        let base = if let Some(list) = self.free.get_mut(&reserved) {
            let base = list.pop().expect("non-empty free list");
            if list.is_empty() {
                self.free.remove(&reserved);
            }
            base
        } else {
            let base = self.cursor.next_multiple_of(align);
            if base + reserved > self.arena_end {
                return Err(AllocError::OutOfMemory);
            }
            self.cursor = base + reserved;
            base
        };

        self.live.insert(base, LiveAlloc { reserved, requested: size });
        self.rss.add(reserved, size);
        self.alloc_count += 1;

        match self.policy {
            AlignmentPolicy::CudaDefault => Ok(base),
            AlignmentPolicy::PowerOfTwo => Ok(DevicePtr::encode(base, size, &self.cfg)
                .expect("allocator produces aligned in-range addresses")
                .raw()),
        }
    }

    /// Frees an allocation. Accepts the raw pointer returned by
    /// [`GlobalAllocator::alloc`]; under LMI the extent is ignored for
    /// lookup (the address identifies the buffer).
    ///
    /// # Errors
    ///
    /// * [`AllocError::InvalidFree`] if the address is not an allocation
    ///   base (including interior pointers);
    /// * [`AllocError::DoubleFree`] if the allocation was already freed.
    pub fn free(&mut self, raw: u64) -> Result<(), AllocError> {
        let addr = DevicePtr::from_raw(raw).addr();
        match self.live.remove(&addr) {
            Some(info) => {
                self.rss.remove(info.reserved, info.requested);
                self.free.entry(info.reserved).or_default().push(addr);
                Ok(())
            }
            None => {
                // Distinguish double free (previously live, now recycled or
                // freed) from a wild/interior pointer.
                let was_ours = self.free.values().any(|list| list.contains(&addr));
                if was_ours {
                    Err(AllocError::DoubleFree(addr))
                } else {
                    Err(AllocError::InvalidFree(addr))
                }
            }
        }
    }

    /// RSS statistics under the active policy.
    pub fn rss(&self) -> RssStats {
        self.rss
    }

    /// Number of live allocations.
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// Total allocations performed.
    pub fn alloc_count(&self) -> u64 {
        self.alloc_count
    }

    /// Ground truth for the security suite: the live buffer containing
    /// `addr`, as `(base, requested_size, reserved_size)`.
    pub fn buffer_containing(&self, addr: u64) -> Option<(u64, u64, u64)> {
        self.live
            .iter()
            .find(|(base, info)| addr >= **base && addr < **base + info.reserved)
            .map(|(base, info)| (*base, info.requested, info.reserved))
    }

    /// Returns `true` if `addr` falls within the *requested* bytes of a live
    /// buffer (the paper's notion of an in-bounds access).
    pub fn in_requested_bounds(&self, addr: u64) -> bool {
        self.buffer_containing(addr)
            .map(|(base, requested, _)| addr < base + requested.max(1))
            .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ARENA: u64 = 0x0100_0000_0000;

    fn lmi() -> GlobalAllocator {
        GlobalAllocator::new(PtrConfig::default(), AlignmentPolicy::PowerOfTwo, ARENA, 1 << 30)
    }

    fn base() -> GlobalAllocator {
        GlobalAllocator::new(PtrConfig::default(), AlignmentPolicy::CudaDefault, ARENA, 1 << 30)
    }

    #[test]
    fn lmi_pointers_carry_extent_and_alignment() {
        let cfg = PtrConfig::default();
        let mut a = lmi();
        let raw = a.alloc(1000).unwrap();
        let p = DevicePtr::from_raw(raw);
        assert_eq!(p.size(&cfg), Some(1024));
        assert_eq!(p.addr() % 1024, 0, "1024-byte aligned");
    }

    #[test]
    fn base_pointers_are_bare_256_aligned_addresses() {
        let mut a = base();
        let raw = a.alloc(1000).unwrap();
        assert_eq!(DevicePtr::from_raw(raw).extent(), 0);
        assert_eq!(raw % 256, 0);
    }

    #[test]
    fn allocations_never_overlap() {
        let mut a = lmi();
        let mut regions = Vec::new();
        for size in [100u64, 257, 1024, 5000, 300, 70000] {
            let raw = a.alloc(size).unwrap();
            let p = DevicePtr::from_raw(raw);
            let cfg = PtrConfig::default();
            regions.push((p.addr(), p.size(&cfg).unwrap()));
        }
        for (i, &(b1, s1)) in regions.iter().enumerate() {
            for &(b2, s2) in &regions[i + 1..] {
                assert!(b1 + s1 <= b2 || b2 + s2 <= b1, "overlap: {b1:#x}+{s1} vs {b2:#x}+{s2}");
            }
        }
    }

    #[test]
    fn rss_reflects_policy_fragmentation() {
        let mut l = lmi();
        let mut b = base();
        // 1032-byte allocations: base reserves 1280, LMI reserves 2048.
        for _ in 0..10 {
            l.alloc(1032).unwrap();
            b.alloc(1032).unwrap();
        }
        assert_eq!(b.rss().peak, 12_800);
        assert_eq!(l.rss().peak, 20_480);
        let overhead = l.rss().peak as f64 / b.rss().peak as f64 - 1.0;
        assert!((overhead - 0.6).abs() < 1e-9);
    }

    #[test]
    fn free_recycles_regions() {
        let mut a = lmi();
        let p1 = a.alloc(512).unwrap();
        let addr1 = DevicePtr::from_raw(p1).addr();
        a.free(p1).unwrap();
        let p2 = a.alloc(500).unwrap(); // same 512 size class
        assert_eq!(DevicePtr::from_raw(p2).addr(), addr1, "region recycled");
        assert_eq!(a.live_count(), 1);
    }

    #[test]
    fn double_free_and_invalid_free_detected() {
        let mut a = lmi();
        let p = a.alloc(256).unwrap();
        a.free(p).unwrap();
        assert_eq!(a.free(p), Err(AllocError::DoubleFree(DevicePtr::from_raw(p).addr())));
        assert_eq!(a.free(ARENA + 0xDEAD00), Err(AllocError::InvalidFree(ARENA + 0xDEAD00)));
        // Interior pointers are not valid free targets.
        let q = a.alloc(1024).unwrap();
        assert!(matches!(a.free(q + 8), Err(AllocError::InvalidFree(_))));
    }

    #[test]
    fn rss_drops_after_free() {
        let mut a = lmi();
        let p = a.alloc(4096).unwrap();
        assert_eq!(a.rss().current, 4096);
        a.free(p).unwrap();
        assert_eq!(a.rss().current, 0);
        assert_eq!(a.rss().peak, 4096, "peak persists");
    }

    #[test]
    fn out_of_memory_is_reported() {
        let mut a =
            GlobalAllocator::new(PtrConfig::default(), AlignmentPolicy::PowerOfTwo, ARENA, 4096);
        a.alloc(2048).unwrap();
        a.alloc(2048).unwrap();
        assert_eq!(a.alloc(256), Err(AllocError::OutOfMemory));
    }

    #[test]
    fn ground_truth_lookup() {
        let mut a = lmi();
        let p = a.alloc(1000).unwrap();
        let addr = DevicePtr::from_raw(p).addr();
        assert!(a.in_requested_bounds(addr + 999));
        assert!(!a.in_requested_bounds(addr + 1000), "past requested bytes");
        let (base, requested, reserved) = a.buffer_containing(addr + 1001).unwrap();
        assert_eq!((base, requested, reserved), (addr, 1000, 1024));
    }
}
