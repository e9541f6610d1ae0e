//! Runtime tenants: isolated allocator arenas plus a protection choice.
//!
//! Spatial multi-tenancy on a shared GPU (paper §XIII discusses MIG-style
//! partitioning) needs more than disjoint SM partitions: each tenant must
//! own a slice of the global and device-heap address spaces, and a
//! violation must be attributable to the tenant that caused it. This
//! module carves those slices. A protected tenant's kernels run under
//! `lmi_sim::LmiMechanism` (an unprotected one's under
//! `lmi_sim::NullMechanism`); both are stateless, so the runtime gives
//! each kernel a fresh one and reads its violations and poisons from that
//! kernel's statistics.

use lmi_alloc::{AlignmentPolicy, AllocError, DeviceHeap, GlobalAllocator};
use lmi_core::PtrConfig;
use lmi_mem::layout;

/// Bytes of global-arena address space per tenant (4 GiB slices of the
/// 1 TiB global region: room for 256 tenants).
pub const TENANT_GLOBAL_SPAN: u64 = 4 << 30;

/// Device-heap buffer groups per tenant.
pub const TENANT_HEAP_GROUPS: usize = 64;

/// Bytes per device-heap buffer group (64 × 16 MiB = 1 GiB heap arena per
/// tenant).
pub const TENANT_HEAP_GROUP_SPAN: u64 = 16 * 1024 * 1024;

/// One tenant: a global-memory arena slice, a device-heap slice, and
/// whether LMI guards its kernels.
pub struct Tenant {
    id: usize,
    /// Host-side `cudaMalloc` arena (tenant-tagged slice).
    pub allocator: GlobalAllocator,
    /// Device-side `malloc` heap (tenant-tagged slice).
    pub heap: DeviceHeap,
}

impl Tenant {
    /// A tenant with LMI protection end to end.
    pub fn protected(id: usize) -> Tenant {
        Tenant::with_policy(id, AlignmentPolicy::PowerOfTwo)
    }

    /// An unprotected tenant (the baseline; still arena-isolated).
    pub fn unprotected(id: usize) -> Tenant {
        Tenant::with_policy(id, AlignmentPolicy::CudaDefault)
    }

    fn with_policy(id: usize, policy: AlignmentPolicy) -> Tenant {
        let cfg = PtrConfig::default();
        let global_base = layout::GLOBAL_BASE + id as u64 * TENANT_GLOBAL_SPAN;
        let heap_base =
            layout::HEAP_BASE + id as u64 * TENANT_HEAP_GROUPS as u64 * TENANT_HEAP_GROUP_SPAN;
        Tenant {
            id,
            allocator: GlobalAllocator::new(cfg, policy, global_base, TENANT_GLOBAL_SPAN)
                .with_tenant(id),
            heap: DeviceHeap::new(
                cfg,
                policy,
                heap_base,
                TENANT_HEAP_GROUPS,
                TENANT_HEAP_GROUP_SPAN,
            )
            .with_tenant(id),
        }
    }

    /// The tenant id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// `true` if the tenant's kernels run under LMI: its allocations
    /// carry extents exactly when its arena is 2ⁿ-aligned.
    pub fn is_protected(&self) -> bool {
        self.allocator.policy() == AlignmentPolicy::PowerOfTwo
    }

    /// `cudaMalloc` in this tenant's arena slice.
    pub fn alloc(&mut self, size: u64) -> Result<u64, AllocError> {
        self.allocator.alloc(size)
    }

    /// `cudaFree`; returns the extent-invalidated pointer value.
    pub fn free(&mut self, ptr: u64) -> Result<u64, AllocError> {
        self.allocator.free(ptr)?;
        Ok(lmi_core::invalidate_extent(ptr))
    }

    /// `true` if `addr` lies in this tenant's global or heap arena — the
    /// "whose memory was targeted?" half of violation attribution.
    pub fn owns(&self, addr: u64) -> bool {
        self.allocator.owns(addr) || self.heap.arena_range().contains(&addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmi_core::DevicePtr;

    #[test]
    fn tenant_arenas_are_disjoint() {
        let mut a = Tenant::protected(0);
        let mut b = Tenant::protected(1);
        let pa = a.alloc(4096).unwrap();
        let pb = b.alloc(4096).unwrap();
        assert!(a.owns(DevicePtr::from_raw(pa).addr()));
        assert!(!a.owns(DevicePtr::from_raw(pb).addr()));
        assert!(b.owns(DevicePtr::from_raw(pb).addr()));
        assert!(!b.owns(DevicePtr::from_raw(pa).addr()));
        assert!(!a.heap.arena_range().contains(&b.heap.arena_range().start));
    }

    #[test]
    fn protected_tenant_pointers_carry_extents() {
        let cfg = PtrConfig::default();
        let mut t = Tenant::protected(3);
        let p = t.alloc(1000).unwrap();
        assert_eq!(DevicePtr::from_raw(p).size(&cfg), Some(1024));
        let mut u = Tenant::unprotected(4);
        let q = u.alloc(1000).unwrap();
        assert_eq!(DevicePtr::from_raw(q).extent(), 0);
    }

    #[test]
    fn arena_tags_name_their_tenant() {
        let t = Tenant::protected(7);
        assert_eq!(t.allocator.tenant(), Some(7));
        assert_eq!(t.heap.tenant(), Some(7));
    }
}
