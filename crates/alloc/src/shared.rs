//! Shared-memory allocation at kernel launch (paper §V-B, §IX-A).
//!
//! Shared memory is sized at launch; aligning it is the kernel driver's
//! job. LMI protects **statically allocated** shared objects individually
//! (each gets a 2ⁿ-aligned slot and an extent-carrying pointer) and treats
//! the **dynamic** pool as a single coarse region, because fine-grained
//! alignment would fragment the small shared-memory pool and dynamic layout
//! is owned by proprietary driver code (paper §IX-A).

use lmi_core::{DevicePtr, PtrConfig};

use crate::{AlignmentPolicy, AllocError};

/// The shared-memory layout of one thread block, fixed at launch.
#[derive(Debug, Clone)]
pub struct SharedLayout {
    cfg: PtrConfig,
    policy: AlignmentPolicy,
    window_base: u64,
    window_len: u64,
    cursor: u64,
    statics: Vec<(u64, u64, u64)>, // (base, requested, reserved)
    dynamic: Option<(u64, u64)>,   // (base, len) — coarse region
}

impl SharedLayout {
    /// Creates the layout over the block's shared window.
    ///
    /// # Panics
    ///
    /// Panics if the window is not K-aligned.
    pub fn new(
        cfg: PtrConfig,
        policy: AlignmentPolicy,
        window_base: u64,
        window_len: u64,
    ) -> SharedLayout {
        assert_eq!(window_base % cfg.min_align(), 0);
        SharedLayout {
            cfg,
            policy,
            window_base,
            window_len,
            cursor: window_base,
            statics: Vec::new(),
            dynamic: None,
        }
    }

    /// Places one static `__shared__` object of `size` bytes; returns its
    /// pointer (extent-carrying under LMI).
    ///
    /// # Errors
    ///
    /// [`AllocError::OutOfMemory`] when the window is full.
    pub fn place_static(&mut self, size: u64) -> Result<u64, AllocError> {
        let reserved = self.policy.round(size, &self.cfg);
        let align = self.policy.alignment_for(reserved, &self.cfg);
        let base = self.cursor.next_multiple_of(align);
        if base + reserved > self.window_base + self.window_len {
            return Err(AllocError::OutOfMemory);
        }
        self.cursor = base + reserved;
        self.statics.push((base, size, reserved));
        match self.policy {
            AlignmentPolicy::CudaDefault => Ok(base),
            AlignmentPolicy::PowerOfTwo => Ok(DevicePtr::encode(base, size, &self.cfg)
                .expect("driver aligns shared objects")
                .raw()),
        }
    }

    /// Reserves the rest of the window as the dynamic pool; returns a
    /// *coarse* pointer covering the whole pool (LMI's §IX-A fallback).
    ///
    /// # Errors
    ///
    /// [`AllocError::OutOfMemory`] if nothing remains.
    pub fn place_dynamic_pool(&mut self) -> Result<u64, AllocError> {
        let remaining_start = self.cursor.next_multiple_of(self.cfg.min_align());
        let end = self.window_base + self.window_len;
        if remaining_start >= end {
            return Err(AllocError::OutOfMemory);
        }
        let len = end - remaining_start;
        self.dynamic = Some((remaining_start, len));
        match self.policy {
            AlignmentPolicy::CudaDefault => Ok(remaining_start),
            AlignmentPolicy::PowerOfTwo => {
                // Coarse protection: the extent covers the whole pool; the
                // base must be aligned to the rounded pool size, so fall
                // back to the largest aligned sub-extent that fits.
                let mut size = self.cfg.round_up(len).unwrap_or(len);
                while !remaining_start.is_multiple_of(size) || size > len {
                    size /= 2;
                }
                Ok(DevicePtr::encode(remaining_start, size, &self.cfg)
                    .expect("aligned by construction")
                    .raw())
            }
        }
    }

    /// Ground truth: the static object containing `addr`.
    pub fn static_containing(&self, addr: u64) -> Option<(u64, u64, u64)> {
        self.statics
            .iter()
            .copied()
            .find(|&(base, _, reserved)| addr >= base && addr < base + reserved)
    }

    /// The dynamic pool, if placed.
    pub fn dynamic_pool(&self) -> Option<(u64, u64)> {
        self.dynamic
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: u64 = 0x0000_0100_0000;

    fn layout() -> SharedLayout {
        SharedLayout::new(PtrConfig::default(), AlignmentPolicy::PowerOfTwo, BASE, 48 * 1024)
    }

    #[test]
    fn statics_get_individual_extents() {
        let cfg = PtrConfig::default();
        let mut l = layout();
        let a = DevicePtr::from_raw(l.place_static(1000).unwrap());
        let b = DevicePtr::from_raw(l.place_static(2048).unwrap());
        assert_eq!(a.size(&cfg), Some(1024));
        assert_eq!(b.size(&cfg), Some(2048));
        assert!(a.addr() + 1024 <= b.addr());
    }

    #[test]
    fn dynamic_pool_gets_coarse_extent() {
        let cfg = PtrConfig::default();
        let mut l = layout();
        l.place_static(1024).unwrap();
        let pool = DevicePtr::from_raw(l.place_dynamic_pool().unwrap());
        assert!(pool.is_valid(&cfg));
        let (pool_base, pool_len) = l.dynamic_pool().unwrap();
        assert_eq!(pool.addr(), pool_base);
        assert!(pool.size(&cfg).unwrap() <= cfg.round_up(pool_len).unwrap());
    }

    #[test]
    fn window_exhaustion_detected() {
        let mut l =
            SharedLayout::new(PtrConfig::default(), AlignmentPolicy::PowerOfTwo, BASE, 2048);
        l.place_static(1024).unwrap();
        l.place_static(1024).unwrap();
        assert_eq!(l.place_static(1), Err(AllocError::OutOfMemory));
        assert_eq!(l.place_dynamic_pool(), Err(AllocError::OutOfMemory));
    }

    #[test]
    fn baseline_packs_at_256() {
        let mut l =
            SharedLayout::new(PtrConfig::default(), AlignmentPolicy::CudaDefault, BASE, 48 * 1024);
        let a = l.place_static(100).unwrap();
        let b = l.place_static(100).unwrap();
        assert_eq!(b - a, 256);
    }

    #[test]
    fn ground_truth_lookup() {
        let mut l = layout();
        let p = DevicePtr::from_raw(l.place_static(500).unwrap());
        let (base, req, res) = l.static_containing(p.addr() + 40).unwrap();
        assert_eq!((base, req, res), (p.addr(), 500, 512));
    }
}
