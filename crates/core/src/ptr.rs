//! The LMI 64-bit pointer format (paper Fig. 6 and §IV-A, §V-A).
//!
//! ```text
//!  63       59 58                    n n-1           0
//! +-----------+----------------------+----------------+
//! |  Extent   |  Unmodifiable (UM)   | Modifiable (M) |
//! +-----------+----------------------+----------------+
//!               n = log2(buffer size)
//! ```
//!
//! The extent field encodes the buffer size in power-of-two exponential form:
//! with minimum allocation size `K = 256` (the default GPU allocation
//! granularity), extent value `E` means a buffer of `2^(E - 1 + log2 K)`
//! bytes, so `E = 1` is 256 B and `E = 31` is 256 GiB. Extent 0 marks an
//! *invalid* pointer: freshly freed, poisoned by the OCU, or never derived
//! from an allocation.

use std::fmt;

/// Number of bits in the extent field.
pub const EXTENT_BITS: u32 = 5;

/// Bit position of the extent field's least significant bit.
pub const EXTENT_SHIFT: u32 = 64 - EXTENT_BITS; // 59

/// Mask covering the extent field in a raw pointer.
pub const EXTENT_MASK: u64 = 0x1F << EXTENT_SHIFT;

/// Mask covering the address bits (everything below the extent field).
pub const ADDR_MASK: u64 = (1u64 << EXTENT_SHIFT) - 1;

/// Maximum encodable extent value (`2^5 - 1`).
pub const MAX_EXTENT: u8 = 31;

/// Errors from pointer encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PtrError {
    /// The requested size exceeds the configured device limit
    /// (`cudaDeviceSetLimit`-style cap, paper §IV-A3).
    SizeTooLarge {
        /// The rejected allocation size.
        size: u64,
        /// The configured maximum.
        limit: u64,
    },
    /// The address is not aligned to the buffer's power-of-two size — an
    /// LMI allocator bug, since 2ⁿ alignment is what makes base-address
    /// recovery work (§IV-A1).
    Misaligned {
        /// The unaligned base address.
        addr: u64,
        /// The required alignment.
        align: u64,
    },
    /// The address has bits in the extent field already set.
    AddressTooHigh(u64),
}

impl fmt::Display for PtrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PtrError::SizeTooLarge { size, limit } => {
                write!(f, "allocation of {size} bytes exceeds device limit {limit}")
            }
            PtrError::Misaligned { addr, align } => {
                write!(f, "address {addr:#x} is not {align}-byte aligned")
            }
            PtrError::AddressTooHigh(a) => write!(f, "address {a:#x} overlaps the extent field"),
        }
    }
}

impl std::error::Error for PtrError {}

/// Configuration of the pointer encoding.
///
/// `min_align_log2` is `log2 K` — the minimum allocation size whose extent
/// encodes as 1. The paper selects `K = 256` to match the default GPU
/// allocation granularity. `max_size_log2` caps practical buffer sizes
/// (paper §IV-A3: device limits prevent unrealistically large buffers, and
/// extent values above the cap are repurposed for debugging information).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PtrConfig {
    /// `log2` of the minimum allocation size `K` (default 8, i.e. 256 B).
    pub min_align_log2: u32,
    /// `log2` of the maximum allowed buffer size (default 38, i.e. 256 GiB).
    pub max_size_log2: u32,
}

impl Default for PtrConfig {
    fn default() -> Self {
        PtrConfig { min_align_log2: 8, max_size_log2: 38 }
    }
}

impl PtrConfig {
    /// A configuration with a tighter device limit, freeing high extent
    /// values for debug codes (paper §IV-A3).
    pub fn with_device_limit_log2(max_size_log2: u32) -> PtrConfig {
        PtrConfig { max_size_log2, ..PtrConfig::default() }
    }

    /// The minimum allocation size `K` in bytes.
    pub fn min_align(&self) -> u64 {
        1u64 << self.min_align_log2
    }

    /// The maximum allocation size in bytes.
    pub fn max_size(&self) -> u64 {
        1u64 << self.max_size_log2
    }

    /// The extent value encoding a buffer of `size` bytes
    /// (paper §V-A1: `E = ceil(max(log2 K, log2 S)) - log2 K + 1`).
    ///
    /// # Errors
    ///
    /// Returns [`PtrError::SizeTooLarge`] if `size` exceeds the device limit.
    pub fn extent_for_size(&self, size: u64) -> Result<u8, PtrError> {
        if size > self.max_size() {
            return Err(PtrError::SizeTooLarge { size, limit: self.max_size() });
        }
        let size = size.max(1);
        let log = 64 - (size - 1).leading_zeros(); // ceil(log2(size)), 0 for size 1
        let log = log.max(self.min_align_log2);
        Ok((log - self.min_align_log2 + 1) as u8)
    }

    /// The buffer size encoded by `extent`, or `None` for extent 0
    /// (invalid) or extents beyond the device limit (debug codes).
    pub fn size_for_extent(&self, extent: u8) -> Option<u64> {
        if extent == 0 || !self.extent_is_size(extent) {
            return None;
        }
        Some(1u64 << (extent as u32 - 1 + self.min_align_log2))
    }

    /// The largest extent value that encodes a real size under the device
    /// limit; larger values are debug codes.
    pub fn max_size_extent(&self) -> u8 {
        (self.max_size_log2 - self.min_align_log2 + 1) as u8
    }

    /// Returns `true` if `extent` encodes a real buffer size.
    pub fn extent_is_size(&self, extent: u8) -> bool {
        extent >= 1 && extent <= self.max_size_extent()
    }

    /// The extent value used to stamp a poisoned pointer with `kind`, if the
    /// device limit leaves spare encodings; otherwise `None` and poisoning
    /// falls back to extent 0.
    pub fn debug_extent(&self, kind: PoisonKind) -> Option<u8> {
        let code = MAX_EXTENT - kind as u8;
        (code > self.max_size_extent()).then_some(code)
    }

    /// Decodes a debug extent back to its [`PoisonKind`].
    pub fn poison_kind(&self, extent: u8) -> Option<PoisonKind> {
        if extent == 0 || self.extent_is_size(extent) {
            return None;
        }
        PoisonKind::from_code(MAX_EXTENT - extent)
    }

    /// Rounds `size` up to the representable power-of-two allocation size.
    ///
    /// # Errors
    ///
    /// Returns [`PtrError::SizeTooLarge`] if `size` exceeds the device limit.
    pub fn round_up(&self, size: u64) -> Result<u64, PtrError> {
        let extent = self.extent_for_size(size)?;
        Ok(self.size_for_extent(extent).expect("extent from extent_for_size is a size"))
    }
}

/// Debug information encodable in spare extent values (paper §IV-A3:
/// "extent values that exceed practical buffer sizes can be repurposed to
/// encode debugging information, such as error types").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PoisonKind {
    /// The OCU detected out-of-bounds pointer arithmetic.
    SpatialViolation = 0,
    /// The pointer's buffer was freed (temporal violation pending).
    TemporalViolation = 1,
}

impl PoisonKind {
    fn from_code(code: u8) -> Option<PoisonKind> {
        match code {
            0 => Some(PoisonKind::SpatialViolation),
            1 => Some(PoisonKind::TemporalViolation),
            _ => None,
        }
    }
}

/// A 64-bit LMI pointer: extent metadata plus a virtual address.
///
/// `DevicePtr` is a transparent wrapper over the raw `u64` that flows through
/// registers; [`DevicePtr::raw`] recovers the register value and
/// [`DevicePtr::split`] maps it onto the two 32-bit physical registers of
/// paper Fig. 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct DevicePtr(u64);

impl DevicePtr {
    /// The null pointer (extent 0, address 0).
    pub const NULL: DevicePtr = DevicePtr(0);

    /// Wraps a raw register value without validation.
    pub fn from_raw(raw: u64) -> DevicePtr {
        DevicePtr(raw)
    }

    /// Encodes a pointer to a buffer of `size` bytes at `addr`.
    ///
    /// `addr` must already be aligned to the rounded-up power-of-two size —
    /// producing aligned addresses is the allocator's job (paper §V-B).
    ///
    /// # Errors
    ///
    /// * [`PtrError::SizeTooLarge`] if `size` exceeds the device limit;
    /// * [`PtrError::Misaligned`] if `addr` is not aligned to the rounded
    ///   size;
    /// * [`PtrError::AddressTooHigh`] if `addr` has bits in the extent field.
    pub fn encode(addr: u64, size: u64, cfg: &PtrConfig) -> Result<DevicePtr, PtrError> {
        if addr & !ADDR_MASK != 0 {
            return Err(PtrError::AddressTooHigh(addr));
        }
        let extent = cfg.extent_for_size(size)?;
        let aligned_size = cfg.size_for_extent(extent).expect("valid extent");
        if addr & (aligned_size - 1) != 0 {
            return Err(PtrError::Misaligned { addr, align: aligned_size });
        }
        Ok(DevicePtr(addr | ((extent as u64) << EXTENT_SHIFT)))
    }

    /// The raw 64-bit register value.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// The extent field (bits 63–59).
    pub fn extent(self) -> u8 {
        ((self.0 & EXTENT_MASK) >> EXTENT_SHIFT) as u8
    }

    /// The virtual address (extent bits stripped) — what the LSU sends to
    /// the memory system after the EC check.
    pub fn addr(self) -> u64 {
        self.0 & ADDR_MASK
    }

    /// Returns `true` if the extent encodes a real size (the pointer is
    /// dereferenceable).
    pub fn is_valid(self, cfg: &PtrConfig) -> bool {
        cfg.extent_is_size(self.extent())
    }

    /// The buffer size, if the pointer is valid.
    pub fn size(self, cfg: &PtrConfig) -> Option<u64> {
        cfg.size_for_extent(self.extent())
    }

    /// Recovers the buffer's base address from the pointer alone
    /// (paper §IV-A1: with 2ⁿ alignment, `base = ptr & !(size - 1)` no
    /// matter how much arithmetic the pointer has been through).
    pub fn base(self, cfg: &PtrConfig) -> Option<u64> {
        self.size(cfg).map(|s| self.addr() & !(s - 1))
    }

    /// The unmodifiable (UM) bits: the address bits above the modifiable
    /// region. Because only one live buffer can occupy a given aligned
    /// region, the UM bits uniquely identify a buffer — the property the
    /// §XII-C liveness tracker exploits.
    pub fn um_bits(self, cfg: &PtrConfig) -> Option<u64> {
        self.size(cfg).map(|s| self.addr() >> s.trailing_zeros())
    }

    /// Returns `true` if `addr` lies within the pointer's buffer.
    pub fn contains(self, addr: u64, cfg: &PtrConfig) -> bool {
        match (self.base(cfg), self.size(cfg)) {
            (Some(base), Some(size)) => addr >= base && addr < base + size,
            _ => false,
        }
    }

    /// Clears the extent field, invalidating the pointer (used by `free`,
    /// scope exit, and OCU poisoning).
    pub fn invalidated(self) -> DevicePtr {
        DevicePtr(self.0 & ADDR_MASK)
    }

    /// Stamps the pointer with a debug poison code if the configuration has
    /// spare extents, else clears the extent.
    pub fn poisoned(self, kind: PoisonKind, cfg: &PtrConfig) -> DevicePtr {
        match cfg.debug_extent(kind) {
            Some(code) => DevicePtr(self.addr() | ((code as u64) << EXTENT_SHIFT)),
            None => self.invalidated(),
        }
    }

    /// Splits into the two 32-bit physical registers of paper Fig. 6:
    /// `(low word, high word)`; the high word carries the extent.
    pub fn split(self) -> (u32, u32) {
        (self.0 as u32, (self.0 >> 32) as u32)
    }

    /// Rebuilds a pointer from its two 32-bit physical registers.
    pub fn from_parts(lo: u32, hi: u32) -> DevicePtr {
        DevicePtr(((hi as u64) << 32) | lo as u64)
    }

    /// Pointer arithmetic as the integer ALU performs it: a plain 64-bit
    /// add on the raw register value (no checking — that is the OCU's job).
    pub fn wrapping_offset(self, delta: i64) -> DevicePtr {
        DevicePtr(self.0.wrapping_add(delta as u64))
    }
}

impl fmt::Display for DevicePtr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ptr[E={} a={:#x}]", self.extent(), self.addr())
    }
}

impl fmt::LowerHex for DevicePtr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extent_encoding_matches_paper_examples() {
        let cfg = PtrConfig::default();
        // K = 256 encodes as 1 …
        assert_eq!(cfg.extent_for_size(256).unwrap(), 1);
        assert_eq!(cfg.extent_for_size(1).unwrap(), 1, "sub-K sizes round to K");
        assert_eq!(cfg.extent_for_size(257).unwrap(), 2);
        assert_eq!(cfg.extent_for_size(512).unwrap(), 2);
        // … and 256 GiB encodes as 31 (paper §IV-A3).
        assert_eq!(cfg.extent_for_size(1u64 << 38).unwrap(), 31);
        assert!(cfg.extent_for_size((1u64 << 38) + 1).is_err());
    }

    #[test]
    fn size_for_extent_inverts_extent_for_size() {
        let cfg = PtrConfig::default();
        for extent in 1..=31u8 {
            let size = cfg.size_for_extent(extent).unwrap();
            assert_eq!(cfg.extent_for_size(size).unwrap(), extent);
        }
        assert_eq!(cfg.size_for_extent(0), None);
    }

    #[test]
    fn base_recovery_example_from_paper() {
        // Paper §IV-A1: pointer 0x12345678 into a 256 B buffer has base
        // 0x12345600, and still does after moving to 0x1234567F.
        let cfg = PtrConfig::default();
        let p = DevicePtr::encode(0x1234_5600, 256, &cfg).unwrap();
        let moved = p.wrapping_offset(0x78);
        assert_eq!(moved.addr(), 0x1234_5678);
        assert_eq!(moved.base(&cfg), Some(0x1234_5600));
        let moved = p.wrapping_offset(0x7F);
        assert_eq!(moved.base(&cfg), Some(0x1234_5600));
    }

    #[test]
    fn misaligned_and_oversized_addresses_rejected() {
        let cfg = PtrConfig::default();
        assert_eq!(
            DevicePtr::encode(0x100, 512, &cfg),
            Err(PtrError::Misaligned { addr: 0x100, align: 512 })
        );
        let high = 1u64 << 60;
        assert_eq!(DevicePtr::encode(high, 256, &cfg), Err(PtrError::AddressTooHigh(high)));
    }

    #[test]
    fn invalidation_clears_extent_only() {
        let cfg = PtrConfig::default();
        let p = DevicePtr::encode(0x4000, 1024, &cfg).unwrap();
        let dead = p.invalidated();
        assert_eq!(dead.extent(), 0);
        assert_eq!(dead.addr(), 0x4000);
        assert!(!dead.is_valid(&cfg));
    }

    #[test]
    fn split_matches_fig6_register_mapping() {
        let cfg = PtrConfig::default();
        let p = DevicePtr::encode(0x1_0000_0000, 256, &cfg).unwrap();
        let (lo, hi) = p.split();
        assert_eq!(DevicePtr::from_parts(lo, hi), p);
        // The extent lives entirely in the high register.
        assert_eq!(hi >> (EXTENT_SHIFT - 32), p.extent() as u32);
    }

    #[test]
    fn um_bits_identify_the_buffer() {
        let cfg = PtrConfig::default();
        let a = DevicePtr::encode(0x10000, 4096, &cfg).unwrap();
        let b = DevicePtr::encode(0x11000, 4096, &cfg).unwrap();
        assert_ne!(a.um_bits(&cfg), b.um_bits(&cfg));
        // Moving inside the buffer does not change the UM bits.
        assert_eq!(a.wrapping_offset(4095).um_bits(&cfg), a.um_bits(&cfg));
    }

    #[test]
    fn contains_covers_exactly_the_aligned_region() {
        let cfg = PtrConfig::default();
        let p = DevicePtr::encode(0x2000, 1024, &cfg).unwrap();
        assert!(p.contains(0x2000, &cfg));
        assert!(p.contains(0x23FF, &cfg));
        assert!(!p.contains(0x2400, &cfg));
        assert!(!p.contains(0x1FFF, &cfg));
    }

    #[test]
    fn debug_extents_need_a_device_limit() {
        let default_cfg = PtrConfig::default();
        assert_eq!(default_cfg.debug_extent(PoisonKind::SpatialViolation), None);

        // Capping buffers at 16 GiB (2^34) leaves extents 28–31 spare.
        let cfg = PtrConfig::with_device_limit_log2(34);
        assert_eq!(cfg.max_size_extent(), 27);
        let spatial = cfg.debug_extent(PoisonKind::SpatialViolation).unwrap();
        let temporal = cfg.debug_extent(PoisonKind::TemporalViolation).unwrap();
        assert_eq!(spatial, 31);
        assert_eq!(temporal, 30);
        assert_eq!(cfg.poison_kind(spatial), Some(PoisonKind::SpatialViolation));
        assert_eq!(cfg.poison_kind(temporal), Some(PoisonKind::TemporalViolation));
        assert_eq!(cfg.poison_kind(5), None);
    }

    #[test]
    fn poisoned_pointer_reports_its_kind() {
        let cfg = PtrConfig::with_device_limit_log2(34);
        let p = DevicePtr::encode(0x4000, 1024, &cfg).unwrap();
        let bad = p.poisoned(PoisonKind::SpatialViolation, &cfg);
        assert!(!bad.is_valid(&cfg));
        assert_eq!(cfg.poison_kind(bad.extent()), Some(PoisonKind::SpatialViolation));
        // Without spare extents, poisoning degrades to extent 0.
        let cfg = PtrConfig::default();
        let p = DevicePtr::encode(0x4000, 1024, &cfg).unwrap();
        assert_eq!(p.poisoned(PoisonKind::SpatialViolation, &cfg).extent(), 0);
    }

    #[test]
    fn round_up_is_monotone_power_of_two() {
        let cfg = PtrConfig::default();
        assert_eq!(cfg.round_up(1).unwrap(), 256);
        assert_eq!(cfg.round_up(256).unwrap(), 256);
        assert_eq!(cfg.round_up(300).unwrap(), 512);
        assert_eq!(cfg.round_up(4097).unwrap(), 8192);
    }
}
