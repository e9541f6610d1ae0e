//! Load/store-unit helpers: warp-wide coalescing.

/// Coalesces per-lane addresses into unique cache-line transactions.
///
/// Returns the sorted list of 128-byte line addresses touched — one memory
/// transaction each, exactly how GPUs turn a warp's 32 scattered accesses
/// into a handful of coalesced requests (or 32 uncoalesced ones).
pub fn coalesce(addrs: impl IntoIterator<Item = u64>, line_bytes: u64) -> Vec<u64> {
    let mut lines = Vec::new();
    coalesce_into(addrs, line_bytes, &mut lines);
    lines
}

/// [`coalesce`] into a caller-provided buffer — the allocation-free form
/// the cycle loop uses with each SM's line scratch. `out` is cleared first.
pub fn coalesce_into(addrs: impl IntoIterator<Item = u64>, line_bytes: u64, out: &mut Vec<u64>) {
    out.clear();
    out.extend(addrs.into_iter().map(|a| a & !(line_bytes - 1)));
    out.sort_unstable();
    out.dedup();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_stride_warp_coalesces_to_one_line() {
        let addrs = (0..32u64).map(|l| 0x1000 + l * 4);
        assert_eq!(coalesce(addrs, 128), vec![0x1000]);
    }

    #[test]
    fn large_stride_warp_needs_a_line_per_lane() {
        let addrs = (0..32u64).map(|l| 0x1000 + l * 256);
        assert_eq!(coalesce(addrs, 128).len(), 32);
    }

    #[test]
    fn straddling_accesses_touch_both_lines() {
        let addrs = (0..32u64).map(|l| 0x1000 + l * 8); // 256 bytes total
        assert_eq!(coalesce(addrs, 128), vec![0x1000, 0x1080]);
    }

    #[test]
    fn duplicate_addresses_merge() {
        let addrs = std::iter::repeat_n(0x2000u64, 32);
        assert_eq!(coalesce(addrs, 128), vec![0x2000]);
    }

    #[test]
    fn coalesce_into_reuses_capacity_without_allocating() {
        let mut out = Vec::with_capacity(32);
        coalesce_into((0..32u64).map(|l| 0x1000 + l * 4), 128, &mut out);
        assert_eq!(out, vec![0x1000]);
        let cap = out.capacity();
        coalesce_into((0..32u64).map(|l| 0x3000 + l * 8), 128, &mut out);
        assert_eq!(out, vec![0x3000, 0x3080]);
        assert_eq!(out.capacity(), cap, "buffer was reused, not regrown");
    }
}
