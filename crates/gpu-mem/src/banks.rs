//! Bank-sharded shared-memory-system state: L2 slices, MSHRs, DRAM
//! channel groups and the functional backing store, interleaved across N
//! address banks at cache-line granularity.
//!
//! Real GPUs partition exactly this structure (L2 slices striped across
//! memory partitions, each fronting its own DRAM channels), and the
//! simulator exploits the same property: a line's bank is a pure function
//! of its address, so the per-cycle shared-state apply can fan out across
//! banks with no cross-bank communication, while staying bit-identical to
//! the monolithic (1-bank) model.
//!
//! ## Routing and compaction
//!
//! With `N` banks and line size `L`, address `a` belongs to bank
//! `(a / L) % N` and is *compacted* inside the bank to
//! `((a / L) / N) * L + a % L`. Compaction keeps each bank's slice dense:
//!
//! * the per-bank L2 slice has `sets / N` sets, and
//!   `compact_line % (sets / N)` groups lines into exactly the same sets
//!   as `line % sets` did globally (requires `N | sets`);
//! * the per-bank DRAM slice has `channels / N` channels, and
//!   `compact_line % (channels / N)` groups lines onto exactly the same
//!   channels as `line % channels` did globally (requires `N | channels`);
//! * the per-bank [`SparseMemory`] sees a dense address space, so page
//!   occupancy does not blow up by `N`.
//!
//! Because set and channel grouping are preserved and requests are applied
//! in the same canonical order within each bank (a subsequence of the
//! global canonical order), hit/miss outcomes, evictions, MSHR merges and
//! channel queueing are identical for every valid `N`.

use std::collections::HashMap;

use crate::backing::SparseMemory;
use crate::cache::{Cache, CacheConfig, CacheStats};
use crate::dram::{Dram, DramConfig};
use crate::hierarchy::HierarchyConfig;

/// Pure-function address→bank routing shared by the timing and functional
/// sides (both must agree on who owns a byte).
#[derive(Debug, Clone, Copy)]
pub struct BankRouter {
    banks: u64,
    line_bytes: u64,
}

impl BankRouter {
    /// Builds a router over `banks` line-interleaved banks.
    ///
    /// # Panics
    ///
    /// Panics if `banks` is zero or `line_bytes` is not a power of two.
    pub fn new(banks: usize, line_bytes: u64) -> BankRouter {
        assert!(banks > 0, "need at least one bank");
        assert!(line_bytes.is_power_of_two(), "line size must be a power of two");
        BankRouter { banks: banks as u64, line_bytes }
    }

    /// Number of banks routed over.
    pub fn num_banks(&self) -> usize {
        self.banks as usize
    }

    /// Line size used for interleaving.
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// The bank owning `addr`.
    #[inline]
    pub fn bank_of(&self, addr: u64) -> usize {
        ((addr / self.line_bytes) % self.banks) as usize
    }

    /// Compacts `addr` into its bank's dense local address space.
    #[inline]
    pub fn localize(&self, addr: u64) -> u64 {
        if self.banks == 1 {
            return addr;
        }
        let line = addr / self.line_bytes;
        (line / self.banks) * self.line_bytes + (addr % self.line_bytes)
    }

    /// Splits an access of `width` bytes at `addr` at the line boundary:
    /// returns the width of the first part and, when the access straddles
    /// into the next line (hence possibly another bank), the address and
    /// width of the second part.
    #[inline]
    pub fn split(&self, addr: u64, width: u64) -> (u64, Option<(u64, u64)>) {
        let room = self.line_bytes - addr % self.line_bytes;
        if width <= room {
            (width, None)
        } else {
            (room, Some((addr + room, width - room)))
        }
    }
}

/// One memory bank: an L2 slice, its MSHRs, its DRAM channel group.
/// All addresses handed to a bank are *compacted* (see [`BankRouter`]).
#[derive(Debug)]
pub struct MemBank {
    l2: Cache,
    dram: Dram,
    /// MSHR-style merge of in-flight line fills: compacted line address →
    /// fill-ready cycle. A request for a line already being fetched rides
    /// that fill instead of issuing a redundant DRAM transaction.
    inflight: HashMap<u64, u64>,
    mshr_merges: u64,
}

/// MSHR map hygiene threshold: above this many tracked fills, entries
/// whose fill already completed are evicted.
const MSHR_RETAIN_THRESHOLD: usize = 4096;

impl MemBank {
    fn new(l2: CacheConfig, dram: DramConfig) -> MemBank {
        MemBank {
            l2: Cache::new(l2),
            dram: Dram::new(dram),
            inflight: HashMap::new(),
            mshr_merges: 0,
        }
    }

    /// An L2-backed access at time `now`; returns the completion cycle.
    ///
    /// This is the single shared fill path for both data-line fills (after
    /// an SM-local L1 miss) and metadata fetches that bypass the L1 (e.g.
    /// GPUShield bounds-table fills on RCache misses): L2 lookup, then
    /// MSHR merge, then DRAM. Both callers therefore share the MSHR
    /// eviction hygiene — the old split `metadata_fetch` copy of this loop
    /// skipped the `retain` and grew the in-flight map without bound on
    /// metadata-heavy runs.
    pub fn access(&mut self, local_addr: u64, now: u64) -> u64 {
        let l2_hit = self.l2.config().hit_latency as u64;
        if self.l2.access(local_addr) {
            return now + l2_hit;
        }
        let line = local_addr & !(self.l2.config().line_bytes - 1);
        if let Some(&ready) = self.inflight.get(&line) {
            if ready > now {
                self.mshr_merges += 1;
                return ready;
            }
        }
        let data_at = self.dram.access(local_addr, now + l2_hit);
        self.inflight.insert(line, data_at);
        if self.inflight.len() > MSHR_RETAIN_THRESHOLD {
            self.inflight.retain(|_, &mut r| r > now);
        }
        data_at
    }

    /// L2-slice statistics.
    pub fn l2_stats(&self) -> CacheStats {
        self.l2.stats()
    }

    /// DRAM transactions issued by this bank.
    pub fn dram_transactions(&self) -> u64 {
        self.dram.transactions()
    }

    /// MSHR-merged request count.
    pub fn mshr_merges(&self) -> u64 {
        self.mshr_merges
    }

    /// Number of fills currently tracked by the MSHR map (hygiene metric).
    pub fn inflight_len(&self) -> usize {
        self.inflight.len()
    }
}

/// The bank-sharded shared memory system: N [`MemBank`]s behind one
/// [`BankRouter`]. Replaces the monolithic L2 + MSHR + DRAM blob; per-SM
/// L1s live with their SMs now and never reach this structure.
#[derive(Debug)]
pub struct BankedHierarchy {
    cfg: HierarchyConfig,
    router: BankRouter,
    banks: Vec<MemBank>,
}

/// The most banks a hierarchy shards into: the simulator's engine
/// publishes each SM's traffic as one bit per bank of a 32-bit mask.
pub const MAX_BANKS: usize = 32;

/// The largest bank count `≤ requested` (and `≤ MAX_BANKS`) the geometry
/// supports: banks must evenly divide both the L2 set count and the DRAM
/// channel count, and line-granular routing requires DRAM transactions to
/// be line-sized.
pub fn max_supported_banks(cfg: &HierarchyConfig, requested: usize) -> usize {
    let requested = requested.clamp(1, MAX_BANKS);
    if cfg.dram.transaction_bytes != cfg.l2.line_bytes {
        return 1;
    }
    let sets = cfg.l2.sets();
    let channels = cfg.dram.channels as u64;
    (1..=requested as u64)
        .rev()
        .find(|&n| sets.is_multiple_of(n) && channels.is_multiple_of(n))
        .unwrap_or(1) as usize
}

impl BankedHierarchy {
    /// Builds the sharded hierarchy with `banks` banks.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not support `banks` (see
    /// [`max_supported_banks`]).
    pub fn new(cfg: HierarchyConfig, banks: usize) -> BankedHierarchy {
        assert_eq!(
            max_supported_banks(&cfg, banks),
            banks,
            "geometry does not shard into {banks} banks \
             (L2 sets {}, DRAM channels {})",
            cfg.l2.sets(),
            cfg.dram.channels,
        );
        let n = banks as u64;
        let l2_slice = CacheConfig { capacity_bytes: cfg.l2.capacity_bytes / n, ..cfg.l2 };
        let dram_slice = DramConfig {
            capacity_bytes: cfg.dram.capacity_bytes / n,
            channels: cfg.dram.channels / banks as u32,
            ..cfg.dram
        };
        BankedHierarchy {
            cfg,
            router: BankRouter::new(banks, cfg.l2.line_bytes),
            banks: (0..banks).map(|_| MemBank::new(l2_slice, dram_slice)).collect(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &HierarchyConfig {
        &self.cfg
    }

    /// The address router (copy it freely; it is two words).
    pub fn router(&self) -> BankRouter {
        self.router
    }

    /// Number of banks.
    pub fn num_banks(&self) -> usize {
        self.banks.len()
    }

    /// The banks, for the engine's per-bank workers.
    pub fn banks_mut(&mut self) -> &mut [MemBank] {
        &mut self.banks
    }

    /// The banks, read-only.
    pub fn banks(&self) -> &[MemBank] {
        &self.banks
    }

    /// Routes and performs one L2-backed access (data-line fill after an
    /// L1 miss, or an L1-bypassing metadata fetch) at time `now`. This is
    /// the monolithic convenience entry point; the engine's bank workers
    /// route once and call [`MemBank::access`] directly.
    pub fn access(&mut self, addr: u64, now: u64) -> u64 {
        let bank = self.router.bank_of(addr);
        let local = self.router.localize(addr);
        self.banks[bank].access(local, now)
    }

    /// L2 statistics summed across banks.
    pub fn l2_stats(&self) -> CacheStats {
        self.banks.iter().fold(CacheStats::default(), |acc, b| {
            let s = b.l2_stats();
            CacheStats { hits: acc.hits + s.hits, misses: acc.misses + s.misses }
        })
    }

    /// Total DRAM transactions across banks.
    pub fn dram_transactions(&self) -> u64 {
        self.banks.iter().map(|b| b.dram_transactions()).sum()
    }

    /// Total MSHR-merged requests across banks.
    pub fn mshr_merges(&self) -> u64 {
        self.banks.iter().map(|b| b.mshr_merges()).sum()
    }

    /// Total fills tracked by the MSHR maps (hygiene metric).
    pub fn inflight_len(&self) -> usize {
        self.banks.iter().map(|b| b.inflight_len()).sum()
    }
}

/// The functional byte store, sharded with the same line interleave as the
/// timing banks so each bank worker moves its own bytes with no locking.
///
/// Method-compatible with [`SparseMemory`]: host-side code (`gpu.memory`)
/// keeps reading and writing through the same API; accesses that straddle
/// a line boundary are split across the owning banks transparently.
#[derive(Debug)]
pub struct BankedMemory {
    router: BankRouter,
    banks: Vec<SparseMemory>,
}

impl BankedMemory {
    /// Builds a store sharded over `banks` banks at `line_bytes`
    /// granularity (must match the timing router).
    pub fn new(banks: usize, line_bytes: u64) -> BankedMemory {
        BankedMemory {
            router: BankRouter::new(banks, line_bytes),
            banks: (0..banks).map(|_| SparseMemory::new()).collect(),
        }
    }

    /// Number of banks.
    pub fn num_banks(&self) -> usize {
        self.banks.len()
    }

    /// The router (identical to the timing side's).
    pub fn router(&self) -> BankRouter {
        self.router
    }

    /// The per-bank stores, for the engine's bank workers.
    pub fn banks_mut(&mut self) -> &mut [SparseMemory] {
        &mut self.banks
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u64) -> u8 {
        self.banks[self.router.bank_of(addr)].read_u8(self.router.localize(addr))
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        let bank = self.router.bank_of(addr);
        self.banks[bank].write_u8(self.router.localize(addr), value);
    }

    /// Reads `width` bytes little-endian (1, 2, 4 or 8).
    pub fn read(&self, addr: u64, width: u8) -> u64 {
        if self.banks.len() == 1 {
            return self.banks[0].read(addr, width);
        }
        let (w1, rest) = self.router.split(addr, width as u64);
        let lo = self.banks[self.router.bank_of(addr)].read(self.router.localize(addr), w1 as u8);
        match rest {
            None => lo,
            Some((addr2, w2)) => {
                let hi = self.banks[self.router.bank_of(addr2)]
                    .read(self.router.localize(addr2), w2 as u8);
                lo | (hi << (8 * w1))
            }
        }
    }

    /// Writes the low `width` bytes of `value` little-endian.
    pub fn write(&mut self, addr: u64, value: u64, width: u8) {
        if self.banks.len() == 1 {
            self.banks[0].write(addr, value, width);
            return;
        }
        let (w1, rest) = self.router.split(addr, width as u64);
        let bank = self.router.bank_of(addr);
        self.banks[bank].write(self.router.localize(addr), value, w1 as u8);
        if let Some((addr2, w2)) = rest {
            let bank2 = self.router.bank_of(addr2);
            self.banks[bank2].write(self.router.localize(addr2), value >> (8 * w1), w2 as u8);
        }
    }

    /// Writes a byte slice starting at `addr`.
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        if self.banks.len() == 1 {
            self.banks[0].write_bytes(addr, bytes);
            return;
        }
        let mut addr = addr;
        let mut bytes = bytes;
        while !bytes.is_empty() {
            let (w, _) = self.router.split(addr, bytes.len() as u64);
            let (chunk, tail) = bytes.split_at(w as usize);
            let bank = self.router.bank_of(addr);
            self.banks[bank].write_bytes(self.router.localize(addr), chunk);
            addr += w;
            bytes = tail;
        }
    }

    /// Reads into a byte slice starting at `addr`.
    pub fn read_bytes(&self, addr: u64, out: &mut [u8]) {
        if self.banks.len() == 1 {
            self.banks[0].read_bytes(addr, out);
            return;
        }
        let mut addr = addr;
        let mut out = out;
        while !out.is_empty() {
            let (w, _) = self.router.split(addr, out.len() as u64);
            let (chunk, tail) = out.split_at_mut(w as usize);
            self.banks[self.router.bank_of(addr)].read_bytes(self.router.localize(addr), chunk);
            addr += w;
            out = tail;
        }
    }

    /// Fills `len` bytes starting at `addr` with `byte`.
    pub fn fill(&mut self, addr: u64, len: u64, byte: u8) {
        if self.banks.len() == 1 {
            self.banks[0].fill(addr, len, byte);
            return;
        }
        let mut addr = addr;
        let mut len = len;
        while len > 0 {
            let (w, _) = self.router.split(addr, len);
            let bank = self.router.bank_of(addr);
            self.banks[bank].fill(self.router.localize(addr), w, byte);
            addr += w;
            len -= w;
        }
    }

    /// Total resident pages across banks.
    pub fn resident_pages(&self) -> usize {
        self.banks.iter().map(|b| b.resident_pages()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table4() -> HierarchyConfig {
        HierarchyConfig::table4(2)
    }

    fn banked(n: usize) -> BankedHierarchy {
        BankedHierarchy::new(table4(), n)
    }

    #[test]
    fn cold_access_reaches_dram() {
        let mut h = banked(1);
        let done = h.access(0x10_0000, 0);
        // L2 miss: latency includes the L2 lookup plus DRAM.
        assert!(done >= 200 + 350, "got {done}");
        assert_eq!(h.dram_transactions(), 1);
    }

    #[test]
    fn warm_access_hits_l2() {
        let mut h = banked(1);
        h.access(0x10_0000, 0);
        let done = h.access(0x10_0000, 1000);
        assert_eq!(done, 1000 + 200);
        assert_eq!(h.dram_transactions(), 1);
    }

    #[test]
    fn max_supported_banks_respects_geometry() {
        let cfg = table4();
        // Table IV: 1536 L2 sets, 32 DRAM channels → powers of two up to
        // 32 all divide both.
        for n in [1usize, 2, 4, 8, 16, 32] {
            assert_eq!(max_supported_banks(&cfg, n), n);
        }
        // 3 divides 1536 but not 32 → clamps down to 2.
        assert_eq!(max_supported_banks(&cfg, 3), 2);
        // Requests past the channel count clamp to the largest divisor.
        assert_eq!(max_supported_banks(&cfg, 1000), 32);
        assert_eq!(max_supported_banks(&cfg, 0), 1);
        // Line-granular routing needs line-sized DRAM transactions.
        let mut odd = cfg;
        odd.dram.transaction_bytes = 64;
        assert_eq!(max_supported_banks(&odd, 8), 1);
        // Past `MAX_BANKS`, a geometry that would shard further does not.
        let mut wide = cfg;
        wide.dram.channels = 128;
        assert_eq!(max_supported_banks(&wide, 128), MAX_BANKS);
    }

    /// The determinism cornerstone: for any valid bank count, every access
    /// returns the same completion cycle and the re-aggregated stats match
    /// the monolithic model bit for bit.
    #[test]
    fn sharded_timing_is_bit_identical_to_monolithic() {
        let mut mono = banked(1);
        let mut shards: Vec<BankedHierarchy> = [2usize, 4, 8].iter().map(|&n| banked(n)).collect();
        // A deterministic mix of streaming lines, re-walks (L2 hits),
        // same-cycle conflicts (MSHR merges) and channel collisions.
        let mut x = 0x1234_5678_9abc_def0u64;
        let mut now = 0u64;
        for i in 0..20_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let addr = (x >> 24) % (8 << 20);
            if i % 7 == 0 {
                now += 1;
            }
            let expect = mono.access(addr, now);
            for h in &mut shards {
                assert_eq!(h.access(addr, now), expect, "addr {addr:#x} at {now}");
            }
        }
        for h in &shards {
            assert_eq!(h.l2_stats(), mono.l2_stats());
            assert_eq!(h.dram_transactions(), mono.dram_transactions());
            assert_eq!(h.mshr_merges(), mono.mshr_merges());
        }
    }

    /// Regression for the MSHR leak: the old `metadata_fetch` never ran
    /// the `retain` hygiene pass, so a metadata-heavy run grew the
    /// in-flight map without bound. The shared fill path bounds it.
    #[test]
    fn mshr_inflight_map_stays_bounded() {
        let mut h = banked(1);
        let mut now = 0u64;
        for i in 0..100_000u64 {
            // Distinct lines, monotonically advancing time so old fills
            // complete and become evictable.
            now += 1;
            h.access(i * 128, now + 10_000);
        }
        assert!(
            h.inflight_len() <= MSHR_RETAIN_THRESHOLD + 1,
            "MSHR map leaked: {} entries",
            h.inflight_len()
        );
    }

    #[test]
    fn router_splits_at_line_boundaries() {
        let r = BankRouter::new(4, 128);
        assert_eq!(r.split(0, 8), (8, None));
        assert_eq!(r.split(120, 8), (8, None));
        assert_eq!(r.split(121, 8), (7, Some((128, 1))));
        assert_eq!(r.split(127, 4), (1, Some((128, 3))));
        // Adjacent lines land in adjacent banks; compaction is dense.
        assert_eq!(r.bank_of(0), 0);
        assert_eq!(r.bank_of(128), 1);
        assert_eq!(r.bank_of(4 * 128), 0);
        assert_eq!(r.localize(4 * 128 + 5), 128 + 5);
    }

    #[test]
    fn banked_store_round_trips_across_boundaries() {
        for n in [1usize, 2, 4] {
            let mut m = BankedMemory::new(n, 128);
            // Word round-trip, straddling a line boundary.
            m.write(125, 0x1122_3344_5566_7788, 8);
            assert_eq!(m.read(125, 8), 0x1122_3344_5566_7788);
            assert_eq!(m.read_u8(125), 0x88);
            assert_eq!(m.read_u8(132), 0x11);
            // Bulk round-trip spanning several lines and banks.
            let data: Vec<u8> = (0..1000u32).map(|i| (i * 7) as u8).collect();
            m.write_bytes(1000, &data);
            let mut back = vec![0u8; 1000];
            m.read_bytes(1000, &mut back);
            assert_eq!(back, data);
            m.fill(1100, 300, 0xAB);
            let mut filled = vec![0u8; 300];
            m.read_bytes(1100, &mut filled);
            assert!(filled.iter().all(|&b| b == 0xAB));
            assert!(m.resident_pages() > 0);
        }
    }

    /// Multi-tenant address slices (64 GiB-spaced, 4 GiB spans) must hash
    /// across every bank rather than pinning a tenant to one bank — the
    /// line interleave guarantees it for any span beyond a few lines.
    #[test]
    fn tenant_spans_cover_all_banks() {
        let r = BankRouter::new(8, 128);
        const GLOBAL_BASE: u64 = 0x0100_0000_0000;
        const TENANT_SPAN: u64 = 64 << 30;
        for tenant in 0..4u64 {
            let base = GLOBAL_BASE + tenant * TENANT_SPAN;
            let mut seen = [false; 8];
            for line in 0..8u64 {
                seen[r.bank_of(base + line * 128)] = true;
            }
            assert!(seen.iter().all(|&s| s), "tenant {tenant} pinned to a bank subset");
        }
    }
}
