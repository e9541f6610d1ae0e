//! Set-associative cache timing model with LRU replacement.

/// Geometry and latency of a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Line size in bytes (power of two).
    pub line_bytes: u64,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Hit latency in cycles.
    pub hit_latency: u32,
}

impl CacheConfig {
    /// The paper's L1 data cache: 96 KB, 30-cycle latency (Table IV).
    pub fn l1_default() -> CacheConfig {
        CacheConfig { capacity_bytes: 96 * 1024, line_bytes: 128, ways: 8, hit_latency: 30 }
    }

    /// The paper's L2: 4.5 MB, 24-way, 200-cycle latency (Table IV).
    pub fn l2_default() -> CacheConfig {
        CacheConfig {
            capacity_bytes: 4_718_592, // 4.5 MiB
            line_bytes: 128,
            ways: 24,
            hit_latency: 200,
        }
    }

    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> u64 {
        self.capacity_bytes / (self.line_bytes * self.ways as u64)
    }
}

/// Hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Number of accesses that hit.
    pub hits: u64,
    /// Number of accesses that missed.
    pub misses: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in `[0, 1]`; 0 when no accesses happened.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses() as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    last_used: u64,
    valid: bool,
}

/// A set-associative LRU cache (tags only; data lives in the backing store).
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    sets: Vec<Vec<Line>>,
    tick: u64,
    stats: CacheStats,
}

impl Cache {
    /// Builds a cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the line size is not a power of two or the geometry yields
    /// zero sets.
    pub fn new(cfg: CacheConfig) -> Cache {
        assert!(cfg.line_bytes.is_power_of_two(), "line size must be a power of two");
        let sets = cfg.sets();
        assert!(sets > 0, "cache geometry yields zero sets");
        Cache {
            cfg,
            sets: vec![
                vec![Line { tag: 0, last_used: 0, valid: false }; cfg.ways as usize];
                sets as usize
            ],
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// The configured geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    fn index_and_tag(&self, addr: u64) -> (usize, u64) {
        let line = addr / self.cfg.line_bytes;
        ((line % self.sets.len() as u64) as usize, line / self.sets.len() as u64)
    }

    /// Looks up `addr`, filling the line on a miss. Returns `true` on hit.
    ///
    /// One pass over the set tracks the hit way and the LRU victim
    /// together (invalid ways sort as `last_used = 0`, first such way
    /// wins ties — same victim the old two-scan `find` + `min_by_key`
    /// picked).
    pub fn access(&mut self, addr: u64) -> bool {
        self.tick += 1;
        let tick = self.tick;
        let (index, tag) = self.index_and_tag(addr);
        let set = &mut self.sets[index];
        let mut victim = 0usize;
        let mut victim_key = u64::MAX;
        for (way, line) in set.iter_mut().enumerate() {
            if line.valid && line.tag == tag {
                line.last_used = tick;
                self.stats.hits += 1;
                return true;
            }
            let key = if line.valid { line.last_used } else { 0 };
            if key < victim_key {
                victim_key = key;
                victim = way;
            }
        }
        self.stats.misses += 1;
        set[victim] = Line { tag, last_used: tick, valid: true };
        false
    }

    /// Probes without filling or counting (for tests and the RCache model).
    pub fn probe(&self, addr: u64) -> bool {
        let (index, tag) = self.index_and_tag(addr);
        self.sets[index].iter().any(|l| l.valid && l.tag == tag)
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets × 2 ways × 64 B lines = 256 B.
        Cache::new(CacheConfig { capacity_bytes: 256, line_bytes: 64, ways: 2, hit_latency: 1 })
    }

    #[test]
    fn geometry_matches_table4() {
        let l1 = CacheConfig::l1_default();
        assert_eq!(l1.capacity_bytes, 96 * 1024);
        assert_eq!(l1.hit_latency, 30);
        let l2 = CacheConfig::l2_default();
        assert_eq!(l2.ways, 24);
        assert_eq!(l2.hit_latency, 200);
        assert!(l2.sets() > 0);
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = tiny();
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
        assert!(c.access(0x1020), "same 64 B line");
        assert_eq!(c.stats(), CacheStats { hits: 2, misses: 1 });
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = tiny();
        // Three lines mapping to set 0 (line addr multiples of 128 with bit6=0).
        c.access(0x0000);
        c.access(0x0080); // set 0? line 2 -> set 0
        assert!(c.access(0x0000), "still resident");
        c.access(0x0100); // third distinct tag in set 0 evicts 0x0080
        assert!(c.probe(0x0000), "recently used survives");
        assert!(!c.probe(0x0080), "LRU victim evicted");
    }

    #[test]
    fn capacity_is_respected() {
        let mut c = tiny();
        for i in 0..64 {
            c.access(i * 64);
        }
        let resident = (0..64).filter(|i| c.probe(i * 64)).count();
        assert!(resident <= 4, "at most sets*ways lines resident, got {resident}");
    }

    /// The fused single-pass `access` must be observationally identical to
    /// the reference two-scan version (hit `find`, then victim
    /// `min_by_key`) it replaced: same hit/miss stream, same stats, same
    /// resident lines.
    #[test]
    fn single_pass_access_matches_two_scan_reference() {
        struct RefCache {
            c: Cache,
        }
        impl RefCache {
            fn access(&mut self, addr: u64) -> bool {
                self.c.tick += 1;
                let tick = self.c.tick;
                let (index, tag) = self.c.index_and_tag(addr);
                let set = &mut self.c.sets[index];
                if let Some(line) = set.iter_mut().find(|l| l.valid && l.tag == tag) {
                    line.last_used = tick;
                    self.c.stats.hits += 1;
                    return true;
                }
                self.c.stats.misses += 1;
                let victim = set
                    .iter_mut()
                    .min_by_key(|l| if l.valid { l.last_used } else { 0 })
                    .expect("ways > 0");
                *victim = Line { tag, last_used: tick, valid: true };
                false
            }
        }
        let mut fused = tiny();
        let mut reference = RefCache { c: tiny() };
        // Deterministic pseudo-random address stream over a footprint a few
        // times the capacity, so hits, misses and evictions all occur.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..4096 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let addr = (x >> 33) % 1024;
            assert_eq!(fused.access(addr), reference.access(addr));
        }
        assert_eq!(fused.stats(), reference.c.stats());
        for addr in (0..1024).step_by(64) {
            assert_eq!(fused.probe(addr), reference.c.probe(addr), "addr {addr:#x}");
        }
    }

    #[test]
    fn hit_rate_reporting() {
        let mut c = tiny();
        assert_eq!(c.stats().hit_rate(), 0.0);
        c.access(0);
        c.access(0);
        c.access(0);
        assert!((c.stats().hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }
}
