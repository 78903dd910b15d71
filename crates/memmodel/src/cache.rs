//! Set-associative LRU cache simulation.
//!
//! One structure serves three roles: L1 data cache, L2 (the "secondary
//! cache" whose misses Figure 3 plots), and the TLB — a TLB with `E` entries
//! over pages of `P` bytes is exactly a fully-associative cache of capacity
//! `E * P` with line size `P`.

/// Geometry of a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Line (block) size in bytes.
    pub line_bytes: usize,
    /// Associativity; use [`CacheConfig::fully_associative`] for full.
    pub assoc: usize,
}

impl CacheConfig {
    /// A fully-associative configuration with the given capacity and line
    /// size.
    pub fn fully_associative(size_bytes: usize, line_bytes: usize) -> Self {
        Self {
            size_bytes,
            line_bytes,
            assoc: size_bytes / line_bytes,
        }
    }

    /// A TLB with `entries` translations over `page_bytes` pages.
    pub fn tlb(entries: usize, page_bytes: usize) -> Self {
        Self::fully_associative(entries * page_bytes, page_bytes)
    }

    /// Number of sets.
    pub fn nsets(&self) -> usize {
        self.size_bytes / (self.line_bytes * self.assoc)
    }

    /// Capacity in 8-byte double words (the `C` of Eqs. 1–2).
    pub fn capacity_dwords(&self) -> usize {
        self.size_bytes / 8
    }

    /// Line size in 8-byte double words (the `W` of Eqs. 1–2).
    pub fn line_dwords(&self) -> usize {
        self.line_bytes / 8
    }
}

/// A set-associative cache with true-LRU replacement and miss counting.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    cfg: CacheConfig,
    nsets: usize,
    line_shift: u32,
    /// Tags per set, `assoc` slots each; `u64::MAX` = invalid.
    tags: Vec<u64>,
    /// LRU stamps parallel to `tags`.
    stamps: Vec<u64>,
    clock: u64,
    accesses: u64,
    misses: u64,
}

impl SetAssocCache {
    /// Create an empty (cold) cache.
    ///
    /// # Panics
    /// Panics unless line size and set count are powers of two and the
    /// geometry divides evenly.
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(
            cfg.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(cfg.assoc >= 1);
        assert_eq!(
            cfg.size_bytes % (cfg.line_bytes * cfg.assoc),
            0,
            "capacity must divide into assoc-way sets"
        );
        let nsets = cfg.nsets();
        assert!(nsets.is_power_of_two(), "set count must be a power of two");
        Self {
            cfg,
            nsets,
            line_shift: cfg.line_bytes.trailing_zeros(),
            tags: vec![u64::MAX; nsets * cfg.assoc],
            stamps: vec![0; nsets * cfg.assoc],
            clock: 0,
            accesses: 0,
            misses: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Access one byte address; returns `true` on hit.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        self.accesses += 1;
        self.clock += 1;
        let line = addr >> self.line_shift;
        let set = (line as usize) & (self.nsets - 1);
        let base = set * self.cfg.assoc;
        let ways = &mut self.tags[base..base + self.cfg.assoc];
        // Hit?
        for (w, tag) in ways.iter().enumerate() {
            if *tag == line {
                self.stamps[base + w] = self.clock;
                return true;
            }
        }
        // Miss: evict LRU.
        self.misses += 1;
        let mut victim = 0;
        let mut oldest = u64::MAX;
        for w in 0..self.cfg.assoc {
            let s = self.stamps[base + w];
            if self.tags[base + w] == u64::MAX {
                victim = w;
                break;
            }
            if s < oldest {
                oldest = s;
                victim = w;
            }
        }
        self.tags[base + victim] = line;
        self.stamps[base + victim] = self.clock;
        false
    }

    /// Total accesses so far.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Total misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Reset counters but keep contents (for warm-cache measurements).
    pub fn reset_counters(&mut self) {
        self.accesses = 0;
        self.misses = 0;
    }

    /// Invalidate everything and reset counters.
    pub fn flush(&mut self) {
        self.tags.iter_mut().for_each(|t| *t = u64::MAX);
        self.stamps.iter_mut().for_each(|s| *s = 0);
        self.reset_counters();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache {
        // 4 sets x 2 ways x 64B lines = 512B.
        SetAssocCache::new(CacheConfig {
            size_bytes: 512,
            line_bytes: 64,
            assoc: 2,
        })
    }

    #[test]
    fn repeated_access_hits() {
        let mut c = tiny();
        assert!(!c.access(0));
        assert!(c.access(8));
        assert!(c.access(63));
        assert!(!c.access(64));
        assert_eq!(c.misses(), 2);
        assert_eq!(c.accesses(), 4);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = tiny();
        // Set 0 holds lines whose line index ≡ 0 (mod 4): addresses 0, 256, 512.
        c.access(0);
        c.access(256);
        c.access(0); // touch 0, making 256 LRU
        c.access(512); // evicts 256
        assert!(c.access(0), "0 must still be resident");
        assert!(!c.access(256), "256 must have been evicted");
    }

    #[test]
    fn streaming_misses_once_per_line() {
        let mut c = tiny();
        for b in 0..1024u64 {
            c.access(b);
        }
        assert_eq!(c.misses(), 1024 / 64);
        assert_eq!(c.accesses(), 1024);
    }

    #[test]
    fn working_set_larger_than_capacity_thrashes() {
        let mut c = tiny(); // 512 B capacity
                            // Cycle through 1024 B repeatedly, one access per line: with LRU and
                            // a round-robin pattern, every access misses after warmup.
        c.flush();
        for _ in 0..4 {
            for line in 0..16u64 {
                c.access(line * 64);
            }
        }
        // 64 accesses, all misses (16 lines don't fit into 8).
        assert_eq!(c.misses(), 64);
    }

    #[test]
    fn fully_associative_avoids_conflicts() {
        let mut c = SetAssocCache::new(CacheConfig::fully_associative(512, 64));
        // Two lines mapping to the same set in a direct-mapped cache coexist.
        for _ in 0..10 {
            c.access(0);
            c.access(512);
            c.access(1024);
        }
        assert_eq!(
            c.misses(),
            3,
            "only compulsory misses in a big-enough FA cache"
        );
    }

    #[test]
    fn tlb_config_geometry() {
        let t = CacheConfig::tlb(64, 16 * 1024);
        assert_eq!(t.nsets(), 1);
        assert_eq!(t.assoc, 64);
        assert_eq!(t.line_bytes, 16 * 1024);
        let mut tlb = SetAssocCache::new(t);
        // Touch 64 distinct pages: all compulsory misses, then all hits.
        for p in 0..64u64 {
            tlb.access(p * 16 * 1024);
        }
        for p in 0..64u64 {
            assert!(tlb.access(p * 16 * 1024 + 8));
        }
        assert_eq!(tlb.misses(), 64);
    }

    #[test]
    fn flush_and_reset() {
        let mut c = tiny();
        c.access(0);
        c.reset_counters();
        assert!(c.access(0), "contents survive reset_counters");
        c.flush();
        assert!(!c.access(0), "flush invalidates");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_pow2_line() {
        SetAssocCache::new(CacheConfig {
            size_bytes: 480,
            line_bytes: 60,
            assoc: 2,
        });
    }
}
