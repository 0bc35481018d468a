//! Set-associative caches and the three-level hierarchy.
//!
//! The hierarchy mirrors ZSim's: private L1I/L1D backed by a unified L2,
//! backed by a last-level cache slice, backed by DRAM. Fills propagate to
//! every level on the way back (inclusive), replacement is true LRU, and
//! stores allocate on miss (write-allocate, write-back), which is what makes
//! nursery-allocation streaming visible to the LLC exactly as in the paper's
//! Fig. 10.

use crate::config::{CacheConfig, UarchConfig};
use crate::dram::Dram;

/// Hit/miss statistics for one cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses (loads + stores + fills from above).
    pub accesses: u64,
    /// Misses at this level.
    pub misses: u64,
}

impl CacheStats {
    /// Miss rate in [0, 1]; zero when there were no accesses.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// One set-associative, true-LRU cache level.
///
/// Each set keeps its ways in recency order, most recent first: a hit
/// moves its line to the front, and a miss drops the last (least recent,
/// or empty) way and fills the front. So the resident lines of a set are
/// always the `assoc` most recently touched distinct lines that map to
/// it.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// `sets * assoc` tags, each set in recency order; `u64::MAX` marks
    /// an empty way.
    tags: Vec<u64>,
    sets: usize,
    line_shift: u32,
    stats: CacheStats,
}

impl Cache {
    /// Builds a cache from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent.
    pub fn new(cfg: CacheConfig) -> Self {
        cfg.validate();
        let sets = cfg.sets();
        Cache {
            tags: vec![u64::MAX; sets * cfg.assoc],
            sets,
            line_shift: cfg.line.trailing_zeros(),
            cfg,
            stats: CacheStats::default(),
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets statistics (not contents).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Looks up the line containing `addr`, filling it on a miss.
    /// Returns `true` on a hit.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        self.stats.accesses += 1;
        let line = addr >> self.line_shift;
        let set = (line as usize) & (self.sets - 1);
        let assoc = self.cfg.assoc;
        let ways = &mut self.tags[set * assoc..(set + 1) * assoc];
        match ways.iter().position(|&t| t == line) {
            Some(way) => {
                ways[..=way].rotate_right(1);
                true
            }
            None => {
                self.stats.misses += 1;
                ways.rotate_right(1);
                ways[0] = line;
                false
            }
        }
    }

    /// Returns `true` if the line containing `addr` is resident, without
    /// touching LRU state or statistics.
    pub fn probe(&self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        let set = (line as usize) & (self.sets - 1);
        let base = set * self.cfg.assoc;
        self.tags[base..base + self.cfg.assoc].contains(&line)
    }

    /// Number of resident (non-empty) lines.
    pub fn resident_lines(&self) -> usize {
        self.tags.iter().filter(|&&t| t != u64::MAX).count()
    }
}

/// The level of the hierarchy that satisfied an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitLevel {
    /// Hit in the first-level cache.
    L1,
    /// Satisfied by the unified L2.
    L2,
    /// Satisfied by the last-level cache.
    L3,
    /// Went to main memory.
    Memory,
}

/// Result of a hierarchy access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Which level satisfied the access.
    pub level: HitLevel,
    /// Additional cycles beyond a first-level hit (0 for an L1 hit). For a
    /// DRAM access this includes bandwidth queuing delay.
    pub penalty: u64,
}

/// What an access satisfied at each level costs beyond a first-level hit:
/// the L2 and LLC latencies, and the DRAM latency plus the queuing delay
/// of the bandwidth-limited channel. The channel is the only part of the
/// memory system whose state depends on timing.
#[derive(Debug, Clone)]
pub(crate) struct MissCost {
    l2_latency: u64,
    l3_latency: u64,
    dram: Dram,
}

impl MissCost {
    pub(crate) fn new(cfg: &UarchConfig) -> Self {
        MissCost {
            l2_latency: cfg.l2.latency,
            l3_latency: cfg.l3.latency,
            dram: Dram::new(cfg.mem, cfg.l3.line),
        }
    }

    /// Penalty of an access satisfied at `level`, issued at cycle `now`.
    #[inline]
    pub(crate) fn penalty(&mut self, level: HitLevel, now: u64) -> u64 {
        match level {
            HitLevel::L1 => 0,
            HitLevel::L2 => self.l2_latency,
            HitLevel::L3 => self.l3_latency,
            HitLevel::Memory => self.l3_latency + self.dram.latency() + self.dram.access(now),
        }
    }

    pub(crate) fn dram(&self) -> &Dram {
        &self.dram
    }

    fn reset_stats(&mut self) {
        self.dram.reset_stats();
    }
}

/// Three-level cache hierarchy plus DRAM.
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    l3: Cache,
    cost: MissCost,
}

impl MemoryHierarchy {
    /// Builds the hierarchy described by `cfg`.
    pub fn new(cfg: &UarchConfig) -> Self {
        MemoryHierarchy {
            l1i: Cache::new(cfg.l1i),
            l1d: Cache::new(cfg.l1d),
            l2: Cache::new(cfg.l2),
            l3: Cache::new(cfg.l3),
            cost: MissCost::new(cfg),
        }
    }

    fn walk(&mut self, addr: u64, instruction: bool, now: u64) -> Access {
        let l1 = if instruction { &mut self.l1i } else { &mut self.l1d };
        let level = if l1.access(addr) {
            HitLevel::L1
        } else if self.l2.access(addr) {
            HitLevel::L2
        } else if self.l3.access(addr) {
            HitLevel::L3
        } else {
            HitLevel::Memory
        };
        Access { level, penalty: self.cost.penalty(level, now) }
    }

    /// Instruction-fetch access at `pc`.
    pub fn fetch(&mut self, pc: u64, now: u64) -> Access {
        self.walk(pc, true, now)
    }

    /// Data access (load or store; write-allocate makes them equivalent for
    /// residence).
    pub fn data(&mut self, addr: u64, now: u64) -> Access {
        self.walk(addr, false, now)
    }

    /// L1I statistics.
    pub fn l1i_stats(&self) -> CacheStats {
        self.l1i.stats()
    }

    /// L1D statistics.
    pub fn l1d_stats(&self) -> CacheStats {
        self.l1d.stats()
    }

    /// L2 statistics.
    pub fn l2_stats(&self) -> CacheStats {
        self.l2.stats()
    }

    /// Last-level-cache statistics (the paper's Fig. 10 metric).
    pub fn llc_stats(&self) -> CacheStats {
        self.l3.stats()
    }

    /// Total bytes transferred from DRAM.
    pub fn dram_bytes(&self) -> u64 {
        self.cost.dram().bytes_transferred()
    }

    /// Resets all statistics (warm contents are preserved).
    pub fn reset_stats(&mut self) {
        self.l1i.reset_stats();
        self.l1d.reset_stats();
        self.l2.reset_stats();
        self.l3.reset_stats();
        self.cost.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache() -> Cache {
        Cache::new(CacheConfig { size: 256, assoc: 2, line: 64, latency: 1 })
    }

    #[test]
    fn repeated_access_hits() {
        let mut c = small_cache();
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(c.access(63)); // same line
        assert!(!c.access(64)); // next line
        assert_eq!(c.stats().accesses, 4);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small_cache(); // 2 sets, 2 ways
        // These three lines all map to set 0 (line numbers 0, 2, 4).
        assert!(!c.access(0));
        assert!(!c.access(128));
        assert!(c.access(0)); // renew line 0
        assert!(!c.access(256)); // evicts line 128 (LRU)
        assert!(c.access(0));
        assert!(!c.access(128)); // was evicted
    }

    #[test]
    fn probe_does_not_disturb() {
        let mut c = small_cache();
        c.access(0);
        let before = c.stats();
        assert!(c.probe(0));
        assert!(!c.probe(512));
        assert_eq!(c.stats(), before);
    }

    #[test]
    fn resident_line_count_bounded_by_capacity() {
        let mut c = small_cache();
        for i in 0..100 {
            c.access(i * 64);
        }
        assert_eq!(c.resident_lines(), 4); // 256 B / 64 B lines
    }

    #[test]
    fn hierarchy_latencies_match_levels() {
        let cfg = UarchConfig::skylake();
        let mut h = MemoryHierarchy::new(&cfg);
        let a1 = h.data(0x1000, 0);
        assert_eq!(a1.level, HitLevel::Memory);
        assert!(a1.penalty >= cfg.l3.latency + cfg.mem.latency);
        let a2 = h.data(0x1000, 1000);
        assert_eq!(a2.level, HitLevel::L1);
        assert_eq!(a2.penalty, 0);
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        // Tiny L1, big L2: thrash L1 but stay in L2.
        let mut cfg = UarchConfig::skylake();
        cfg.l1d = CacheConfig { size: 128, assoc: 1, line: 64, latency: 4 };
        let mut h = MemoryHierarchy::new(&cfg);
        h.data(0, 0);
        h.data(128, 0); // evicts line 0 in direct-mapped L1 set 0
        let a = h.data(0, 0);
        assert_eq!(a.level, HitLevel::L2);
        assert_eq!(a.penalty, cfg.l2.latency);
    }

    #[test]
    fn working_set_larger_than_llc_misses() {
        let cfg = UarchConfig::skylake(); // 2 MB LLC
        let mut h = MemoryHierarchy::new(&cfg);
        let span = 8 << 20; // 8 MB working set
        // Two passes: second pass should still miss at LLC because the
        // working set does not fit.
        for pass in 0..2 {
            let mut misses = 0;
            for addr in (0..span).step_by(64) {
                if h.data(0x5_0000_0000 + addr, 0).level == HitLevel::Memory {
                    misses += 1;
                }
            }
            if pass == 1 {
                assert!(misses > span / 64 / 2, "LLC absorbed too much");
            }
        }
    }

    #[test]
    fn working_set_smaller_than_llc_hits_on_second_pass() {
        let cfg = UarchConfig::skylake();
        let mut h = MemoryHierarchy::new(&cfg);
        let span = 512 << 10; // 512 kB fits in 2 MB LLC
        for addr in (0..span).step_by(64) {
            h.data(0x5_0000_0000 + addr, 0);
        }
        let mut mem_hits = 0;
        for addr in (0..span).step_by(64) {
            if h.data(0x5_0000_0000 + addr, 0).level == HitLevel::Memory {
                mem_hits += 1;
            }
        }
        assert_eq!(mem_hits, 0);
    }
}
