//! The three-level hierarchy with write-back fills and cascading evictions.

use crate::set_assoc::{CacheConfig, CacheStats, SetAssocCache};

/// Which level serviced an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HitLevel {
    /// L1 data cache hit.
    L1,
    /// L2 hit.
    L2,
    /// L3 hit.
    L3,
    /// Miss everywhere: the line must come from memory.
    Memory,
}

/// Latencies and geometries of all three levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// L1D geometry (32 KB, 4-way on the Power5+).
    pub l1: CacheConfig,
    /// L2 geometry (3x640 KB, 10-way shared).
    pub l2: CacheConfig,
    /// L3 geometry (36 MB off-chip).
    pub l3: CacheConfig,
    /// L1 hit latency, cycles.
    pub l1_latency: u64,
    /// L2 hit latency, cycles.
    pub l2_latency: u64,
    /// L3 hit latency, cycles.
    pub l3_latency: u64,
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        HierarchyConfig {
            l1: CacheConfig { size_bytes: 32 * 1024, assoc: 4, line_bytes: 128 },
            l2: CacheConfig { size_bytes: 1920 * 1024, assoc: 10, line_bytes: 128 },
            l3: CacheConfig { size_bytes: 36 * 1024 * 1024, assoc: 12, line_bytes: 128 },
            l1_latency: 2,
            l2_latency: 13,
            l3_latency: 87,
        }
    }
}

/// Result of a hierarchy access: where it hit and the load-to-use latency
/// for cache hits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Level that serviced the access ([`HitLevel::Memory`] means the
    /// caller must fetch the line and then call
    /// [`Hierarchy::fill_from_memory`]).
    pub level: HitLevel,
    /// Latency in cycles for cache hits; for [`HitLevel::Memory`] this is
    /// the lookup cost spent discovering the miss (the DRAM round trip is
    /// the caller's to add).
    pub latency: u64,
}

/// Per-level statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HierarchyStats {
    /// L1 counters.
    pub l1: CacheStats,
    /// L2 counters.
    pub l2: CacheStats,
    /// L3 counters.
    pub l3: CacheStats,
    /// Lines written back to memory.
    pub memory_writebacks: u64,
}

/// The L1/L2/L3 stack. Mostly-inclusive, write-back, write-allocate;
/// evictions cascade downward and dirty L3 victims surface as memory
/// writebacks.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    cfg: HierarchyConfig,
    l1: SetAssocCache,
    l2: SetAssocCache,
    l3: SetAssocCache,
    memory_writebacks: u64,
}

impl Hierarchy {
    /// Build the hierarchy.
    pub fn new(cfg: HierarchyConfig) -> Self {
        Hierarchy {
            cfg,
            l1: SetAssocCache::new(cfg.l1),
            l2: SetAssocCache::new(cfg.l2),
            l3: SetAssocCache::new(cfg.l3),
            memory_writebacks: 0,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &HierarchyConfig {
        &self.cfg
    }

    /// Service one demand access to `line`.
    ///
    /// * L1 hit: done.
    /// * L2/L3 hit: line promoted into the upper levels.
    /// * Miss: outcome says [`HitLevel::Memory`]; once the caller has the
    ///   data it calls [`fill_from_memory`](Hierarchy::fill_from_memory).
    ///
    /// Dirty lines displaced out of the L3 by a promotion are appended to
    /// `writebacks`, in eviction order; the caller must enqueue them as
    /// DRAM writes. The same holds for every fill below.
    pub fn access(
        &mut self,
        line: u64,
        is_write: bool,
        writebacks: &mut impl Extend<u64>,
    ) -> AccessOutcome {
        if self.l1.access(line, is_write) {
            return AccessOutcome { level: HitLevel::L1, latency: self.cfg.l1_latency };
        }
        if self.l2.access(line, false) {
            self.promote_to_l1(line, is_write, writebacks);
            return AccessOutcome { level: HitLevel::L2, latency: self.cfg.l2_latency };
        }
        if self.l3.access(line, false) {
            self.promote_to_l2(line, false, writebacks);
            self.promote_to_l1(line, is_write, writebacks);
            return AccessOutcome { level: HitLevel::L3, latency: self.cfg.l3_latency };
        }
        AccessOutcome { level: HitLevel::Memory, latency: self.cfg.l3_latency }
    }

    /// Install a line fetched from memory into all levels (the demand-fill
    /// path; the Power5+ fills L1 and L2 on demand misses, and our L3 is a
    /// lookaside copy). `is_write` marks the L1 copy dirty.
    pub fn fill_from_memory(
        &mut self,
        line: u64,
        is_write: bool,
        writebacks: &mut impl Extend<u64>,
    ) {
        self.install_l3(line, false, writebacks);
        self.promote_to_l2(line, false, writebacks);
        self.promote_to_l1(line, is_write, writebacks);
    }

    /// Install a processor-side-prefetched line into L1 (and L2), as the
    /// Power5 stream prefetcher does for the "one line ahead" fill.
    pub fn prefetch_fill_l1(&mut self, line: u64, writebacks: &mut impl Extend<u64>) {
        self.promote_to_l2(line, false, writebacks);
        self.promote_to_l1(line, false, writebacks);
    }

    /// Install a processor-side-prefetched line into L2 only (the "one
    /// further line" fill of the Power5 prefetcher).
    pub fn prefetch_fill_l2(&mut self, line: u64, writebacks: &mut impl Extend<u64>) {
        self.promote_to_l2(line, false, writebacks);
    }

    /// Whether `line` is resident anywhere on chip (L1 or L2); used by the
    /// processor-side prefetcher to avoid redundant prefetches.
    pub fn on_chip(&self, line: u64) -> bool {
        self.l1.contains(line) || self.l2.contains(line)
    }

    /// Whether `line` is in a given level (diagnostics and tests).
    pub fn contains(&self, level: HitLevel, line: u64) -> bool {
        match level {
            HitLevel::L1 => self.l1.contains(line),
            HitLevel::L2 => self.l2.contains(line),
            HitLevel::L3 => self.l3.contains(line),
            HitLevel::Memory => false,
        }
    }

    fn promote_to_l1(&mut self, line: u64, dirty: bool, wb: &mut impl Extend<u64>) {
        if let Some((victim, victim_dirty)) = self.l1.fill(line, dirty) {
            if victim_dirty {
                // Write-back into L2.
                self.install_l2_dirty(victim, wb);
            }
        }
    }

    fn promote_to_l2(&mut self, line: u64, dirty: bool, wb: &mut impl Extend<u64>) {
        if let Some((victim, victim_dirty)) = self.l2.fill(line, dirty) {
            if victim_dirty {
                self.install_l3_dirty(victim, wb);
            }
        }
    }

    fn install_l2_dirty(&mut self, line: u64, wb: &mut impl Extend<u64>) {
        if let Some((victim, victim_dirty)) = self.l2.fill(line, true) {
            if victim_dirty {
                self.install_l3_dirty(victim, wb);
            }
        }
    }

    fn install_l3(&mut self, line: u64, dirty: bool, wb: &mut impl Extend<u64>) {
        if let Some((victim, victim_dirty)) = self.l3.fill(line, dirty) {
            if victim_dirty {
                self.memory_writebacks += 1;
                wb.extend(Some(victim));
            }
        }
    }

    fn install_l3_dirty(&mut self, line: u64, wb: &mut impl Extend<u64>) {
        self.install_l3(line, true, wb);
    }

    /// Counters across all levels.
    pub fn stats(&self) -> HierarchyStats {
        HierarchyStats {
            l1: self.l1.stats(),
            l2: self.l2.stats(),
            l3: self.l3.stats(),
            memory_writebacks: self.memory_writebacks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Hierarchy {
        // Shrunken hierarchy so tests can force capacity evictions quickly.
        Hierarchy::new(HierarchyConfig {
            l1: CacheConfig { size_bytes: 1024, assoc: 2, line_bytes: 128 }, // 8 lines
            l2: CacheConfig { size_bytes: 4096, assoc: 4, line_bytes: 128 }, // 32 lines
            l3: CacheConfig { size_bytes: 16 * 1024, assoc: 4, line_bytes: 128 }, // 128 lines
            l1_latency: 2,
            l2_latency: 13,
            l3_latency: 87,
        })
    }

    #[test]
    fn cold_miss_goes_to_memory() {
        let mut h = small();
        let mut wb: Vec<u64> = Vec::new();
        let out = h.access(42, false, &mut wb);
        assert_eq!(out.level, HitLevel::Memory);
        assert!(wb.is_empty());
    }

    #[test]
    fn fill_then_l1_hit() {
        let mut h = small();
        let mut wb: Vec<u64> = Vec::new();
        h.access(42, false, &mut wb);
        h.fill_from_memory(42, false, &mut wb);
        let out = h.access(42, false, &mut wb);
        assert_eq!(out.level, HitLevel::L1);
        assert_eq!(out.latency, 2);
    }

    #[test]
    fn l2_hit_promotes_to_l1() {
        let mut h = small();
        let mut wb: Vec<u64> = Vec::new();
        h.fill_from_memory(42, false, &mut wb);
        // Push 42 out of tiny L1 (set = 42 % 4 = 2; lines 2+4k map there).
        h.fill_from_memory(2, false, &mut wb);
        h.fill_from_memory(6, false, &mut wb);
        h.fill_from_memory(10, false, &mut wb);
        assert!(!h.contains(HitLevel::L1, 42));
        let out = h.access(42, false, &mut wb);
        assert_eq!(out.level, HitLevel::L2);
        assert!(h.contains(HitLevel::L1, 42), "promoted on hit");
    }

    #[test]
    fn dirty_line_cascades_to_memory_writeback() {
        let mut h = small();
        let mut wb: Vec<u64> = Vec::new();
        // Dirty in L1. Then flood every level's set 0 until the dirty line
        // is forced out of L3.
        h.fill_from_memory(0, true, &mut wb);
        let mut wrote_back = false;
        for i in 1..2000u64 {
            let line = i * 4; // all in L1 set 0 orbit
            h.access(line, false, &mut wb);
            h.fill_from_memory(line, false, &mut wb);
            if wb.contains(&0) {
                wrote_back = true;
                break;
            }
        }
        assert!(wrote_back, "dirty line must eventually surface as a memory writeback");
        assert!(h.stats().memory_writebacks > 0);
    }

    #[test]
    fn write_hit_dirties_line() {
        let mut h = small();
        let mut wb: Vec<u64> = Vec::new();
        h.fill_from_memory(5, false, &mut wb);
        // A write hit in L1; then evict from L1: the dirty copy must land
        // in L2 (not be lost).
        h.access(5, true, &mut wb);
        h.fill_from_memory(9, false, &mut wb);
        h.fill_from_memory(13, false, &mut wb);
        h.fill_from_memory(17, false, &mut wb);
        assert!(!h.contains(HitLevel::L1, 5));
        assert!(h.contains(HitLevel::L2, 5));
    }

    #[test]
    fn prefetch_fills_target_levels() {
        let mut h = small();
        let mut wb: Vec<u64> = Vec::new();
        h.prefetch_fill_l2(30, &mut wb);
        assert!(!h.contains(HitLevel::L1, 30));
        assert!(h.contains(HitLevel::L2, 30));
        h.prefetch_fill_l1(31, &mut wb);
        assert!(h.contains(HitLevel::L1, 31));
        assert!(h.contains(HitLevel::L2, 31));
        assert!(h.on_chip(30));
        assert!(!h.on_chip(999));
    }

    #[test]
    fn l3_hit_latency() {
        let mut h = small();
        let mut wb: Vec<u64> = Vec::new();
        h.fill_from_memory(7, false, &mut wb);
        // Evict from L1 and L2 but not L3: flood 40 lines in the same orbits.
        for i in 1..40u64 {
            h.fill_from_memory(7 + i * 4, false, &mut wb);
        }
        if !h.contains(HitLevel::L1, 7)
            && !h.contains(HitLevel::L2, 7)
            && h.contains(HitLevel::L3, 7)
        {
            let out = h.access(7, false, &mut wb);
            assert_eq!(out.level, HitLevel::L3);
            assert_eq!(out.latency, 87);
        }
    }

    #[test]
    fn stats_populated() {
        let mut h = small();
        let mut wb: Vec<u64> = Vec::new();
        h.access(1, false, &mut wb);
        h.fill_from_memory(1, false, &mut wb);
        h.access(1, false, &mut wb);
        let s = h.stats();
        assert_eq!(s.l1.hits, 1);
        assert!(s.l1.misses >= 1);
    }

    #[test]
    fn default_config_matches_power5() {
        let cfg = HierarchyConfig::default();
        assert_eq!(cfg.l1.size_bytes, 32 * 1024);
        assert_eq!(cfg.l1.assoc, 4);
        assert_eq!(cfg.l2.size_bytes, 1920 * 1024);
        assert_eq!(cfg.l2.assoc, 10);
        assert_eq!(cfg.l2.line_bytes, 128);
        assert_eq!(cfg.l3.size_bytes, 36 * 1024 * 1024);
        let _ = Hierarchy::new(cfg);
    }
}
