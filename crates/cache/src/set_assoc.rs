//! A generic set-associative, write-back cache with true-LRU replacement.

/// Geometry of one cache level. Sizes are in bytes; lines are 128 B on the
/// Power5+.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub assoc: usize,
    /// Line size in bytes.
    pub line_bytes: u64,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (static configuration bug).
    pub fn sets(&self) -> usize {
        assert!(self.assoc > 0 && self.line_bytes > 0, "bad geometry");
        let lines = self.size_bytes / self.line_bytes;
        let sets = lines / self.assoc as u64;
        assert!(sets > 0, "cache smaller than one set");
        sets as usize
    }
}

/// Per-level counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Valid lines displaced by fills.
    pub evictions: u64,
    /// Dirty lines displaced by fills.
    pub dirty_evictions: u64,
}

/// Tag-word bit: slot holds a line.
const VALID: u64 = 1 << 63;
/// Tag-word bit: the held line is dirty.
const DIRTY: u64 = 1 << 62;
/// Mask extracting the line address from a tag word.
const LINE_MASK: u64 = DIRTY - 1;

/// A set-associative cache indexed by cache-line address (the address with
/// the line offset already stripped). Lookup and fill are separate
/// operations: the hierarchy decides what to do on a miss.
///
/// Storage is one allocation in which set `s` owns the contiguous block
/// `blocks[s * 2 * assoc .. (s + 1) * 2 * assoc]`: first its `assoc` tag
/// words, then its `assoc` LRU stamps. A tag word packs `VALID`/`DIRTY`
/// into the top bits of the line address (line addresses are physical
/// addresses shifted right by the 128-byte line offset, so bits 62–63 are
/// always free). The lookup scan is one equality compare per way against
/// `line | VALID`; a probe followed by a fill or LRU update stays inside
/// the one block (192 B for the 12-way L3) instead of touching two
/// far-apart stripes. A line occupies at most one way of its set and `lru`
/// stamps are unique (one clock for the whole cache), so hit detection and
/// victim choice are independent of slot order.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    blocks: Box<[u64]>,
    assoc: usize,
    index: SetIndex,
    lru_clock: u64,
    stats: CacheStats,
}

/// Maps a line address to its set without a hardware divide.
#[derive(Debug, Clone, Copy)]
struct SetIndex {
    /// Number of sets.
    sets: u64,
    /// `sets - 1` when `sets` is a power of two (mask indexing); else 0
    /// and [`SetIndex::set`] uses the reciprocal.
    pow2_mask: u64,
    /// `⌊(2^64 − 1) / sets⌋`. For any `line`, `mulhi(line, recip)` is
    /// `⌊line / sets⌋` or one less: writing `2^64 − 1 = recip·sets + e`
    /// with `e < sets`, the estimate undershoots `line / sets` by
    /// `line·(1 + e) / (sets·2^64) < 1`. One conditional subtraction of
    /// `sets` from the remainder therefore makes it exact.
    recip: u64,
}

impl SetIndex {
    fn new(sets: u64) -> Self {
        SetIndex {
            sets,
            pow2_mask: if sets.is_power_of_two() { sets - 1 } else { 0 },
            recip: u64::MAX / sets,
        }
    }

    /// `line % sets`.
    #[inline]
    fn set(&self, line: u64) -> u64 {
        if self.pow2_mask != 0 {
            return line & self.pow2_mask;
        }
        let q = ((u128::from(line) * u128::from(self.recip)) >> 64) as u64;
        let r = line - q * self.sets;
        if r >= self.sets {
            r - self.sets
        } else {
            r
        }
    }
}

impl SetAssocCache {
    /// Build a cache from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (static configuration bug).
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        SetAssocCache {
            blocks: vec![0; sets * 2 * cfg.assoc].into_boxed_slice(),
            assoc: cfg.assoc,
            index: SetIndex::new(sets as u64),
            lru_clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// The range of `blocks` holding `line`'s set.
    #[inline]
    fn block(&self, line: u64) -> std::ops::Range<usize> {
        let lo = self.index.set(line) as usize * 2 * self.assoc;
        lo..lo + 2 * self.assoc
    }

    /// `line`'s set as `(tags, lrus)`, each `assoc` words.
    #[inline]
    fn set(&self, line: u64) -> (&[u64], &[u64]) {
        self.blocks[self.block(line)].split_at(self.assoc)
    }

    /// Mutable [`SetAssocCache::set`].
    #[inline]
    fn set_mut(&mut self, line: u64) -> (&mut [u64], &mut [u64]) {
        let block = self.block(line);
        self.blocks[block].split_at_mut(self.assoc)
    }

    /// The way holding `line` among `tags`, if resident. One compare per
    /// way: a resident line's tag word is `line | VALID` or
    /// `line | VALID | DIRTY`.
    #[inline]
    fn find(tags: &[u64], line: u64) -> Option<usize> {
        let want = line | VALID | DIRTY;
        tags.iter().position(|&t| t | DIRTY == want)
    }

    /// Look up `line`; on a hit, refresh LRU and (for writes) set dirty.
    /// Counts toward hit/miss statistics.
    // asd-lint: hot
    pub fn access(&mut self, line: u64, is_write: bool) -> bool {
        self.lru_clock += 1;
        let clock = self.lru_clock;
        let (tags, lrus) = self.set_mut(line);
        match Self::find(tags, line) {
            Some(i) => {
                lrus[i] = clock;
                if is_write {
                    tags[i] |= DIRTY;
                }
                self.stats.hits += 1;
                true
            }
            None => {
                self.stats.misses += 1;
                false
            }
        }
    }

    /// Whether `line` is present, without perturbing LRU or statistics.
    // asd-lint: hot
    pub fn contains(&self, line: u64) -> bool {
        Self::find(self.set(line).0, line).is_some()
    }

    /// Install `line`, evicting the LRU way if the set is full. Returns the
    /// evicted line as `Some((line, was_dirty))`.
    // asd-lint: hot
    pub fn fill(&mut self, line: u64, dirty: bool) -> Option<(u64, bool)> {
        self.lru_clock += 1;
        let clock = self.lru_clock;
        let new_tag = line | VALID | if dirty { DIRTY } else { 0 };
        let (tags, lrus) = self.set_mut(line);
        // Already present (e.g. racing fills): refresh. Otherwise note the
        // first free way and the LRU victim in the same scan.
        let mut free: Option<usize> = None;
        let mut victim = 0;
        let mut victim_lru = u64::MAX;
        for i in 0..tags.len() {
            let t = tags[i];
            if t & VALID == 0 {
                if free.is_none() {
                    free = Some(i);
                }
                continue;
            }
            if t & LINE_MASK == line {
                lrus[i] = clock;
                tags[i] = t | new_tag;
                return None;
            }
            if lrus[i] < victim_lru {
                victim_lru = lrus[i];
                victim = i;
            }
        }
        if let Some(i) = free {
            tags[i] = new_tag;
            lrus[i] = clock;
            return None;
        }
        let evicted = (tags[victim] & LINE_MASK, tags[victim] & DIRTY != 0);
        tags[victim] = new_tag;
        lrus[victim] = clock;
        self.stats.evictions += 1;
        if evicted.1 {
            self.stats.dirty_evictions += 1;
        }
        Some(evicted)
    }

    /// Remove `line` if present, returning whether it was dirty.
    pub fn invalidate(&mut self, line: u64) -> Option<bool> {
        let (tags, _) = self.set_mut(line);
        let i = Self::find(tags, line)?;
        let dirty = tags[i] & DIRTY != 0;
        tags[i] = 0;
        Some(dirty)
    }

    /// Counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of valid lines currently resident.
    pub fn resident_lines(&self) -> usize {
        self.blocks
            .chunks_exact(2 * self.assoc)
            .map(|block| block[..self.assoc].iter().filter(|&&t| t & VALID != 0).count())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache {
        // 4 sets x 2 ways of 128B lines = 1KB.
        SetAssocCache::new(CacheConfig { size_bytes: 1024, assoc: 2, line_bytes: 128 })
    }

    #[test]
    fn sets_computed() {
        let cfg = CacheConfig { size_bytes: 32 * 1024, assoc: 4, line_bytes: 128 };
        assert_eq!(cfg.sets(), 64);
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(5, false));
        c.fill(5, false);
        assert!(c.access(5, false));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = tiny();
        // Lines 0, 4, 8 map to set 0 (4 sets).
        c.fill(0, false);
        c.fill(4, false);
        c.access(0, false); // 0 now MRU
        let evicted = c.fill(8, false);
        assert_eq!(evicted, Some((4, false)), "4 was LRU");
        assert!(c.contains(0));
        assert!(c.contains(8));
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut c = tiny();
        c.fill(0, false);
        c.access(0, true); // make dirty
        c.fill(4, false);
        let evicted = c.fill(8, false);
        assert_eq!(evicted, Some((0, true)));
        assert_eq!(c.stats().dirty_evictions, 1);
    }

    #[test]
    fn refill_refreshes_instead_of_duplicating() {
        let mut c = tiny();
        c.fill(0, false);
        assert!(c.fill(0, true).is_none());
        assert_eq!(c.resident_lines(), 1);
        // The refresh made it dirty.
        c.fill(4, false);
        let ev = c.fill(8, false);
        assert_eq!(ev, Some((0, true)));
    }

    #[test]
    fn invalidate_removes() {
        let mut c = tiny();
        c.fill(7, false);
        c.access(7, true);
        assert_eq!(c.invalidate(7), Some(true));
        assert_eq!(c.invalidate(7), None);
        assert!(!c.contains(7));
    }

    #[test]
    fn invalidated_slot_is_reused_before_eviction() {
        let mut c = tiny();
        c.fill(0, false);
        c.fill(4, false); // set 0 now full
        c.invalidate(0);
        // The freed way absorbs the new line: no eviction of 4.
        assert!(c.fill(8, false).is_none());
        assert!(c.contains(4));
        assert!(c.contains(8));
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn contains_does_not_count() {
        let mut c = tiny();
        c.fill(3, false);
        let before = c.stats();
        assert!(c.contains(3));
        assert!(!c.contains(99));
        assert_eq!(c.stats(), before);
    }

    #[test]
    fn line_zero_is_a_real_line() {
        // Line 0 must be distinguishable from an empty slot (the packed
        // tag word keeps VALID out of band).
        let mut c = tiny();
        assert!(!c.contains(0));
        c.fill(0, false);
        assert!(c.contains(0));
        assert!(c.access(0, true));
        assert_eq!(c.invalidate(0), Some(true));
        assert!(!c.contains(0));
    }

    #[test]
    fn reciprocal_index_is_exact() {
        for sets in [3u64, 5, 7, 640, 1536, 24_576, 1_000_003, (1 << 40) + 1] {
            let idx = SetIndex::new(sets);
            let edges = [0, 1, sets - 1, sets, sets + 1, LINE_MASK, u64::MAX - 1, u64::MAX];
            let multiples = [1u64, 2, 1 << 20, LINE_MASK / sets, u64::MAX / sets];
            for line in edges.into_iter().chain(multiples.iter().flat_map(|&k| {
                let m = k * sets;
                [m - 1, m, m.saturating_add(1)]
            })) {
                assert_eq!(idx.set(line), line % sets, "line {line} mod {sets}");
            }
        }
    }

    /// A naive true-LRU set-associative cache: per set, the resident
    /// `(line, dirty)` pairs from least to most recently used.
    struct Model {
        sets: Vec<Vec<(u64, bool)>>,
        assoc: usize,
        stats: CacheStats,
    }

    impl Model {
        fn new(cfg: CacheConfig) -> Self {
            Model {
                sets: vec![Vec::new(); cfg.sets()],
                assoc: cfg.assoc,
                stats: CacheStats::default(),
            }
        }

        fn set(&mut self, line: u64) -> &mut Vec<(u64, bool)> {
            let n = self.sets.len() as u64;
            &mut self.sets[(line % n) as usize]
        }

        fn access(&mut self, line: u64, is_write: bool) -> bool {
            let set = self.set(line);
            let hit = match set.iter().position(|&(l, _)| l == line) {
                Some(i) => {
                    let (l, dirty) = set.remove(i);
                    set.push((l, dirty || is_write));
                    true
                }
                None => false,
            };
            if hit {
                self.stats.hits += 1;
            } else {
                self.stats.misses += 1;
            }
            hit
        }

        fn fill(&mut self, line: u64, dirty: bool) -> Option<(u64, bool)> {
            let assoc = self.assoc;
            let set = self.set(line);
            if let Some(i) = set.iter().position(|&(l, _)| l == line) {
                let (l, was) = set.remove(i);
                set.push((l, was || dirty));
                return None;
            }
            let evicted = if set.len() == assoc { Some(set.remove(0)) } else { None };
            set.push((line, dirty));
            if let Some((_, d)) = evicted {
                self.stats.evictions += 1;
                self.stats.dirty_evictions += u64::from(d);
            }
            evicted
        }

        fn contains(&mut self, line: u64) -> bool {
            self.set(line).iter().any(|&(l, _)| l == line)
        }

        fn invalidate(&mut self, line: u64) -> Option<bool> {
            let set = self.set(line);
            let i = set.iter().position(|&(l, _)| l == line)?;
            Some(set.remove(i).1)
        }

        fn resident_lines(&self) -> usize {
            self.sets.iter().map(Vec::len).sum()
        }
    }

    #[test]
    fn matches_true_lru_reference_model() {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut rand = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for assoc in [2usize, 4, 10, 12] {
            for sets in [64u64, 1536, 24_576] {
                let cfg =
                    CacheConfig { size_bytes: sets * assoc as u64 * 128, assoc, line_bytes: 128 };
                let mut cache = SetAssocCache::new(cfg);
                let mut model = Model::new(cfg);
                // A pool of lines crowding a few sets (so sets fill and
                // evict), spread over the whole 62-bit line space so the
                // reciprocal index sees large quotients. The first and
                // last sets are where an off-by-one correction shows.
                let hot_sets = [0, sets - 1, rand() % sets, rand() % sets];
                let pool: Vec<u64> = (0..assoc as u64 * 6)
                    .map(|i| {
                        let q = rand() % (LINE_MASK / sets);
                        let line = q * sets + hot_sets[(i % 4) as usize];
                        if i % 17 == 0 {
                            LINE_MASK - i
                        } else {
                            line
                        }
                    })
                    .collect();
                for step in 0..20_000 {
                    let r = rand();
                    let line = pool[(r >> 8) as usize % pool.len()];
                    let flag = r & 16 != 0;
                    let ctx = format!("{assoc}-way {sets} sets, step {step}, line {line}");
                    match r % 8 {
                        0..=2 => {
                            assert_eq!(cache.access(line, flag), model.access(line, flag), "{ctx}")
                        }
                        3..=5 => {
                            assert_eq!(cache.fill(line, flag), model.fill(line, flag), "{ctx}")
                        }
                        6 => assert_eq!(cache.contains(line), model.contains(line), "{ctx}"),
                        _ => assert_eq!(cache.invalidate(line), model.invalidate(line), "{ctx}"),
                    }
                    assert_eq!(cache.stats(), model.stats, "{ctx}");
                    if step % 2_000 == 0 {
                        assert_eq!(cache.resident_lines(), model.resident_lines(), "{ctx}");
                    }
                }
                assert_eq!(cache.resident_lines(), model.resident_lines());
            }
        }
    }

    #[test]
    fn non_power_of_two_sets() {
        // 10-way, 1920KB, 128B lines -> 1536 sets (not a power of two).
        let cfg = CacheConfig { size_bytes: 1920 * 1024, assoc: 10, line_bytes: 128 };
        assert_eq!(cfg.sets(), 1536);
        let mut c = SetAssocCache::new(cfg);
        for line in 0..20_000u64 {
            c.fill(line * 3, false);
        }
        assert!(c.resident_lines() <= 1536 * 10);
        c.fill(123, false);
        assert!(c.contains(123));
    }
}
