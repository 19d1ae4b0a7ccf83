//! The Power5-style processor-side stream prefetcher (paper §4.2).

use asd_core::Direction;

/// Where a processor-side prefetch fill should land.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PsTarget {
    /// One line ahead of the stream: filled into L1 (and L2).
    L1,
    /// A further line ahead: filled into L2 only.
    L2,
}

/// One prefetch the PS unit wants performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PsRequest {
    /// Line to fetch.
    pub line: u64,
    /// Fill destination.
    pub target: PsTarget,
}

/// Per-slot stream state other than the expected next line. The expected
/// lines live in their own parallel stripe ([`PsPrefetcher::expects`])
/// because the match scan — one compare per slot on *every* L1 reference —
/// should touch nothing else.
#[derive(Debug, Clone, Copy)]
struct SlotMeta {
    dir: Direction,
    /// Confirmed after two consecutive misses; only confirmed streams
    /// prefetch, and at most `max_active` may be confirmed at once.
    confirmed: bool,
    /// Advances since confirmation (depth ramp: the far L2 fill only
    /// starts once the stream has proven itself).
    advances: u32,
    /// Age counter for victim selection.
    last_touch: u64,
}

/// A confirmed stream that has not advanced in this many prefetcher
/// events is considered dead: it stops counting against the concurrent
/// stream cap and becomes eligible for replacement. Without this, slots
/// confirmed for departed streams would permanently exhaust the cap.
const STALE_EVENTS: u64 = 256;

/// The sequential prefetching unit of the Power5: "waits to issue
/// prefetches until it detects two consecutive cache misses", 12 detection
/// entries, up to eight streams prefetched concurrently; in steady state
/// each stream keeps one line ahead in L1 and a further line in L2.
#[derive(Debug, Clone)]
pub struct PsPrefetcher {
    /// The line whose miss/reference would advance slot `i`'s stream;
    /// parallel to `meta`.
    expects: Vec<u64>,
    meta: Vec<SlotMeta>,
    detect_entries: usize,
    max_active: usize,
    /// How far ahead of the consumed line the L2 fill runs.
    l2_lookahead: u64,
    clock: u64,
    issued: u64,
}

impl Default for PsPrefetcher {
    fn default() -> Self {
        Self::new(12, 8, 4)
    }
}

impl PsPrefetcher {
    /// Create a prefetcher with `detect_entries` detection slots, at most
    /// `max_active` confirmed streams, and an L2 fill running
    /// `l2_lookahead` lines ahead of the L1 fill.
    pub fn new(detect_entries: usize, max_active: usize, l2_lookahead: u64) -> Self {
        assert!(detect_entries > 0 && max_active > 0, "geometry");
        PsPrefetcher {
            expects: Vec::with_capacity(detect_entries),
            meta: Vec::with_capacity(detect_entries),
            detect_entries,
            max_active,
            l2_lookahead,
            clock: 0,
            issued: 0,
        }
    }

    /// Total prefetch requests produced.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Number of live confirmed (actively prefetching) streams.
    pub fn active_streams(&self) -> usize {
        let clock = self.clock;
        self.meta
            .iter()
            .filter(|s| s.confirmed && clock.saturating_sub(s.last_touch) <= STALE_EVENTS)
            .count()
    }

    /// Observe an L1 *reference* (hit or miss) of `line`; append the
    /// prefetches to perform.
    ///
    /// Streams advance on any reference to their expected next line — this
    /// is essential, because a successful prefetch turns the would-be miss
    /// into a hit, and a miss-trained prefetcher would kill every stream
    /// after its first useful prefetch. New streams, however, are only
    /// *allocated* on misses (`is_miss`), as in the Power5's detection
    /// logic.
    // asd-lint: hot
    pub fn on_access(&mut self, line: u64, is_miss: bool, out: &mut Vec<PsRequest>) {
        self.clock += 1;
        let clock = self.clock;

        // Does this reference advance a tracked stream? One compare per
        // slot against the `expects` stripe alone.
        if let Some(idx) = self.expects.iter().position(|&e| e == line) {
            self.meta[idx].last_touch = clock;
            if !self.meta[idx].confirmed {
                // The active recount only matters for confirmation; an
                // unconfirmed slot never counts toward it, so updating
                // `last_touch` first changes nothing.
                if self.active_streams() >= self.max_active {
                    // Detection confirmed but no prefetch bandwidth: keep
                    // tracking without prefetching.
                    if let Some(n) = self.meta[idx].dir.step(line) {
                        self.expects[idx] = n;
                    }
                    return;
                }
                self.meta[idx].confirmed = true;
            }
            // One line ahead into L1 on every advance; the further L2 line
            // only once the stream has advanced a few times (the Power5
            // ramps to steady state rather than over-fetching short
            // streams).
            self.meta[idx].advances += 1;
            let dir = self.meta[idx].dir;
            let advances = self.meta[idx].advances;
            if let Some(next) = dir.step(line) {
                self.expects[idx] = next;
                out.push(PsRequest { line: next, target: PsTarget::L1 });
                self.issued += 1;
                if advances >= 3 {
                    let mut ahead = next;
                    let mut ok = true;
                    for _ in 0..self.l2_lookahead {
                        match dir.step(ahead) {
                            Some(a) => ahead = a,
                            None => {
                                ok = false;
                                break;
                            }
                        }
                    }
                    if ok {
                        out.push(PsRequest { line: ahead, target: PsTarget::L2 });
                        self.issued += 1;
                    }
                }
            }
            return;
        }

        // Only misses may allocate or redirect detection entries.
        if !is_miss {
            return;
        }

        // New potential streams: expect both neighbours (direction unknown
        // until the second miss lands). Use one slot expecting +1; a miss
        // at line-1 relative to an existing slot establishes descent.
        if let Some(idx) = (0..self.meta.len()).find(|&i| {
            let m = self.meta[i];
            !m.confirmed && m.dir == Direction::Positive && self.expects[i] == line + 2
        }) {
            // The previous miss was at line+1: this is a *descending* pair.
            self.meta[idx].dir = Direction::Negative;
            self.meta[idx].last_touch = clock;
            if line > 0 {
                self.expects[idx] = line - 1;
            }
            return;
        }

        let meta =
            SlotMeta { dir: Direction::Positive, confirmed: false, advances: 0, last_touch: clock };
        if self.meta.len() < self.detect_entries {
            self.expects.push(line + 1);
            self.meta.push(meta);
        } else {
            let victim = victim(&self.meta, clock);
            self.expects[victim] = line + 1;
            self.meta[victim] = meta;
        }
    }
}

/// The slot to replace: the stalest entry, preferring unconfirmed or
/// stale confirmed slots over live streams — the first minimum of
/// `(live, last_touch)`. One pass over the packed key
/// `(live << 63) | last_touch` (`last_touch` is an event count, far
/// below 2^63), keeping the first minimum on ties.
fn victim(meta: &[SlotMeta], clock: u64) -> usize {
    let mut victim = 0;
    let mut best = u64::MAX;
    for (i, s) in meta.iter().enumerate() {
        let live = s.confirmed && clock.saturating_sub(s.last_touch) <= STALE_EVENTS;
        let key = (u64::from(live) << 63) | s.last_touch;
        if key < best {
            best = key;
            victim = i;
        }
    }
    victim
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_consecutive_misses_confirm() {
        let mut ps = PsPrefetcher::default();
        let mut out = Vec::new();
        ps.on_access(100, true, &mut out);
        assert!(out.is_empty(), "first miss only allocates");
        ps.on_access(101, true, &mut out);
        assert_eq!(
            out,
            vec![PsRequest { line: 102, target: PsTarget::L1 }],
            "confirmation prefetches the next L1 line (L2 depth ramps later)"
        );
        assert_eq!(ps.active_streams(), 1);
    }

    #[test]
    fn steady_state_stays_one_ahead() {
        let mut ps = PsPrefetcher::default();
        let mut out = Vec::new();
        ps.on_access(200, true, &mut out);
        ps.on_access(201, true, &mut out);
        ps.on_access(202, true, &mut out);
        out.clear();
        ps.on_access(203, true, &mut out);
        assert_eq!(out[0], PsRequest { line: 204, target: PsTarget::L1 });
        assert_eq!(
            out[1],
            PsRequest { line: 208, target: PsTarget::L2 },
            "after three advances the far L2 fill engages"
        );
    }

    #[test]
    fn descending_stream_detected() {
        let mut ps = PsPrefetcher::default();
        let mut out = Vec::new();
        ps.on_access(500, true, &mut out);
        ps.on_access(499, true, &mut out);
        // Direction pinned negative; next miss at 498 confirms and
        // prefetches downward.
        out.clear();
        ps.on_access(498, true, &mut out);
        assert_eq!(out, vec![PsRequest { line: 497, target: PsTarget::L1 }]);
        ps.on_access(497, true, &mut out);
        ps.on_access(496, true, &mut out);
        assert!(
            out.contains(&PsRequest { line: 491, target: PsTarget::L2 }),
            "ramped L2 fill runs four ahead, downward"
        );
    }

    #[test]
    fn concurrent_stream_cap_enforced() {
        let mut ps = PsPrefetcher::new(12, 2, 4);
        let mut out = Vec::new();
        // Confirm three streams; only two may prefetch.
        for s in 0..3u64 {
            let base = s * 10_000;
            ps.on_access(base, true, &mut out);
            ps.on_access(base + 1, true, &mut out);
        }
        assert_eq!(ps.active_streams(), 2);
    }

    #[test]
    fn detection_entries_bounded() {
        let mut ps = PsPrefetcher::new(4, 8, 4);
        let mut out = Vec::new();
        for s in 0..20u64 {
            ps.on_access(s * 1000, true, &mut out);
        }
        assert!(ps.expects.len() <= 4);
        assert_eq!(ps.expects.len(), ps.meta.len());
    }

    /// The victim rule the packed-key scan replaced.
    fn reference_victim(meta: &[SlotMeta], clock: u64) -> usize {
        meta.iter()
            .enumerate()
            .min_by_key(|(_, s)| {
                let live = s.confirmed && clock.saturating_sub(s.last_touch) <= STALE_EVENTS;
                (live, s.last_touch)
            })
            .map(|(i, _)| i)
            .expect("nonempty")
    }

    fn slot(confirmed: bool, last_touch: u64) -> SlotMeta {
        SlotMeta { dir: Direction::Positive, confirmed, advances: 0, last_touch }
    }

    #[test]
    fn victim_matches_min_by_key_rule() {
        let clock = 1_000u64;
        let cases: Vec<(&str, Vec<SlotMeta>, usize)> = vec![
            ("tied last_touch keeps the first", vec![slot(false, 700); 12], 0),
            (
                "tie after a live slot",
                vec![slot(true, 990), slot(false, 500), slot(true, 995), slot(false, 500)],
                1,
            ),
            ("all live: oldest wins", (0..12).map(|i| slot(true, 900 + (i * 7) % 12)).collect(), 0),
            (
                "all unconfirmed: oldest wins",
                (0..12).map(|i| slot(false, 980 - (i * 5) % 11)).collect(),
                2,
            ),
            (
                "age 256 is live, the unconfirmed slot goes",
                vec![slot(true, 744), slot(false, 999)],
                1,
            ),
            ("age 257 is stale and goes first", vec![slot(false, 999), slot(true, 743)], 1),
            (
                "stale beats live regardless of order",
                vec![slot(true, 744), slot(true, 743), slot(true, 900)],
                1,
            ),
        ];
        for (what, meta, want) in &cases {
            assert_eq!(victim(meta, clock), reference_victim(meta, clock), "{what}");
            assert_eq!(victim(meta, clock), *want, "{what}");
        }
        // Random tables with few distinct stamps (many ties) straddling
        // the stale boundary.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..10_000 {
            let meta: Vec<SlotMeta> = (0..12)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    slot(x & 1 == 0, clock - 254 - (x >> 8) % 6)
                })
                .collect();
            assert_eq!(victim(&meta, clock), reference_victim(&meta, clock));
        }
    }

    #[test]
    fn unrelated_misses_never_prefetch() {
        let mut ps = PsPrefetcher::default();
        let mut out = Vec::new();
        for s in 0..50u64 {
            ps.on_access(s * 977, true, &mut out);
        }
        assert!(out.is_empty());
        assert_eq!(ps.issued(), 0);
    }
}
