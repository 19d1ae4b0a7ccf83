//! The trace-driven core: limited MLP, stall-on-use retirement proxy,
//! optional processor-side prefetching, and SMT thread contexts.

use crate::port::{MemoryPort, PortResponse};
use crate::ps_prefetch::{PsPrefetcher, PsRequest, PsTarget};
use asd_cache::{Hierarchy, HierarchyConfig, HierarchyStats, HitLevel};
use asd_core::{AsdConfig, AsdDetector, CalendarQueue, Clocked, NextEvent, PrefetchCandidate};
use asd_trace::{AccessKind, MemAccess};
use std::collections::VecDeque;

/// Which processor-side prefetch engine the core runs.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum PsKind {
    /// No processor-side prefetching (the NP and MS configurations).
    #[default]
    None,
    /// The Power5's sequential stream prefetcher (the paper's PS).
    Power5,
    /// **Extension (the paper's §6 future work):** Adaptive Stream
    /// Detection applied processor-side. The detector observes the L1
    /// data-reference stream and its candidates are fetched into the L1.
    Asd(AsdConfig),
}

/// Core parameters. The defaults model a Power5+-like core for memory
/// studies: a handful of outstanding demand misses and a retirement window
/// that lets the core slip a few accesses past an outstanding miss before
/// stalling (the stall-on-use proxy).
#[derive(Debug, Clone, PartialEq)]
pub struct CoreConfig {
    /// Maximum outstanding demand misses per thread (MSHR count).
    pub mlp: usize,
    /// Accesses a thread may issue past its oldest outstanding miss before
    /// retirement stalls (reorder-buffer proxy).
    pub lookahead: usize,
    /// Processor-side prefetch engine.
    pub ps: PsKind,
    /// Cache hierarchy geometry.
    pub hierarchy: HierarchyConfig,
}

impl CoreConfig {
    /// Convenience: enable/disable the Power5-style prefetcher (the
    /// paper's PS knob).
    pub fn with_power5_ps(mut self, enabled: bool) -> Self {
        self.ps = if enabled { PsKind::Power5 } else { PsKind::None };
        self
    }
}

impl Default for CoreConfig {
    fn default() -> Self {
        // mlp=2 / lookahead=3 models the Power5+'s stall-on-use behaviour
        // for memory-bound code: a couple of overlapped demand misses, then
        // the pipeline waits. This leaves DRAM bandwidth headroom for the
        // prefetchers to exploit — the regime the paper's gains come from.
        CoreConfig { mlp: 2, lookahead: 3, ps: PsKind::None, hierarchy: HierarchyConfig::default() }
    }
}

/// Counters for one core over a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CoreStats {
    /// Trace accesses executed.
    pub accesses: u64,
    /// Loads executed.
    pub reads: u64,
    /// Stores executed.
    pub writes: u64,
    /// Accesses that missed all caches (demand DRAM reads).
    pub demand_memory_reads: u64,
    /// Processor-side prefetch reads sent to memory.
    pub ps_reads_sent: u64,
    /// Cycles threads spent unable to issue while waiting on a fill,
    /// summed over all thread contexts.
    pub stall_cycles: u64,
    /// Cache hierarchy counters.
    pub cache: HierarchyStats,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Demand {
    line: u64,
    is_write: bool,
}

#[derive(Debug)]
struct ThreadCtx<I> {
    trace: I,
    id: u8,
    ready_at: u64,
    /// An access pulled from the trace (gap already charged) waiting to
    /// issue — held across backpressure retries and stalls.
    staged: Option<MemAccess>,
    demand: VecDeque<Demand>,
    /// Accesses issued since the oldest outstanding miss.
    slipped: usize,
    /// Blocked until a fill arrives.
    waiting: bool,
    done: bool,
}

#[derive(Debug)]
enum PsUnit {
    Power5(PsPrefetcher),
    Asd { det: Box<AsdDetector>, scratch: Vec<PrefetchCandidate> },
}

/// A trace-driven core with one or more SMT thread contexts sharing the
/// cache hierarchy and the memory port. (See the crate docs for the
/// interaction contract.)
#[derive(Debug)]
pub struct Core<I> {
    cfg: CoreConfig,
    hierarchy: Hierarchy,
    ps: Option<PsUnit>,
    threads: Vec<ThreadCtx<I>>,
    /// Prefetch fills awaiting data from memory.
    ps_pending: Vec<(u64, PsTarget)>,
    /// Completions the core itself schedules (responses delivered as
    /// `Done { at }` by the port). Bucketed by cycle; delivery order is
    /// identical to the binary heap this replaces.
    self_events: CalendarQueue,
    /// Scratch for draining due self-events (capacity reused across steps).
    due_buf: Vec<(u64, u64, u8)>,
    writebacks: VecDeque<u64>,
    stats: CoreStats,
    scratch_ps: Vec<PsRequest>,
}

impl<I: Iterator<Item = MemAccess>> Core<I> {
    /// Create a core running one trace per SMT thread context.
    pub fn new(cfg: CoreConfig, traces: Vec<I>) -> Self {
        assert!(!traces.is_empty(), "at least one thread context");
        let hierarchy = Hierarchy::new(cfg.hierarchy);
        let ps = match &cfg.ps {
            PsKind::None => None,
            PsKind::Power5 => Some(PsUnit::Power5(PsPrefetcher::default())),
            PsKind::Asd(asd) => Some(PsUnit::Asd {
                det: Box::new(
                    // asd-lint: allow(D005) -- constructor contract: CoreConfig carries a pre-validated AsdConfig
                    AsdDetector::new(asd.clone()).expect("valid processor-side ASD config"),
                ),
                scratch: Vec::with_capacity(8),
            }),
        };
        let threads = traces
            .into_iter()
            .enumerate()
            .map(|(i, trace)| ThreadCtx {
                trace,
                id: i as u8,
                ready_at: 0,
                staged: None,
                demand: VecDeque::with_capacity(cfg.mlp),
                slipped: 0,
                waiting: false,
                done: false,
            })
            .collect();
        Core {
            cfg,
            hierarchy,
            ps,
            threads,
            ps_pending: Vec::with_capacity(16),
            // Self-scheduled completions land within a DRAM round trip of
            // `now`; the wheel grows on the rare configuration that pushes
            // one farther out.
            self_events: CalendarQueue::with_horizon(1024),
            due_buf: Vec::with_capacity(8),
            writebacks: VecDeque::new(),
            stats: CoreStats::default(),
            scratch_ps: Vec::with_capacity(4),
        }
    }

    /// All thread contexts have exhausted their traces and retired every
    /// outstanding miss.
    pub fn finished(&self) -> bool {
        self.threads.iter().all(|t| t.done && t.demand.is_empty() && t.staged.is_none())
            && self.writebacks.is_empty()
    }

    /// Earliest future cycle at which this core has work to do, or `None`
    /// if it is entirely blocked on memory-controller completions.
    // asd-lint: hot
    pub fn next_event(&self, now: u64) -> Option<u64> {
        let mut next: Option<u64> = None;
        let mut consider = |t: u64| {
            next = Some(next.map_or(t, |n: u64| n.min(t)));
        };
        for t in &self.threads {
            let drains_after_done = !t.demand.is_empty() || t.staged.is_some();
            if !t.waiting && (!t.done || drains_after_done) {
                consider(t.ready_at.max(now));
            }
        }
        if let Some(at) = self.self_events.peek() {
            consider(at.max(now));
        }
        if !self.writebacks.is_empty() {
            consider(now + 1);
        }
        next
    }

    /// Deliver a read completion from the memory system (the line's data is
    /// available now). Routes to a demand miss (filling all cache levels)
    /// or to a processor-side prefetch (filling L1/L2 per its target).
    pub fn on_fill(&mut self, line: u64, now: u64) {
        // Demand misses first: a promoted prefetch lives in the demand list.
        for t in &mut self.threads {
            if let Some(pos) = t.demand.iter().position(|d| d.line == line) {
                // asd-lint: allow(D005) -- `pos` was produced by `position` on the same deque one line up
                let d = t.demand.remove(pos).expect("position valid");
                self.hierarchy.fill_from_memory(d.line, d.is_write, &mut self.writebacks);
                t.slipped = t.demand.len();
                if t.waiting {
                    t.waiting = false;
                    // The thread could have issued from ready_at but for
                    // the outstanding fill; everything up to now is stall.
                    self.stats.stall_cycles += now.saturating_sub(t.ready_at);
                    t.ready_at = t.ready_at.max(now);
                }
                return;
            }
        }
        if let Some(pos) = self.ps_pending.iter().position(|(l, _)| *l == line) {
            let (l, target) = self.ps_pending.swap_remove(pos);
            match target {
                PsTarget::L1 => self.hierarchy.prefetch_fill_l1(l, &mut self.writebacks),
                PsTarget::L2 => self.hierarchy.prefetch_fill_l2(l, &mut self.writebacks),
            }
        }
        // Unmatched fills (duplicates) are ignored.
    }

    /// Run the core at cycle `now`: deliver self-scheduled completions,
    /// drain writebacks, and let every thread context issue as far as it
    /// can.
    // asd-lint: hot
    pub fn step<P: MemoryPort>(&mut self, now: u64, port: &mut P) {
        // 1. Self-scheduled completions (Done-at responses), in the same
        // ascending (at, line, thread) order the old heap popped them.
        if self.self_events.peek().is_some_and(|at| at <= now) {
            let mut due = std::mem::take(&mut self.due_buf);
            self.self_events.drain_due(now, &mut due);
            for &(_, line, _) in &due {
                self.on_fill(line, now);
            }
            due.clear();
            self.due_buf = due;
        }

        // 2. Writeback drain (bounded by controller backpressure).
        while let Some(&wb) = self.writebacks.front() {
            if port.write(wb, now) {
                self.writebacks.pop_front();
            } else {
                break;
            }
        }

        // 3. Thread issue.
        for i in 0..self.threads.len() {
            self.step_thread(i, now, port);
        }
    }

    // asd-lint: hot
    fn step_thread<P: MemoryPort>(&mut self, idx: usize, now: u64, port: &mut P) {
        loop {
            let t = &mut self.threads[idx];
            if t.waiting || t.ready_at > now {
                return;
            }
            // Stage the next access, charging its compute gap.
            if t.staged.is_none() {
                if t.done {
                    return;
                }
                match t.trace.next() {
                    Some(acc) => {
                        t.ready_at += u64::from(acc.gap);
                        t.staged = Some(acc);
                        if t.ready_at > now {
                            return;
                        }
                    }
                    None => {
                        t.done = true;
                        return;
                    }
                }
            }
            // Retirement-window stalls.
            if t.demand.len() >= self.cfg.mlp
                || (!t.demand.is_empty() && t.slipped >= self.cfg.lookahead)
            {
                t.waiting = true;
                return;
            }
            // asd-lint: allow(D005) -- the stage step directly above filled `t.staged` or returned
            let acc = t.staged.take().expect("staged above");
            let line = acc.line();
            let is_write = acc.kind == AccessKind::Write;
            let tid = t.id;

            let outcome = self.hierarchy.access(line, is_write, &mut self.writebacks);
            self.stats.accesses += 1;
            if is_write {
                self.stats.writes += 1;
            } else {
                self.stats.reads += 1;
            }

            match outcome.level {
                HitLevel::L1 | HitLevel::L2 | HitLevel::L3 => {
                    let t = &mut self.threads[idx];
                    t.ready_at += outcome.latency;
                    if !t.demand.is_empty() {
                        t.slipped += 1;
                    }
                }
                HitLevel::Memory => {
                    self.stats.demand_memory_reads += 1;
                    // MSHR merge: a miss for this line is already
                    // outstanding somewhere — piggyback on it instead of
                    // duplicating the memory request.
                    if self.threads.iter().any(|t| t.demand.iter().any(|d| d.line == line)) {
                        let t = &mut self.threads[idx];
                        t.ready_at += 1;
                        if !t.demand.is_empty() {
                            t.slipped += 1;
                        }
                    } else
                    // A processor-side prefetch already in flight for this
                    // line? Promote it to a demand miss.
                    if let Some(pos) = self.ps_pending.iter().position(|(l, _)| *l == line) {
                        self.ps_pending.swap_remove(pos);
                        let t = &mut self.threads[idx];
                        t.demand.push_back(Demand { line, is_write });
                        t.ready_at += 1;
                        t.slipped += 1;
                    } else {
                        match port.read(line, tid, now) {
                            PortResponse::Done { at } => {
                                let t = &mut self.threads[idx];
                                t.demand.push_back(Demand { line, is_write });
                                t.ready_at += 1;
                                t.slipped += 1;
                                self.self_events.push(at, line, tid);
                            }
                            PortResponse::Queued => {
                                let t = &mut self.threads[idx];
                                t.demand.push_back(Demand { line, is_write });
                                t.ready_at += 1;
                                t.slipped += 1;
                            }
                            PortResponse::Rejected => {
                                // Backpressure: retry next cycle. Undo the
                                // access accounting — the retry will redo
                                // it (the repeated L1 lookup is harmless:
                                // the line is still absent).
                                self.stats.accesses = self.stats.accesses.saturating_sub(1);
                                if is_write {
                                    self.stats.writes = self.stats.writes.saturating_sub(1);
                                } else {
                                    self.stats.reads = self.stats.reads.saturating_sub(1);
                                }
                                self.stats.demand_memory_reads =
                                    self.stats.demand_memory_reads.saturating_sub(1);
                                let t = &mut self.threads[idx];
                                t.staged = Some(acc);
                                t.ready_at = now + 1;
                                return;
                            }
                        }
                    }
                }
            }

            // Processor-side prefetcher.
            match &mut self.ps {
                Some(PsUnit::Power5(ps)) => {
                    // Advances streams on every reference, allocates new
                    // detection entries on misses.
                    self.scratch_ps.clear();
                    ps.on_access(line, outcome.level != HitLevel::L1, &mut self.scratch_ps);
                    let reqs = std::mem::take(&mut self.scratch_ps);
                    for req in &reqs {
                        self.issue_ps(*req, tid, now, port);
                    }
                    self.scratch_ps = reqs;
                }
                Some(PsUnit::Asd { det, scratch }) => {
                    // Processor-side ASD (§6 future work): the detector
                    // observes the full L1 reference stream — training on
                    // misses alone would kill each stream as soon as its
                    // own prefetch turned the next miss into a hit.
                    scratch.clear();
                    det.on_read(line, now, scratch);
                    self.scratch_ps.clear();
                    self.scratch_ps.extend(
                        scratch.iter().map(|c| PsRequest { line: c.line, target: PsTarget::L1 }),
                    );
                    let reqs = std::mem::take(&mut self.scratch_ps);
                    for req in &reqs {
                        self.issue_ps(*req, tid, now, port);
                    }
                    self.scratch_ps = reqs;
                }
                None => {}
            }
        }
    }

    fn issue_ps<P: MemoryPort>(&mut self, req: PsRequest, tid: u8, now: u64, port: &mut P) {
        if self.hierarchy.on_chip(req.line)
            || self.ps_pending.iter().any(|(l, _)| *l == req.line)
            || self.threads.iter().any(|t| t.demand.iter().any(|d| d.line == req.line))
        {
            return;
        }
        match port.read(req.line, tid, now) {
            PortResponse::Done { at } => {
                self.ps_pending.push((req.line, req.target));
                self.stats.ps_reads_sent += 1;
                self.self_events.push(at, req.line, tid);
            }
            PortResponse::Queued => {
                self.ps_pending.push((req.line, req.target));
                self.stats.ps_reads_sent += 1;
            }
            PortResponse::Rejected => {
                // Prefetches are best-effort: drop on backpressure.
            }
        }
    }

    /// Bind this core to a memory port so the pair steps through the
    /// [`Clocked`] interface. The binding is per-call: event loops create
    /// it fresh each iteration, leaving the port (usually a mutable view
    /// of the memory controller) free between steps.
    pub fn clocked<'a, P: MemoryPort>(&'a mut self, port: &'a mut P) -> ClockedCore<'a, I, P> {
        ClockedCore { core: self, port }
    }

    /// Counters (cache statistics refreshed at call time).
    pub fn stats(&self) -> CoreStats {
        let mut s = self.stats;
        s.cache = self.hierarchy.stats();
        s
    }

    /// The cache hierarchy (diagnostics).
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// The Power5-style processor-side prefetcher, if that engine is
    /// enabled.
    pub fn ps_prefetcher(&self) -> Option<&PsPrefetcher> {
        match &self.ps {
            Some(PsUnit::Power5(ps)) => Some(ps),
            _ => None,
        }
    }

    /// The processor-side ASD detector, if that engine is enabled.
    pub fn ps_asd(&self) -> Option<&AsdDetector> {
        match &self.ps {
            Some(PsUnit::Asd { det, .. }) => Some(det.as_ref()),
            _ => None,
        }
    }
}

/// A [`Core`] temporarily bound to its [`MemoryPort`], giving the pair a
/// [`Clocked`] face (see [`Core::clocked`]). [`Clocked::step`] runs the
/// core's cycle against the port and reports the core's next event;
/// [`NextEvent::Idle`] means the core is entirely blocked on memory
/// completions (deliver them with [`Core::on_fill`]).
#[derive(Debug)]
pub struct ClockedCore<'a, I, P: MemoryPort> {
    core: &'a mut Core<I>,
    port: &'a mut P,
}

impl<I: Iterator<Item = MemAccess>, P: MemoryPort> Clocked for ClockedCore<'_, I, P> {
    fn step(&mut self, now: u64) -> NextEvent {
        self.core.step(now, self.port);
        NextEvent::from_option(self.core.next_event(now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::port::FixedLatencyMemory;

    fn run_to_completion<I: Iterator<Item = MemAccess>>(
        core: &mut Core<I>,
        mem: &mut FixedLatencyMemory,
    ) -> u64 {
        let mut now = 0u64;
        let mut guard = 0u64;
        while !core.finished() {
            core.step(now, mem);
            now = core.next_event(now).map_or(now + 1, |t| t.max(now + 1));
            guard += 1;
            assert!(guard < 10_000_000, "core wedged at cycle {now}");
        }
        now
    }

    fn seq_trace(n: u64, gap: u32) -> std::vec::IntoIter<MemAccess> {
        (0..n).map(|i| MemAccess::read_line(i, gap)).collect::<Vec<_>>().into_iter()
    }

    #[test]
    fn pure_compute_trace_costs_gaps() {
        // All accesses hit the same line after the first fill.
        let trace: Vec<MemAccess> = (0..100).map(|_| MemAccess::read_line(7, 10)).collect();
        let mut core = Core::new(CoreConfig::default(), vec![trace.into_iter()]);
        let mut mem = FixedLatencyMemory::new(200);
        let end = run_to_completion(&mut core, &mut mem);
        assert_eq!(core.stats().accesses, 100);
        assert_eq!(mem.reads, 1, "only the cold miss reaches memory");
        // 100 gaps of 10 plus ~100 L1 hits of 2 plus one miss.
        assert!((1000..2500).contains(&end), "end={end}");
    }

    #[test]
    fn misses_overlap_up_to_mlp() {
        // Sequential lines, no gaps: with mlp=4 and lookahead 8, the core
        // overlaps several misses; runtime must be far below serial.
        let n = 64u64;
        let latency = 400u64;
        let cfg = CoreConfig { mlp: 4, lookahead: 8, ..CoreConfig::default() };
        let mut core = Core::new(cfg, vec![seq_trace(n, 0)]);
        let mut mem = FixedLatencyMemory::new(latency);
        let end = run_to_completion(&mut core, &mut mem);
        assert_eq!(mem.reads, n);
        let serial = n * latency;
        assert!(end < serial * 2 / 3, "end={end} vs serial={serial}");
        // But the limited window must also prevent full overlap.
        assert!(end > serial / 8, "end={end} too fast for mlp=4");
    }

    #[test]
    fn mlp_one_serializes() {
        let n = 32u64;
        let latency = 300u64;
        let cfg = CoreConfig { mlp: 1, lookahead: 1, ..CoreConfig::default() };
        let mut core = Core::new(cfg, vec![seq_trace(n, 0)]);
        let mut mem = FixedLatencyMemory::new(latency);
        let end = run_to_completion(&mut core, &mut mem);
        assert!(end >= (n - 1) * latency, "end={end}: misses must serialize");
    }

    #[test]
    fn ps_prefetcher_cuts_miss_traffic_latency() {
        let n = 2000u64;
        let latency = 400u64;
        let gap = 50u32;
        let base = CoreConfig { mlp: 4, lookahead: 8, ..CoreConfig::default() };
        let mut np = Core::new(base.clone(), vec![seq_trace(n, gap)]);
        let mut mem_np = FixedLatencyMemory::new(latency);
        let end_np = run_to_completion(&mut np, &mut mem_np);

        let cfg_ps = CoreConfig { ps: PsKind::Power5, ..base.clone() };
        let mut ps = Core::new(cfg_ps, vec![seq_trace(n, gap)]);
        let mut mem_ps = FixedLatencyMemory::new(latency);
        let end_ps = run_to_completion(&mut ps, &mut mem_ps);

        assert!(ps.stats().ps_reads_sent > 0);
        assert!(end_ps < end_np, "prefetching must help a streaming trace: {end_ps} vs {end_np}");
    }

    #[test]
    fn writes_marked_dirty_and_written_back() {
        // Write every line once against a shrunken hierarchy so dirty
        // victims must cascade out of the L3 to memory.
        use asd_cache::CacheConfig;
        let mut cfg = CoreConfig::default();
        cfg.hierarchy.l1 = CacheConfig { size_bytes: 1024, assoc: 2, line_bytes: 128 };
        cfg.hierarchy.l2 = CacheConfig { size_bytes: 4096, assoc: 4, line_bytes: 128 };
        cfg.hierarchy.l3 = CacheConfig { size_bytes: 16 * 1024, assoc: 4, line_bytes: 128 };
        let trace: Vec<MemAccess> = (0..4000).map(|i| MemAccess::write_line(i, 0)).collect();
        let mut core = Core::new(cfg, vec![trace.into_iter()]);
        let mut mem = FixedLatencyMemory::new(100);
        run_to_completion(&mut core, &mut mem);
        assert!(mem.writes > 0, "dirty L3 victims must become memory writes");
    }

    #[test]
    fn smt_two_threads_share_core() {
        let a = seq_trace(200, 10);
        let b: Vec<MemAccess> = (0..200).map(|i| MemAccess::read_line(1_000_000 + i, 10)).collect();
        let mut core = Core::new(CoreConfig::default(), vec![a, b.into_iter()]);
        let mut mem = FixedLatencyMemory::new(200);
        run_to_completion(&mut core, &mut mem);
        assert_eq!(core.stats().accesses, 400);
    }

    #[test]
    fn finished_only_after_all_pending_retire() {
        let mut core = Core::new(CoreConfig::default(), vec![seq_trace(4, 0)]);
        let mut mem = FixedLatencyMemory::new(1000);
        core.step(0, &mut mem);
        assert!(!core.finished(), "misses still outstanding");
        let end = run_to_completion(&mut core, &mut mem);
        assert!(end >= 1000);
    }

    #[test]
    fn clocked_stepping_matches_manual_loop() {
        let mut manual = Core::new(CoreConfig::default(), vec![seq_trace(64, 5)]);
        let mut mem_a = FixedLatencyMemory::new(200);
        let end_manual = run_to_completion(&mut manual, &mut mem_a);

        let mut core = Core::new(CoreConfig::default(), vec![seq_trace(64, 5)]);
        let mut mem_b = FixedLatencyMemory::new(200);
        let mut now = 0u64;
        let mut guard = 0u64;
        while !core.finished() {
            let next = core.clocked(&mut mem_b).step(now);
            now = next.at().map_or(now + 1, |t| t.max(now + 1));
            guard += 1;
            assert!(guard < 10_000_000, "core wedged at cycle {now}");
        }
        assert_eq!(now, end_manual);
        assert_eq!(mem_b.reads, mem_a.reads);
        assert_eq!(core.stats().accesses, manual.stats().accesses);
    }

    #[test]
    fn next_event_none_when_blocked_on_queued_fill() {
        struct QueueOnly;
        impl MemoryPort for QueueOnly {
            fn read(&mut self, _: u64, _: u8, _: u64) -> PortResponse {
                PortResponse::Queued
            }
            fn write(&mut self, _: u64, _: u64) -> bool {
                true
            }
        }
        let cfg = CoreConfig { mlp: 1, lookahead: 1, ..CoreConfig::default() };
        let mut core = Core::new(cfg, vec![seq_trace(8, 0)]);
        let mut port = QueueOnly;
        core.step(0, &mut port);
        core.step(1, &mut port);
        // With one outstanding miss and window full, the core is waiting.
        assert_eq!(core.next_event(2), None);
        // A fill wakes it up.
        core.on_fill(0, 500);
        assert!(core.next_event(500).is_some());
    }
}
