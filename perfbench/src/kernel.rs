//! The `kernel` workload: sequential single simulations on one thread,
//! run cache off, no `Pipeline`.
//!
//! The job list is fixed; the seed picks the traces. Six workloads that
//! vary memory traffic — streaming (`lbm`), short streams (`milc`,
//! `GemsFDTD`), write-heavy commercial (`tpcc`), low memory pressure
//! (`povray`) and one two-thread SMT pair (`milc` x2) — each run under
//! NP, PS, MS and PMS, once generating the trace and once replaying it
//! from an ASDT file written during set-up. Replay beside generation
//! splits `traceio` decode from `trace` generation; NP beside MS/PMS
//! separates the engine's cost from the queues' cost.
//!
//! The traced run goes through [`drive`], the benchmark's own rebuild of
//! `System`'s event loop from the public `Core`, `MemoryController`,
//! `CalendarQueue` and `Clocked` types, with timing wrappers at the
//! trace-stream, memory-port and prefetch-engine seams. Every job's
//! result of `drive` must equal `System::run`'s exactly.

use crate::host::{self, median, secs, tail};
use crate::spans::{self, CPU, ENGINE, LAYERS, MC, SIM, TRACE, TRACEIO};
use crate::{Outcome, Work};
use asd_core::{AsdConfig, AsdDetector, AsdStats, CalendarQueue, Clocked, NextEvent, Slh};
use asd_cpu::{Core, CoreStats, MemoryPort, PortResponse};
use asd_dram::{Dram, DramCmdKind, DramStats, PowerReport};
use asd_mc::{
    AsdEngine, EngineKind, McStats, MemoryController, NoPrefetch, PrefetchEngine, ReadCompletion,
    ReadResponse,
};
use asd_sim::{PrefetchKind, RunOpts, RunResult, System, SystemConfig, TraceSource, TraceStream};
use asd_trace::{suites, MemAccess};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Accesses per thread in every kernel job.
const ACCESSES: u64 = 40_000;

/// `(profile, smt)` pairs of the job list.
const WORKLOADS: [(&str, bool); 6] = [
    ("lbm", false),
    ("milc", false),
    ("GemsFDTD", false),
    ("tpcc", false),
    ("povray", false),
    ("milc", true),
];

/// One kernel job.
struct Job {
    profile: &'static str,
    smt: bool,
    kind: PrefetchKind,
    replay: bool,
}

impl Job {
    fn name(&self) -> String {
        format!(
            "{}{}/{}/{}",
            self.profile,
            if self.smt { "-smt" } else { "" },
            self.kind.name(),
            if self.replay { "replay" } else { "gen" }
        )
    }

    fn threads(&self) -> usize {
        if self.smt {
            2
        } else {
            1
        }
    }

    fn asdt(&self, dir: &Path) -> PathBuf {
        dir.join(format!("{}{}.asdt", self.profile, if self.smt { "-smt" } else { "" }))
    }

    fn opts(&self, seed: u64) -> RunOpts {
        RunOpts { accesses: ACCESSES, seed, smt: self.smt }
    }

    fn config(&self, dir: &Path) -> SystemConfig {
        let cfg = SystemConfig::for_kind(self.kind, self.threads());
        if self.replay {
            cfg.with_trace(TraceSource::replay(self.asdt(dir)))
        } else {
            cfg
        }
    }

    fn system(&self, seed: u64, dir: &Path) -> Result<System, String> {
        let profile = suites::by_name(self.profile).ok_or("unknown profile")?;
        System::new(self.config(dir), &profile, &self.opts(seed))
            .map(|s| s.with_label(self.kind.name()))
            .map_err(|e| format!("{}: {e}", self.name()))
    }
}

fn jobs() -> Vec<Job> {
    let mut out = Vec::new();
    for (profile, smt) in WORKLOADS {
        for kind in PrefetchKind::ALL {
            for replay in [false, true] {
                out.push(Job { profile, smt, kind, replay });
            }
        }
    }
    out
}

/// Set-up: record one ASDT file per workload into `dir`.
fn setup(seed: u64, dir: &Path) -> Result<u64, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut bytes = 0;
    for (profile, smt) in WORKLOADS {
        let job = Job { profile, smt, kind: PrefetchKind::Np, replay: true };
        let p = suites::by_name(profile).ok_or("unknown profile")?;
        let path = job.asdt(dir);
        asd_traceio::record_profile(&path, &p, seed, job.threads() as u8, ACCESSES)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        bytes += std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
    }
    Ok(bytes)
}

/// Everything a result must repeat exactly, rendered for comparison.
fn fingerprint(
    cycles: u64,
    core: &CoreStats,
    mc: &McStats,
    dram: &DramStats,
    asd: &Option<AsdStats>,
    power: &PowerReport,
) -> String {
    format!("{cycles}|{core:?}|{mc:?}|{dram:?}|{asd:?}|{power:?}")
}

fn result_fingerprint(r: &RunResult) -> String {
    fingerprint(r.cycles, &r.core, &r.mc, &r.dram, &r.asd, &r.power)
}

pub fn run(w: &Work) -> Result<Outcome, String> {
    // The kernel measures simulation alone: no run cache, no trace memo.
    std::env::set_var("ASD_RUN_CACHE", "0");
    asd_sim::cache::set_disk_dir(None);
    let mut out = Outcome::default();
    let jobs = jobs();

    // Set-up, five times; the median is the reported set-up time.
    let mut setups = Vec::new();
    let mut asdt_bytes = 0;
    for i in 0..5 {
        let t0 = Instant::now();
        asdt_bytes = setup(w.seed, &w.tmp.join(format!("asdt-{i}")))?;
        setups.push(secs(t0));
    }
    let dir = w.tmp.join("asdt-4");
    out.metric("setup_s", median(&setups));

    if w.trace {
        return traced(w, &jobs, &dir, asdt_bytes, out);
    }

    // Timed passes over the whole job list until the budget is spent.
    let mut first: Vec<Option<RunResult>> = jobs.iter().map(|_| None).collect();
    let (mut walls, mut cpus, mut nspa, mut lat_ms) = (vec![], vec![], vec![], vec![]);
    let t_all = Instant::now();
    let mut completed = 0u64;
    while walls.is_empty() || secs(t_all) < w.seconds {
        let (t0, c0) = (Instant::now(), host::thread_cpu_ns());
        let mut accesses = 0u64;
        for (i, job) in jobs.iter().enumerate() {
            out.attempted += 1;
            let j0 = Instant::now();
            let r = job.system(w.seed, &dir).map(System::run);
            lat_ms.push(secs(j0) * 1e3);
            let r = match r {
                Ok(r) => r,
                Err(e) => {
                    out.fail(format!("kernel job {e}"));
                    continue;
                }
            };
            accesses += r.core.accesses;
            completed += 1;
            match &first[i] {
                None => first[i] = Some(r),
                Some(f) if result_fingerprint(f) != result_fingerprint(&r) => {
                    out.fail(format!("{}: stats changed between passes", job.name()));
                }
                Some(_) => {}
            }
        }
        let cpu = (host::thread_cpu_ns() - c0) as f64;
        walls.push(secs(t0));
        cpus.push(cpu / 1e9);
        nspa.push(cpu / accesses.max(1) as f64);
    }
    let measured = secs(t_all);

    // Output checks (untimed): replay equals generation, and the
    // benchmark's own event loop (`drive`) equals `System::run`.
    for pair in first.chunks(2) {
        if let [Some(gen), Some(rep)] = pair {
            if result_fingerprint(gen) != result_fingerprint(rep) {
                out.fail(format!("{}: replay differs from generation", gen.benchmark));
            }
        }
    }
    for (job, reference) in jobs.iter().zip(&first) {
        out.attempted += 1;
        let Some(reference) = reference else { continue };
        match drive_job(job, w.seed, &dir, false) {
            Ok(d) if d.fingerprint() == result_fingerprint(reference) => {}
            Ok(_) => out.fail(format!("{}: rebuilt loop differs from System::run", job.name())),
            Err(e) => out.fail(e),
        }
    }

    out.metric("wall_s", median(&walls));
    out.metric("cpu_s", median(&cpus));
    out.metric("ns_per_access", median(&nspa));
    out.metric("req_per_s", completed as f64 / measured);
    out.metric("latency_p50_ms", median(&lat_ms));
    let (q, p) = tail(&lat_ms);
    out.metric("latency_p99_ms", p);
    out.metric("peak_rss_mb", host::peak_rss_mb().unwrap_or(0.0));
    out.note(format!(
        "kernel: {} passes x {} jobs, {ACCESSES} accesses/thread; latency = one simulation, n={} (tail is p{q:.1})",
        walls.len(),
        jobs.len(),
        lat_ms.len()
    ));
    Ok(out)
}

/// Per-layer tallies of one traced job.
#[derive(Default)]
struct Tally {
    engine_reads: u64,
    engine_candidates: u64,
    engine_ns: u64,
    iterations: u64,
    core_steps: u64,
    mc_steps: u64,
}

fn traced(
    w: &Work,
    jobs: &[Job],
    dir: &Path,
    asdt_bytes: u64,
    mut out: Outcome,
) -> Result<Outcome, String> {
    // Untraced reference pass: results and per-job wall time.
    let mut reference = Vec::new();
    let mut untraced_ns = 0u64;
    for job in jobs {
        let t0 = Instant::now();
        let r = job.system(w.seed, dir)?.run();
        untraced_ns += t0.elapsed().as_nanos() as u64;
        reference.push(r);
    }

    // Traced pass through the benchmark's own event loop, after measuring
    // the relative cost an empty span adds to its own layer and to its
    // parent.
    let (per_span, per_child) = spans::calibrate();
    let origin = Instant::now();
    spans::arm(origin);
    let mut job_events = Vec::new();
    let mut traced_ns = 0u64;
    let mut drives = Vec::new();
    for (job, r) in jobs.iter().zip(&reference) {
        out.attempted += 1;
        let t0 = origin.elapsed().as_nanos() as u64;
        let d = drive_job(job, w.seed, dir, true)?;
        let dt = origin.elapsed().as_nanos() as u64 - t0;
        traced_ns += dt;
        if d.fingerprint() != result_fingerprint(r) {
            out.fail(format!("{}: traced loop differs from System::run", job.name()));
        }
        let mut args = asd_bench::json::Value::obj();
        args.set("cycles", d.cycles).set("iterations", d.tally.iterations);
        job_events.push(spans::Event {
            name: job.name(),
            ph: "X",
            ts_us: t0 as f64 / 1e3,
            dur_us: dt as f64 / 1e3,
            tid: 0,
            args: Some(args),
        });
        drives.push(d);
    }
    let rec = spans::disarm().ok_or("span recorder was not armed")?;

    // Layer table. Raw self times must account for the traced wall
    // time. The recorder's own cost — the traced minus the untraced
    // wall — is then taken out of each layer in proportion to the spans
    // it opened and hosted (weighted by the calibrated empty-span
    // costs), so the own times sum to the untraced wall.
    let raw: u64 = rec.self_ns.iter().sum();
    let coverage = raw as f64 / traced_ns.max(1) as f64;
    let calibrated: f64 = (0..LAYERS.len())
        .map(|l| rec.spans[l] as f64 * per_span + rec.child_spans[l] as f64 * per_child)
        .sum();
    let k = (traced_ns as f64 - untraced_ns as f64).max(0.0) / calibrated.max(1.0);
    let own: Vec<f64> =
        (0..LAYERS.len()).map(|l| rec.corrected_self_ns(l, k * per_span, k * per_child)).collect();
    let own_total: f64 = own.iter().sum();
    out.note(format!(
        "kernel layer table: self time per layer; own = raw minus recorder cost ({:.1} ns per span, {:.1} ns per child span)",
        k * per_span,
        k * per_child
    ));
    out.note(format!(
        "  {:<8} {:>10} {:>10} {:>7} {:>10}",
        "layer", "raw ms", "own ms", "share", "spans"
    ));
    for (i, name) in LAYERS.iter().enumerate() {
        out.note(format!(
            "  {name:<8} {:>10.1} {:>10.1} {:>6.1}% {:>10}",
            rec.self_ns[i] as f64 / 1e6,
            own[i] / 1e6,
            100.0 * own[i] / own_total.max(1.0),
            rec.spans[i]
        ));
    }
    out.note(format!(
        "  sum      {:>10.1} {:>10.1}   raw = {:.1}% of the {:.1} ms traced wall; own vs {:.1} ms untraced wall; tracing overhead x{:.2}",
        raw as f64 / 1e6,
        own_total / 1e6,
        coverage * 100.0,
        traced_ns as f64 / 1e6,
        untraced_ns as f64 / 1e6,
        traced_ns as f64 / untraced_ns.max(1) as f64
    ));
    out.attempted += 1;
    if !(0.9..=1.1).contains(&coverage) {
        out.fail(format!("layer self times cover {:.1}% of the traced wall", coverage * 100.0));
    }

    // Aggregate counts over the job classes each metric speaks for.
    let sum = |f: &dyn Fn(&Job, &Drive) -> u64| -> u64 {
        jobs.iter().zip(&drives).map(|(j, d)| f(j, d)).sum()
    };
    let accesses = sum(&|_, d| d.core.accesses);
    let gen_acc = sum(&|j, d| if j.replay { 0 } else { d.core.accesses });
    let rep_acc = accesses - gen_acc;
    let asd = |j: &Job| j.kind.memory_side();
    let per = |num: f64, den: u64| num / den.max(1) as f64;
    let ratio = |hits: u64, misses: u64| per(hits as f64, hits + misses);

    out.metric("trace.gen_ns_per_access", per(own[TRACE], gen_acc));
    out.metric("trace.accesses", gen_acc as f64);
    out.metric("traceio.decode_ns_per_access", per(own[TRACEIO], rep_acc));
    out.metric("traceio.bytes", (asdt_bytes * 4) as f64);
    out.metric("cpu.self_ns_per_access", per(own[CPU], accesses));
    out.metric("cpu.steps", sum(&|_, d| d.tally.core_steps) as f64);
    out.metric("cpu.stall_cycles", sum(&|_, d| d.core.stall_cycles) as f64);
    out.metric(
        "cache.l1_hit_ratio",
        ratio(sum(&|_, d| d.core.cache.l1.hits), sum(&|_, d| d.core.cache.l1.misses)),
    );
    out.metric(
        "cache.l2_hit_ratio",
        ratio(sum(&|_, d| d.core.cache.l2.hits), sum(&|_, d| d.core.cache.l2.misses)),
    );
    out.metric(
        "cache.l3_hit_ratio",
        ratio(sum(&|_, d| d.core.cache.l3.hits), sum(&|_, d| d.core.cache.l3.misses)),
    );
    out.metric("mc.self_ns_per_access", per(own[MC], accesses));
    out.metric("mc.steps", sum(&|_, d| d.tally.mc_steps) as f64);
    out.metric("mc.read_rejects", sum(&|_, d| d.mc.read_rejects) as f64);
    let issued = sum(&|_, d| d.mc.prefetches_issued);
    out.metric("mc.prefetches_issued", issued as f64);
    out.metric("mc.prefetch_useful_ratio", per(sum(&|_, d| d.mc.pb.read_hits) as f64, issued));
    // Engine spans have no children: each loses the per-span recorder
    // cost, as in the layer table.
    let engine_own = |memory_side: bool| -> f64 {
        let ns = sum(&|j, d| if asd(j) == memory_side { d.tally.engine_ns } else { 0 });
        let reads = sum(&|j, d| if asd(j) == memory_side { d.tally.engine_reads } else { 0 });
        per((ns as f64 - reads as f64 * k * per_span).max(0.0), reads)
    };
    let asd_reads = sum(&|j, d| if asd(j) { d.tally.engine_reads } else { 0 });
    out.metric("engine.self_ns_per_read", engine_own(true));
    out.metric("engine.noop_ns_per_read", engine_own(false));
    out.metric(
        "engine.candidates_per_read",
        per(sum(&|j, d| if asd(j) { d.tally.engine_candidates } else { 0 }) as f64, asd_reads),
    );
    out.metric("asd.detector_ns_per_read", detector_probe(jobs, &drives));
    out.metric("dram.probe_ns_per_cmd", dram_probe(&drives));
    out.metric("dram.commands", sum(&|_, d| d.dram.reads + d.dram.writes) as f64);
    out.metric("dram.activations", sum(&|_, d| d.dram.activations) as f64);
    out.metric(
        "dram.row_hit_ratio",
        ratio(sum(&|_, d| d.dram.row_hits), sum(&|_, d| d.dram.activations)),
    );
    let iterations = sum(&|_, d| d.tally.iterations);
    out.metric("sim.loop_iterations", iterations as f64);
    out.metric("sim.ns_per_iteration", per(untraced_ns as f64, iterations));
    out.metric("sim.self_ns_per_access", per(own[SIM], accesses));
    out.metric("ledger.coverage", coverage);
    out.metric(
        "tracing.overhead_pct",
        100.0 * (traced_ns as f64 - untraced_ns as f64) / untraced_ns.max(1) as f64,
    );

    let mut events = job_events;
    events.extend(rec.events);
    out.trace_json = Some(spans::perfetto(&events, &[(0, "kernel jobs"), (1, "kernel layers")]));
    Ok(out)
}

/// ASD detector cost, replayed alone on the read streams the traced
/// jobs' engines saw: `AsdDetector::on_read` per read, nanoseconds.
fn detector_probe(jobs: &[Job], drives: &[Drive]) -> f64 {
    let mut ns = 0u64;
    let mut reads = 0u64;
    let mut sink = Vec::with_capacity(16);
    for (_, d) in jobs.iter().zip(drives).filter(|(j, _)| j.kind.memory_side()) {
        let mut dets: Vec<AsdDetector> = (0..d.threads)
            .map(|_| AsdDetector::new(AsdConfig::default()).expect("default ASD config is valid"))
            .collect();
        let n = dets.len();
        let t0 = Instant::now();
        for &(line, thread, now) in &d.reads {
            sink.clear();
            dets[usize::from(thread) % n].on_read(line, now, &mut sink);
            std::hint::black_box(&sink);
        }
        ns += t0.elapsed().as_nanos() as u64;
        reads += d.reads.len() as u64;
    }
    ns as f64 / reads.max(1) as f64
}

/// DRAM cost probe: `Dram::issue` replayed open-loop on the traced
/// jobs' demand-read line streams. A cost probe only, not a results
/// oracle: the closed-loop timing is not reproduced.
fn dram_probe(drives: &[Drive]) -> f64 {
    let mut ns = 0u64;
    let mut cmds = 0u64;
    for d in drives {
        let mut dram = Dram::new(SystemConfig::for_kind(PrefetchKind::Np, 1).dram);
        let mut now = 0u64;
        let t0 = Instant::now();
        for &line in &d.miss_lines {
            let c = dram.issue(line, DramCmdKind::Read, now);
            std::hint::black_box(c);
            now += 8;
        }
        ns += t0.elapsed().as_nanos() as u64;
        cmds += d.miss_lines.len() as u64;
    }
    ns as f64 / cmds.max(1) as f64
}

/// What one `drive` run produced.
struct Drive {
    cycles: u64,
    core: CoreStats,
    mc: McStats,
    dram: DramStats,
    asd: Option<AsdStats>,
    power: PowerReport,
    tally: Tally,
    threads: usize,
    /// `(line, thread, now)` of every read the engine saw (traced runs
    /// only).
    reads: Vec<(u64, u8, u64)>,
    /// Lines of every demand read that entered the controller (traced
    /// runs only).
    miss_lines: Vec<u64>,
}

impl Drive {
    fn fingerprint(&self) -> String {
        fingerprint(self.cycles, &self.core, &self.mc, &self.dram, &self.asd, &self.power)
    }
}

/// Resolve a job's trace and run it through [`drive`], inside one
/// `sim` span so every moment of the job belongs to some layer.
fn drive_job(job: &Job, seed: u64, dir: &Path, capture: bool) -> Result<Drive, String> {
    spans::enter(SIM);
    let d = drive_resolved(job, seed, dir, capture);
    spans::exit();
    d
}

fn drive_resolved(job: &Job, seed: u64, dir: &Path, capture: bool) -> Result<Drive, String> {
    let cfg = job.config(dir);
    let opts = job.opts(seed);
    let source = match &cfg.trace {
        Some(s) => s.clone(),
        None => TraceSource::generate(job.profile, seed),
    };
    let layer = if job.replay { TRACEIO } else { TRACE };
    spans::enter(layer);
    let resolved = source.resolve(&opts).map_err(|e| format!("{}: {e}", job.name()));
    spans::exit();
    let streams =
        resolved?.streams.into_iter().map(|s| TimedStream::new(s, layer)).collect::<Vec<_>>();
    match cfg.mc.engine.clone() {
        EngineKind::None => Ok(drive(&cfg, streams, NoPrefetch, capture)),
        EngineKind::Asd(acfg) => {
            let threads = streams.len();
            Ok(drive(&cfg, streams, AsdEngine::new(&acfg, threads), capture))
        }
        other => Err(format!("{}: `drive` does not build engine {other:?}", job.name())),
    }
}

/// A trace stream that pulls from the simulator's `TraceStream` in
/// chunks, timing each pull as a `trace` or `traceio` span. The access
/// sequence the core sees is unchanged.
struct TimedStream {
    inner: TraceStream,
    buf: Vec<MemAccess>,
    pos: usize,
    layer: usize,
}

impl TimedStream {
    const CHUNK: usize = 256;

    fn new(inner: TraceStream, layer: usize) -> Self {
        TimedStream { inner, buf: Vec::with_capacity(Self::CHUNK), pos: 0, layer }
    }
}

impl Iterator for TimedStream {
    type Item = MemAccess;

    fn next(&mut self) -> Option<MemAccess> {
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
            spans::enter(self.layer);
            self.buf.extend(self.inner.by_ref().take(Self::CHUNK));
            spans::exit();
        }
        let a = self.buf.get(self.pos).copied();
        self.pos += usize::from(a.is_some());
        a
    }
}

/// A prefetch engine wrapper timing `on_read` as an `engine` span and
/// counting reads and candidates.
#[derive(Debug)]
struct TimedEngine<E> {
    inner: E,
    reads: u64,
    candidates: u64,
    ns: u64,
    capture: Option<Vec<(u64, u8, u64)>>,
}

impl<E: PrefetchEngine> PrefetchEngine for TimedEngine<E> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_read(&mut self, line: u64, thread: u8, now: u64, out: &mut Vec<u64>) {
        let before = out.len();
        spans::enter(ENGINE);
        self.inner.on_read(line, thread, now, out);
        self.ns += spans::exit();
        self.reads += 1;
        self.candidates += (out.len() - before) as u64;
        if let Some(c) = &mut self.capture {
            c.push((line, thread, now));
        }
    }

    fn take_epoch_boundaries(&mut self) -> u64 {
        self.inner.take_epoch_boundaries()
    }

    fn last_epoch_slh(&self, thread: u8) -> Option<&Slh> {
        self.inner.last_epoch_slh(thread)
    }

    fn stats(&self) -> Option<AsdStats> {
        self.inner.stats()
    }

    fn asd_detectors(&self) -> Option<&[AsdDetector]> {
        self.inner.asd_detectors()
    }
}

/// The core's memory port over the controller, timing each enqueue as
/// an `mc` span: the hierarchy/controller capture seam.
struct Port<'a, E: PrefetchEngine> {
    mc: &'a mut MemoryController<TimedEngine<E>>,
    dirty: bool,
    miss_lines: Option<&'a mut Vec<u64>>,
}

impl<E: PrefetchEngine> MemoryPort for Port<'_, E> {
    fn read(&mut self, line: u64, thread: u8, now: u64) -> PortResponse {
        self.dirty = true;
        spans::enter(MC);
        let r = self.mc.enqueue_read(line, thread, now);
        spans::exit();
        if let Some(lines) = self.miss_lines.as_deref_mut() {
            lines.push(line);
        }
        match r {
            ReadResponse::Done { at } => PortResponse::Done { at },
            ReadResponse::Queued => PortResponse::Queued,
            ReadResponse::Rejected => PortResponse::Rejected,
        }
    }

    fn write(&mut self, line: u64, now: u64) -> bool {
        self.dirty = true;
        spans::enter(MC);
        let ok = self.mc.enqueue_write(line, now);
        spans::exit();
        ok
    }
}

/// `System::run`'s event loop, rebuilt from the public component types
/// with spans around every call into a layer. Construction mirrors
/// `System::new` (controller thread count, completion-wheel horizon)
/// and the loop mirrors its event-driven pacing step for step, so the
/// result is bit-identical.
fn drive<E: PrefetchEngine>(
    cfg: &SystemConfig,
    streams: Vec<TimedStream>,
    engine: E,
    capture: bool,
) -> Drive {
    let mut mc_cfg = cfg.mc.clone();
    mc_cfg.threads = streams.len();
    let threads = mc_cfg.threads;
    let d = &cfg.dram;
    let horizon = d.ras_cpu()
        + d.rp_cpu()
        + d.rcd_cpu()
        + d.cl_cpu()
        + d.burst_cpu()
        + cfg.mc.transit_latency
        + cfg.mc.pb_hit_latency
        + 64;
    let engine = TimedEngine {
        inner: engine,
        reads: 0,
        candidates: 0,
        ns: 0,
        capture: capture.then(Vec::new),
    };
    let mut mc = MemoryController::with_engine(mc_cfg, Dram::new(cfg.dram), engine);
    let mut core = Core::new(cfg.core.clone(), streams);
    let mut completions = CalendarQueue::with_horizon(horizon);
    let mut due_buf: Vec<(u64, u64, u8)> = Vec::with_capacity(8);
    let mut completion_buf: Vec<ReadCompletion> = Vec::with_capacity(8);
    let mut miss_lines = Vec::new();
    let mut tally = Tally::default();

    let mut now = 0u64;
    let mut core_next = NextEvent::At(0);
    let mut mc_next = NextEvent::At(0);
    loop {
        tally.iterations += 1;
        let mut filled = false;
        if completions.peek().is_some_and(|at| at <= now) {
            completions.drain_due(now, &mut due_buf);
            spans::enter(CPU);
            for &(_at, line, _thread) in &due_buf {
                core.on_fill(line, now);
            }
            spans::exit();
            due_buf.clear();
            filled = true;
        }

        let mut enqueued = false;
        if filled || core_next.at().is_some_and(|t| t <= now) {
            spans::enter(CPU);
            let mut port =
                Port { mc: &mut mc, dirty: false, miss_lines: capture.then_some(&mut miss_lines) };
            core_next = core.clocked(&mut port).step(now);
            enqueued = port.dirty;
            spans::exit();
            tally.core_steps += 1;
        }

        if enqueued || mc_next.at().is_some_and(|t| t <= now) {
            spans::enter(MC);
            mc_next = Clocked::step(&mut mc, now);
            mc.drain_completions(&mut completion_buf);
            spans::exit();
            tally.mc_steps += 1;
            for c in completion_buf.drain(..) {
                completions.push(c.at, c.line, c.thread);
            }
        }

        if core.finished() && !mc.busy() && completions.is_empty() {
            break;
        }
        let mut next = core_next.min(mc_next);
        if let Some(at) = completions.peek() {
            next = next.min(NextEvent::At(at));
        }
        now = match next.at() {
            Some(t) => t.max(now + 1),
            None => panic!("rebuilt loop deadlock at cycle {now}"),
        };
    }

    spans::enter(MC);
    let cycles = now;
    let asd = mc.engine().stats();
    let power = mc.dram_mut().power_report(cycles.max(1));
    let core_stats = core.stats();
    let mc_stats = mc.stats();
    let dram = mc.dram().stats();
    spans::exit();
    let eng = mc.engine();
    tally.engine_reads = eng.reads;
    tally.engine_candidates = eng.candidates;
    tally.engine_ns = eng.ns;
    let reads = eng.capture.clone().unwrap_or_default();
    Drive {
        cycles,
        core: core_stats,
        mc: mc_stats,
        dram,
        asd,
        power,
        tally,
        threads,
        reads,
        miss_lines,
    }
}
