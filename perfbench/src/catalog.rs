//! The `catalog` workload: the full figure catalog, equal to `figures
//! all`, submitted as one `Pipeline` at the catalog's own sizes with the
//! workload seed, on 2 worker threads, with the in-memory run cache and
//! no disk tier.
//!
//! Each pass runs in a fresh process (`perfbench catalog-pass`) because
//! the run cache is process-wide: a second pass in the same process
//! would be served entirely from memory. A pass reports its timings,
//! counters and per-figure output digests as one JSON line.

use crate::host::{self, fnv64, median, secs, tail};
use crate::spans::{self, Event};
use crate::{serve, Outcome, Work};
use asd_bench::json::{self, Value};
use asd_sim::arena::{arena_plan, default_roster};
use asd_sim::figures::plan_sized;
use asd_sim::pipeline::{FigurePlan, MetricValue, Pipeline};
use asd_sim::RunOpts;
use asd_trace::suites;
use std::process::{Command, Stdio};
use std::time::Instant;

/// The catalog in print order: the list `figures all` regenerates.
const CATALOG: [&str; 20] = [
    "fig2",
    "fig3",
    "fig5",
    "fig8",
    "fig6",
    "fig9",
    "fig7",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "cost",
    "sched",
    "arena",
    "telemetry",
    "ablations",
    "smt",
];

/// Budget seconds per catalog pass: a pass takes 10 to 13 s of wall
/// time on a 2-core host.
const PASS_SECONDS: f64 = 10.0;

/// Worker threads of the catalog pipeline.
const THREADS: usize = 2;

/// Per-thread accesses of figures without a size override of their own.
const ACCESSES: u64 = 60_000;

/// The catalog's own size overrides (`asd_sim::figures::plan`): figure,
/// accesses per thread, hardware threads per run.
const OVERRIDES: [(&str, u64, u64); 2] = [("fig3", 150_000, 1), ("smt", 30_000, 2)];

/// Recorded output digests, `seed figure text metrics` per line.
const REFS: &str = include_str!("../catalog_refs.txt");

/// Paper-reported suite means (EXPERIMENTS.md) beside which the model's
/// values are printed: figure, metric, paper value in percent.
const PAPER: [(&str, &str, f64); 6] = [
    ("fig5", "mean_pms_vs_np_pct", 32.7),
    ("fig5", "mean_pms_vs_ps_pct", 10.2),
    ("fig6", "mean_pms_vs_np_pct", 24.2),
    ("fig6", "mean_pms_vs_ps_pct", 8.1),
    ("fig7", "mean_pms_vs_np_pct", 15.1),
    ("fig7", "mean_pms_vs_ps_pct", 8.4),
];

/// Run-cache counters of a pass report and their per-layer names.
/// (The catalog has no disk tier: the disk counters come from the serve
/// probe.)
const RUNCACHE: [(&str, &str); 5] = [
    ("run_hits", "runcache.run_hits"),
    ("run_misses", "runcache.run_misses"),
    ("trace_hits", "runcache.trace_hits"),
    ("flight_leads", "runcache.flight_leads"),
    ("flight_joins", "runcache.flight_joins"),
];

fn opts(seed: u64) -> RunOpts {
    RunOpts { accesses: ACCESSES, seed, smt: false }
}

fn plan(name: &str, opts: &RunOpts) -> Result<FigurePlan, String> {
    let r = if name == "arena" {
        let roster = default_roster();
        let engines: Vec<&str> = roster.iter().map(String::as_str).collect();
        arena_plan(&engines, &suites::all_profiles(), opts)
    } else {
        plan_sized(name, opts, false)
    };
    r.map_err(|e| format!("{name}: {e}"))
}

/// Simulated accesses of one pass: the unique runs of each size group
/// times their accesses. Runs of different sizes never share a cache
/// key, so the groups are disjoint.
fn simulated_accesses(seed: u64) -> Result<u64, String> {
    let o = opts(seed);
    let mut rest = Pipeline::new();
    let mut total = 0u64;
    for name in CATALOG {
        match OVERRIDES.iter().find(|(f, _, _)| *f == name) {
            Some((_, accesses, threads)) => {
                let mut p = Pipeline::new();
                p.submit(plan(name, &o)?);
                total += p.unique_jobs() as u64 * accesses * threads;
            }
            None => rest.submit(plan(name, &o)?),
        }
    }
    Ok(total + rest.unique_jobs() as u64 * ACCESSES)
}

/// One catalog pass in this process; prints its report as JSON.
pub fn pass_main(args: &[String]) -> Result<(), String> {
    let t_start = Instant::now();
    let seed: u64 = crate::flag(args, "--seed")
        .and_then(|s| s.parse().ok())
        .ok_or("catalog-pass needs --seed N")?;
    let traced = args.iter().any(|a| a == "--trace");
    asd_sim::cache::set_disk_dir(None);
    let o = opts(seed);

    // Set-up: build every figure's plan and submit it. Five times, for a
    // steadier median; the last pipeline is the one that runs.
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..5 {
        let t_setup = Instant::now();
        let mut events = Vec::new();
        let mut pipe = Pipeline::new().with_threads(THREADS);
        let mut submit_ns = 0u64;
        for name in CATALOG {
            let t0 = t_start.elapsed();
            pipe.submit(plan(name, &o)?);
            let dt = t_start.elapsed() - t0;
            submit_ns += dt.as_nanos() as u64;
            events.push(slice(&format!("submit {name}"), t0.as_secs_f64(), dt.as_secs_f64(), 0));
        }
        setups.push(secs(t_setup));
        built = Some((pipe, events, submit_ns));
    }
    let (pipe, mut events, submit_ns) = built.ok_or("no pipeline built")?;
    let (submitted, unique, joins) =
        (pipe.submitted_jobs(), pipe.unique_jobs(), pipe.inflight_joins());
    let setup_s = median(&setups);

    // The timed part: run the graph.
    let (t0, c0) = (Instant::now(), host::process_cpu_ns());
    let run = pipe.run(&|| t0.elapsed().as_secs_f64() * 1e3).map_err(|e| e.to_string())?;
    let wall = secs(t0);
    let cpu = (host::process_cpu_ns() - c0) as f64 / 1e9;
    let run_start = t0.duration_since(t_start).as_secs_f64();
    events.push(slice("pipeline.run", run_start, wall, 0));

    let mut figures = Vec::new();
    let mut stdout_text = String::new();
    let mut ready = Vec::new();
    let mut fidelity = Value::obj();
    for f in &run.figures {
        stdout_text.push_str(&f.output.text);
        stdout_text.push_str("\n\n");
        let metrics = format!("{:?}", f.output.metrics);
        let mut v = Value::obj();
        v.set("name", f.name.as_str());
        v.set("text", format!("{:016x}", fnv64(f.output.text.as_bytes())));
        v.set("metrics", format!("{:016x}", fnv64(metrics.as_bytes())));
        figures.push(v);
        ready.push(f.wall_ms);
        events.push(Event {
            name: format!("{} ready", f.name),
            ph: "i",
            ts_us: (run_start + f.wall_ms / 1e3) * 1e6,
            dur_us: 0.0,
            tid: 1,
            args: None,
        });
        for (fig, key, _) in PAPER {
            if f.name == fig {
                if let Some((_, MetricValue::F64(x))) =
                    f.output.metrics.iter().find(|(k, _)| k == key)
                {
                    fidelity.set(&format!("{fig}.{key}"), *x);
                }
            }
        }
    }
    ready.sort_by(f64::total_cmp);
    let tail_ms = match ready.as_slice() {
        [.., a, b] => b - a,
        _ => 0.0,
    };

    let (run_hits, run_misses) = asd_sim::cache::stats();
    let (trace_hits, _) = asd_sim::cache::trace_stats();
    let (flight_leads, flight_joins) = asd_sim::cache::flight_stats();
    let mut doc = Value::obj();
    doc.set("setup_s", setup_s).set("wall_s", wall).set("cpu_s", cpu);
    doc.set("rss_mb", host::peak_rss_mb().unwrap_or(0.0));
    doc.set("accesses", simulated_accesses(seed)?);
    doc.set("submit_ms", submit_ns as f64 / 1e6).set("tail_ms", tail_ms);
    doc.set("submitted", submitted).set("unique_jobs", unique).set("inflight_joins", joins);
    doc.set("peak_live_jobs", run.stats.peak_live_jobs);
    doc.set("run_hits", run_hits).set("run_misses", run_misses).set("trace_hits", trace_hits);
    doc.set("flight_leads", flight_leads).set("flight_joins", flight_joins);
    doc.set("stdout", format!("{:016x}", fnv64(stdout_text.as_bytes())));
    doc.set("figures", Value::Arr(figures));
    doc.set("fidelity", fidelity);
    let events: Vec<Value> = events
        .iter()
        .map(|e| {
            let mut v = Value::obj();
            v.set("name", e.name.as_str()).set("ph", e.ph).set("ts", e.ts_us);
            v.set("dur", e.dur_us).set("tid", e.tid);
            v
        })
        .collect();
    if traced {
        doc.set("events", Value::Arr(events));
    }
    println!("{}", doc.render());
    Ok(())
}

fn slice(name: &str, start_s: f64, dur_s: f64, tid: u64) -> Event {
    Event {
        name: name.to_string(),
        ph: "X",
        ts_us: start_s * 1e6,
        dur_us: dur_s * 1e6,
        tid,
        args: None,
    }
}

/// Run one pass in a child process and parse its report; a traced pass
/// also reports its spans.
fn spawn_pass(seed: u64, traced: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.arg("catalog-pass").arg("--seed").arg(seed.to_string());
    if traced {
        cmd.arg("--trace");
    }
    // The library's environment levers must not reshape the workload.
    for var in ["ASD_RUN_CACHE", "ASD_DISK_CACHE", "ASD_PIPELINE", "ASD_SWEEP_THREADS"] {
        cmd.env_remove(var);
    }
    let out = cmd.stderr(Stdio::inherit()).output().map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("catalog pass exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().ok_or("catalog pass printed nothing")?;
    json::parse(line).map_err(|e| format!("catalog pass report: {e}"))
}

/// The spans a pass reported, as events.
fn pass_events(pass: &Value) -> Vec<Event> {
    let list = pass.get("events").and_then(Value::as_arr).unwrap_or(&[]);
    list.iter()
        .map(|e| Event {
            name: e.str_field("name").unwrap_or("?").to_string(),
            ph: if e.str_field("ph") == Some("i") { "i" } else { "X" },
            ts_us: num(e, "ts"),
            dur_us: num(e, "dur"),
            tid: num(e, "tid") as u64,
            args: None,
        })
        .collect()
}

fn num(v: &Value, key: &str) -> f64 {
    v.get(key).and_then(Value::as_f64).unwrap_or(0.0)
}

/// Recorded digests for `seed`: `(figure, text, metrics)`.
fn references(seed: u64) -> Vec<(String, String, String)> {
    REFS.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            match f.as_slice() {
                [s, fig, text, metrics] if s.parse() == Ok(seed) => {
                    Some((fig.to_string(), text.to_string(), metrics.to_string()))
                }
                _ => None,
            }
        })
        .collect()
}

/// Check one pass's figures against the first pass and the recorded
/// references.
fn check(out: &mut Outcome, pass: &Value, first: &Value, refs: &[(String, String, String)]) {
    let figs = |v: &Value| -> Vec<(String, String, String)> {
        v.get("figures")
            .and_then(Value::as_arr)
            .unwrap_or(&[])
            .iter()
            .map(|f| {
                let s = |k| f.str_field(k).unwrap_or("").to_string();
                (s("name"), s("text"), s("metrics"))
            })
            .collect()
    };
    let (got, base) = (figs(pass), figs(first));
    if got.len() != CATALOG.len() {
        out.attempted += CATALOG.len() as u64;
        out.fail(format!("catalog pass produced {} of {} figures", got.len(), CATALOG.len()));
        return;
    }
    for (i, g) in got.iter().enumerate() {
        out.attempted += 1;
        if base.get(i) != Some(g) {
            out.fail(format!("{}: output changed between passes", g.0));
        } else if !refs.is_empty() && !refs.contains(g) {
            out.fail(format!("{}: output differs from the recorded reference", g.0));
        }
    }
}

pub fn run(w: &Work) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let refs = references(w.seed);
    let mut passes: Vec<Value> = Vec::new();
    // Timed run: one pass per started PASS_SECONDS of the budget, a
    // fixed count so the pass-level tail means the same on every run.
    // Traced run: one untraced pass, then one traced pass.
    let count = if w.trace { 2 } else { (w.seconds / PASS_SECONDS).ceil().max(1.0) as usize };
    for i in 0..count {
        let pass = spawn_pass(w.seed, w.trace && i == 1)?;
        check(&mut out, &pass, passes.first().unwrap_or(&pass), &refs);
        passes.push(pass);
    }
    let first = &passes[0];
    let last = &passes[passes.len() - 1];
    let col = |k: &str| -> Vec<f64> { passes.iter().map(|p| num(p, k)).collect() };

    out.note(format!(
        "catalog: {} passes; {} jobs submitted, {} unique, {} joined; {} simulated accesses per pass",
        passes.len(),
        num(first, "submitted"),
        num(first, "unique_jobs"),
        num(first, "inflight_joins"),
        num(first, "accesses")
    ));
    out.note(format!(
        "catalog: stdout digest {} ({})",
        first.str_field("stdout").unwrap_or("?"),
        if refs.is_empty() {
            "no recorded reference for this seed; checked for repeatability".to_string()
        } else {
            format!("checked against the {} recorded references", refs.len())
        }
    ));
    // Counts that do not repeat across identical passes are information,
    // never gates.
    for key in ["trace_hits", "flight_leads", "flight_joins", "peak_live_jobs", "run_hits"] {
        let vals = col(key);
        if vals.iter().any(|v| *v != vals[0]) {
            out.note(format!("info: {key} does not repeat across identical passes: {vals:?}"));
        }
    }
    fidelity_notes(&mut out, first);

    if w.trace {
        let traced = last;
        let wall = num(traced, "wall_s");
        out.metric("pipeline.submit_ms", num(traced, "submit_ms"));
        out.metric("pipeline.unique_jobs", num(traced, "unique_jobs"));
        out.metric("pipeline.inflight_joins", num(traced, "inflight_joins"));
        out.metric("pipeline.peak_live_jobs", num(traced, "peak_live_jobs"));
        out.metric("pipeline.utilization", num(traced, "cpu_s") / (THREADS as f64 * wall));
        out.metric("pipeline.tail_ms", num(traced, "tail_ms"));
        for (key, name) in RUNCACHE {
            out.metric(name, num(traced, key));
        }
        out.metric(
            "tracing.overhead_pct",
            100.0 * (wall - num(first, "wall_s")) / num(first, "wall_s"),
        );
        let mut events = pass_events(traced);
        events.extend(serve::probe(w.seed, &w.tmp.join("serve"), Instant::now(), &mut out)?);
        let tracks =
            [(0, "pipeline"), (1, "figure ready"), (10, "serve client 0"), (11, "serve client 1")];
        out.trace_json = Some(spans::perfetto(&events, &tracks));
        return Ok(out);
    }

    let walls = col("wall_s");
    out.metric("setup_s", median(&col("setup_s")));
    out.metric("wall_s", median(&walls));
    out.metric("cpu_s", median(&col("cpu_s")));
    let nspa: Vec<f64> =
        passes.iter().map(|p| num(p, "cpu_s") * 1e9 / num(p, "accesses").max(1.0)).collect();
    out.metric("ns_per_access", median(&nspa));
    let jobs_per_s: Vec<f64> =
        passes.iter().map(|p| num(p, "submitted") / num(p, "wall_s")).collect();
    out.metric("req_per_s", median(&jobs_per_s));
    let lat: Vec<f64> = walls.iter().map(|s| s * 1e3).collect();
    out.metric("latency_p50_ms", median(&lat));
    let (q, p) = tail(&lat);
    out.metric("latency_p99_ms", p);
    out.metric("peak_rss_mb", median(&col("rss_mb")));
    out.note(format!(
        "catalog: a request is one whole catalog pass (n={}, tail is p{q:.0}); req_per_s counts submitted jobs",
        lat.len()
    ));
    Ok(out)
}

/// Paper-vs-model suite means, as information: the model has been
/// checked against these averages only.
fn fidelity_notes(out: &mut Outcome, pass: &Value) {
    let Some(f) = pass.get("fidelity") else { return };
    out.note(
        "fidelity (info, not gated; the model is checked against these suite means only):"
            .to_string(),
    );
    for (fig, key, paper) in PAPER {
        if let Some(model) = f.get(&format!("{fig}.{key}")).and_then(Value::as_f64) {
            out.note(format!("  {fig} {key:<20} paper {paper:>5.1}%  model {model:>5.1}%"));
        }
    }
}
