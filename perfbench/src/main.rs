//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload catalog|kernel --seed N --seconds S --trace 0|1
//! perfbench compare BASE.json NEW.json [BENCHMARK.json]
//! ```
//!
//! One run builds its inputs from the seed, measures for about `S`
//! seconds, checks every output, and prints a human report followed by
//! one JSON line: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end set, measured with tracing
//! off; with `--trace 1` a separate traced run reports the per-layer
//! ledger and writes its spans as Perfetto `trace_event` JSON under
//! `.bench_work/out/`, next to a full JSON report of the run (host
//! fingerprint included) that `compare` reads. See `perfbench/README.md`
//! for the workloads, the metrics and the layer-to-metric map.
//!
//! Internal subcommands: `catalog-pass` (one catalog pass in a fresh
//! process, so the process-wide run cache starts cold) and `serve` (the
//! `asd-serve` daemon the catalog's traced run probes).

mod catalog;
mod host;
mod kernel;
mod serve;
mod spans;

use asd_bench::json::{self, Value};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// End-to-end metrics, every workload, with their units.
const E2E: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("ns_per_access", "ns"),
    ("req_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run, with their units. A metric a
/// workload does not exercise reads 0 there.
const PER_LAYER: [(&str, &str); 45] = [
    ("trace.gen_ns_per_access", "ns"),
    ("trace.accesses", "count"),
    ("traceio.decode_ns_per_access", "ns"),
    ("traceio.bytes", "bytes"),
    ("cpu.self_ns_per_access", "ns"),
    ("cpu.steps", "count"),
    ("cpu.stall_cycles", "cycles"),
    ("cache.l1_hit_ratio", "ratio"),
    ("cache.l2_hit_ratio", "ratio"),
    ("cache.l3_hit_ratio", "ratio"),
    ("mc.self_ns_per_access", "ns"),
    ("mc.steps", "count"),
    ("mc.read_rejects", "count"),
    ("mc.prefetches_issued", "count"),
    ("mc.prefetch_useful_ratio", "ratio"),
    ("engine.self_ns_per_read", "ns"),
    ("engine.noop_ns_per_read", "ns"),
    ("engine.candidates_per_read", "ratio"),
    ("asd.detector_ns_per_read", "ns"),
    ("dram.probe_ns_per_cmd", "ns"),
    ("dram.commands", "count"),
    ("dram.activations", "count"),
    ("dram.row_hit_ratio", "ratio"),
    ("sim.loop_iterations", "count"),
    ("sim.ns_per_iteration", "ns"),
    ("sim.self_ns_per_access", "ns"),
    ("pipeline.submit_ms", "ms"),
    ("pipeline.unique_jobs", "count"),
    ("pipeline.inflight_joins", "count"),
    ("pipeline.peak_live_jobs", "count"),
    ("pipeline.utilization", "ratio"),
    ("pipeline.tail_ms", "ms"),
    ("runcache.run_hits", "count"),
    ("runcache.run_misses", "count"),
    ("runcache.trace_hits", "count"),
    ("runcache.flight_leads", "count"),
    ("runcache.flight_joins", "count"),
    ("runcache.disk_hits", "count"),
    ("runcache.disk_writes", "count"),
    ("serve.submit_ms", "ms"),
    ("serve.wait_ms", "ms"),
    ("serve.busy_retries", "count"),
    ("serve.response_bytes", "bytes"),
    ("ledger.coverage", "ratio"),
    ("tracing.overhead_pct", "%"),
];

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 2] = ["catalog", "kernel"];

/// What one run is asked to do.
pub struct Work {
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the timed run.
    pub trace: bool,
    /// Scratch directory of this run (removed at exit).
    pub tmp: PathBuf,
}

/// What a workload measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations that failed, were refused, or produced a wrong output.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: Vec<(&'static str, f64)>,
    /// Report lines printed before the result.
    pub notes: Vec<String>,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// Perfetto `trace_event` JSON of a traced run.
    pub trace_json: Option<String>,
}

impl Outcome {
    /// Record a metric value.
    pub fn metric(&mut self, name: &'static str, v: f64) {
        self.metrics.push((name, v));
    }

    /// Count one failed operation.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }

    /// Add a report line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().rev().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("catalog-pass") => catalog::pass_main(&args[1..]),
        Some("serve") => serve::daemon_main(&args[1..]),
        Some("compare") => compare(&args[1..]),
        _ => bench(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn bench(args: &[String]) -> Result<(), String> {
    let workload = flag(args, "--workload").ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload) {
        return Err(format!("unknown workload `{workload}` (one of {WORKLOADS:?})"));
    }
    let num = |name: &str, default: &str| -> Result<f64, String> {
        let v = flag(args, name).unwrap_or(default);
        v.parse::<f64>().map_err(|_| format!("{name} needs a number, got `{v}`"))
    };
    let seed_arg = flag(args, "--seed").unwrap_or("24301");
    let seed: u64 =
        seed_arg.parse().map_err(|_| format!("--seed needs an integer, got `{seed_arg}`"))?;
    let seconds = num("--seconds", "10")?.max(1.0);
    let trace = match flag(args, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
    };
    let root = PathBuf::from(".bench_work");
    let tmp = root.join(format!("run-{}", std::process::id()));
    let out_dir = root.join("out");
    for d in [&tmp, &out_dir] {
        std::fs::create_dir_all(d).map_err(|e| format!("{}: {e}", d.display()))?;
    }
    let work = Work { seed, seconds, trace, tmp: tmp.clone() };
    let outcome = match workload {
        "catalog" => catalog::run(&work),
        _ => kernel::run(&work),
    };
    // Scratch inputs go whatever the outcome; results stay in `out/`.
    let _ = std::fs::remove_dir_all(&tmp);
    let mut outcome = outcome?;
    report(workload, &work, &out_dir, &mut outcome)
}

fn report(workload: &str, w: &Work, out_dir: &Path, o: &mut Outcome) -> Result<(), String> {
    let mode = if w.trace { "traced" } else { "timed" };
    if let Some(json) = o.trace_json.take() {
        o.attempted += 1;
        let path = out_dir.join(format!("{workload}-trace.json"));
        match spans::validate(&json) {
            Ok(n) => o.note(format!("perfetto: {} ({n} trace events, validated)", path.display())),
            Err(e) => o.fail(format!("perfetto trace does not validate: {e}")),
        }
        std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let host = host::fingerprint();
    let table: &[(&str, &str)] = if w.trace { &PER_LAYER } else { &E2E };
    let mut metrics = Value::obj();
    let mut lines = Vec::new();
    for (name, unit) in table {
        let v = match o.value(name) {
            Some(v) => v,
            None if w.trace => 0.0,
            None => return Err(format!("{workload} measured no `{name}`")),
        };
        if !(w.trace || v.is_finite() && v > 0.0) {
            return Err(format!("{workload}: `{name}` measured {v}, not a positive number"));
        }
        let mut m = Value::obj();
        m.set("value", v).set("unit", *unit);
        metrics.set(name, m);
        lines.push(format!("  {name:<30} {v:>16.6} {unit}"));
    }
    let failed_share = o.failed as f64 / o.attempted.max(1) as f64;

    println!("# perfbench {workload} seed={} seconds={} {mode}", w.seed, w.seconds);
    println!("# host {}", host.render());
    for n in &o.notes {
        println!("# {n}");
    }
    for l in &lines {
        println!("#{l}");
    }
    println!(
        "#   {:<30} {failed_share:>16.6} share ({} failed of {} attempted)",
        "failed_share", o.failed, o.attempted
    );
    for f in &o.failures {
        println!("# FAILED: {f}");
    }

    let mut doc = Value::obj();
    doc.set("workload", workload).set("seed", w.seed).set("mode", mode).set("host", host);
    doc.set("metrics", metrics.clone());
    doc.set("failed_share", failed_share);
    doc.set("failures", Value::Arr(o.failures.iter().map(|f| Value::from(f.as_str())).collect()));
    doc.set("notes", Value::Arr(o.notes.iter().map(|n| Value::from(n.as_str())).collect()));
    let path = out_dir.join(format!("{workload}-{mode}.json"));
    std::fs::write(&path, doc.render() + "\n").map_err(|e| format!("{}: {e}", path.display()))?;

    let mut result = Value::obj();
    result.set("correct", o.failed == 0);
    result.set("attempted", o.attempted.max(1));
    result.set("failed", o.failed);
    result.set("metrics", metrics);
    println!("{}", result.render());
    Ok(())
}

/// Compare two saved reports metric by metric. Same host: a metric
/// worse by more than its `BENCHMARK.json` bound is flagged as a
/// regression. Different host fingerprints: every delta is reported as
/// cross-host information, never as a regression.
fn compare(args: &[String]) -> Result<(), String> {
    let load = |p: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (Some(a), Some(b)) = (args.first(), args.get(1)) else {
        return Err("usage: perfbench compare BASE.json NEW.json [BENCHMARK.json]".to_string());
    };
    let (base, new) = (load(a)?, load(b)?);
    let spec = load(args.get(2).map_or("BENCHMARK.json", String::as_str)).ok();
    let host = |v: &Value| v.get("host").map(Value::render).unwrap_or_default();
    let cross = host(&base) != host(&new);
    if cross {
        println!("info: cross-host comparison; deltas are not regressions");
        println!("info:   base {}", host(&base));
        println!("info:   new  {}", host(&new));
    }
    let bound_of = |name: &str| -> Option<(f64, bool)> {
        let list = spec.as_ref()?.get("end_to_end")?.as_arr()?;
        let m = list.iter().find(|m| m.str_field("name") == Some(name))?;
        Some((m.get("bound")?.as_f64()?, m.str_field("better") == Some("lower")))
    };
    let mut regressions = 0;
    let Some(Value::Obj(fields)) = base.get("metrics") else {
        return Err(format!("{a}: no metrics"));
    };
    for (name, m) in fields {
        let get = |doc: &Value| doc.get("metrics")?.get(name)?.get("value")?.as_f64();
        let (Some(x), Some(y)) = (m.get("value").and_then(Value::as_f64), get(&new)) else {
            continue;
        };
        let delta = if x != 0.0 { (y - x) / x } else { 0.0 };
        let verdict = match bound_of(name) {
            _ if cross => "info",
            Some((bound, lower)) if (if lower { delta } else { -delta }) > bound => {
                regressions += 1;
                "REGRESSION"
            }
            Some(_) => "ok",
            None => "info",
        };
        println!("{verdict:<10} {name:<30} {x:>14.6} -> {y:>14.6} ({:+.1}%)", delta * 100.0);
    }
    if regressions > 0 {
        return Err(format!("{regressions} regression(s)"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` names exactly the metrics and workloads this
    /// binary prints, with the same units.
    #[test]
    fn benchmark_json_matches_tables() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let spec = json::parse(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .and_then(Value::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    (
                        m.str_field("name").expect("name").to_string(),
                        m.str_field("unit").expect("unit").to_string(),
                    )
                })
                .collect()
        };
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(names("end_to_end"), own(&E2E));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(Value::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.str_field("name").expect("name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
