//! `telemetry-check`: validate exposition output and diff bench reports.
//!
//! ```text
//! telemetry-check prom <file>                         # Prometheus text
//! telemetry-check trace <file>                        # trace_event JSON
//! telemetry-check csv <file>                          # per-epoch CSV
//! telemetry-check bench-diff <baseline> <current> [--threshold <pct>] [--fail-threshold <pct>]
//! telemetry-check bench-table <baseline> <current>  # markdown wall-time table
//! ```
//!
//! The first three exit nonzero when the file fails its schema check —
//! the CI smoke step runs them against freshly generated output.
//! `bench-diff` compares two `BENCH_figures.json` documents and prints a
//! `warning:` line per figure whose wall time regressed by at least the
//! warn threshold (default 20%). A regression at or past the fail
//! threshold (default 30%) prints an `error:` line and fails the run —
//! host timing noise sits well under that on the per-figure wall times
//! (whole-pipeline regenerations, tens to hundreds of ms each), so a
//! +30% figure is a real kernel regression. Figures present in only one
//! of the two documents print as `info:` added/removed rows and never
//! fail the run — a new figure's first landing (no baseline entry yet)
//! must pass the gate. When both documents ran under identical
//! top-level `opts`, a figure present in both whose `metrics` object
//! differs prints an `error:` line and fails the run: the simulator is
//! deterministic, so a changed metric is a changed scientific result.
//! Documents with different `opts` print an `info:` line instead.
//! `bench-table` renders the
//! same comparison as a GitHub-flavored markdown table for the CI job
//! summary.

use asd_telemetry::expo::{bench_diff, chrome, csv, prom};
use std::process::ExitCode;

const USAGE: &str = "usage: telemetry-check <prom|trace|csv> <file>\n       \
                     telemetry-check bench-diff <baseline> <current> \
                     [--threshold <pct>] [--fail-threshold <pct>]\n       \
                     telemetry-check bench-table <baseline> <current>";

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = args.first().map(String::as_str).ok_or(USAGE)?;
    match mode {
        "prom" | "trace" | "csv" => {
            let path = args.get(1).map(String::as_str).ok_or(USAGE)?;
            let text = read(path)?;
            let (what, n) = match mode {
                "prom" => ("samples", prom::validate(&text).map_err(|e| format!("{path}: {e}"))?),
                "trace" => {
                    ("trace events", chrome::validate(&text).map_err(|e| format!("{path}: {e}"))?)
                }
                _ => ("rows", csv::validate(&text).map_err(|e| format!("{path}: {e}"))?),
            };
            if n == 0 {
                return Err(format!("{path}: valid but empty (0 {what})"));
            }
            println!("ok: {path}: {n} {what}");
            Ok(())
        }
        "bench-diff" => {
            let baseline = args.get(1).map(String::as_str).ok_or(USAGE)?;
            let current = args.get(2).map(String::as_str).ok_or(USAGE)?;
            let pct_flag = |flag: &str, default: f64| -> Result<f64, String> {
                match args.iter().position(|a| a == flag) {
                    Some(i) => args
                        .get(i + 1)
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| format!("{flag} needs a numeric percentage")),
                    None => Ok(default),
                }
            };
            let warn = pct_flag("--threshold", 20.0)?;
            let fail = pct_flag("--fail-threshold", 30.0)?;
            let d = bench_diff::diff(&read(baseline)?, &read(current)?, warn, fail)?;
            for a in &d.added {
                println!("info: {a}: only in {current} (new figure; not gated)");
            }
            for r in &d.removed {
                println!("info: {r}: only in {baseline} (removed figure; not gated)");
            }
            for i in &d.info {
                println!("info: {i}");
            }
            for w in &d.warnings {
                println!("warning: {w}");
            }
            for f in &d.failures {
                println!("error: {f}");
            }
            if d.warnings.is_empty() && d.failures.is_empty() {
                println!("ok: no figure regressed by >= {warn:.0}% vs {baseline}");
            } else if d.failures.is_empty() {
                println!(
                    "{} figure(s) regressed by >= {warn:.0}% vs {baseline} (warning only)",
                    d.warnings.len()
                );
            } else {
                return Err(format!(
                    "{} figure(s) regressed by >= {fail:.0}% or changed metrics vs {baseline}",
                    d.failures.len()
                ));
            }
            Ok(())
        }
        "bench-table" => {
            let baseline = args.get(1).map(String::as_str).ok_or(USAGE)?;
            let current = args.get(2).map(String::as_str).ok_or(USAGE)?;
            let table = bench_diff::markdown_table(&read(baseline)?, &read(current)?)?;
            print!("{table}");
            Ok(())
        }
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("telemetry-check: {e}");
            ExitCode::FAILURE
        }
    }
}
