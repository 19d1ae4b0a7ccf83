//! Edge-case tests for the job-graph executor ([`asd_sim::pipeline`]):
//! empty figure sets, zero-job figures, submission-time dedup with
//! single-flight accounting, uncacheable (trace-sourced) jobs, error
//! propagation order matching a plain loop of [`run_custom`] calls,
//! per-job batch progress, and deterministic output order under a
//! threaded run.
//!
//! The run cache and flight registry are process-global, so every test
//! that simulates serializes behind [`COUNTER_LOCK`] (a sibling's
//! simulation would otherwise land in another test's counter deltas) and
//! uses seeds unique to this file (and to each test) so no other test
//! binary or sibling test can pre-populate their cache keys.

use asd_sim::experiment::run_custom;
use asd_sim::pipeline::{run_batch, FigureOutput, FigurePlan, Job, Pipeline};
use asd_sim::{cache, figures, PrefetchKind, RunOpts, SimError, SystemConfig, TraceSource};
use asd_trace::suites;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Serializes tests that simulate: they add to the process-global
/// cache/flight counters that other tests assert exact deltas on.
static COUNTER_LOCK: Mutex<()> = Mutex::new(());

/// Take [`COUNTER_LOCK`]; a sibling's failed assertion must not fail
/// every later test through poisoning.
fn counters() -> MutexGuard<'static, ()> {
    COUNTER_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The serial reference: each job through `run_custom`, in job order,
/// stopping at the first error.
fn run_loop(opts: &RunOpts, jobs: &[Job]) -> Result<Vec<asd_sim::RunResult>, SimError> {
    jobs.iter().map(|j| run_custom(&j.profile, j.cfg.clone(), &j.label, opts)).collect()
}

/// Short runs with a per-test seed: `0x91be` tags this binary, the low
/// byte tags the test, so every test owns fresh cache keys.
fn opts(test: u64) -> RunOpts {
    RunOpts { seed: 0x0091_be00 + test, ..RunOpts::default() }.with_accesses(3_000)
}

fn np(threads: usize) -> SystemConfig {
    SystemConfig::for_kind(PrefetchKind::Np, threads)
}

/// A plan whose text is its own name plus each result's label and cycle
/// count — enough to prove which results arrived and in what order.
fn echo_plan(name: &str, opts: &RunOpts, jobs: Vec<Job>) -> FigurePlan {
    let tag = name.to_string();
    FigurePlan::new(name, opts, jobs, move |results| {
        let mut text = tag;
        for r in results {
            text.push_str(&format!(" {}={}", r.config, r.cycles));
        }
        Ok(FigureOutput::text_only(text))
    })
}

#[test]
fn empty_pipeline_yields_no_figures_and_zero_stats() {
    let run = Pipeline::new().run(&|| 0.0).unwrap();
    assert!(run.figures.is_empty());
    assert_eq!(run.stats.figures, 0);
    assert_eq!(run.stats.submitted_jobs, 0);
    assert_eq!(run.stats.unique_jobs, 0);
    assert_eq!(run.stats.inflight_joins, 0);
    assert_eq!(run.stats.peak_live_jobs, 0);
}

#[test]
fn zero_job_figure_assembles_and_reads_the_clock() {
    // `cost` is a pure table: no simulations, assembly produces the text.
    let mut pipe = Pipeline::new();
    pipe.submit(figures::plan("cost", &opts(1)).unwrap());
    let run = pipe.run(&|| 42.5).unwrap();
    assert_eq!(run.figures.len(), 1);
    assert_eq!(run.figures[0].name, "cost");
    assert_eq!(run.figures[0].output.text, figures::hardware_cost_table());
    assert_eq!(run.figures[0].wall_ms, 42.5);
    assert_eq!(run.stats.submitted_jobs, 0);
    assert_eq!(run.stats.peak_live_jobs, 0);
}

#[test]
fn single_job_figure_matches_standalone_run() {
    let _serial = counters();
    let o = opts(2);
    let milc = suites::by_name("milc").unwrap();
    let plan = || echo_plan("solo", &o, vec![Job::new(&milc, np(1), "NP")]);

    let alone = plan().run().unwrap();
    let mut pipe = Pipeline::new().with_threads(2);
    pipe.submit(plan());
    let graph = pipe.run(&|| 0.0).unwrap();
    assert_eq!(graph.figures[0].output.text, alone.text);
    assert_eq!(graph.stats.unique_jobs, 1);
}

#[test]
fn duplicate_jobs_across_figures_simulate_once() {
    let _serial = counters();
    if !cache::enabled() {
        return; // dedup is keyed on the cache; nothing to assert with it off
    }
    let o = opts(3);
    let lbm = suites::by_name("lbm").unwrap();
    let plan = |name: &str| echo_plan(name, &o, vec![Job::new(&lbm, np(1), "NP")]);

    let mut pipe = Pipeline::new();
    pipe.submit(plan("first"));
    pipe.submit(plan("second"));
    assert_eq!(pipe.submitted_jobs(), 2);
    assert_eq!(pipe.unique_jobs(), 1, "identical jobs collapse at submission");
    assert_eq!(pipe.inflight_joins(), 1);

    let (hits_before, misses_before) = cache::stats();
    let run = pipe.run(&|| 0.0).unwrap();
    let (hits_after, misses_after) = cache::stats();
    // One node, one simulation: the fresh key misses exactly once and the
    // joined figure never touches the cache again.
    assert_eq!(misses_after - misses_before, 1, "exactly one simulation ran");
    assert_eq!(hits_after - hits_before, 0, "the duplicate joined; it did not re-look-up");
    assert_eq!(run.stats.peak_live_jobs, 1);
    let first = run.figures[0].output.text.strip_prefix("first").unwrap();
    let second = run.figures[1].output.text.strip_prefix("second").unwrap();
    assert_eq!(first, second, "both figures saw the same result");
}

#[test]
fn trace_sourced_jobs_are_uncacheable_and_never_dedup() {
    // Replay configs have no cache key (the file's contents are not part
    // of the config), so each submission must get its own node even when
    // the textual config matches.
    let o = opts(4);
    let milc = suites::by_name("milc").unwrap();
    let replay = || np(1).with_trace(TraceSource::replay("/nonexistent/pipeline-test.asdt"));
    let mut pipe = Pipeline::new();
    pipe.submit(echo_plan("a", &o, vec![Job::new(&milc, replay(), "NP")]));
    pipe.submit(echo_plan("b", &o, vec![Job::new(&milc, replay(), "NP")]));
    assert_eq!(pipe.submitted_jobs(), 2);
    assert_eq!(pipe.unique_jobs(), 2, "uncacheable jobs keep their own nodes");
    assert_eq!(pipe.inflight_joins(), 0);
}

#[test]
fn job_error_selection_matches_sweep_run() {
    let _serial = counters();
    let o = opts(5);
    let milc = suites::by_name("milc").unwrap();
    let bad = |path: &str| np(1).with_trace(TraceSource::replay(path));
    let jobs = || {
        vec![
            Job::new(&milc, np(1), "ok"),
            Job::new(&milc, bad("/nonexistent/pipeline-b.asdt"), "bad-b"),
            Job::new(&milc, bad("/nonexistent/pipeline-a.asdt"), "bad-a"),
        ]
    };

    // Reference: a serial loop stops at the earliest job-order failure.
    let want = run_loop(&o, &jobs()).unwrap_err();
    assert!(matches!(want, SimError::TraceIo { .. }), "precondition: {want:?}");

    // Same jobs, same order, one figure: the pipeline must pick the same
    // error even though `bad-a` also fails — and so must the batch path.
    let mut pipe = Pipeline::new().with_threads(3);
    pipe.submit(echo_plan("f", &o, jobs()));
    assert_eq!(pipe.run(&|| 0.0).unwrap_err(), want);
    assert_eq!(run_batch(&o, jobs(), 3, &|_, _| {}).unwrap_err(), want);
}

#[test]
fn cross_figure_errors_report_the_earliest_submitted_figure() {
    let _serial = counters();
    let o = opts(6);
    let milc = suites::by_name("milc").unwrap();
    let bad = |path: &str| np(1).with_trace(TraceSource::replay(path));

    let expected = run_loop(&o, &[Job::new(&milc, bad("/nonexistent/pipeline-first.asdt"), "bad")])
        .unwrap_err();

    let mut pipe = Pipeline::new();
    pipe.submit(echo_plan(
        "first",
        &o,
        vec![Job::new(&milc, bad("/nonexistent/pipeline-first.asdt"), "bad")],
    ));
    pipe.submit(echo_plan(
        "second",
        &o,
        vec![Job::new(&milc, bad("/nonexistent/pipeline-second.asdt"), "bad")],
    ));
    // Both figures fail; the earliest submission order wins, as if the
    // figures had run one after another.
    assert_eq!(pipe.run(&|| 0.0).unwrap_err(), expected);
}

#[test]
fn assemble_errors_propagate() {
    let o = opts(7);
    let mut pipe = Pipeline::new();
    pipe.submit(FigurePlan::new("boom", &o, Vec::new(), |_| {
        Err(SimError::UnknownFigure { name: "boom".to_string() })
    }));
    let err = pipe.run(&|| 0.0).unwrap_err();
    assert_eq!(err, SimError::UnknownFigure { name: "boom".to_string() });
}

#[test]
fn duplicate_jobs_within_one_figure_keep_their_labels() {
    let _serial = counters();
    let o = opts(8);
    let milc = suites::by_name("milc").unwrap();
    let plan = FigurePlan::new(
        "relabel",
        &o,
        vec![Job::new(&milc, np(1), "L1"), Job::new(&milc, np(1), "L2")],
        |results| {
            assert_eq!(results.len(), 2);
            assert_eq!(results[0].config, "L1");
            assert_eq!(results[1].config, "L2");
            assert_eq!(results[0].cycles, results[1].cycles);
            Ok(FigureOutput::text_only("ok".to_string()))
        },
    );
    let mut pipe = Pipeline::new();
    pipe.submit(plan);
    let run = pipe.run(&|| 0.0).unwrap();
    assert_eq!(run.figures[0].output.text, "ok");
    if cache::enabled() {
        assert_eq!(run.stats.unique_jobs, 1);
        assert_eq!(run.stats.inflight_joins, 1);
    }
}

#[test]
fn threaded_run_returns_figures_in_submission_order() {
    let _serial = counters();
    let o = opts(9);
    let names = ["delta", "alpha", "echo", "bravo", "charlie"];
    let mut pipe = Pipeline::new().with_threads(4);
    for (i, name) in names.iter().enumerate() {
        // Distinct benchmarks so each figure has real, non-deduped work.
        let profile = suites::all_profiles().into_iter().nth(i).unwrap();
        pipe.submit(echo_plan(name, &o, vec![Job::new(&profile, np(1), "NP")]));
    }
    let run = pipe.run(&|| 0.0).unwrap();
    let got: Vec<&str> = run.figures.iter().map(|f| f.name.as_str()).collect();
    assert_eq!(got, names, "output order is submission order, not completion order");
}

#[test]
fn batch_progress_fires_once_per_submitted_job() {
    let _serial = counters();
    let o = opts(10);
    let milc = suites::by_name("milc").unwrap();
    let lbm = suites::by_name("lbm").unwrap();
    // `a` and `c` are the same point: with the cache on they share one
    // node, yet each still owes the observer its own tick.
    let jobs = || {
        vec![Job::new(&milc, np(1), "a"), Job::new(&lbm, np(1), "b"), Job::new(&milc, np(1), "c")]
    };
    for threads in [1, 2] {
        let calls = Mutex::new(Vec::new());
        let (_, misses_before) = cache::stats();
        let results = run_batch(&o, jobs(), threads, &|done, total| {
            calls.lock().unwrap().push((done, total));
        })
        .unwrap();
        let (_, misses_after) = cache::stats();
        if threads == 1 && cache::enabled() {
            assert_eq!(misses_after - misses_before, 2, "the duplicate joined at submission");
        }
        let labels: Vec<&str> = results.iter().map(|r| r.config.as_str()).collect();
        assert_eq!(labels, ["a", "b", "c"]);
        assert_eq!(results[0].cycles, results[2].cycles);

        let calls = calls.into_inner().unwrap();
        assert_eq!(calls.len(), 3, "{threads} threads: one tick per submitted job");
        assert!(calls.iter().all(|&(_, total)| total == 3), "{threads} threads: {calls:?}");
        let mut done: Vec<usize> = calls.iter().map(|&(d, _)| d).collect();
        done.sort_unstable();
        assert_eq!(done, [1, 2, 3], "{threads} threads: done counts up to total");
        if threads == 1 {
            assert_eq!(calls.last(), Some(&(3, 3)), "ends at (total, total)");
        }
    }
}
