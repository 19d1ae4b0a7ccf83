//! Determinism regression tests (lint catalog companion, see DESIGN.md):
//! the same seeded configuration must produce bit-identical results run
//! after run, serially and under any worker-thread count. Every figure in
//! the paper rests on this property; lints D001–D004 guard it statically,
//! these tests guard it dynamically.

use asd_sim::experiment::run_custom;
use asd_sim::pipeline::{run_batch, Job};
use asd_sim::RunResult;
use asd_sim::{PrefetchKind, RunOpts, SystemConfig};
use asd_trace::suites;

fn seeded_jobs() -> Vec<Job> {
    let mut jobs = Vec::new();
    for bench in ["milc", "GemsFDTD", "tpcc"] {
        let profile = suites::by_name(bench).unwrap();
        for kind in [PrefetchKind::Np, PrefetchKind::Pms] {
            jobs.push(Job::new(&profile, SystemConfig::for_kind(kind, 1), kind.name()));
        }
    }
    jobs
}

/// The serial reference: each job through `run_custom`, in job order.
fn run_serial(opts: &RunOpts) -> Vec<RunResult> {
    seeded_jobs()
        .iter()
        .map(|j| run_custom(&j.profile, j.cfg.clone(), &j.label, opts).unwrap())
        .collect()
}

/// Every counter the simulator exposes, compared exactly — no tolerance.
fn assert_bit_identical(a: &[RunResult], b: &[RunResult], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: run counts differ");
    for (x, y) in a.iter().zip(b) {
        let tag = format!("{what}: {}/{}", x.benchmark, x.config);
        assert_eq!(x.benchmark, y.benchmark, "{tag}");
        assert_eq!(x.config, y.config, "{tag}");
        assert_eq!(x.cycles, y.cycles, "{tag}");
        assert_eq!(x.core, y.core, "{tag}");
        assert_eq!(x.mc, y.mc, "{tag}");
        assert_eq!(x.dram, y.dram, "{tag}");
        assert_eq!(x.power, y.power, "{tag}");
        assert_eq!(x.asd, y.asd, "{tag}");
    }
}

#[test]
fn same_seed_twice_is_bit_identical_serially() {
    let opts = RunOpts::default().with_accesses(4_000);
    let first = run_serial(&opts);
    let second = run_serial(&opts);
    assert_bit_identical(&first, &second, "serial repeat");
}

#[test]
fn four_worker_sweep_is_bit_identical_to_serial() {
    let opts = RunOpts::default().with_accesses(4_000);
    let serial = run_serial(&opts);
    let parallel = run_batch(&opts, seeded_jobs(), 4, &|_, _| {}).unwrap();
    assert_bit_identical(&serial, &parallel, "4 workers vs serial");
}

#[test]
fn different_seeds_actually_diverge() {
    // A determinism test that would also pass on a simulator ignoring its
    // seed proves nothing; pin that the seed is live.
    let base = RunOpts::default().with_accesses(4_000);
    let reseeded = RunOpts { seed: base.seed ^ 0xdead_beef, ..base.clone() };
    let a = run_serial(&base);
    let b = run_serial(&reseeded);
    assert!(
        a.iter().zip(&b).any(|(x, y)| x.cycles != y.cycles),
        "changing the seed changed nothing — the seed is not reaching the trace generators"
    );
}
