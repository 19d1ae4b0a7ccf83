//! The parallel batch path and the pluggable-engine seam, end to end:
//! a parallel [`run_batch`] must be bit-identical to a plain loop of
//! [`run_custom`] calls, and a third-party prefetch engine must run
//! through the full system without any change to `asd-mc` or `asd-sim`.

use asd_mc::{custom_engine, EngineFactory, McConfig, PrefetchEngine};
use asd_sim::experiment::run_custom;
use asd_sim::pipeline::{run_batch, Job};
use asd_sim::{PrefetchKind, RunOpts, RunResult, SystemConfig};
use asd_trace::suites;
use std::sync::Arc;

/// The serial reference: each job through `run_custom`, in job order.
fn run_loop(opts: &RunOpts, jobs: &[Job]) -> Vec<RunResult> {
    jobs.iter().map(|j| run_custom(&j.profile, j.cfg.clone(), &j.label, opts).unwrap()).collect()
}

#[test]
fn parallel_sweep_bit_identical_to_serial() {
    // Mixed benchmarks and configurations; every counter of every run
    // must match the serial execution exactly, in job order.
    let opts = RunOpts::default().with_accesses(4_000);
    let mut jobs = Vec::new();
    for bench in ["milc", "lbm", "tpcc"] {
        let profile = suites::by_name(bench).unwrap();
        for kind in PrefetchKind::ALL {
            jobs.push(Job::new(&profile, SystemConfig::for_kind(kind, 1), kind.name()));
        }
    }
    let ser = run_loop(&opts, &jobs);
    let par = run_batch(&opts, jobs, 4, &|_, _| {}).unwrap();
    assert_eq!(par.len(), 12);
    assert_eq!(par.len(), ser.len());
    for (p, s) in par.iter().zip(&ser) {
        let tag = format!("{}/{}", p.benchmark, p.config);
        assert_eq!(p.benchmark, s.benchmark, "{tag}");
        assert_eq!(p.config, s.config, "{tag}");
        assert_eq!(p.cycles, s.cycles, "{tag}");
        assert_eq!(p.core, s.core, "{tag}");
        assert_eq!(p.mc, s.mc, "{tag}");
        assert_eq!(p.dram, s.dram, "{tag}");
        assert_eq!(p.mc.prefetches_issued, s.mc.prefetches_issued, "{tag}");
    }
}

#[test]
fn sweep_is_repeatable() {
    // Two parallel executions of the same batch agree run for run.
    let opts = RunOpts::default().with_accesses(3_000);
    let profile = suites::by_name("tonto").unwrap();
    let jobs = || {
        PrefetchKind::ALL
            .iter()
            .map(|kind| Job::new(&profile, SystemConfig::for_kind(*kind, 1), kind.name()))
            .collect::<Vec<_>>()
    };
    let a = run_batch(&opts, jobs(), 2, &|_, _| {}).unwrap();
    let b = run_batch(&opts, jobs(), 2, &|_, _| {}).unwrap();
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.cycles, y.cycles, "{}", x.config);
        assert_eq!(x.mc, y.mc, "{}", x.config);
    }
}

/// A deliberately simple third-party engine: prefetch the next `n` lines
/// after every DRAM read. Defined entirely in this test crate — no
/// `asd-mc` or `asd-sim` code knows about it.
#[derive(Debug)]
struct NextN(usize);

impl PrefetchEngine for NextN {
    fn name(&self) -> &str {
        "next-n"
    }

    fn on_read(&mut self, line: u64, _thread: u8, _now: u64, out: &mut Vec<u64>) {
        for d in 1..=self.0 as u64 {
            out.push(line + d);
        }
    }
}

#[derive(Debug)]
struct NextNFactory(usize);

impl EngineFactory for NextNFactory {
    fn build(&self, _threads: usize) -> Box<dyn PrefetchEngine> {
        Box::new(NextN(self.0))
    }

    fn label(&self) -> &str {
        "next-n"
    }
}

#[test]
fn custom_engine_runs_through_full_system() {
    // The registry seam: plugging in an external engine is a config-level
    // operation, and the engine demonstrably drives the machine (it
    // issues prefetches, some of which are useful on a streaming
    // workload).
    let opts = RunOpts::default().with_accesses(8_000);
    let profile = suites::by_name("lbm").unwrap();
    let kind = custom_engine(Arc::new(NextNFactory(1)));
    let cfg = SystemConfig::for_kind(PrefetchKind::Np, 1)
        .with_mc(McConfig { engine: kind, ..McConfig::default() });
    let custom = run_custom(&profile, cfg, "next-n", &opts).unwrap();
    let baseline =
        run_custom(&profile, SystemConfig::for_kind(PrefetchKind::Np, 1), "NP", &opts).unwrap();
    assert!(custom.mc.prefetches_issued > 0, "custom engine must issue prefetches");
    assert!(custom.mc.useful_prefetch_fraction() > 0.0, "some prefetches must be useful on lbm");
    assert_eq!(baseline.mc.prefetches_issued, 0);
    assert!(
        custom.cycles < baseline.cycles,
        "next-line prefetching must help lbm: {} vs {}",
        custom.cycles,
        baseline.cycles
    );
}

#[test]
fn custom_engine_works_inside_parallel_sweep() {
    // One factory shared by several batch jobs: each system builds its
    // own engine instance, and parallel equals serial as usual.
    let opts = RunOpts::default().with_accesses(3_000);
    let factory: Arc<dyn EngineFactory> = Arc::new(NextNFactory(2));
    let mut jobs = Vec::new();
    for bench in ["milc", "lbm"] {
        let profile = suites::by_name(bench).unwrap();
        let cfg = SystemConfig::for_kind(PrefetchKind::Np, 1).with_mc(McConfig {
            engine: custom_engine(Arc::clone(&factory)),
            ..McConfig::default()
        });
        jobs.push(Job::new(&profile, cfg, "next-2"));
    }
    let ser = run_loop(&opts, &jobs);
    let par = run_batch(&opts, jobs, 2, &|_, _| {}).unwrap();
    assert_eq!(par.len(), 2);
    for (p, s) in par.iter().zip(&ser) {
        assert_eq!(p.cycles, s.cycles, "{}", p.benchmark);
        assert_eq!(p.mc, s.mc, "{}", p.benchmark);
        assert!(p.mc.prefetches_issued > 0, "{}", p.benchmark);
    }
}
