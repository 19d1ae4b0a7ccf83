//! The serve probe: the `asd-serve` layer's measurement, taken in the
//! catalog workload's traced run.
//!
//! An `asd-serve` daemon (the library's `Server`, in a child process)
//! with 2 executors is loaded in a closed loop by 2 client connections
//! from this process: each client submits a request and waits for its
//! result before sending the next. Requests come from a seeded mix: 50%
//! repeat a hot set of four sweeps (memory-tier hits once set-up warmed
//! them), 35% are unique small sweeps (misses that simulate and write the
//! disk tier), 10% are new sweeps both clients send at the same slot
//! (single-flight joins when they collide) and 5% are a small figure job.
//! Every response must be byte-identical to the reference computed in
//! this process: `asd_serve::client::reference_doc` for sweeps, the
//! figure's own plan for the figure job.
//!
//! This traffic is not a timed workload: on a 2-vCPU host its request
//! rate and latency swung by 25% to 40% between identical runs (each
//! request is a chain of cross-process wake-ups, each miss an `fsync`),
//! wider than any bound the benchmark may set. Traced, nothing is gated.

use crate::host::{median, secs, tail, Rng};
use crate::spans::Event;
use crate::Outcome;
use asd_bench::json::Value;
use asd_serve::client::{reference_doc, Client, LISTEN_BANNER};
use asd_serve::{JobSpec, ServeError, Server, ServerConfig};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Accesses per simulated run of every request.
const ACCESSES: u64 = 2_000;
/// Client connections.
const CLIENTS: usize = 2;
/// Daemon executor threads.
const EXECUTORS: usize = 2;
/// Requests per client.
const REQUESTS: usize = 1_000;
/// Percent of requests from the hot set.
const HOT_SHARE: u64 = 50;
/// The figure job of the mix.
const FIGURE: &str = "fig14";
/// The hot set: `(benchmark, config)` sweeps repeated all run long.
const HOT: [(&str, &str); 4] = [("milc", "NP"), ("lbm", "PMS"), ("tpcc", "MS"), ("GemsFDTD", "PS")];
const CONFIGS: [&str; 4] = ["NP", "PS", "MS", "PMS"];
/// First Perfetto track of the clients.
const TRACK: u64 = 10;

/// The daemon subcommand: `asd-serve serve` through the library.
pub fn daemon_main(args: &[String]) -> Result<(), String> {
    let executors = crate::flag(args, "--executors")
        .and_then(|v| v.parse().ok())
        .ok_or("serve needs --executors N")?;
    let root = PathBuf::from(crate::flag(args, "--dir").ok_or("serve needs --dir PATH")?);
    let cfg = ServerConfig { executors, root, ..ServerConfig::default() };
    let server = Server::bind(cfg).map_err(|e| e.to_string())?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    println!("{LISTEN_BANNER}{addr}");
    let _ = std::io::stdout().flush();
    server.run().map_err(|e| e.to_string())
}

/// A daemon child process, shut down (or killed) on every path.
struct Daemon {
    child: Option<Child>,
    _stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Daemon {
    fn start(root: &Path) -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut cmd = Command::new(exe);
        cmd.arg("serve").arg("--executors").arg(EXECUTORS.to_string()).arg("--dir").arg(root);
        for var in ["ASD_RUN_CACHE", "ASD_DISK_CACHE", "ASD_PIPELINE", "ASD_SWEEP_THREADS"] {
            cmd.env_remove(var);
        }
        let mut child = cmd.stdout(Stdio::piped()).spawn().map_err(|e| e.to_string())?;
        let Some(stdout) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("daemon has no stdout".to_string());
        };
        let mut reader = BufReader::new(stdout);
        let mut line = String::new();
        let _ = reader.read_line(&mut line);
        let mut d = Daemon { child: Some(child), _stdout: reader, addr: String::new() };
        match line.trim().strip_prefix(LISTEN_BANNER) {
            Some(addr) => d.addr = addr.to_string(),
            None => return Err(format!("daemon did not start: {line:?}")),
        }
        Ok(d)
    }

    /// Graceful drain, then wait for the process to exit.
    fn stop(mut self) -> Result<(), String> {
        let mut c = Client::connect(&self.addr).map_err(|e| e.to_string())?;
        c.shutdown().map_err(|e| e.to_string())?;
        drop(c);
        if let Some(mut child) = self.child.take() {
            let status = child.wait().map_err(|e| e.to_string())?;
            if !status.success() {
                return Err(format!("daemon exited with {status}"));
            }
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

fn sweep(bench: &str, config: &str, seed: u64) -> JobSpec {
    JobSpec::Sweep {
        benchmarks: vec![bench.to_string()],
        configs: vec![config.to_string()],
        accesses: ACCESSES,
        seed,
        smt: false,
    }
}

fn figure(seed: u64) -> JobSpec {
    JobSpec::Figure { figure: FIGURE.to_string(), accesses: ACCESSES, seed }
}

/// Seeds travel as JSON numbers (`f64`): keep them exact.
fn wire_seed(s: u64) -> u64 {
    s & ((1 << 52) - 1)
}

/// The hot set plus the figure job: what set-up warms.
fn warm_specs(seed: u64) -> Vec<JobSpec> {
    let mut v: Vec<JobSpec> = HOT.iter().map(|(b, c)| sweep(b, c, wire_seed(seed))).collect();
    v.push(figure(wire_seed(seed)));
    v
}

/// Client `client`'s requests. Slot kinds come from a stream shared by
/// both clients, so a shared new sweep sits at the same slot on both
/// connections.
fn client_specs(seed: u64, client: usize, profiles: &[String]) -> Vec<JobSpec> {
    let mut kinds = Rng::new(seed, 1);
    let mut own = Rng::new(seed, (client as u64 + 1) << 1);
    (0..REQUESTS)
        .map(|_| {
            let k = kinds.below(100);
            if k < HOT_SHARE {
                let (b, c) = HOT[own.below(HOT.len() as u64) as usize];
                sweep(b, c, wire_seed(seed))
            } else if k < 95 {
                // A new sweep: this client's own, or (85..95) the slot's
                // shared one. Bit 51 keeps its seed apart from the hot set.
                let s = if k >= 85 { kinds.next_u64() } else { own.next_u64() };
                let mut pick = Rng::new(s, 7);
                let b = &profiles[pick.below(profiles.len() as u64) as usize];
                let c = CONFIGS[pick.below(CONFIGS.len() as u64) as usize];
                sweep(b, c, wire_seed(s) | 1 << 51)
            } else {
                figure(wire_seed(seed))
            }
        })
        .collect()
}

/// One completed (or failed) request.
struct Done {
    spec: JobSpec,
    latency_ms: f64,
    submit_ms: f64,
    wait_ms: f64,
    busy: u64,
    response: Result<String, String>,
}

/// Submit then wait, retrying typed `busy` refusals.
fn request(client: &mut Client, spec: &JobSpec) -> (f64, f64, u64, Result<String, String>) {
    let t0 = Instant::now();
    let mut busy = 0;
    let id = loop {
        match client.submit(spec) {
            Ok(id) => break Ok(id),
            Err(ServeError::Busy { .. }) => {
                busy += 1;
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) => break Err(e.to_string()),
        }
    };
    let submit_ms = secs(t0) * 1e3;
    let t1 = Instant::now();
    let result = id.and_then(|id| {
        client
            .wait(id)
            .map_err(|e| e.to_string())
            .map(|v| v.get("result").map(Value::render).unwrap_or_default())
    });
    (submit_ms, secs(t1) * 1e3, busy, result)
}

fn daemon_stat(addr: &str, key: &str) -> Result<f64, String> {
    let v = Client::connect(addr).and_then(|mut c| c.server_stats()).map_err(|e| e.to_string())?;
    Ok(v.get(key).and_then(Value::as_f64).unwrap_or(0.0))
}

/// Run the probe: start and warm a daemon under `root`, send every
/// client's requests, stop the daemon, check every response, and record
/// the `serve.*` and disk-tier metrics. Returns the request spans.
pub fn probe(
    seed: u64,
    root: &Path,
    origin: Instant,
    out: &mut Outcome,
) -> Result<Vec<Event>, String> {
    // References are computed in this process without a run cache: each
    // is a fresh simulation. The daemon keeps its own cache.
    std::env::set_var("ASD_RUN_CACHE", "0");
    asd_sim::cache::set_disk_dir(None);
    let profiles: Vec<String> =
        asd_trace::suites::all_profiles().into_iter().map(|p| p.name).collect();

    let daemon = Daemon::start(root)?;
    let mut warm = Client::connect(&daemon.addr).map_err(|e| e.to_string())?;
    for spec in warm_specs(seed) {
        request(&mut warm, &spec).3?;
    }
    drop(warm);
    let before: Vec<f64> = ["cache_disk_hits", "cache_disk_writes", "cache_flight_joins"]
        .iter()
        .map(|k| daemon_stat(&daemon.addr, k))
        .collect::<Result<_, _>>()?;

    let events = Mutex::new(Vec::new());
    let t0 = Instant::now();
    let log: Vec<Done> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|lane| {
                let (addr, events, specs) =
                    (&daemon.addr, &events, client_specs(seed, lane, &profiles));
                scope.spawn(move || -> Result<Vec<Done>, String> {
                    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
                    let mut done = Vec::with_capacity(specs.len());
                    for spec in specs {
                        let start = origin.elapsed().as_secs_f64();
                        let t = Instant::now();
                        let (submit_ms, wait_ms, busy, response) = request(&mut client, &spec);
                        let latency_ms = secs(t) * 1e3;
                        let mut ev = events.lock().expect("event log lock");
                        for (name, at, dur) in [
                            ("submit", start, submit_ms),
                            ("wait", start + submit_ms / 1e3, wait_ms),
                        ] {
                            ev.push(Event {
                                name: name.to_string(),
                                ph: "X",
                                ts_us: at * 1e6,
                                dur_us: dur * 1e3,
                                tid: TRACK + lane as u64,
                                args: None,
                            });
                        }
                        done.push(Done { spec, latency_ms, submit_ms, wait_ms, busy, response });
                    }
                    Ok(done)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect::<Result<Vec<_>, _>>()
            .map(|v| v.into_iter().flatten().collect())
    })?;
    let wall = secs(t0);
    let after: Vec<f64> = ["cache_disk_hits", "cache_disk_writes", "cache_flight_joins"]
        .iter()
        .map(|k| daemon_stat(&daemon.addr, k))
        .collect::<Result<_, _>>()?;
    daemon.stop()?;

    let t_verify = Instant::now();
    let references = verify(out, &log);

    let col = |f: &dyn Fn(&Done) -> f64| -> Vec<f64> { log.iter().map(f).collect() };
    let lat = col(&|d| d.latency_ms);
    let (q, p) = tail(&lat);
    out.note(format!(
        "serve probe: {} requests from {CLIENTS} closed-loop clients, {EXECUTORS} executors, in {wall:.1} s; \
         latency p50 {:.3} ms, p{q:.1} {p:.3} ms; {} flight joins; {references} references checked in {:.1} s",
        log.len(),
        median(&lat),
        after[2] - before[2],
        secs(t_verify)
    ));
    out.metric("serve.submit_ms", median(&col(&|d| d.submit_ms)));
    out.metric("serve.wait_ms", median(&col(&|d| d.wait_ms)));
    out.metric("serve.busy_retries", col(&|d| d.busy as f64).iter().sum());
    out.metric(
        "serve.response_bytes",
        median(&col(&|d| d.response.as_ref().map_or(0.0, |r| r.len() as f64))),
    );
    out.metric("runcache.disk_hits", after[0] - before[0]);
    out.metric("runcache.disk_writes", after[1] - before[1]);
    Ok(events.into_inner().expect("event log lock"))
}

/// The reference document for a spec, computed in this process.
fn reference(spec: &JobSpec) -> Result<String, String> {
    match spec {
        JobSpec::Figure { figure, .. } => {
            let plan = asd_sim::figures::plan(figure, &spec.opts()).map_err(|e| e.to_string())?;
            let output = plan.run().map_err(|e| e.to_string())?;
            let mut doc = Value::obj();
            doc.set("kind", "figure").set("figure", figure.as_str()).set("text", output.text);
            Ok(doc.render())
        }
        _ => reference_doc(spec).map_err(|e| e.to_string()),
    }
}

/// Check every logged response, computing each distinct spec's
/// reference once (two threads); returns the number of references.
fn verify(out: &mut Outcome, log: &[Done]) -> usize {
    let mut wanted: BTreeMap<String, &JobSpec> = BTreeMap::new();
    for d in log {
        wanted.entry(d.spec.to_value().render()).or_insert(&d.spec);
    }
    let wanted: Vec<(&String, &&JobSpec)> = wanted.iter().collect();
    let next = Mutex::new(0usize);
    let refs: Mutex<BTreeMap<String, Result<String, String>>> = Mutex::new(BTreeMap::new());
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| loop {
                let i = {
                    let mut n = next.lock().expect("work index lock");
                    *n += 1;
                    *n - 1
                };
                let Some((key, spec)) = wanted.get(i) else { break };
                let r = reference(spec);
                refs.lock().expect("reference lock").insert((*key).clone(), r);
            });
        }
    });
    let refs = refs.into_inner().expect("reference lock");
    for d in log {
        out.attempted += 1;
        let key = d.spec.to_value().render();
        let failure = match (&d.response, refs.get(&key)) {
            (Err(e), _) => Some(format!("request failed: {e}")),
            (_, Some(Err(e))) => Some(format!("reference for {key} failed: {e}")),
            (Ok(got), Some(Ok(want))) if got == want => None,
            (Ok(_), _) => Some(format!("response differs from reference: {key}")),
        };
        match failure {
            Some(why) => out.fail(why),
            None if d.busy > 0 => out.fail(format!("{} busy refusals: {key}", d.busy)),
            None => {}
        }
    }
    refs.len()
}
