//! Span recording for the traced runs.
//!
//! Spans are recorded from the benchmark's own code around each call
//! into a layer, kept in memory, and written out when the run ends. A
//! layer's self time is its spans' duration minus the part their child
//! spans cover. The recorder is thread-local so the timing wrappers that
//! sit inside the simulator's generic types (the engine and trace-stream
//! wrappers) can reach it without a reference; with no recorder armed
//! every call is a cheap no-op.

use asd_bench::json::Value;
use std::cell::RefCell;
use std::time::Instant;

/// The simulation layers the kernel ledger splits host time across.
pub const LAYERS: [&str; 6] = ["trace", "traceio", "cpu", "mc", "engine", "sim"];
/// Access generation (`asd-trace`).
pub const TRACE: usize = 0;
/// ASDT decode (`asd-traceio`).
pub const TRACEIO: usize = 1;
/// The core and its L1/L2/L3 hierarchy (`asd-cpu`, `asd-cache`).
pub const CPU: usize = 2;
/// The memory controller and DRAM (`asd-mc`, `asd-dram`).
pub const MC: usize = 3;
/// The memory-side prefetch engine (`asd-mc` engines, `asd-core` ASD).
pub const ENGINE: usize = 4;
/// The event loop itself: completion delivery and next-event selection.
pub const SIM: usize = 5;

/// Detailed spans kept for the Perfetto export; later spans still count
/// toward the self-time totals.
const EVENT_CAP: usize = 20_000;

/// One exported trace event (Chrome `trace_event` format).
pub struct Event {
    /// Slice or mark name.
    pub name: String,
    /// Phase: `X` complete slice, `i` instant mark.
    pub ph: &'static str,
    /// Start, microseconds from the recorder origin.
    pub ts_us: f64,
    /// Duration in microseconds (`X` only).
    pub dur_us: f64,
    /// Track (thread id in the viewer).
    pub tid: u64,
    /// Extra key/value payload.
    pub args: Option<Value>,
}

struct Frame {
    layer: usize,
    start_ns: u64,
    child_ns: u64,
}

/// In-memory span recorder.
pub struct Recorder {
    origin: Instant,
    stack: Vec<Frame>,
    /// Self time per layer, nanoseconds.
    pub self_ns: [u64; LAYERS.len()],
    /// Spans closed per layer.
    pub spans: [u64; LAYERS.len()],
    /// Child spans closed inside a span of each layer.
    pub child_spans: [u64; LAYERS.len()],
    /// Detailed events for the export.
    pub events: Vec<Event>,
    event_cap: usize,
}

impl Recorder {
    fn new(origin: Instant, event_cap: usize) -> Self {
        Recorder {
            origin,
            stack: Vec::with_capacity(16),
            self_ns: [0; LAYERS.len()],
            spans: [0; LAYERS.len()],
            child_spans: [0; LAYERS.len()],
            events: Vec::new(),
            event_cap,
        }
    }

    /// Self time of `layer` with the recorder's own cost taken out:
    /// `per_span` ns for each of its spans and `per_child` ns for each
    /// child span opened inside it (see [`calibrate`]).
    pub fn corrected_self_ns(&self, layer: usize, per_span: f64, per_child: f64) -> f64 {
        let overhead =
            self.spans[layer] as f64 * per_span + self.child_spans[layer] as f64 * per_child;
        (self.self_ns[layer] as f64 - overhead).max(0.0)
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

thread_local! {
    static REC: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Arm a recorder on this thread, timestamps relative to `origin`.
pub fn arm(origin: Instant) {
    REC.with(|r| *r.borrow_mut() = Some(Recorder::new(origin, EVENT_CAP)));
}

/// Disarm this thread's recorder and hand back what it recorded.
pub fn disarm() -> Option<Recorder> {
    REC.with(|r| r.borrow_mut().take())
}

/// Open a span of `layer`.
#[inline]
pub fn enter(layer: usize) {
    REC.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            let start_ns = rec.now_ns();
            rec.stack.push(Frame { layer, start_ns, child_ns: 0 });
        }
    });
}

/// Close the innermost open span; returns its duration in nanoseconds
/// (0 when no recorder is armed).
#[inline]
pub fn exit() -> u64 {
    REC.with(|r| {
        let mut guard = r.borrow_mut();
        let Some(rec) = guard.as_mut() else { return 0 };
        let end = rec.now_ns();
        let Some(f) = rec.stack.pop() else { return 0 };
        let dur = end.saturating_sub(f.start_ns);
        rec.self_ns[f.layer] += dur.saturating_sub(f.child_ns);
        rec.spans[f.layer] += 1;
        if let Some(parent) = rec.stack.last_mut() {
            parent.child_ns += dur;
            rec.child_spans[parent.layer] += 1;
        }
        if rec.events.len() < rec.event_cap {
            rec.events.push(Event {
                name: LAYERS[f.layer].to_string(),
                ph: "X",
                ts_us: f.start_ns as f64 / 1e3,
                dur_us: dur as f64 / 1e3,
                tid: 1,
                args: None,
            });
        }
        dur
    })
}

/// The recorder's own cost, measured on empty spans: `(per_span,
/// per_child)`, the nanoseconds an empty span adds to its own layer's
/// self time and to its parent's.
pub fn calibrate() -> (f64, f64) {
    const N: u32 = 200_000;
    REC.with(|r| *r.borrow_mut() = Some(Recorder::new(Instant::now(), 0)));
    enter(SIM);
    for _ in 0..N {
        enter(CPU);
        exit();
    }
    exit();
    let rec = disarm().expect("calibration recorder armed");
    (rec.self_ns[CPU] as f64 / f64::from(N), rec.self_ns[SIM] as f64 / f64::from(N))
}

/// Render events as a Perfetto-loadable `trace_event` JSON document,
/// naming each track.
pub fn perfetto(events: &[Event], tracks: &[(u64, &str)]) -> String {
    let mut out = Vec::with_capacity(events.len() + tracks.len());
    for (tid, name) in tracks {
        let mut args = Value::obj();
        args.set("name", *name);
        let mut m = Value::obj();
        m.set("name", "thread_name").set("ph", "M").set("pid", 1u64).set("tid", *tid);
        m.set("args", args);
        out.push(m);
    }
    for e in events {
        let mut v = Value::obj();
        v.set("name", e.name.as_str()).set("ph", e.ph).set("ts", e.ts_us);
        if e.ph == "X" {
            v.set("dur", e.dur_us);
        } else {
            v.set("s", "t");
        }
        v.set("pid", 1u64).set("tid", e.tid);
        if let Some(a) = &e.args {
            v.set("args", a.clone());
        }
        out.push(v);
    }
    let mut doc = Value::obj();
    doc.set("traceEvents", Value::Arr(out)).set("displayTimeUnit", "ms");
    doc.render()
}

/// Validate a rendered trace with the same checker `telemetry-check
/// trace` runs; returns the event count.
pub fn validate(json: &str) -> Result<usize, String> {
    asd_telemetry::expo::chrome::validate(json)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        arm(Instant::now());
        enter(SIM);
        enter(CPU);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let child = exit();
        let total = exit();
        let rec = disarm().expect("armed");
        assert!(total >= child);
        assert_eq!(rec.self_ns[CPU], child);
        assert_eq!(rec.self_ns[SIM], total - child);
        let json = perfetto(&rec.events, &[(1, "kernel")]);
        assert_eq!(validate(&json), Ok(3));
    }

    #[test]
    fn unarmed_is_noop() {
        enter(CPU);
        assert_eq!(exit(), 0);
        assert!(disarm().is_none());
    }
}
