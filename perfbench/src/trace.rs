//! Outside-in spans: the benchmark times each public call it makes into
//! a layer, keeps the spans in memory, and writes them out when the run
//! ends. Untraced runs carry a disabled tracer whose `time` is a single
//! branch around the call.

use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// One timed call: which call, on whose behalf, and when.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// The call, named `<layer>.<function>`.
    pub name: &'static str,
    /// Submission (job) id the call served; 0 when it served many.
    pub sub: u64,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

/// Span recorder. Shared by reference (or `Arc`) across a run; a
/// mutex keeps it sound if a layer ever calls back from a pool thread.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder that keeps spans when `on`, and only runs the calls
    /// otherwise.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Run `f`, recording a span named `name` for submission `sub`.
    #[inline]
    pub fn time<R>(&self, name: &'static str, sub: u64, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record(name, sub, start, Instant::now());
        out
    }

    /// Record a span measured by the caller.
    pub fn record(&self, name: &'static str, sub: u64, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let span = Span {
            name,
            sub,
            start_ns: start.duration_since(self.origin).as_nanos() as u64,
            end_ns: end.duration_since(self.origin).as_nanos() as u64,
        };
        self.spans
            .lock()
            .expect("tracer spans lock poisoned")
            .push(span);
    }

    /// Durations (µs) of every span named `name`, in recording order.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("tracer spans lock poisoned")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Write the spans as CSV (`name,sub,start_ns,end_ns`).
    pub fn write_csv(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "name,sub,start_ns,end_ns")?;
        for s in self
            .spans
            .lock()
            .expect("tracer spans lock poisoned")
            .iter()
        {
            writeln!(out, "{},{},{},{}", s.name, s.sub, s.start_ns, s.end_ns)?;
        }
        Ok(())
    }
}
