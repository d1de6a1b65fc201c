//! End-to-end telemetry for the c4cam pipeline: span tracing, counters,
//! per-phase metrics, and Chrome-trace export.
//!
//! The crate is deliberately std-only and sits at the bottom of the
//! dependency graph so every layer (camsim, engine, hal, driver, CLI)
//! can record into the same stream. The central handle is [`Telemetry`]:
//! a cheaply clonable wrapper around an optional [`Recorder`]. When no
//! recorder is attached (`Telemetry::default()`), every call is a
//! branch on a `None` — instrumented hot loops stay on their uninstrumented
//! fast path by checking [`Telemetry::enabled`] first.
//!
//! Time comes from an injectable [`clock::Clock`] so tests can pin a
//! [`clock::ManualClock`] and produce byte-exact golden traces.

pub mod clock;
pub mod export;
pub mod json;
pub mod log;
pub mod metrics;

use std::fmt;
use std::sync::{Arc, Mutex};

use clock::{Clock, WallClock};

/// The four top-level pipeline phases every driver run passes through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Frontend: workload → module construction and input materialisation.
    Parse,
    /// Mapping the kernel geometry onto the CAM architecture tree.
    Place,
    /// Pipeline lowering plus backend plan compilation.
    Compile,
    /// Plan execution on the selected backend.
    Execute,
}

impl Phase {
    /// All phases in pipeline order.
    pub const ALL: [Phase; 4] = [Phase::Parse, Phase::Place, Phase::Compile, Phase::Execute];

    /// Stable span name used in exported traces.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Parse => "Parse",
            Phase::Place => "Place",
            Phase::Compile => "Compile",
            Phase::Execute => "Execute",
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Span categories used by the built-in instrumentation. Free-form
/// strings are allowed; these constants keep exporters and the metrics
/// aggregator in agreement.
pub mod cat {
    /// Top-level pipeline phase spans (`Parse`/`Place`/`Compile`/`Execute`).
    pub const PHASE: &str = "phase";
    /// Stages nested inside a phase (`cam-map` and the backend's plan
    /// compile inside `Compile`): kept apart from [`PHASE`] so the
    /// phase breakdown never counts a nanosecond twice.
    pub const STAGE: &str = "stage";
    /// Backend-level plan execution spans.
    pub const BACKEND: &str = "backend";
    /// Per-op spans from the tape VM device-op loop.
    pub const OP: &str = "op";
    /// Per-shard worker spans from batched (query-loop) sharding.
    pub const SHARD: &str = "shard";
    /// Per-grid-point spans from sweeps and accuracy scans.
    pub const GRID: &str = "grid";
    /// Per-request spans from the resident service (`c4cam serve`).
    pub const REQUEST: &str = "request";
    /// Per-coalesced-batch spans from the service's admission
    /// controller.
    pub const BATCH: &str = "batch";
}

/// A typed span/counter argument value.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// Integer payload (op counts, pc, shard sizes).
    Int(i64),
    /// Float payload (energies, latencies).
    Num(f64),
    /// String payload (backend names, datasets).
    Str(String),
}

/// A completed span: a named interval on a logical thread lane.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span name (phase name, op kind, shard label, ...).
    pub name: String,
    /// Category — see [`cat`].
    pub cat: &'static str,
    /// Logical lane: 0 = driver/main, `1 + shard` for shard workers.
    pub tid: u32,
    /// Start timestamp, nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
    /// Typed key/value payload attached to the span.
    pub args: Vec<(&'static str, ArgValue)>,
}

/// One recorded telemetry event.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A completed interval.
    Span(Span),
    /// A sampled counter value on the main lane.
    Counter {
        /// Counter name.
        name: &'static str,
        /// Sample timestamp, nanoseconds.
        t_ns: u64,
        /// Sampled value.
        value: f64,
    },
    /// A point-in-time marker.
    Instant {
        /// Marker name.
        name: String,
        /// Category — see [`cat`].
        cat: &'static str,
        /// Logical lane.
        tid: u32,
        /// Timestamp, nanoseconds.
        t_ns: u64,
    },
}

impl Event {
    /// The span payload if this event is a span.
    pub fn as_span(&self) -> Option<&Span> {
        match self {
            Event::Span(s) => Some(s),
            _ => None,
        }
    }
}

/// Sink for telemetry events. Implementations must be thread-safe:
/// shard workers record concurrently.
pub trait Recorder: Send + Sync {
    /// Whether events are being collected. Hot paths check this before
    /// doing any work to build an event.
    fn enabled(&self) -> bool;
    /// Current timestamp in nanoseconds since the recorder's origin.
    fn now_ns(&self) -> u64;
    /// Record one event.
    fn record(&self, event: Event);
}

/// A recorder that drops everything. Useful as an explicit "off".
#[derive(Debug, Default, Clone, Copy)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn enabled(&self) -> bool {
        false
    }
    fn now_ns(&self) -> u64 {
        0
    }
    fn record(&self, _event: Event) {}
}

/// Thread-safe recorder that collects events in memory, stamped by an
/// injectable [`Clock`].
pub struct CollectingRecorder {
    clock: Box<dyn Clock>,
    events: Mutex<Vec<Event>>,
}

impl CollectingRecorder {
    /// Recorder on the wall clock (origin = construction time).
    pub fn new() -> Self {
        Self::with_clock(Box::new(WallClock::new()))
    }

    /// Recorder on an explicit clock (e.g. [`clock::ManualClock`] for
    /// deterministic golden tests).
    pub fn with_clock(clock: Box<dyn Clock>) -> Self {
        CollectingRecorder {
            clock,
            events: Mutex::new(Vec::new()),
        }
    }

    /// Snapshot of everything recorded so far, in record order.
    pub fn events(&self) -> Vec<Event> {
        self.events
            .lock()
            .expect("telemetry events poisoned")
            .clone()
    }
}

impl Default for CollectingRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder for CollectingRecorder {
    fn enabled(&self) -> bool {
        true
    }
    fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }
    fn record(&self, event: Event) {
        self.events
            .lock()
            .expect("telemetry events poisoned")
            .push(event);
    }
}

/// Cheap, clonable handle threaded through the pipeline.
///
/// `Telemetry::default()` is the disabled handle: no allocation, every
/// operation short-circuits. Attach a recorder with [`Telemetry::new`]
/// to start collecting.
#[derive(Clone)]
pub struct Telemetry {
    recorder: Option<Arc<dyn Recorder>>,
    /// Record every n-th per-op span (1 = all). Phases/shards are
    /// always recorded; only `cat::OP` spans are sampled.
    sample_every: u32,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry {
            recorder: None,
            sample_every: 1,
        }
    }
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.enabled())
            .field("sample_every", &self.sample_every)
            .finish()
    }
}

impl Telemetry {
    /// Handle wrapping a shared recorder.
    pub fn new(recorder: Arc<dyn Recorder>) -> Self {
        Telemetry {
            recorder: Some(recorder),
            sample_every: 1,
        }
    }

    /// The disabled handle (same as `Telemetry::default()`).
    pub fn disabled() -> Self {
        Telemetry::default()
    }

    /// Record only every n-th per-op span (clamped to ≥ 1).
    pub fn with_sample_every(mut self, n: u32) -> Self {
        self.sample_every = n.max(1);
        self
    }

    /// Per-op sampling stride (≥ 1).
    pub fn sample_every(&self) -> u32 {
        self.sample_every
    }

    /// Whether a live recorder is attached. Check this before building
    /// event payloads in hot loops.
    #[inline]
    pub fn enabled(&self) -> bool {
        match &self.recorder {
            Some(r) => r.enabled(),
            None => false,
        }
    }

    /// Recorder timestamp; 0 when disabled.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        match &self.recorder {
            Some(r) => r.now_ns(),
            None => 0,
        }
    }

    /// Record a raw event (dropped when disabled).
    pub fn record(&self, event: Event) {
        if let Some(r) = &self.recorder {
            if r.enabled() {
                r.record(event);
            }
        }
    }

    /// Record a completed span measured by the caller.
    #[allow(clippy::too_many_arguments)]
    pub fn record_span(
        &self,
        name: impl Into<String>,
        cat: &'static str,
        tid: u32,
        start_ns: u64,
        dur_ns: u64,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        if !self.enabled() {
            return;
        }
        self.record(Event::Span(Span {
            name: name.into(),
            cat,
            tid,
            start_ns,
            dur_ns,
            args,
        }));
    }

    /// Record a counter sample at the current time.
    pub fn counter(&self, name: &'static str, value: f64) {
        if !self.enabled() {
            return;
        }
        let t_ns = self.now_ns();
        self.record(Event::Counter { name, t_ns, value });
    }

    /// Open a RAII span on the main lane; the span is recorded when the
    /// guard drops (or `finish()`es).
    pub fn span(&self, name: impl Into<String>, cat: &'static str) -> SpanGuard<'_> {
        self.span_on(0, name, cat)
    }

    /// Open a RAII span on an explicit lane.
    pub fn span_on(&self, tid: u32, name: impl Into<String>, cat: &'static str) -> SpanGuard<'_> {
        if !self.enabled() {
            return SpanGuard {
                telemetry: self,
                name: String::new(),
                cat,
                tid,
                start_ns: 0,
                args: Vec::new(),
                active: false,
            };
        }
        SpanGuard {
            telemetry: self,
            name: name.into(),
            cat,
            tid,
            start_ns: self.now_ns(),
            args: Vec::new(),
            active: true,
        }
    }

    /// Open a top-level pipeline phase span.
    pub fn phase(&self, phase: Phase) -> SpanGuard<'_> {
        self.span(phase.name(), cat::PHASE)
    }
}

/// RAII guard returned by [`Telemetry::span`]; records the span on drop.
pub struct SpanGuard<'t> {
    telemetry: &'t Telemetry,
    name: String,
    cat: &'static str,
    tid: u32,
    start_ns: u64,
    args: Vec<(&'static str, ArgValue)>,
    active: bool,
}

impl SpanGuard<'_> {
    /// Attach a key/value argument to the span (no-op when disabled).
    pub fn arg(&mut self, key: &'static str, value: ArgValue) {
        if self.active {
            self.args.push((key, value));
        }
    }

    /// Close the span now instead of at end of scope.
    pub fn finish(self) {}
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let end_ns = self.telemetry.now_ns();
        self.telemetry.record(Event::Span(Span {
            name: std::mem::take(&mut self.name),
            cat: self.cat,
            tid: self.tid,
            start_ns: self.start_ns,
            dur_ns: end_ns.saturating_sub(self.start_ns),
            args: std::mem::take(&mut self.args),
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::clock::ManualClock;
    use super::*;

    #[test]
    fn disabled_handle_records_nothing_and_reads_zero_time() {
        let t = Telemetry::default();
        assert!(!t.enabled());
        assert_eq!(t.now_ns(), 0);
        let mut g = t.span("x", cat::PHASE);
        g.arg("k", ArgValue::Int(1));
        drop(g);
        t.counter("c", 1.0);
        // Nothing to observe — the point is that none of this panics and
        // no recorder exists to receive anything.
    }

    #[test]
    fn span_guard_records_on_drop_with_manual_clock() {
        let rec = Arc::new(CollectingRecorder::with_clock(Box::new(ManualClock::new(
            100,
        ))));
        let t = Telemetry::new(rec.clone());
        assert!(t.enabled());
        {
            let mut g = t.phase(Phase::Parse);
            g.arg("n", ArgValue::Int(7));
        }
        let events = rec.events();
        assert_eq!(events.len(), 1);
        let span = events[0].as_span().expect("span");
        assert_eq!(span.name, "Parse");
        assert_eq!(span.cat, cat::PHASE);
        assert_eq!(span.start_ns, 100);
        assert_eq!(span.dur_ns, 100); // one tick between open and drop
        assert_eq!(span.args, vec![("n", ArgValue::Int(7))]);
    }

    #[test]
    fn counters_are_stamped_by_the_clock() {
        let rec = Arc::new(CollectingRecorder::with_clock(Box::new(ManualClock::new(
            50,
        ))));
        let t = Telemetry::new(rec.clone());
        t.counter("energy", 2.5);
        let events = rec.events();
        assert_eq!(
            events[0],
            Event::Counter {
                name: "energy",
                t_ns: 50,
                value: 2.5
            }
        );
    }

    #[test]
    fn sample_every_is_clamped_to_one() {
        let t = Telemetry::default().with_sample_every(0);
        assert_eq!(t.sample_every(), 1);
    }

    #[test]
    fn phases_have_stable_names() {
        let names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names, ["Parse", "Place", "Compile", "Execute"]);
    }
}
