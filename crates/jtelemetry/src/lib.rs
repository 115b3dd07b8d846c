//! # jtelemetry — observability for the whole fuzzing stack
//!
//! A hand-rolled (dependency-free) span/counter library threaded through
//! every layer of the reproduction:
//!
//! * [`Counter`]s and [`Gauge`]s — interpreter/compile counters from
//!   `jexec`, execution/verdict counters from `jvmsim` and the oracles,
//!   campaign-level gauges;
//! * [`span`]s — one guard per timed interval (a round, a VM execution,
//!   an optimizer phase, a layer boundary such as `tier0` or
//!   `store_save`) feeding both the timing histograms (with self time)
//!   and, when the session traces, the causal trace; timed by a
//!   [`Clock`] that tests replace with a [`ManualClock`] for
//!   deterministic histograms;
//! * a [`FlightRecorder`] — a bounded ring buffer of the most recent
//!   events, written only by explicit [`flight`] calls and dumped by the
//!   campaign supervisor into the journal when a round faults, so a
//!   quarantined round is diagnosable after the fact;
//! * exporters — JSONL snapshots, a Prometheus-style text format, a
//!   human-readable end-of-campaign report, and a one-line TTY status
//!   (see [`export`] and [`MetricsSnapshot`]);
//! * [`json`] — the workspace's one JSON value, parser and string
//!   escaper, which every reader and writer of its JSON files shares.
//!
//! ## Sessions and overhead
//!
//! All state lives in a **thread-local [`Session`]**. Instrumentation
//! call sites first read a thread-local `Cell<bool>`; with no session
//! installed (the default) every hook is a branch on that cell and
//! nothing else — campaigns without telemetry pay effectively nothing.
//! Per-thread state also keeps concurrent campaigns (tests run many in
//! parallel) perfectly isolated and deterministic.
//!
//! The one exception is the [`work`] meter: two plain `Cell<u64>`
//! counters of simulated work (interpreter steps, JVM executions) that
//! are *always* on, because the campaign supervisor uses their deltas to
//! split productive from wasted (retried) work even when an attempt dies
//! by panic. One `Cell` add per completed VM execution is noise.
//!
//! ```
//! use jtelemetry::{Counter, ManualClock, Session};
//!
//! let clock = ManualClock::new();
//! jtelemetry::install(Session::with_clock(Box::new(clock.clone())));
//! jtelemetry::count(Counter::VmExecutions, 2);
//! {
//!     let _span = jtelemetry::span("inline", Vec::new);
//!     clock.advance(1_000);
//! }
//! let snap = jtelemetry::take().unwrap().snapshot();
//! assert_eq!(snap.counter("vm_executions"), 2);
//! assert_eq!(snap.spans[0].total_nanos, 1_000);
//! ```

pub mod cancel;
pub mod clock;
pub mod export;
pub mod json;
pub mod metrics;
pub mod recorder;
pub mod schema;
pub mod trace;

pub use clock::{Clock, ManualClock, MonotonicClock};
pub use metrics::{
    Counter, Gauge, MetricsSnapshot, MutatorStat, OpcodeStat, SpanStat, HIST_BUCKETS,
    SCHEMA_VERSION,
};
pub use recorder::{FlightEvent, FlightKind, FlightRecorder, DEFAULT_FLIGHT_CAPACITY};
pub use trace::TraceEvent;

use std::cell::{Cell, RefCell};
use trace::{OpenSpan, TraceBuf};

/// One thread's telemetry accumulator. Install with [`install`], retrieve
/// (for final export) with [`take`].
pub struct Session {
    clock: Box<dyn Clock>,
    started_nanos: u64,
    counters: [u64; Counter::ALL.len()],
    gauges: [f64; Gauge::ALL.len()],
    spans: Vec<SpanStat>,
    mutators: Vec<MutatorStat>,
    recorder: FlightRecorder,
    /// Causal trace buffer; `None` unless built [`Session::with_trace`].
    trace: Option<TraceBuf>,
    /// Per-opcode profiling requested ([`Session::with_profile`]).
    profile: bool,
    opcodes: Vec<OpcodeStat>,
    /// Nanoseconds accumulated by completed *child* spans of each open
    /// [`span`], innermost last — subtracted from a span's elapsed time
    /// on drop to yield its self-time.
    span_children: Vec<u64>,
}

/// The shape of a session, shipped to worker threads so they install a
/// session equivalent to the coordinator's: same clock kind (a fresh
/// [`ManualClock`] on workers keeps every worker-side duration zero,
/// hence deterministic), same trace/profile gating.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionSpec {
    /// The coordinator clock is hand-advanced.
    pub manual: bool,
    /// The coordinator session buffers trace events.
    pub trace: bool,
    /// The coordinator session profiles opcodes.
    pub profile: bool,
}

impl Session {
    /// A session timed by the host monotonic clock.
    pub fn new() -> Session {
        Session::with_clock(Box::new(MonotonicClock::new()))
    }

    /// A session with an explicit clock (tests pass a [`ManualClock`]).
    pub fn with_clock(clock: Box<dyn Clock>) -> Session {
        let started_nanos = clock.now_nanos();
        Session {
            clock,
            started_nanos,
            counters: [0; Counter::ALL.len()],
            gauges: [0.0; Gauge::ALL.len()],
            spans: Vec::new(),
            mutators: Vec::new(),
            recorder: FlightRecorder::new(DEFAULT_FLIGHT_CAPACITY),
            trace: None,
            profile: false,
            opcodes: Vec::new(),
            span_children: Vec::new(),
        }
    }

    /// A worker-side session mirroring a coordinator's [`SessionSpec`].
    pub fn from_spec(spec: SessionSpec) -> Session {
        let clock: Box<dyn Clock> = if spec.manual {
            Box::new(ManualClock::new())
        } else {
            Box::new(MonotonicClock::new())
        };
        let mut session = Session::with_clock(clock);
        if spec.trace {
            session = session.with_trace();
        }
        if spec.profile {
            session = session.with_profile();
        }
        session
    }

    /// Enables the causal trace: [`span`]s and [`trace_instant`]s also
    /// record trace events.
    pub fn with_trace(mut self) -> Session {
        self.trace = Some(TraceBuf::new());
        self
    }

    /// Enables per-opcode interpreter profiling ([`profile_opcode`]).
    pub fn with_profile(mut self) -> Session {
        self.profile = true;
        self
    }

    /// True when this session's clock is hand-advanced.
    pub fn clock_is_manual(&self) -> bool {
        self.clock.is_manual()
    }

    pub(crate) fn trace_buf(&self) -> Option<&TraceBuf> {
        self.trace.as_ref()
    }

    /// Drains and returns the round-lane trace events accumulated so far
    /// (empty when tracing is off). Workers ship these to the
    /// coordinator, which folds them in with [`absorb_trace`].
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.trace
            .as_mut()
            .map(|buf| std::mem::take(&mut buf.events))
            .unwrap_or_default()
    }

    /// Folds another session's snapshot into this one: counters are
    /// summed, and spans, mutators and opcodes go through the same
    /// per-name fold as [`MetricsSnapshot::merge`]. Gauges, elapsed time
    /// and the flight recorder are untouched — they belong to whoever
    /// drives the surrounding context. The parallel campaign
    /// engine uses this to aggregate per-round worker sessions into the
    /// coordinator session before `--metrics-out` flushes.
    pub fn absorb(&mut self, snap: &MetricsSnapshot) {
        for (key, value) in &snap.counters {
            if let Some(i) = Counter::ALL.iter().position(|c| c.key() == *key) {
                self.counters[i] += value;
            }
        }
        metrics::fold(&mut self.spans, &snap.spans);
        metrics::fold(&mut self.mutators, &snap.mutators);
        metrics::fold(&mut self.opcodes, &snap.opcodes);
    }

    /// Freezes the session into an exportable snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            schema_version: SCHEMA_VERSION,
            elapsed_nanos: self.clock.now_nanos().saturating_sub(self.started_nanos),
            counters: Counter::ALL
                .iter()
                .enumerate()
                .map(|(i, c)| (c.key(), self.counters[i]))
                .collect(),
            gauges: Gauge::ALL
                .iter()
                .enumerate()
                .map(|(i, g)| (g.key(), self.gauges[i]))
                .collect(),
            spans: self.spans.clone(),
            mutators: self.mutators.clone(),
            opcodes: self.opcodes.clone(),
        }
    }

    fn trace_open(&mut self, name: &'static str, args: impl FnOnce() -> Args, open_nanos: u64) {
        let Some(buf) = self.trace.as_mut() else {
            return;
        };
        let id = buf.next_id;
        buf.next_id += 1;
        buf.open.push(OpenSpan {
            id,
            name,
            args: args(),
            open_steps: work::totals().0,
            open_nanos,
        });
    }

    fn trace_close(&mut self, now_nanos: u64) {
        let Some(buf) = self.trace.as_mut() else {
            return;
        };
        let Some(span) = buf.open.pop() else {
            return;
        };
        let steps = work::totals().0;
        let (parent, rel_steps) = match buf.open.last() {
            Some(p) => (p.id, span.open_steps.saturating_sub(p.open_steps)),
            None => (0, 0),
        };
        buf.events.push(TraceEvent {
            id: span.id,
            parent,
            name: span.name,
            args: span.args,
            rel_steps,
            dur_steps: steps.saturating_sub(span.open_steps),
            dur_nanos: now_nanos.saturating_sub(span.open_nanos),
            instant: false,
        });
    }

    fn trace_mark(&mut self, name: &'static str, args: Args, steps: u64) {
        let Some(buf) = self.trace.as_mut() else {
            return;
        };
        let id = buf.next_id;
        buf.next_id += 1;
        let (parent, rel_steps) = match buf.open.last() {
            Some(p) => (p.id, steps.saturating_sub(p.open_steps)),
            None => (0, 0),
        };
        buf.events.push(TraceEvent {
            id,
            parent,
            name,
            args,
            rel_steps,
            dur_steps: 0,
            dur_nanos: 0,
            instant: true,
        });
    }

    /// Scheduler-lane events carry wall-clock content, which a manual
    /// clock defines away — suppressing them keeps manual-clock traces
    /// bit-identical at any worker count.
    fn sched_suppressed(&self) -> bool {
        self.trace.is_none() || self.clock.is_manual()
    }

    fn sched_open(&mut self, name: &'static str, args: Vec<(&'static str, String)>) {
        let open_nanos = self.clock.now_nanos();
        let Some(buf) = self.trace.as_mut() else {
            return;
        };
        let id = buf.sched_next_id;
        buf.sched_next_id += 1;
        buf.sched_open.push(OpenSpan {
            id,
            name,
            args,
            open_steps: 0,
            open_nanos,
        });
    }

    fn sched_close(&mut self) {
        let now_nanos = self.clock.now_nanos();
        let Some(buf) = self.trace.as_mut() else {
            return;
        };
        let Some(span) = buf.sched_open.pop() else {
            return;
        };
        let parent = buf.sched_open.last().map_or(0, |p| p.id);
        buf.sched.push(TraceEvent {
            id: span.id,
            parent,
            name: span.name,
            args: span.args,
            // Scheduler-lane `rel_steps` is the absolute session-clock
            // open time (the lane is wall-clock by definition).
            rel_steps: span.open_nanos,
            dur_steps: 0,
            dur_nanos: now_nanos.saturating_sub(span.open_nanos),
            instant: false,
        });
    }

    fn sched_mark(&mut self, name: &'static str, args: Vec<(&'static str, String)>) {
        let now_nanos = self.clock.now_nanos();
        let Some(buf) = self.trace.as_mut() else {
            return;
        };
        let id = buf.sched_next_id;
        buf.sched_next_id += 1;
        let parent = buf.sched_open.last().map_or(0, |p| p.id);
        buf.sched.push(TraceEvent {
            id,
            parent,
            name,
            args,
            rel_steps: now_nanos,
            dur_steps: 0,
            dur_nanos: 0,
            instant: true,
        });
    }
}

impl Default for Session {
    fn default() -> Session {
        Session::new()
    }
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static SESSION: RefCell<Option<Session>> = const { RefCell::new(None) };
}

/// Installs a session on this thread, enabling all instrumentation hooks.
/// Replaces (and drops) any previously installed session.
pub fn install(session: Session) {
    SESSION.with(|s| *s.borrow_mut() = Some(session));
    ENABLED.with(|e| e.set(true));
}

/// Removes and returns this thread's session, disabling instrumentation.
pub fn take() -> Option<Session> {
    ENABLED.with(|e| e.set(false));
    SESSION.with(|s| s.borrow_mut().take())
}

/// True when a session is installed on this thread.
pub fn enabled() -> bool {
    ENABLED.with(Cell::get)
}

fn with_session(f: impl FnOnce(&mut Session)) {
    if !enabled() {
        return;
    }
    SESSION.with(|s| {
        if let Some(session) = s.borrow_mut().as_mut() {
            f(session);
        }
    });
}

/// Adds `n` to a counter.
pub fn count(counter: Counter, n: u64) {
    with_session(|s| {
        let i = Counter::ALL
            .iter()
            .position(|c| *c == counter)
            .expect("counter listed in ALL");
        s.counters[i] += n;
    });
}

/// Sets a gauge.
pub fn gauge(gauge: Gauge, value: f64) {
    with_session(|s| {
        let i = Gauge::ALL
            .iter()
            .position(|g| *g == gauge)
            .expect("gauge listed in ALL");
        s.gauges[i] = value;
    });
}

/// Records one accept/reject outcome for a mutator. `delta` is the
/// behaviour increment of accepted children (ignored for rejects).
pub fn mutator_outcome(name: &str, accepted: bool, delta: f64) {
    with_session(|s| {
        let stat = metrics::stat_mut(&mut s.mutators, name);
        stat.applies += 1;
        if accepted {
            stat.accepted += 1;
            stat.yield_sum += delta;
        } else {
            stat.rejected += 1;
        }
    });
}

/// Appends one flight-recorder event (timestamped in simulated steps).
pub fn flight(kind: FlightKind, label: impl Into<String>, detail: impl Into<String>) {
    if !enabled() {
        return;
    }
    let now = work::totals().0;
    with_session(|s| s.recorder.push(now, kind, label.into(), detail.into()));
}

/// Clears the flight recorder and re-bases its timestamps — the campaign
/// supervisor calls this at the start of every round attempt.
pub fn flight_reset() {
    if !enabled() {
        return;
    }
    let now = work::totals().0;
    with_session(|s| s.recorder.reset(now));
}

/// The current flight-recorder contents (empty when disabled).
pub fn flight_snapshot() -> Vec<FlightEvent> {
    let mut out = Vec::new();
    with_session(|s| out = s.recorder.snapshot());
    out
}

/// Folds `snap` into this thread's session (no-op when none is
/// installed). See [`Session::absorb`].
pub fn absorb(snap: &MetricsSnapshot) {
    with_session(|s| s.absorb(snap));
}

/// A snapshot of this thread's session, if one is installed.
pub fn snapshot() -> Option<MetricsSnapshot> {
    let mut out = None;
    with_session(|s| out = Some(s.snapshot()));
    out
}

/// A trace event's identity pairs (round, seed, detail, ...).
pub type Args = Vec<(&'static str, String)>;

/// An RAII span: records its duration and self time into the named
/// timing histogram on drop (including drops during panic unwind) and,
/// when the session traces, the same interval as a trace event. It
/// never writes the flight recorder; a site that wants a flight event
/// calls [`flight`] before opening the span.
pub struct SpanGuard {
    name: &'static str,
    start_nanos: u64,
    live: bool,
}

/// Opens a span. Inert (a single branch) when telemetry is disabled;
/// `args` runs only when the session traces.
pub fn span(name: &'static str, args: impl FnOnce() -> Args) -> SpanGuard {
    let mut guard = SpanGuard {
        name,
        start_nanos: 0,
        live: false,
    };
    if !enabled() {
        return guard;
    }
    with_session(|s| {
        guard.start_nanos = s.clock.now_nanos();
        guard.live = true;
        s.span_children.push(0);
        s.trace_open(name, args, guard.start_nanos);
    });
    guard
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.live {
            return;
        }
        with_session(|s| {
            let now_nanos = s.clock.now_nanos();
            let elapsed = now_nanos.saturating_sub(self.start_nanos);
            let child_nanos = s.span_children.pop().unwrap_or(0);
            metrics::stat_mut(&mut s.spans, self.name)
                .record(elapsed, elapsed.saturating_sub(child_nanos));
            if let Some(top) = s.span_children.last_mut() {
                *top = top.saturating_add(elapsed);
            }
            s.trace_close(now_nanos);
        });
    }
}

/// Emits a zero-duration round-lane marker attached to the enclosing
/// open trace span (oracle verdicts, ...). Inert unless tracing.
pub fn trace_instant(name: &'static str, args: impl FnOnce() -> Args) {
    if !enabled() {
        return;
    }
    let now_steps = work::totals().0;
    with_session(|s| {
        if s.trace.is_some() {
            s.trace_mark(name, args(), now_steps);
        }
    });
}

/// Folds worker-produced round-lane trace events into this thread's
/// session in merge order. See [`trace::TraceBuf::absorb`] for the
/// renumbering/re-parenting rules.
pub fn absorb_trace(events: &[TraceEvent]) {
    if events.is_empty() {
        return;
    }
    let now_steps = work::totals().0;
    with_session(|s| {
        if let Some(buf) = s.trace.as_mut() {
            buf.absorb(events, now_steps);
        }
    });
}

/// An RAII guard for a scheduler-lane span (see [`trace_sched_span`]).
pub struct SchedGuard {
    live: bool,
}

/// Opens a scheduler-lane (wall-clock) span: coordinator-side merge
/// waits and the like. Suppressed under a manual clock — the lane's
/// content is thread timing, which a manual clock defines away.
pub fn trace_sched_span(
    name: &'static str,
    args: impl FnOnce() -> Vec<(&'static str, String)>,
) -> SchedGuard {
    if !enabled() {
        return SchedGuard { live: false };
    }
    let mut live = false;
    with_session(|s| {
        if !s.sched_suppressed() {
            s.sched_open(name, args());
            live = true;
        }
    });
    SchedGuard { live }
}

impl Drop for SchedGuard {
    fn drop(&mut self) {
        if !self.live {
            return;
        }
        with_session(|s| s.sched_close());
    }
}

/// Emits a zero-duration scheduler-lane marker (dispatches, speculation
/// waste). Suppressed under a manual clock, like [`trace_sched_span`].
pub fn trace_sched_instant(name: &'static str, args: impl FnOnce() -> Vec<(&'static str, String)>) {
    if !enabled() {
        return;
    }
    with_session(|s| {
        if !s.sched_suppressed() {
            s.sched_mark(name, args());
        }
    });
}

/// The installed session's [`SessionSpec`], for shipping to workers
/// (`None` when telemetry is disabled on this thread).
pub fn session_spec() -> Option<SessionSpec> {
    let mut out = None;
    with_session(|s| {
        out = Some(SessionSpec {
            manual: s.clock.is_manual(),
            trace: s.trace.is_some(),
            profile: s.profile,
        })
    });
    out
}

/// True when the installed session profiles opcodes.
pub fn profiling() -> bool {
    let mut on = false;
    with_session(|s| on = s.profile);
    on
}

/// The session clock's current reading (0 when telemetry is disabled).
/// The interpreter's sampling profiler reads time through this so a
/// manual clock yields deterministic (all-zero) attribution.
pub fn now_nanos() -> u64 {
    let mut now = 0;
    with_session(|s| now = s.clock.now_nanos());
    now
}

/// Adds one opcode's profiled cost (exact hit count, sampled
/// nanoseconds). No-op unless the session profiles.
pub fn profile_opcode(name: &str, hits: u64, nanos: u64) {
    with_session(|s| {
        if s.profile {
            let stat = metrics::stat_mut(&mut s.opcodes, name);
            stat.hits += hits;
            stat.nanos = stat.nanos.saturating_add(nanos);
        }
    });
}

/// The always-on simulated-work meter: cumulative interpreter steps and
/// JVM executions completed on this thread. Monotonic, never reset —
/// consumers take deltas. Deterministic because it advances only on
/// completed executions (a function of the campaign configuration), never
/// on wall-clock time.
pub mod work {
    use std::cell::Cell;

    thread_local! {
        static STEPS: Cell<u64> = const { Cell::new(0) };
        static EXECS: Cell<u64> = const { Cell::new(0) };
    }

    /// Credits one completed execution's work.
    pub fn add(steps: u64, execs: u64) {
        STEPS.with(|s| s.set(s.get() + steps));
        EXECS.with(|e| e.set(e.get() + execs));
    }

    /// Cumulative `(steps, execs)` for this thread.
    pub fn totals() -> (u64, u64) {
        (STEPS.with(Cell::get), EXECS.with(Cell::get))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_hooks_are_inert() {
        assert!(take().is_none());
        count(Counter::VmExecutions, 5);
        gauge(Gauge::BugsFound, 1.0);
        mutator_outcome("Inlining", true, 1.0);
        flight(FlightKind::Vm, "vm", "x");
        drop(span("inline", || {
            unreachable!("args are built only when tracing")
        }));
        assert!(snapshot().is_none());
        assert!(flight_snapshot().is_empty());
    }

    #[test]
    fn span_feeds_histogram_and_trace_but_not_the_flight_recorder() {
        let clock = ManualClock::new();
        install(Session::with_clock(Box::new(clock.clone())));
        {
            let _g = span("tier0", || unreachable!("args are built only when tracing"));
            clock.advance(70);
        }
        assert!(flight_snapshot().is_empty());
        let session = take().unwrap();
        assert!(session.trace_buf().is_none());
        let snap = session.snapshot();
        assert_eq!(
            (snap.spans[0].name.as_str(), snap.spans[0].count),
            ("tier0", 1)
        );
        assert_eq!(snap.spans[0].total_nanos, 70);

        install(Session::with_clock(Box::new(clock.clone())).with_trace());
        {
            let _g = span("vm_execution", || {
                vec![("detail", "HotSpur-17".to_string())]
            });
            clock.advance(30);
        }
        assert!(flight_snapshot().is_empty());
        let session = take().unwrap();
        let events = &session.trace_buf().unwrap().events;
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "vm_execution");
        assert_eq!(events[0].args, vec![("detail", "HotSpur-17".to_string())]);
        assert_eq!(events[0].dur_nanos, 30);
        let spans = session.snapshot().spans;
        assert_eq!((spans[0].count, spans[0].total_nanos), (1, 30));
    }

    #[test]
    fn session_accumulates_and_take_disables() {
        let clock = ManualClock::new();
        install(Session::with_clock(Box::new(clock.clone())));
        assert!(enabled());
        count(Counter::MutationsApplied, 3);
        count(Counter::MutationsApplied, 2);
        gauge(Gauge::CorpusSize, 10.0);
        mutator_outcome("Inlining", true, 2.5);
        mutator_outcome("Inlining", false, 0.0);
        {
            let _g = span("inline", Vec::new);
            clock.advance(500);
        }
        {
            let _g = span("inline", Vec::new);
            clock.advance(300);
        }
        let session = take().expect("installed above");
        assert!(!enabled());
        let snap = session.snapshot();
        assert_eq!(snap.counter("mutations_applied"), 5);
        assert_eq!(snap.gauge("corpus_size"), 10.0);
        let inline = snap.spans.iter().find(|s| s.name == "inline").unwrap();
        assert_eq!(inline.count, 2);
        assert_eq!(inline.total_nanos, 800);
        assert_eq!(inline.max_nanos, 500);
        let m = &snap.mutators[0];
        assert_eq!((m.applies, m.accepted, m.rejected), (2, 1, 1));
        assert!((m.yield_sum - 2.5).abs() < 1e-12);
    }

    #[test]
    fn absorb_merges_counters_spans_and_mutators_but_not_gauges() {
        let clock = ManualClock::new();
        install(Session::with_clock(Box::new(clock.clone())));
        count(Counter::VmExecutions, 7);
        mutator_outcome("Inlining", true, 1.5);
        {
            let _g = span("inline", Vec::new);
            clock.advance(400);
        }
        let worker_snap = take().unwrap().snapshot();

        let clock2 = ManualClock::new();
        install(Session::with_clock(Box::new(clock2.clone())));
        count(Counter::VmExecutions, 3);
        gauge(Gauge::BugsFound, 2.0);
        mutator_outcome("Inlining", false, 0.0);
        {
            let _g = span("inline", Vec::new);
            clock2.advance(100);
        }
        absorb(&worker_snap);
        let merged = take().unwrap().snapshot();
        assert_eq!(merged.counter("vm_executions"), 10);
        assert_eq!(merged.gauge("bugs_found"), 2.0, "gauges stay local");
        let inline = merged.spans.iter().find(|s| s.name == "inline").unwrap();
        assert_eq!(inline.count, 2);
        assert_eq!(inline.total_nanos, 500);
        assert_eq!(inline.max_nanos, 400);
        assert_eq!(inline.buckets.iter().sum::<u64>(), 2);
        let m = merged
            .mutators
            .iter()
            .find(|m| m.name == "Inlining")
            .unwrap();
        assert_eq!((m.applies, m.accepted, m.rejected), (2, 1, 1));
        assert!((m.yield_sum - 1.5).abs() < 1e-12);
        // Absorbing into a disabled thread is a no-op.
        absorb(&worker_snap);
        assert!(snapshot().is_none());
    }

    #[test]
    fn span_guard_records_on_panic_unwind() {
        let clock = ManualClock::new();
        install(Session::with_clock(Box::new(clock.clone())));
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = span("ideal_loop", Vec::new);
            clock.advance(250);
            panic!("boom");
        }));
        assert!(caught.is_err());
        let snap = take().unwrap().snapshot();
        let s = snap.spans.iter().find(|s| s.name == "ideal_loop").unwrap();
        assert_eq!((s.count, s.total_nanos), (1, 250));
    }

    #[test]
    fn flight_reset_and_snapshot_track_the_recorder() {
        install(Session::new());
        flight(FlightKind::Round, "attempt", "round 0");
        flight(FlightKind::Mutator, "Inlining", "iteration 1");
        assert_eq!(flight_snapshot().len(), 2);
        flight_reset();
        assert!(flight_snapshot().is_empty());
        flight(FlightKind::Vm, "HotSpur-17", "");
        let snap = flight_snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].label, "HotSpur-17");
        take();
    }

    #[test]
    fn work_meter_is_cumulative() {
        let (s0, e0) = work::totals();
        work::add(100, 1);
        work::add(50, 2);
        let (s1, e1) = work::totals();
        assert_eq!(s1 - s0, 150);
        assert_eq!(e1 - e0, 3);
    }

    #[test]
    fn spans_nest_with_relative_step_timestamps() {
        let clock = ManualClock::new();
        install(Session::with_clock(Box::new(clock.clone())).with_trace());
        let (base, _) = work::totals();
        {
            let _round = span("round", || vec![("round", "0".to_string())]);
            work::add(100, 1);
            {
                let _attempt = span("attempt", Vec::new);
                clock.advance(50);
                work::add(20, 1);
                trace_instant("verdict", || vec![("kind", "pass".to_string())]);
            }
        }
        let session = take().unwrap();
        let buf = session.trace_buf().unwrap();
        assert_eq!(buf.events.len(), 3);
        // Close order: instant first (inside attempt), attempt, round.
        let verdict = &buf.events[0];
        let attempt = &buf.events[1];
        let round = &buf.events[2];
        assert_eq!((round.id, round.parent, round.rel_steps), (1, 0, 0));
        assert_eq!(round.dur_steps, 120);
        assert_eq!(attempt.name, "attempt");
        assert_eq!((attempt.id, attempt.parent), (2, 1));
        assert_eq!(attempt.rel_steps, 100, "attempt opened 100 steps in");
        assert_eq!(attempt.dur_steps, 20);
        assert_eq!(attempt.dur_nanos, 50);
        assert_eq!((verdict.id, verdict.parent), (3, 2));
        assert_eq!(verdict.rel_steps, 20);
        assert!(verdict.instant);
        let _ = base;
    }

    #[test]
    fn absorb_trace_renumbers_and_reparents_in_merge_order() {
        // A "worker" buffer with a root span and a nested child.
        let clock = ManualClock::new();
        install(Session::with_clock(Box::new(clock.clone())).with_trace());
        {
            let _root = span("round", Vec::new);
            work::add(10, 1);
            let _child = span("fuzz", Vec::new);
        }
        let mut worker = take().unwrap();
        let worker_events = worker.take_trace();
        assert_eq!(worker_events.len(), 2);

        // Coordinator with an open span absorbs: orphan roots attach
        // under it at the coordinator's current meter offset; ids
        // continue from the coordinator watermark.
        install(Session::with_clock(Box::new(ManualClock::new())).with_trace());
        {
            let _outer = span("differential", Vec::new);
            work::add(7, 1);
            absorb_trace(&worker_events);
        }
        let session = take().unwrap();
        let events = &session.trace_buf().unwrap().events;
        // fuzz (child, renumbered), round (root, re-parented), differential.
        assert_eq!(events.len(), 3);
        let fuzz = &events[0];
        let round = &events[1];
        let outer = &events[2];
        assert_eq!(outer.id, 1);
        assert_eq!(fuzz.name, "fuzz");
        assert_eq!(round.name, "round");
        assert_eq!(round.id, 2, "worker root renumbered past watermark");
        assert_eq!(fuzz.id, 3);
        assert_eq!(fuzz.parent, round.id, "internal links preserved");
        assert_eq!(round.parent, outer.id, "orphan root attaches");
        assert_eq!(round.rel_steps, 7, "re-expressed against merge meter");
        assert_eq!(fuzz.rel_steps, 10, "internal offsets untouched");
    }

    #[test]
    fn absorb_trace_without_open_span_keeps_roots() {
        install(Session::new().with_trace());
        {
            let _r = span("round", Vec::new);
        }
        let mut worker = take().unwrap();
        let events = worker.take_trace();
        install(Session::new().with_trace());
        absorb_trace(&events);
        absorb_trace(&events);
        let session = take().unwrap();
        let merged = &session.trace_buf().unwrap().events;
        assert_eq!(merged.len(), 2);
        assert_eq!((merged[0].id, merged[0].parent), (1, 0));
        assert_eq!((merged[1].id, merged[1].parent), (2, 0), "ids keep rising");
    }

    #[test]
    fn sched_lane_is_suppressed_under_manual_clock() {
        install(Session::with_clock(Box::new(ManualClock::new())).with_trace());
        trace_sched_instant("dispatch", Vec::new);
        {
            let _g = trace_sched_span("merge_wait", Vec::new);
        }
        let session = take().unwrap();
        assert!(session.trace_buf().unwrap().sched.is_empty());

        install(Session::new().with_trace());
        trace_sched_instant("dispatch", || vec![("round", "3".to_string())]);
        {
            let _g = trace_sched_span("merge_wait", Vec::new);
        }
        let session = take().unwrap();
        let sched = &session.trace_buf().unwrap().sched;
        assert_eq!(sched.len(), 2);
        assert_eq!(sched[0].name, "dispatch");
        assert!(sched[0].instant);
        assert_eq!(sched[1].name, "merge_wait");
    }

    #[test]
    fn span_self_time_excludes_children() {
        let clock = ManualClock::new();
        install(Session::with_clock(Box::new(clock.clone())));
        {
            let _outer = span("optimize", Vec::new);
            clock.advance(100);
            {
                let _inner = span("inline", Vec::new);
                clock.advance(40);
            }
            clock.advance(10);
        }
        let snap = take().unwrap().snapshot();
        let outer = snap.spans.iter().find(|s| s.name == "optimize").unwrap();
        let inner = snap.spans.iter().find(|s| s.name == "inline").unwrap();
        assert_eq!(outer.total_nanos, 150);
        assert_eq!(outer.self_nanos, 110, "child's 40ns excluded");
        assert_eq!(inner.total_nanos, 40);
        assert_eq!(inner.self_nanos, 40);
    }

    #[test]
    fn profile_opcode_accumulates_and_absorbs() {
        install(Session::new()); // profiling off
        profile_opcode("Arith", 10, 100);
        assert!(take().unwrap().snapshot().opcodes.is_empty());

        install(Session::new().with_profile());
        assert!(profiling());
        profile_opcode("Arith", 10, 100);
        profile_opcode("Load", 5, 0);
        profile_opcode("Arith", 3, 20);
        let worker_snap = take().unwrap().snapshot();
        assert_eq!(worker_snap.opcodes.len(), 2);

        install(Session::new().with_profile());
        profile_opcode("Arith", 1, 1);
        absorb(&worker_snap);
        let snap = take().unwrap().snapshot();
        let arith = snap.opcodes.iter().find(|o| o.name == "Arith").unwrap();
        assert_eq!((arith.hits, arith.nanos), (14, 121));
        let load = snap.opcodes.iter().find(|o| o.name == "Load").unwrap();
        assert_eq!((load.hits, load.nanos), (5, 0));
    }

    #[test]
    fn session_spec_round_trips_through_from_spec() {
        let clock = ManualClock::new();
        install(
            Session::with_clock(Box::new(clock.clone()))
                .with_trace()
                .with_profile(),
        );
        let spec = session_spec().unwrap();
        take();
        assert_eq!(
            spec,
            SessionSpec {
                manual: true,
                trace: true,
                profile: true
            }
        );
        let mirrored = Session::from_spec(spec);
        assert!(mirrored.trace_buf().is_some());
        assert!(mirrored.clock_is_manual());

        install(Session::new());
        let spec = session_spec().unwrap();
        take();
        assert_eq!(
            spec,
            SessionSpec {
                manual: false,
                trace: false,
                profile: false
            }
        );
        assert!(session_spec().is_none(), "disabled thread has no spec");
    }
}
