//! Causal trace layer: parent-linked spans and instants buffered per
//! session and exported as Chrome trace-event JSON (Perfetto-loadable).
//!
//! ## Two lanes
//!
//! Events live in one of two lanes with independent id spaces:
//!
//! * the **round lane** — spans/instants emitted from round execution
//!   (supervisor attempts, fuzz, the differential oracle, optimizer
//!   phases, VM/interpreter runs). Timestamps are *simulated work*
//!   (interpreter steps from [`crate::work`]), expressed relative to the
//!   parent span's open point, so the lane is bit-identical at any
//!   `--jobs`: worker-side buffers are folded into the
//!   coordinator in strict merge order by [`crate::absorb_trace`], which
//!   renumbers ids from the coordinator's watermark and re-parents orphan
//!   roots under the coordinator's currently open span — the same
//!   discipline the metrics `absorb`/flight-replay path uses.
//! * the **scheduler lane** — coordinator-only wall-clock events
//!   (dispatch, merge waits, speculation waste). Their content *is*
//!   thread timing, which a [`crate::ManualClock`] defines away, so the
//!   lane is suppressed entirely when the session clock is manual; under
//!   a manual clock a trace contains only the deterministic round lane.
//!
//! Span durations carry both simulated steps (`dur_steps`, deterministic)
//! and session-clock nanoseconds (`dur_nanos`, zero under a manual
//! clock). The exporter ([`crate::export::trace_json`]) lays round-lane
//! roots end to end and reconstructs absolute timestamps from the
//! relative ones.

/// One closed trace event. Spans record their open point relative to
/// their parent (`rel_steps`) plus a duration; instants are
/// zero-duration markers attached to the enclosing open span.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Lane-unique id, assigned at span open (or instant emission) in
    /// deterministic program order, starting at 1.
    pub id: u64,
    /// Id of the enclosing span, 0 for roots.
    pub parent: u64,
    /// Event name (span kind: `round`, `attempt`, `differential`, ...).
    pub name: &'static str,
    /// Identity/context pairs (round, attempt, seed, detail, ...).
    pub args: Vec<(&'static str, String)>,
    /// Round lane: work-meter steps between the parent's open point and
    /// this event's open point (0 for roots). Scheduler lane: absolute
    /// session-clock nanoseconds at open.
    pub rel_steps: u64,
    /// Work-meter steps elapsed inside the span (0 for instants and for
    /// scheduler-lane events).
    pub dur_steps: u64,
    /// Session-clock nanoseconds elapsed inside the span (0 under a
    /// manual clock).
    pub dur_nanos: u64,
    /// True for zero-duration instant markers.
    pub instant: bool,
}

/// A span still open on the session's trace stack.
pub(crate) struct OpenSpan {
    pub(crate) id: u64,
    pub(crate) name: &'static str,
    pub(crate) args: Vec<(&'static str, String)>,
    /// Work meter at open.
    pub(crate) open_steps: u64,
    /// Session clock at open.
    pub(crate) open_nanos: u64,
}

/// Per-session trace storage: closed events in close order plus the
/// stack of open spans, for each lane.
#[derive(Default)]
pub(crate) struct TraceBuf {
    /// Next round-lane id to assign (ids start at 1).
    pub(crate) next_id: u64,
    pub(crate) events: Vec<TraceEvent>,
    pub(crate) open: Vec<OpenSpan>,
    /// Next scheduler-lane id to assign.
    pub(crate) sched_next_id: u64,
    pub(crate) sched: Vec<TraceEvent>,
    pub(crate) sched_open: Vec<OpenSpan>,
}

impl TraceBuf {
    pub(crate) fn new() -> TraceBuf {
        TraceBuf {
            next_id: 1,
            events: Vec::new(),
            open: Vec::new(),
            sched_next_id: 1,
            sched: Vec::new(),
            sched_open: Vec::new(),
        }
    }

    /// Folds a worker-session round-lane buffer into this one in merge
    /// order: ids are renumbered from this buffer's watermark (so the
    /// merged sequence is exactly what a serial run would have
    /// assigned), non-root parents follow their span, and orphan roots
    /// are attached under the currently open span with their open point
    /// re-expressed against the *merging* thread's meter (`now_steps`) —
    /// mirroring how the oracle replays flight events at the pre-run
    /// meter value before crediting work.
    pub(crate) fn absorb(&mut self, events: &[TraceEvent], now_steps: u64) {
        if events.is_empty() {
            return;
        }
        let offset = self.next_id - 1;
        let (attach_parent, attach_rel) = match self.open.last() {
            Some(open) => (open.id, now_steps.saturating_sub(open.open_steps)),
            None => (0, 0),
        };
        let mut max_id = self.next_id - 1;
        for event in events {
            let mut merged = event.clone();
            merged.id = event.id + offset;
            max_id = max_id.max(merged.id);
            if event.parent != 0 {
                merged.parent = event.parent + offset;
            } else {
                merged.parent = attach_parent;
                if attach_parent != 0 {
                    merged.rel_steps = attach_rel;
                }
            }
            self.events.push(merged);
        }
        self.next_id = max_id + 1;
    }
}
