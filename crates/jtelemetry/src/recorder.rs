//! The flight recorder: a bounded ring buffer of the most recent
//! events, written by explicit [`crate::flight`] calls, reset at each
//! round attempt and dumped when the attempt faults — the "moments before the crash" for post-mortem diagnosis.
//!
//! Timestamps are *simulated* time — interpreter steps from
//! [`crate::work`], relative to the last reset — so dumps are
//! deterministic and a journaled campaign stays bit-identical on resume.

use std::collections::VecDeque;

/// Which layer emitted a flight event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightKind {
    /// Supervisor round lifecycle (attempt start, quarantine).
    Round,
    /// A mutator application in the fuzzing loop.
    Mutator,
    /// An optimizer phase inside one method compilation.
    Phase,
    /// One simulated JVM execution.
    Vm,
    /// A differential-oracle verdict.
    Oracle,
}

impl FlightKind {
    /// Stable export/journal key.
    pub fn key(&self) -> &'static str {
        match self {
            FlightKind::Round => "round",
            FlightKind::Mutator => "mutator",
            FlightKind::Phase => "phase",
            FlightKind::Vm => "vm",
            FlightKind::Oracle => "oracle",
        }
    }

    /// Inverse of [`FlightKind::key`].
    pub fn from_key(key: &str) -> Option<FlightKind> {
        [
            FlightKind::Round,
            FlightKind::Mutator,
            FlightKind::Phase,
            FlightKind::Vm,
            FlightKind::Oracle,
        ]
        .into_iter()
        .find(|k| k.key() == key)
    }
}

/// One recorded moment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEvent {
    /// Simulated time (interpreter steps since the last recorder reset).
    pub at_steps: u64,
    /// Emitting layer.
    pub kind: FlightKind,
    /// Short label (phase name, mutator name, JVM name, ...).
    pub label: String,
    /// Free-form context (method label, iteration, seed name, ...).
    pub detail: String,
}

/// The bounded ring buffer itself.
#[derive(Debug)]
pub struct FlightRecorder {
    events: VecDeque<FlightEvent>,
    capacity: usize,
    base_steps: u64,
}

/// Default number of retained events per round attempt.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 256;

impl FlightRecorder {
    /// A recorder retaining the last `capacity` events.
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            events: VecDeque::with_capacity(capacity.min(DEFAULT_FLIGHT_CAPACITY)),
            capacity: capacity.max(1),
            base_steps: 0,
        }
    }

    /// Drops all events and re-bases timestamps at `now_steps`.
    pub fn reset(&mut self, now_steps: u64) {
        self.events.clear();
        self.base_steps = now_steps;
    }

    /// Appends one event, evicting the oldest when full.
    pub fn push(&mut self, now_steps: u64, kind: FlightKind, label: String, detail: String) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
        }
        self.events.push_back(FlightEvent {
            at_steps: now_steps.saturating_sub(self.base_steps),
            kind,
            label,
            detail,
        });
    }

    /// The retained events, oldest first.
    pub fn snapshot(&self) -> Vec<FlightEvent> {
        self.events.iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(r: &mut FlightRecorder, steps: u64, label: &str) {
        r.push(steps, FlightKind::Phase, label.to_string(), String::new());
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut r = FlightRecorder::new(3);
        for i in 0..5 {
            ev(&mut r, i, &format!("e{i}"));
        }
        let snap = r.snapshot();
        let labels: Vec<&str> = snap.iter().map(|e| e.label.as_str()).collect();
        assert_eq!(labels, vec!["e2", "e3", "e4"]);
    }

    #[test]
    fn reset_rebases_timestamps() {
        let mut r = FlightRecorder::new(8);
        ev(&mut r, 100, "before");
        r.reset(1000);
        ev(&mut r, 1064, "after");
        let snap = r.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].at_steps, 64, "relative to the reset base");
    }

    #[test]
    fn kind_keys_roundtrip() {
        for kind in [
            FlightKind::Round,
            FlightKind::Mutator,
            FlightKind::Phase,
            FlightKind::Vm,
            FlightKind::Oracle,
        ] {
            assert_eq!(FlightKind::from_key(kind.key()), Some(kind));
        }
        assert_eq!(FlightKind::from_key("nope"), None);
    }
}
