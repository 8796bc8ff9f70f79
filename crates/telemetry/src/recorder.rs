//! The trace recorder: an armable [`TraceSink`] with JSONL export.

use std::sync::{Arc, Mutex};

use storm_sim::trace::{TraceEvent, TraceHook, TraceSink};
use storm_sim::SimTime;

use crate::jsonl;

/// Collects trace events in arrival order.
///
/// The simulator is single-threaded, so arrival order is deterministic;
/// two runs with equal seeds yield equal event sequences and therefore
/// byte-identical [`to_jsonl`](Recorder::to_jsonl) exports. The interior
/// mutex exists only to satisfy the `Send + Sync` sink contract.
#[derive(Default)]
pub struct Recorder {
    events: Mutex<Vec<(SimTime, TraceEvent)>>,
}

impl Recorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// An armed [`TraceHook`] delivering into this recorder. Pass the
    /// result to `Cloud::set_trace_hook` (and friends) before running.
    pub fn hook(this: &Arc<Self>) -> TraceHook {
        TraceHook::armed(this.clone())
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.lock().expect("poisoned").len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A copy of all recorded events, in arrival order.
    pub fn events(&self) -> Vec<(SimTime, TraceEvent)> {
        self.events.lock().expect("poisoned").clone()
    }

    /// Serializes the whole trace as JSONL (one event per line).
    pub fn to_jsonl(&self) -> String {
        let events = self.events.lock().expect("poisoned");
        let mut out = String::with_capacity(events.len() * 64);
        for (t, ev) in events.iter() {
            jsonl::write_event(&mut out, *t, ev);
        }
        out
    }

    /// Drops all recorded events.
    pub fn clear(&self) {
        self.events.lock().expect("poisoned").clear();
    }
}

impl TraceSink for Recorder {
    fn record(&self, now: SimTime, ev: &TraceEvent) {
        self.events
            .lock()
            .expect("poisoned")
            .push((now, ev.clone()));
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("events", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use storm_sim::trace::req_token;

    #[test]
    fn records_through_hook_and_exports() {
        let rec = Arc::new(Recorder::new());
        let hook = Recorder::hook(&rec);
        assert!(rec.is_empty());
        let req = req_token(40_000, 3);
        hook.emit(
            SimTime::from_nanos(1),
            TraceEvent::Issue {
                req,
                kind: 0,
                bytes: 512,
            },
        );
        hook.emit(
            SimTime::from_nanos(9),
            TraceEvent::Complete { req, ok: true },
        );
        assert_eq!(rec.len(), 2);
        let jsonl = rec.to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        let parsed = crate::parse_jsonl(&jsonl).expect("round trip");
        assert_eq!(parsed, rec.events());
        rec.clear();
        assert!(rec.is_empty());
    }
}
