//! Execution timelines in Chrome trace-event format.
//!
//! Fig. 6 of the paper shows the CUDA-kernel and communication timeline of uniform
//! precision vs QSync. The replayer's simulator emits the same kind of timeline here so
//! the `reproduce fig6` harness can export it.

use serde::{Deserialize, Serialize};

/// Stream a trace event belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Stream {
    /// Compute (CUDA kernel) stream.
    Compute,
    /// Communication (NCCL) stream.
    Comm,
}

/// One complete-event ("X") entry of a Chrome trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Event name (operator or bucket label).
    pub name: String,
    /// Device (rank) the event ran on.
    pub device: usize,
    /// Stream the event ran on.
    pub stream: Stream,
    /// Start timestamp in microseconds.
    pub ts_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
}

/// A collection of trace events for one simulated iteration.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// All events, in no particular order.
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// Add an event.
    pub fn push(&mut self, event: TraceEvent) {
        self.events.push(event);
    }

    /// Devices appearing in the trace.
    pub fn devices(&self) -> Vec<usize> {
        let mut d: Vec<usize> = self.events.iter().map(|e| e.device).collect();
        d.sort_unstable();
        d.dedup();
        d
    }

    /// Serialise to the Chrome trace-event JSON format (loadable in `chrome://tracing`).
    pub fn to_chrome_json(&self) -> String {
        let entries: Vec<serde_json::Value> = self
            .events
            .iter()
            .map(|e| {
                serde_json::json!({
                    "name": e.name,
                    "ph": "X",
                    "pid": e.device,
                    "tid": match e.stream { Stream::Compute => 0, Stream::Comm => 1 },
                    "ts": e.ts_us,
                    "dur": e.dur_us,
                    "cat": match e.stream { Stream::Compute => "CUDA", Stream::Comm => "COMM" },
                })
            })
            .collect();
        serde_json::to_string_pretty(&serde_json::json!({ "traceEvents": entries })).unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        let mut t = Trace::default();
        t.push(TraceEvent { name: "fwd".into(), device: 0, stream: Stream::Compute, ts_us: 0.0, dur_us: 10.0 });
        t.push(TraceEvent { name: "fwd".into(), device: 1, stream: Stream::Compute, ts_us: 0.0, dur_us: 30.0 });
        t.push(TraceEvent { name: "ar0".into(), device: 0, stream: Stream::Comm, ts_us: 30.0, dur_us: 5.0 });
        t.push(TraceEvent { name: "ar0".into(), device: 1, stream: Stream::Comm, ts_us: 30.0, dur_us: 5.0 });
        t
    }

    #[test]
    fn chrome_json_contains_all_events() {
        let t = sample_trace();
        let json = t.to_chrome_json();
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed["traceEvents"].as_array().unwrap().len(), 4);
        assert_eq!(parsed["traceEvents"][0]["ph"], "X");
    }

    #[test]
    fn devices_are_listed_once() {
        assert_eq!(sample_trace().devices(), vec![0, 1]);
    }
}
