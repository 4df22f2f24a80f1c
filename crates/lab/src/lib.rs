//! qsync-lab: deterministic simulation and chaos harness for the plan
//! server.
//!
//! Built on [`qsync_serve::sim`]: the **entire** server — reactor, core,
//! scheduler, plan engine, delta waves — runs single-threaded on a
//! virtual clock over in-memory connections, so a run is a pure function of
//! its script. This crate adds the chaos layer on top:
//!
//! * [`fault`] — the [`FaultPlan`](fault::FaultPlan) DSL: a list of
//!   virtual-time-stamped actions (connect, subscribe, send, tear a frame,
//!   drop mid-frame, stall a reader, storm deltas, fail an accept with
//!   EMFILE…), either hand-written or generated from a single `u64` seed.
//!   The same seed always yields the same plan, byte for byte.
//! * [`driver`] — executes a `FaultPlan` against a fresh
//!   [`SimServer`](qsync_serve::SimServer), collecting every reply and a
//!   [`RunTranscript`](driver::RunTranscript).
//! * [`oracle`] — the invariant checks run over a transcript: exactly-once
//!   replies, cache coherence against serial re-execution, subscriber
//!   sequence/drop accounting, drain completeness. Failures carry the seed
//!   and the offending script so any run is replayable.
//!
//! See `docs/SIMULATION.md` for a guide, and `tests/chaos_corpus.rs` for the
//! pinned regression seeds.

#![warn(missing_docs)]

pub mod driver;
pub mod fault;
pub mod oracle;

pub use driver::{run_plan, run_plan_with, ConnRecord, RunTranscript};
pub use fault::{FaultAction, FaultPlan};
pub use oracle::{check_all, OracleReport};
