//! # qsync-api — the versioned wire protocol of the plan-serving subsystem
//!
//! Every type that crosses the serving wire lives in this crate, shared by
//! the server (`qsync-serve`) and clients (`qsync-client`, tests, the benchmark):
//!
//! * **Payloads** — [`PlanRequest`]/[`PlanResponse`] (with the full
//!   scheduling surface: `priority`, `client_id`, `deadline_ms`, and the DRR
//!   `weight`), [`DeltaRequest`]/[`DeltaResponse`], [`ModelSpec`], counters
//!   ([`CacheStats`], [`DeltaStats`], re-exported [`SchedStats`]).
//! * **Commands & replies** — [`ServerCommand`]/[`ServerReply`], one JSON
//!   object per line.
//! * **Versioning** — the v1 [`RequestEnvelope`]/[`ReplyEnvelope`]
//!   (`{"v":1,"id":…,"cmd":…}`), the `Hello` handshake advertising
//!   [`MIN_PROTOCOL_VERSION`]`..=`[`MAX_PROTOCOL_VERSION`], and the
//!   [`parse_line`] compatibility shim that keeps every legacy (v0,
//!   un-enveloped) line parsing unchanged — pinned by a committed golden
//!   corpus.
//! * **Structured errors** — [`ApiError`] ([`ErrorCode`] + message +
//!   offending field) replacing v0's bare error string on v1 connections.
//! * **Events** — [`ServerEvent`] lines streamed to `Subscribe`d
//!   connections: cache invalidations and warm re-plans as they happen.
//!
//! See `docs/PROTOCOL.md` in the repository root for the wire-format
//! reference and the compatibility policy.

#![warn(missing_docs)]

pub mod delta;
pub mod error;
pub mod model;
pub mod request;
pub mod stats;
pub mod wire;

pub use delta::{ClusterDelta, DeltaRequest, DeltaResponse, DeltaStats};
pub use error::{ApiError, ErrorCode};
pub use model::ModelSpec;
pub use request::{IndicatorChoice, PlanOutcome, PlanRequest, PlanResponse};
pub use stats::{CacheStats, SubscriberStats};
pub use wire::{
    parse_line, render_plan_hit, render_reply, ParsedLine, PlanHitBody, PlanPayload,
    ReplyEnvelope, RequestEnvelope, ServerCommand, ServerEvent, ServerReply, WireError, WireProto, LEGACY_PROTOCOL_VERSION,
    MAX_PROTOCOL_VERSION, MIN_PROTOCOL_VERSION, PROTOCOL_VERSION,
};

pub use qsync_sched::SchedStats;

pub use qsync_obs::{
    HistogramSnapshot, MetricsSnapshot, TraceSpan,
};
