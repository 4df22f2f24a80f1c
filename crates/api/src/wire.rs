//! The line protocol: commands, replies, the versioned envelope and the
//! legacy-compatibility parse shim.
//!
//! # Versions
//!
//! * **v0 (legacy)** — one bare [`ServerCommand`] JSON object per line, one
//!   bare [`ServerReply`] object per reply line, errors as
//!   `Error { id, message }`. Every v0 line ever accepted still parses (and
//!   draws a byte-identical reply); this is pinned by the committed golden
//!   corpus in `crates/api/tests/golden/`.
//! * **v1 (enveloped)** — requests wrapped in a [`RequestEnvelope`]
//!   `{"v":1,"id":…,"cmd":{…}}`, replies in a [`ReplyEnvelope`]
//!   `{"v":1,"reply":{…}}`. v1 adds the `Hello` version handshake, wire-level
//!   `Batch` commands, `Subscribe`/[`ServerEvent`] streaming, per-client DRR
//!   `weight` on plan requests, and structured [`ApiError`]s (the `Fault`
//!   reply) in place of the bare error string.
//!
//! A server distinguishes the two per **line**: an object with a `"v"` key is
//! an envelope, anything else takes the legacy path ([`parse_line`]). One
//! connection may mix both; each command is answered in the form it arrived
//! in.
//!
//! # Compatibility policy
//!
//! Within a protocol version, changes are additive only: new optional request
//! fields (absent fields deserialize to their defaults), new reply fields at
//! the end of a struct, new enum variants. Anything that would change the
//! meaning or serialized bytes of an existing line is a new protocol version,
//! negotiated through `Hello`.

use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

use qsync_graph::PrecisionDag;
use qsync_obs::{MetricsSnapshot, TraceSpan};
use qsync_sched::SchedStats;

use crate::delta::{DeltaRequest, DeltaResponse, DeltaStats};
use crate::error::{ApiError, ErrorCode};
use crate::request::{PlanOutcome, PlanRequest, PlanResponse};
use crate::stats::{CacheStats, SubscriberStats};

/// The legacy, un-enveloped line form (bare `ServerCommand`/`ServerReply`).
pub const LEGACY_PROTOCOL_VERSION: u32 = 0;
/// The current envelope protocol version.
pub const PROTOCOL_VERSION: u32 = 1;
/// Lowest protocol version this crate speaks (the legacy line form).
pub const MIN_PROTOCOL_VERSION: u32 = LEGACY_PROTOCOL_VERSION;
/// Highest protocol version this crate speaks.
pub const MAX_PROTOCOL_VERSION: u32 = PROTOCOL_VERSION;

/// One input line of the serving protocol.
///
/// The first four variants are protocol v0 and serialize exactly as they
/// always have; the remaining variants were introduced with v1 (they parse
/// un-enveloped too, but v0 clients by definition never send them).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ServerCommand {
    /// Request a plan.
    Plan(PlanRequest),
    /// Apply a cluster elasticity event (invalidate + warm re-plan).
    Delta(DeltaRequest),
    /// Read cache, scheduler and elasticity counters.
    Stats {
        /// Caller-chosen id echoed in the reply.
        id: u64,
    },
    /// Cancel a still-queued plan request submitted on this connection.
    Cancel {
        /// Caller-chosen id echoed in the reply.
        id: u64,
        /// The `id` of the plan request to cancel.
        plan_id: u64,
    },
    /// Version handshake (v1): the client announces the protocol range it
    /// speaks; the server replies with [`ServerReply::Hello`] advertising its
    /// own supported range.
    Hello {
        /// Caller-chosen id echoed in the reply.
        id: u64,
        /// Lowest protocol version the client speaks.
        min_v: u32,
        /// Highest protocol version the client speaks.
        max_v: u32,
    },
    /// Wire-level batch (v1): the inner commands are dispatched in order and
    /// each produces its **own** reply (correlate by the inner ids — plans
    /// may still complete out of order). Nested batches are rejected.
    Batch {
        /// Caller-chosen id, echoed only in a `Fault` if the batch itself is
        /// rejected (the accepted case produces per-command replies only).
        id: u64,
        /// The commands to dispatch.
        cmds: Vec<ServerCommand>,
    },
    /// Subscribe this connection to the server's event stream (v1): delta
    /// invalidation and warm re-plan events arrive as
    /// [`ServerReply::Event`] lines as they happen, instead of being polled
    /// out of `Stats` counters.
    Subscribe {
        /// Caller-chosen id echoed in the reply.
        id: u64,
        /// Request full plan payloads on completion events (v1, additive):
        /// when `true`, [`ServerEvent::Replanned`] and
        /// [`ServerEvent::PlanReady`] lines sent to this connection carry an
        /// `adopt` payload (request + response + warm-start precision DAG) a
        /// replica can insert straight into its own cache. Plain subscribers
        /// receive the same events with `adopt: null`. Absent on the wire
        /// deserializes to `false` — the pre-replication behavior.
        #[serde(default)]
        adopt: bool,
    },
    /// Stop this connection's event stream (v1).
    Unsubscribe {
        /// Caller-chosen id echoed in the reply.
        id: u64,
    },
    /// Read the server's full metrics registry (v1): counters, gauges and
    /// latency histograms across every layer — transport, scheduler, engine,
    /// cache, delta pipeline. The same data the admin port's text exposition
    /// renders.
    Metrics {
        /// Caller-chosen id echoed in the reply.
        id: u64,
    },
    /// Fetch the recorded trace spans for one trace id (v1), reconstructing
    /// a request's journey parse → dispatch → cache → plan → reply write.
    Trace {
        /// Caller-chosen id echoed in the reply.
        id: u64,
        /// The trace id to look up (from [`PlanResponse`]`::trace_id`,
        /// [`DeltaResponse`]`::trace_id`, or a stamped [`ServerEvent`]).
        trace_id: u64,
        /// Return at most this many spans (most recent; absent means all
        /// retained).
        limit: Option<usize>,
    },
    /// Re-baseline this connection's event stream after a gap (v1): the
    /// reply carries the server's current event `seq` and the cache's
    /// resident keys, so a slow consumer that lost events can rebuild its
    /// view instead of resubscribing blind.
    Resync {
        /// Caller-chosen id echoed in the reply.
        id: u64,
    },
    /// Write a plan-store snapshot (v1 admin): persist the current plan
    /// cache and initial-setting memo table atomically to disk in the
    /// qsync-store format. Answered with [`ServerReply::Snapshotted`].
    Snapshot {
        /// Caller-chosen id echoed in the reply.
        id: u64,
        /// Target file path. `None` uses the server's configured `--store`
        /// path (a fault if the server has none).
        path: Option<String>,
    },
    /// Load a plan-store snapshot (v1 admin): verify and warm the cache and
    /// memo table from a snapshot file. A snapshot that fails verification
    /// (checksum, truncation, wrong magic) changes nothing and faults; a
    /// verified one is merged entry-by-entry, skipping records this server
    /// does not understand. Answered with [`ServerReply::Loaded`].
    Load {
        /// Caller-chosen id echoed in the reply.
        id: u64,
        /// Source file path. `None` uses the server's configured `--store`
        /// path (a fault if the server has none).
        path: Option<String>,
    },
    /// Fetch the server's plan store over the wire (v1 replication): the
    /// reply embeds a full snapshot, serialized exactly as
    /// [`Snapshot`](Self::Snapshot) would write it to disk. A `--follow`
    /// replica bootstraps from this before riding the event stream.
    FetchSnapshot {
        /// Caller-chosen id echoed in the reply.
        id: u64,
    },
}

impl ServerCommand {
    /// The caller-chosen correlation id carried by this command.
    pub fn id(&self) -> u64 {
        match self {
            ServerCommand::Plan(r) => r.id,
            ServerCommand::Delta(r) => r.id,
            ServerCommand::Stats { id }
            | ServerCommand::Cancel { id, .. }
            | ServerCommand::Hello { id, .. }
            | ServerCommand::Batch { id, .. }
            | ServerCommand::Subscribe { id, .. }
            | ServerCommand::Unsubscribe { id }
            | ServerCommand::Metrics { id }
            | ServerCommand::Trace { id, .. }
            | ServerCommand::Resync { id }
            | ServerCommand::Snapshot { id, .. }
            | ServerCommand::Load { id, .. }
            | ServerCommand::FetchSnapshot { id } => *id,
        }
    }
}

/// The full cached-plan payload an adopt-subscribed replica needs to mirror
/// one plan-cache entry: enough to reconstruct the primary's `CachedPlan`
/// byte-for-byte (the entry's cache key and cluster fingerprint are
/// recomputed from `request` on adoption, so a forged or corrupted payload
/// can mismatch and be dropped, never poison the replica under a wrong key).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanPayload {
    /// The originating plan request (carries model, cluster, constraints).
    pub request: PlanRequest,
    /// The cached response, byte-identical to what the primary serves.
    pub response: PlanResponse,
    /// The inference-device precision DAG kept for warm re-planning.
    pub inference_pdag: Option<PrecisionDag>,
}

/// A server-side event, streamed to [`ServerCommand::Subscribe`]d
/// connections as [`ServerReply::Event`] lines.
///
/// Events let a client *watch* the elasticity machinery instead of polling
/// `Stats`: a delta wave first announces what it evicted
/// ([`CacheInvalidated`](Self::CacheInvalidated)), then each entry's warm
/// re-plan completion ([`Replanned`](Self::Replanned)), then the per-delta
/// outcome ([`DeltaApplied`](Self::DeltaApplied)) — in that order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ServerEvent {
    /// A delta wave evicted cached plans; warm re-planning is starting.
    CacheInvalidated {
        /// Cache keys evicted by the wave (deterministic order).
        keys: Vec<String>,
        /// Trace id of the delta leading the wave (0 on untraced paths;
        /// absent in pre-observability events, deserializing to 0).
        #[serde(default)]
        trace_id: u64,
    },
    /// One evicted entry finished its warm re-plan.
    Replanned {
        /// The re-planned entry's cache key under the new cluster shape.
        key: String,
        /// How the plan was produced (warm re-plan, or a cache hit when two
        /// entries converged on one shape).
        outcome: PlanOutcome,
        /// Predicted iteration latency of the new plan (microseconds).
        predicted_iteration_us: f64,
        /// Trace id of the delta whose wave caused this re-plan (0 on
        /// untraced paths; absent in pre-observability events, deserializing
        /// to 0).
        #[serde(default)]
        trace_id: u64,
        /// Full cached-plan payload, present only on lines sent to
        /// `Subscribe { adopt: true }` connections (`null` for plain
        /// subscribers and absent in pre-replication events).
        #[serde(default)]
        adopt: Option<PlanPayload>,
    },
    /// A delta request completed; its submitter has received the
    /// [`DeltaResponse`].
    DeltaApplied {
        /// The delta request's id.
        id: u64,
        /// Fingerprint (hex) of the shape this delta's step applied to.
        old_cluster_fingerprint: String,
        /// Fingerprint (hex) of the shape after this delta's step.
        new_cluster_fingerprint: String,
        /// Cache entries the delta's wave group invalidated.
        invalidated: usize,
        /// Warm re-plans carried by this delta's response.
        replanned: usize,
        /// The delta's trace id (0 on untraced paths; absent in
        /// pre-observability events, deserializing to 0).
        #[serde(default)]
        trace_id: u64,
    },
    /// A cold or warm plan completed (v1, additive): fire-and-forget clients
    /// can watch for their key instead of holding a waiter open, and
    /// adopt-subscribed replicas mirror the entry from the payload.
    PlanReady {
        /// The completed plan's cache key.
        key: String,
        /// How the plan was produced ([`PlanOutcome::CacheHit`] requests do
        /// not emit this event — nothing new became ready).
        outcome: PlanOutcome,
        /// Predicted iteration latency of the plan (microseconds).
        predicted_iteration_us: f64,
        /// Trace id of the request that produced the plan (0 on untraced
        /// paths).
        #[serde(default)]
        trace_id: u64,
        /// Full cached-plan payload, present only on lines sent to
        /// `Subscribe { adopt: true }` connections (`null` for plain
        /// subscribers).
        #[serde(default)]
        adopt: Option<PlanPayload>,
    },
}

impl ServerEvent {
    /// The trace id stamped on this event (0 means the event was emitted by
    /// an untraced path).
    pub fn trace_id(&self) -> u64 {
        match self {
            ServerEvent::CacheInvalidated { trace_id, .. }
            | ServerEvent::Replanned { trace_id, .. }
            | ServerEvent::DeltaApplied { trace_id, .. }
            | ServerEvent::PlanReady { trace_id, .. } => *trace_id,
        }
    }

    /// This event with any adoption payload removed — the form rendered to
    /// plain (non-adopt) subscribers, and the cheap thing to keep when only
    /// the notification matters.
    pub fn without_adopt(&self) -> ServerEvent {
        let mut event = self.clone();
        match &mut event {
            ServerEvent::Replanned { adopt, .. } | ServerEvent::PlanReady { adopt, .. } => {
                *adopt = None;
            }
            ServerEvent::CacheInvalidated { .. } | ServerEvent::DeltaApplied { .. } => {}
        }
        event
    }
}

/// One output line of the serving protocol.
///
/// The first five variants are protocol v0 and serialize exactly as they
/// always have; the remaining variants are v1-only (a v0 command is never
/// answered with one).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ServerReply {
    /// A plan response.
    Plan(PlanResponse),
    /// A delta outcome.
    Delta(DeltaResponse),
    /// Cache, scheduler and elasticity counters.
    Stats {
        /// Echo of the command id.
        id: u64,
        /// Cache counters at read time.
        stats: CacheStats,
        /// Scheduler counters (queue depths, per-class throughput, sheds,
        /// deadline accounting), global across every connection of the
        /// server. `None` from the schedulerless one-shot path.
        sched: Option<SchedStats>,
        /// Elasticity counters (delta waves, coalesced events, batched
        /// re-plans).
        deltas: DeltaStats,
        /// Per-subscriber event accounting (slow-consumer drops). Empty from
        /// the one-shot path and when no connection is subscribed; absent in
        /// pre-observability replies (deserializes to empty).
        #[serde(default)]
        subscribers: Vec<SubscriberStats>,
    },
    /// Outcome of a `Cancel` command.
    Cancelled {
        /// Echo of the command id.
        id: u64,
        /// The plan request id the cancel targeted.
        plan_id: u64,
        /// `true` if the plan was still queued (on this connection) and has
        /// been removed.
        cancelled: bool,
    },
    /// The command on this line could not be served (protocol v0 form: a
    /// bare message). v1 commands receive [`ServerReply::Fault`] instead.
    Error {
        /// Echo of the command id when it could be parsed.
        id: Option<u64>,
        /// Human-readable reason.
        message: String,
    },
    /// Response to [`ServerCommand::Hello`]: the server's supported protocol
    /// range.
    Hello {
        /// Echo of the command id.
        id: u64,
        /// Lowest protocol version the server accepts
        /// ([`MIN_PROTOCOL_VERSION`]; 0 means legacy un-enveloped lines).
        min_v: u32,
        /// Highest protocol version the server accepts
        /// ([`MAX_PROTOCOL_VERSION`]).
        max_v: u32,
        /// Server software identifier (name/version).
        server: String,
    },
    /// This connection is now subscribed to the event stream.
    Subscribed {
        /// Echo of the command id.
        id: u64,
    },
    /// This connection's event stream has ended.
    Unsubscribed {
        /// Echo of the command id.
        id: u64,
    },
    /// One server event (only sent to subscribed connections).
    Event {
        /// Server-wide monotone event sequence number (gaps mean events
        /// fired before this connection subscribed — or were dropped on a
        /// slow consumer; see [`ServerCommand::Resync`]).
        seq: u64,
        /// The event.
        event: ServerEvent,
    },
    /// Response to [`ServerCommand::Metrics`]: the full registry snapshot.
    Metrics {
        /// Echo of the command id.
        id: u64,
        /// Counters, gauges and histograms across every server layer.
        metrics: MetricsSnapshot,
    },
    /// Response to [`ServerCommand::Trace`]: the retained spans for one
    /// trace id, oldest first.
    Trace {
        /// Echo of the command id.
        id: u64,
        /// Echo of the queried trace id.
        trace_id: u64,
        /// The spans still held by the server's trace ring (empty when the
        /// id is unknown or its spans have been evicted).
        spans: Vec<TraceSpan>,
    },
    /// Response to [`ServerCommand::Resync`]: the connection's new event
    /// baseline plus the cache's current residents.
    Resynced {
        /// Echo of the command id.
        id: u64,
        /// The server's event sequence number at resync time: the next
        /// event this connection receives will carry a `seq` no less than
        /// this — the client's new gap-detection baseline.
        seq: u64,
        /// Cache keys currently resident (deterministic order), the state a
        /// consumer that lost invalidation events should rebuild from.
        keys: Vec<String>,
        /// Events dropped on this connection's subscription so far (slow
        /// consumer backlog overflow).
        dropped: u64,
    },
    /// Response to [`ServerCommand::Snapshot`]: what was persisted.
    Snapshotted {
        /// Echo of the command id.
        id: u64,
        /// The file the snapshot was written to.
        path: String,
        /// Records written (plan entries + memo entries).
        entries: u64,
        /// Total snapshot size in bytes.
        bytes: u64,
    },
    /// Response to [`ServerCommand::Load`]: what a verified snapshot merged.
    Loaded {
        /// Echo of the command id.
        id: u64,
        /// The file the snapshot was read from.
        path: String,
        /// Plan entries adopted into the cache.
        plans: u64,
        /// Initial-setting memo entries adopted.
        memos: u64,
        /// Records skipped (unknown kind, newer record version, or a key
        /// that does not match its own request — drift, never an error).
        skipped: u64,
        /// Total snapshot size in bytes.
        bytes: u64,
    },
    /// Response to [`ServerCommand::FetchSnapshot`]: the plan store itself.
    SnapshotData {
        /// Echo of the command id.
        id: u64,
        /// Records carried (plan entries + memo entries).
        entries: u64,
        /// Length of `data` in bytes.
        bytes: u64,
        /// A complete snapshot in the qsync-store file format (header line +
        /// checksummed payload), verifiable and loadable exactly like a file.
        data: String,
    },
    /// The command could not be served (protocol v1 form: structured error).
    Fault(ApiError),
}

impl ServerReply {
    /// The correlation id this reply answers, if any (`Event` lines and
    /// id-less faults have none).
    pub fn correlation_id(&self) -> Option<u64> {
        match self {
            ServerReply::Plan(p) => Some(p.id),
            ServerReply::Delta(d) => Some(d.id),
            ServerReply::Stats { id, .. }
            | ServerReply::Cancelled { id, .. }
            | ServerReply::Hello { id, .. }
            | ServerReply::Subscribed { id }
            | ServerReply::Unsubscribed { id }
            | ServerReply::Metrics { id, .. }
            | ServerReply::Trace { id, .. }
            | ServerReply::Resynced { id, .. }
            | ServerReply::Snapshotted { id, .. }
            | ServerReply::Loaded { id, .. }
            | ServerReply::SnapshotData { id, .. } => Some(*id),
            ServerReply::Error { id, .. } => *id,
            ServerReply::Fault(e) => e.id,
            ServerReply::Event { .. } => None,
        }
    }

    /// The structured error carried by this reply, if it is one. A legacy
    /// `Error` maps to [`ErrorCode::Internal`] (v0 carried no code).
    pub fn as_error(&self) -> Option<ApiError> {
        match self {
            ServerReply::Fault(e) => Some(e.clone()),
            ServerReply::Error { id, message } => Some(ApiError {
                id: *id,
                code: ErrorCode::Internal,
                message: message.clone(),
                field: None,
            }),
            _ => None,
        }
    }
}

/// The v1 request envelope: explicit protocol version, optional envelope-level
/// correlation id (echoed on envelope-level faults), and the command.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestEnvelope {
    /// Protocol version of this line (currently always [`PROTOCOL_VERSION`]).
    pub v: u32,
    /// Optional envelope-level correlation id. Commands carry their own ids;
    /// this one is echoed when the envelope itself is rejected (bad version,
    /// unparseable `cmd`).
    pub id: Option<u64>,
    /// The command.
    pub cmd: ServerCommand,
}

impl RequestEnvelope {
    /// Wrap a command in a current-version envelope.
    pub fn v1(cmd: ServerCommand) -> Self {
        RequestEnvelope { v: PROTOCOL_VERSION, id: Some(cmd.id()), cmd }
    }
}

/// The v1 reply envelope.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplyEnvelope {
    /// Protocol version of this line.
    pub v: u32,
    /// The reply.
    pub reply: ServerReply,
}

/// Which line form a command arrived in (and so which form its replies take).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireProto {
    /// Legacy bare-object lines (protocol v0).
    #[default]
    V0,
    /// Enveloped lines (protocol v1).
    V1,
}

/// A successfully parsed input line.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedLine {
    /// The form the line arrived in.
    pub wire: WireProto,
    /// The envelope-level id (v1 only).
    pub envelope_id: Option<u64>,
    /// The command.
    pub cmd: ServerCommand,
}

/// A parse failure, tagged with the form the *reply* must take: failures of
/// legacy lines render as v0 `Error` replies with the exact pre-envelope
/// message, failures of enveloped lines as v1 `Fault`s.
#[derive(Debug, Clone, PartialEq)]
pub struct WireError {
    /// The form the error reply must take.
    pub wire: WireProto,
    /// The structured error.
    pub error: ApiError,
}

/// Parse one input line, auto-detecting the protocol form.
///
/// This is the **compatibility shim**: a JSON object carrying a `"v"` key is
/// treated as a [`RequestEnvelope`]; every other line takes the legacy path
/// and parses as a bare [`ServerCommand`] — with parse failures reported in
/// the exact `unparseable command: …` form the pre-envelope server used, so
/// v0 clients observe byte-identical behavior.
pub fn parse_line(line: &str) -> Result<ParsedLine, WireError> {
    let legacy_parse_error = |e: &dyn std::fmt::Display| WireError {
        wire: WireProto::V0,
        error: ApiError::new(ErrorCode::Parse, format!("unparseable command: {e}")),
    };
    // One tokenizer pass; `from_str::<T>` is parse-to-Value + convert, so
    // converting the parsed Value below reports the same messages it would.
    let value = match serde_json::from_str::<serde::Value>(line) {
        Ok(value) => value,
        Err(e) => return Err(legacy_parse_error(&e)),
    };
    if value.get("v").is_none() {
        return match serde_json::from_value::<ServerCommand>(&value) {
            Ok(cmd) => Ok(ParsedLine { wire: WireProto::V0, envelope_id: None, cmd }),
            Err(e) => Err(legacy_parse_error(&e)),
        };
    }
    // Envelope path: all failures from here render as v1 faults.
    let envelope_id = value.get("id").and_then(serde::Value::as_u64);
    let fault = |error: ApiError| WireError {
        wire: WireProto::V1,
        error: ApiError { id: envelope_id, ..error },
    };
    match value.get("v").and_then(serde::Value::as_u64) {
        Some(v) if (1..=MAX_PROTOCOL_VERSION as u64).contains(&v) => {}
        Some(v) => {
            return Err(fault(
                ApiError::new(
                    ErrorCode::UnsupportedVersion,
                    format!(
                        "unsupported protocol version {v}: this server speaks \
                         {MIN_PROTOCOL_VERSION}..={MAX_PROTOCOL_VERSION} \
                         (v0 is the legacy un-enveloped line form)"
                    ),
                )
                .with_field("v"),
            ))
        }
        None => {
            return Err(fault(
                ApiError::new(
                    ErrorCode::Parse,
                    "envelope field \"v\" must be an unsigned integer protocol version",
                )
                .with_field("v"),
            ))
        }
    }
    match serde_json::from_value::<RequestEnvelope>(&value) {
        Ok(envelope) => Ok(ParsedLine {
            wire: WireProto::V1,
            envelope_id: envelope.id,
            cmd: envelope.cmd,
        }),
        Err(e) => Err(fault(
            ApiError::new(ErrorCode::Parse, format!("unparseable envelope: {e}")).with_field("cmd"),
        )),
    }
}

/// Serialize one reply line in the given wire form (no trailing newline).
///
/// Under [`WireProto::V0`] a [`ServerReply::Fault`] is downgraded to the
/// legacy `Error { id, message }` shape — the message string is the v0 one,
/// so legacy clients see byte-identical error lines; every other reply
/// serializes as the bare object. Under [`WireProto::V1`] the reply is
/// wrapped in a [`ReplyEnvelope`].
pub fn render_reply(wire: WireProto, reply: &ServerReply) -> String {
    match wire {
        WireProto::V0 => match reply {
            ServerReply::Fault(e) => serde_json::to_string(&ServerReply::Error {
                id: e.id,
                message: e.message.clone(),
            }),
            other => serde_json::to_string(other),
        }
        .expect("reply serialization cannot fail"),
        WireProto::V1 => {
            // Cheap structural wrap — splice the serialized body instead of
            // cloning the (potentially plan-sized) reply into a
            // [`ReplyEnvelope`]; a unit test pins byte-equality of the two.
            let body =
                serde_json::to_string(reply).expect("reply serialization cannot fail");
            format!("{{\"v\":{PROTOCOL_VERSION},\"reply\":{body}}}")
        }
    }
}

/// The middle of a cache-hit `Plan` reply line — `"key":…` through
/// `"warm_demotions":N`, with `outcome` fixed at `CacheHit` — which is the same
/// for every hit of one cache entry. Empty until [`render_plan_hit`] first
/// fills it; it must live and die with the entry it was rendered from (two
/// entries under one key may hold different plans).
#[derive(Debug, Default)]
pub struct PlanHitBody(OnceLock<String>);

/// Serialize the reply line of one plan-cache hit, byte-identical to
/// `render_reply(wire, &ServerReply::Plan(hit.clone()))`, re-serializing
/// nothing that `body` already holds: the entry's first hit renders the
/// response once and keeps the hit-invariant middle in `body`; every later
/// hit splices its own `id`, `elapsed_us` and `trace_id` around that.
///
/// `body` must belong to the cache entry `hit` was built from.
pub fn render_plan_hit(wire: WireProto, hit: &PlanResponse, body: &PlanHitBody) -> String {
    debug_assert_eq!(hit.outcome, PlanOutcome::CacheHit);
    // `PlanResponse` serializes `id` first and `elapsed_us`, `trace_id` last.
    let head = format!("{{\"id\":{},", hit.id);
    let tail = match hit.trace_id {
        Some(trace_id) => {
            format!(",\"elapsed_us\":{},\"trace_id\":{trace_id}}}", hit.elapsed_us)
        }
        None => format!(",\"elapsed_us\":{},\"trace_id\":null}}", hit.elapsed_us),
    };
    let body = body.0.get_or_init(|| {
        let full = serde_json::to_string(hit).expect("reply serialization cannot fail");
        full.strip_prefix(&head)
            .and_then(|rest| rest.strip_suffix(&tail))
            .expect("a PlanResponse serializes id first and elapsed_us, trace_id last")
            .to_owned()
    });
    let (open, close) = match wire {
        WireProto::V0 => ("{\"Plan\":", "}"),
        WireProto::V1 => ("{\"v\":1,\"reply\":{\"Plan\":", "}}"),
    };
    let line = [open, &head, body, &tail, close].concat();
    debug_assert_eq!(line, render_reply(wire, &ServerReply::Plan(hit.clone())));
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelSpec;
    use qsync_cluster::topology::ClusterSpec;

    fn plan_cmd(id: u64) -> ServerCommand {
        ServerCommand::Plan(PlanRequest::new(
            id,
            ModelSpec::SmallMlp { batch: 8, in_features: 16, hidden: 32, classes: 4 },
            ClusterSpec::hybrid_small(),
        ))
    }

    #[test]
    fn legacy_lines_parse_as_v0() {
        let line = serde_json::to_string(&plan_cmd(3)).unwrap();
        let parsed = parse_line(&line).unwrap();
        assert_eq!(parsed.wire, WireProto::V0);
        assert_eq!(parsed.envelope_id, None);
        assert_eq!(parsed.cmd.id(), 3);
    }

    #[test]
    fn enveloped_lines_parse_as_v1() {
        let line = serde_json::to_string(&RequestEnvelope::v1(plan_cmd(4))).unwrap();
        let parsed = parse_line(&line).unwrap();
        assert_eq!(parsed.wire, WireProto::V1);
        assert_eq!(parsed.envelope_id, Some(4));
        assert_eq!(parsed.cmd, plan_cmd(4));
    }

    #[test]
    fn legacy_parse_failures_keep_the_v0_message_shape() {
        let err = parse_line("this is not json").unwrap_err();
        assert_eq!(err.wire, WireProto::V0);
        assert_eq!(err.error.code, ErrorCode::Parse);
        assert!(err.error.message.starts_with("unparseable command: "), "{}", err.error.message);
        // A valid JSON object that is not a command also takes the legacy path.
        let err = parse_line(r#"{"Nope":1}"#).unwrap_err();
        assert_eq!(err.wire, WireProto::V0);
        assert!(err.error.message.starts_with("unparseable command: "));
    }

    #[test]
    fn unsupported_versions_fault_with_the_envelope_id() {
        let err = parse_line(r#"{"v":99,"id":7,"cmd":{"Stats":{"id":7}}}"#).unwrap_err();
        assert_eq!(err.wire, WireProto::V1);
        assert_eq!(err.error.code, ErrorCode::UnsupportedVersion);
        assert_eq!(err.error.id, Some(7));
        assert_eq!(err.error.field.as_deref(), Some("v"));
        // v0 in an envelope is explicitly rejected: v0 is the *un-enveloped* form.
        let err = parse_line(r#"{"v":0,"cmd":{"Stats":{"id":1}}}"#).unwrap_err();
        assert_eq!(err.error.code, ErrorCode::UnsupportedVersion);
    }

    #[test]
    fn bad_envelope_cmd_faults_as_v1() {
        let err = parse_line(r#"{"v":1,"id":9,"cmd":{"Nope":1}}"#).unwrap_err();
        assert_eq!(err.wire, WireProto::V1);
        assert_eq!(err.error.code, ErrorCode::Parse);
        assert_eq!(err.error.id, Some(9));
        let err = parse_line(r#"{"v":1,"id":9}"#).unwrap_err();
        assert_eq!(err.error.code, ErrorCode::Parse, "missing cmd is a parse fault");
    }

    #[test]
    fn render_downgrades_faults_for_v0() {
        let fault = ServerReply::Fault(
            ApiError::new(ErrorCode::QueueFull, "interactive queue full (cap 4): request shed")
                .with_id(5),
        );
        let v0 = render_reply(WireProto::V0, &fault);
        assert_eq!(
            v0,
            r#"{"Error":{"id":5,"message":"interactive queue full (cap 4): request shed"}}"#
        );
        let v1 = render_reply(WireProto::V1, &fault);
        assert!(v1.starts_with(r#"{"v":1,"reply":{"Fault":"#), "{v1}");
        let back: ReplyEnvelope = serde_json::from_str(&v1).unwrap();
        assert_eq!(back.reply, fault);
    }

    #[test]
    fn spliced_v1_rendering_matches_the_envelope_struct_bytes() {
        for reply in [
            ServerReply::Subscribed { id: 1 },
            ServerReply::Cancelled { id: 2, plan_id: 3, cancelled: false },
            ServerReply::Error { id: None, message: "x\"y".into() },
            ServerReply::Fault(ApiError::new(ErrorCode::Internal, "boom").with_id(4)),
        ] {
            let spliced = render_reply(WireProto::V1, &reply);
            let structural =
                serde_json::to_string(&ReplyEnvelope { v: PROTOCOL_VERSION, reply: reply.clone() })
                    .unwrap();
            assert_eq!(spliced, structural);
        }
    }

    #[test]
    fn spliced_plan_hit_matches_render_reply_bytes() {
        let request = PlanRequest::new(
            1,
            ModelSpec::SmallMlp { batch: 8, in_features: 16, hidden: 32, classes: 4 },
            ClusterSpec::hybrid_small(),
        );
        let entry = |promotions_accepted, warm_demotions| PlanResponse {
            id: 1,
            key: request.cache_key(),
            outcome: PlanOutcome::CacheHit,
            plan: qsync_core::plan::PrecisionPlan::oracle(&request.model.build(), &request.cluster),
            predicted_iteration_us: 1234.5,
            t_min_us: 1000.25,
            promotions_accepted,
            warm_demotions,
            elapsed_us: 0,
            trace_id: None,
        };
        // A cold-planned entry and a warm-replanned one (demotions recorded).
        for cached in [entry(3, 0), entry(0, 2)] {
            let body = PlanHitBody::default();
            for wire in [WireProto::V0, WireProto::V1] {
                for id in [0, 7, u64::MAX] {
                    for trace_id in [None, Some(0), Some(u64::MAX)] {
                        for elapsed_us in [0, 3, u64::MAX] {
                            let hit = PlanResponse { id, elapsed_us, trace_id, ..cached.clone() };
                            assert_eq!(
                                render_plan_hit(wire, &hit, &body),
                                render_reply(wire, &ServerReply::Plan(hit.clone())),
                                "{wire:?} id {id} trace {trace_id:?} elapsed {elapsed_us}"
                            );
                        }
                    }
                }
            }
            let kept = body.0.get().expect("the first hit rendered the body");
            assert!(kept.starts_with("\"key\":\"") && kept.contains("\"outcome\":\"CacheHit\""));
            assert!(kept.ends_with(&format!("\"warm_demotions\":{}", cached.warm_demotions)));
        }
    }

    #[test]
    fn batch_and_subscribe_round_trip_enveloped() {
        let batch = ServerCommand::Batch {
            id: 40,
            cmds: vec![plan_cmd(41), ServerCommand::Stats { id: 42 }],
        };
        let line = serde_json::to_string(&RequestEnvelope::v1(batch.clone())).unwrap();
        let parsed = parse_line(&line).unwrap();
        assert_eq!(parsed.cmd, batch);
        let sub = ServerCommand::Subscribe { id: 43, adopt: false };
        let line = serde_json::to_string(&RequestEnvelope::v1(sub.clone())).unwrap();
        assert_eq!(parse_line(&line).unwrap().cmd, sub);
    }

    #[test]
    fn pre_observability_reply_lines_still_parse() {
        // Golden lines captured from a pre-observability server (no
        // `subscribers` in Stats, no `trace_id` on events). A client built
        // from this crate must keep deserializing them: both sides still
        // negotiate protocol v1, so version negotiation cannot shield a
        // mixed-version deployment from a missing-field break.
        let stats_line = r#"{"Stats":{"id":1,"stats":{"hits":4,"misses":2,"invalidated":1,"evicted":0,"entries":3},"sched":null,"deltas":{"waves":1,"events":2,"batched_replans":3}}}"#;
        let reply: ServerReply = serde_json::from_str(stats_line).unwrap();
        match reply {
            ServerReply::Stats { id, stats, subscribers, .. } => {
                assert_eq!(id, 1);
                assert_eq!(stats.hits, 4);
                assert!(subscribers.is_empty(), "absent subscribers deserialize to empty");
            }
            other => panic!("expected Stats, got {other:?}"),
        }
        let event_lines = [
            r#"{"Event":{"seq":5,"event":{"CacheInvalidated":{"keys":["k1","k2"]}}}}"#,
            r#"{"Event":{"seq":6,"event":{"Replanned":{"key":"k1","outcome":"WarmReplanned","predicted_iteration_us":12.5}}}}"#,
            r#"{"Event":{"seq":7,"event":{"DeltaApplied":{"id":9,"old_cluster_fingerprint":"aa","new_cluster_fingerprint":"bb","invalidated":2,"replanned":2}}}}"#,
        ];
        for line in event_lines {
            let reply: ServerReply = serde_json::from_str(line).unwrap();
            match reply {
                ServerReply::Event { event, .. } => {
                    assert_eq!(event.trace_id(), 0, "absent trace_id deserializes to 0: {line}");
                }
                other => panic!("expected Event, got {other:?}"),
            }
            // The v1-enveloped form of the same lines must parse too.
            let enveloped = format!(r#"{{"v":1,"reply":{}}}"#, line);
            let back: ReplyEnvelope = serde_json::from_str(&enveloped).unwrap();
            assert_eq!(back.v, 1);
        }
    }

    #[test]
    fn pre_replication_lines_still_parse() {
        // A pre-replication client's Subscribe (no `adopt` key) must
        // deserialize with adoption off.
        let cmd: ServerCommand = serde_json::from_str(r#"{"Subscribe":{"id":4}}"#).unwrap();
        assert_eq!(cmd, ServerCommand::Subscribe { id: 4, adopt: false });
        // A pre-replication server's Replanned event (no `adopt` key) must
        // deserialize with no payload.
        let line = r#"{"Event":{"seq":6,"event":{"Replanned":{"key":"k1","outcome":"WarmReplanned","predicted_iteration_us":12.5}}}}"#;
        let reply: ServerReply = serde_json::from_str(line).unwrap();
        let ServerReply::Event { event: ServerEvent::Replanned { adopt, .. }, .. } = reply else {
            panic!("expected Replanned event");
        };
        assert_eq!(adopt, None);
    }

    #[test]
    fn snapshot_commands_round_trip_enveloped() {
        for cmd in [
            ServerCommand::Snapshot { id: 50, path: Some("/tmp/x.qss".into()) },
            ServerCommand::Snapshot { id: 51, path: None },
            ServerCommand::Load { id: 52, path: None },
            ServerCommand::FetchSnapshot { id: 53 },
        ] {
            let line = serde_json::to_string(&RequestEnvelope::v1(cmd.clone())).unwrap();
            let parsed = parse_line(&line).unwrap();
            assert_eq!(parsed.cmd, cmd);
            assert_eq!(parsed.cmd.id(), cmd.id());
        }
    }

    #[test]
    fn without_adopt_strips_payloads_and_nothing_else() {
        let request = PlanRequest::new(
            1,
            ModelSpec::SmallMlp { batch: 8, in_features: 16, hidden: 32, classes: 4 },
            ClusterSpec::hybrid_small(),
        );
        let ready = ServerEvent::PlanReady {
            key: "k".into(),
            outcome: PlanOutcome::ColdPlanned,
            predicted_iteration_us: 9.0,
            trace_id: 7,
            adopt: Some(PlanPayload {
                request: request.clone(),
                response: PlanResponse {
                    id: 1,
                    key: "k".into(),
                    outcome: PlanOutcome::ColdPlanned,
                    plan: qsync_core::plan::PrecisionPlan::oracle(
                        &request.model.build(),
                        &request.cluster,
                    ),
                    predicted_iteration_us: 9.0,
                    t_min_us: 9.0,
                    promotions_accepted: 0,
                    warm_demotions: 0,
                    elapsed_us: 1,
                    trace_id: Some(7),
                },
                inference_pdag: None,
            }),
        };
        let stripped = ready.without_adopt();
        let ServerEvent::PlanReady { adopt, key, trace_id, .. } = &stripped else {
            panic!("variant preserved");
        };
        assert!(adopt.is_none());
        assert_eq!((key.as_str(), *trace_id), ("k", 7));
        // Variants without payloads pass through untouched.
        let inval = ServerEvent::CacheInvalidated { keys: vec!["a".into()], trace_id: 3 };
        assert_eq!(inval.without_adopt(), inval);
    }

    #[test]
    fn correlation_ids_cover_every_reply() {
        assert_eq!(ServerReply::Subscribed { id: 8 }.correlation_id(), Some(8));
        assert_eq!(
            ServerReply::Event {
                seq: 1,
                event: ServerEvent::CacheInvalidated { keys: vec![], trace_id: 0 },
            }
            .correlation_id(),
            None
        );
        assert_eq!(
            ServerReply::Error { id: None, message: "x".into() }.correlation_id(),
            None
        );
        let api = ServerReply::Error { id: Some(3), message: "x".into() }.as_error().unwrap();
        assert_eq!((api.id, api.code), (Some(3), ErrorCode::Internal));
    }
}
