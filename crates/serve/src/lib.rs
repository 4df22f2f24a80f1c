//! # qsync-serve — the plan-serving subsystem
//!
//! The offline pipeline (indicator → predictor → allocator → [`PrecisionPlan`])
//! computes one plan for one (model, cluster) pair. This crate wraps that
//! pipeline in a long-lived service suitable for a fleet: a multi-threaded
//! plan server that accepts JSON-line [`PlanRequest`]s over stdin or TCP,
//! dispatches them to a worker pool running the existing allocator, and
//! returns serialized plans.
//!
//! The **wire contract** — commands, replies, the versioned envelope,
//! structured errors, events — lives in [`qsync_api`] (shared with
//! [`qsync-client`](https://crates.io/crates/qsync-client) and re-exported
//! here); this crate owns the serving machinery:
//!
//! * **Content-addressed plan cache** ([`cache::PlanCache`]): requests are
//!   keyed by a stable fingerprint of the canonicalized model DAG, the cluster
//!   spec and the planning constraints. A repeated request is a cache hit and
//!   returns a byte-identical serialized plan.
//! * **Elastic re-planning** ([`engine`], [`server`]): device join/leave and
//!   capability-degradation events ([`ClusterDelta`]) invalidate exactly the
//!   cache entries planned against the affected cluster, then re-plan them by
//!   warm-starting the allocator's precision-recovery phase from the cached
//!   assignment.
//! * **Scheduled worker-pool concurrency** ([`server::PlanServer`]): planning
//!   is CPU bound, so the server runs N planner threads — fed by a
//!   [`qsync_sched::Scheduler`] rather than a FIFO channel. Requests may
//!   carry a priority class (interactive > batch > background), a fair-share
//!   `client_id` (deficit round robin across clients; absent, the
//!   *connection identity* is the client), a per-client DRR `weight` and a
//!   `deadline_ms` (EDF lane + miss accounting); requests without them
//!   behave exactly like the original FIFO server. Queues are bounded (load
//!   shedding) and queued requests are cancellable by the connection that
//!   submitted them — the scheduler's job table is the only record of a
//!   queued plan. Responses stream back as they complete (responses carry
//!   the request id; ordering across concurrent requests is not guaranteed).
//! * **Reactor transport** ([`transport`]): TCP connections are multiplexed
//!   onto one epoll event loop (vendored [`polling`]), so thousands of idle
//!   connections cost buffers, not threads — and every connection shares
//!   **one** scheduler, engine and worker pool, making DRR fairness and
//!   delta quiescing global across clients instead of per connection. The
//!   stdin JSONL path is a thin blocking adapter over the same core.
//! * **Delta batching** ([`server`]): elasticity events queue on the core
//!   and apply in waves — everything queued when a wave starts goes
//!   together, with an optional collection window (`--delta-window-ms`) so
//!   *near*-concurrent event storms batch too; same-cluster deltas compose
//!   into one shape chain, entries are invalidated once, and the warm
//!   re-plans fan out through the scheduler's batch class — byte-identical
//!   to serial application. One function runs every wave, on the server's
//!   single delta thread and under simulation alike.
//! * **Overload protection** ([`admission`]): per-connection and per-client
//!   token buckets decide, before anything else looks at a command, whether
//!   it is served or answered with a structured `RateLimited` error.
//! * **Event stream** (`events`): `Subscribe`d connections receive
//!   [`ServerEvent`] lines — cache invalidations and
//!   warm re-plans as they happen — instead of polling `Stats`. A slow
//!   subscriber sheds events rather than buffering unboundedly; the client
//!   detects the seq gap and recovers with `Resync`.
//! * **Observability** ([`metrics`], [`admin`]): one [`ServeObs`] instrument
//!   set (lock-free counters/gauges/histograms from `qsync-obs`) shared by
//!   transport, scheduler, engine and delta pipeline; exposed through the
//!   wire `Metrics` command, a Prometheus-style text endpoint
//!   (`--admin-addr`), and per-request trace ids answering the `Trace`
//!   command (see `docs/OBSERVABILITY.md`).
//!
//! * **Deterministic simulation** ([`sim`]): the whole server — reactor,
//!   core, scheduler, engine, delta waves — can run on virtual time
//!   ([`qsync_clock::ManualClock`]) over in-memory connections, with
//!   scripted faults (torn frames, mid-frame drops, stalled readers,
//!   EMFILE at accept). The `qsync-lab` crate builds seeded chaos scripts
//!   and an invariant oracle on top (see `docs/SIMULATION.md`).
//!
//! * **Persistence + replication** ([`persist`], [`replica`]): the plan
//!   cache snapshots to a versioned, checksummed [`qsync_store`] file —
//!   periodically (`--snapshot-interval-ms`), on the `Snapshot` command, and
//!   once at shutdown — and warm-loads on boot (`--store`), so a restarted server
//!   serves its previous plan zoo entirely from cache. A `--follow <addr>`
//!   replica bootstraps from the primary's `FetchSnapshot` reply, then
//!   applies plan/invalidation payloads riding the subscribed event stream,
//!   recovering from any event-seq gap with a fresh snapshot pull (see
//!   `docs/PERSISTENCE.md`).
//!
//! The `qsync-serve` binary exposes `serve` and `plan` (one-shot)
//! subcommands; `examples/plan_server.rs` in the workspace root is the
//! quickstart, `docs/PROTOCOL.md` documents the wire format, and load
//! generation is `qsync_benchmark/`.

#![warn(missing_docs)]

pub mod admin;
pub mod admission;
pub mod cache;
pub mod engine;
mod events;
pub mod metrics;
mod parts;
pub mod persist;
pub mod replica;
pub mod server;
pub mod sim;
pub mod transport;

pub use admin::serve_admin;
pub use admission::{RateLimitConfig, TokenBucketConfig};
pub use cache::{CacheConfig, CacheStats, PlanCache};
pub use metrics::ServeObs;
pub use engine::{PlanEngine, ReplanChain};
pub use persist::{ImportStats, StoreConfig};
pub use replica::{follow, FollowerConfig, ReplicaApply};
pub use qsync_api::{
    ApiError, ClusterDelta, DeltaRequest, DeltaResponse, DeltaStats, ErrorCode, IndicatorChoice,
    ModelSpec, PlanOutcome, PlanRequest, PlanResponse, ReplyEnvelope, RequestEnvelope,
    ServerCommand, ServerEvent, ServerReply, WireProto, MAX_PROTOCOL_VERSION,
    MIN_PROTOCOL_VERSION, PROTOCOL_VERSION,
};
pub use qsync_core::plan::PrecisionPlan;
pub use qsync_sched::{Priority, SchedConfig, SchedPolicy, SchedStats};
pub use server::PlanServer;
pub use sim::{SimConfig, SimConn, SimOp, SimServer};
pub use transport::{ShutdownSignal, TransportConfig};
