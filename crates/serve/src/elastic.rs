//! The elasticity layer's wire types.
//!
//! The shape-change types — [`ClusterDelta`], [`DeltaRequest`],
//! [`DeltaResponse`], [`DeltaStats`] — live in the protocol crate
//! ([`qsync_api::delta`]) and are re-exported here for the serving code.
//!
//! Elasticity events cluster in time — a spot reclaim degrades several
//! devices at once, a scale-down removes ranks back to back — so the server
//! applies them in **waves**: every delta queued when a wave starts is
//! handed to [`PlanEngine::apply_deltas_with`](crate::engine::PlanEngine::apply_deltas_with)
//! together, which composes same-cluster deltas, invalidates once and emits
//! the re-plan chains as one batch. The queue, the optional collection
//! window (`--delta-window-ms`) and the wave executor are the server's
//! ([`crate::server`]); there is no second batching layer here.

pub use qsync_api::{ClusterDelta, DeltaRequest, DeltaResponse, DeltaStats};
