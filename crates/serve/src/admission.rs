//! Admission control: token-bucket overload protection, decided per command
//! before anything else looks at it (`Admission::admit`).
//!
//! A shed command costs one bucket check and one error line and touches
//! neither the scheduler nor the engine. It is **always answered** — a
//! structured [`ErrorCode::RateLimited`] error carrying the command's `id`
//! (legacy v0 connections get the byte-compatible `Error` shape), never a
//! silent drop — and is safe to retry after a backoff: nothing changed. With
//! no limit configured (the default) `admit` returns at once, lock-free.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use qsync_api::{ApiError, ErrorCode, ServerCommand};

use crate::metrics::ServeObs;
use crate::server::ConnState;

/// Tuning of one token bucket: a steady refill rate plus a burst allowance.
///
/// The bucket is integer arithmetic in **token-millis** (1 command costs
/// 1000): refill is `rate_per_sec × elapsed_ms` token-millis, capped at
/// `burst × 1000` — deterministic for any clock, which is what lets the lab
/// replay overload scenarios byte-for-byte on a
/// [`ManualClock`](qsync_clock::ManualClock).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TokenBucketConfig {
    /// Sustained admission rate, commands per second.
    pub rate_per_sec: u64,
    /// Burst allowance: commands admitted instantly from a full bucket.
    pub burst: u64,
}

/// The two limits, checked in this order. The default has neither.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RateLimitConfig {
    /// Per-connection bucket: bounds any single socket regardless of the
    /// identities it claims.
    pub per_conn: Option<TokenBucketConfig>,
    /// Per-client bucket, keyed by the request's `client_id` (falling back
    /// to the connection identity): bounds an identity that spreads itself
    /// across many connections.
    pub per_client: Option<TokenBucketConfig>,
}

impl RateLimitConfig {
    /// Whether any limit is configured (the hot path's fast-out).
    pub fn is_enabled(&self) -> bool {
        self.per_conn.is_some() || self.per_client.is_some()
    }
}

/// Deterministic integer token bucket (see [`TokenBucketConfig`]).
#[derive(Debug)]
pub(crate) struct TokenBucket {
    config: TokenBucketConfig,
    /// Current fill, in token-millis (1000 per admissible command).
    tokens_milli: u64,
    /// Clock-ms of the last refill.
    last_refill_ms: u64,
}

impl TokenBucket {
    /// A full bucket as of `now_ms`.
    fn new(config: TokenBucketConfig, now_ms: u64) -> Self {
        TokenBucket {
            config,
            tokens_milli: config.burst.saturating_mul(1000),
            last_refill_ms: now_ms,
        }
    }

    /// Refill for the elapsed time, then try to spend one command's worth of
    /// tokens. Returns whether the command is admitted.
    fn try_admit(&mut self, now_ms: u64) -> bool {
        let elapsed_ms = now_ms.saturating_sub(self.last_refill_ms);
        if elapsed_ms > 0 {
            // rate_per_sec tokens/s == rate_per_sec token-millis per ms.
            self.tokens_milli = self
                .tokens_milli
                .saturating_add(self.config.rate_per_sec.saturating_mul(elapsed_ms))
                .min(self.config.burst.saturating_mul(1000));
            self.last_refill_ms = now_ms;
        }
        if self.tokens_milli >= 1000 {
            self.tokens_milli -= 1000;
            true
        } else {
            false
        }
    }
}

/// A core's admission state. (A connection's own bucket lives on the
/// connection.)
pub(crate) struct Admission {
    config: RateLimitConfig,
    /// Per-client token buckets (the `per_client` limit), keyed by the
    /// request's fair-share identity.
    client_buckets: Mutex<HashMap<String, TokenBucket>>,
    obs: Arc<ServeObs>,
}

impl Admission {
    pub(crate) fn new(config: RateLimitConfig, obs: Arc<ServeObs>) -> Self {
        Admission { config, client_buckets: Mutex::new(HashMap::new()), obs }
    }

    /// The bucket a connection opened at `now_ms` carries: full, or `None`
    /// without a per-connection limit.
    pub(crate) fn conn_bucket(&self, now_ms: u64) -> Option<Mutex<TokenBucket>> {
        self.config.per_conn.map(|config| Mutex::new(TokenBucket::new(config, now_ms)))
    }

    /// Refill-and-spend this command's token in each configured scope.
    /// Returns the shed error when a bucket is empty. `Batch` wrappers pass
    /// free: their members are checked one by one as they dispatch, so a
    /// flooded batch draws exactly one error per member, never a wholesale
    /// drop.
    pub(crate) fn admit(
        &self,
        conn: &ConnState,
        command: &ServerCommand,
        now_ms: u64,
    ) -> Option<ApiError> {
        if !self.config.is_enabled() || matches!(command, ServerCommand::Batch { .. }) {
            return None;
        }
        if let Some(bucket) = conn.rate_bucket() {
            let mut bucket = bucket.lock().expect("conn rate bucket poisoned");
            if !bucket.try_admit(now_ms) {
                self.obs.rate_limited_conn.inc();
                return Some(shed_error("connection", bucket.config, command));
            }
        }
        if let Some(config) = self.config.per_client {
            let client = match command {
                ServerCommand::Plan(request) => {
                    request.client_id.as_deref().unwrap_or(conn.identity())
                }
                _ => conn.identity(),
            };
            let admitted = self
                .client_buckets
                .lock()
                .expect("client buckets poisoned")
                .entry(client.to_owned())
                .or_insert_with(|| TokenBucket::new(config, now_ms))
                .try_admit(now_ms);
            if !admitted {
                self.obs.rate_limited_client.inc();
                return Some(shed_error(&format!("client {client:?}"), config, command));
            }
        }
        None
    }
}

/// The structured error a shed command is answered with, echoing its `id` so
/// the client can correlate it.
fn shed_error(scope: &str, bucket: TokenBucketConfig, command: &ServerCommand) -> ApiError {
    ApiError::new(
        ErrorCode::RateLimited,
        format!(
            "{scope} rate limit exceeded ({}/s, burst {}); retry after backoff",
            bucket.rate_per_sec, bucket.burst
        ),
    )
    .with_id(command.id())
}
