//! The blocking typed client: one request in flight at a time, enveloped v1
//! lines, structured errors surfaced as [`ClientError::Api`].

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::time::Duration;

use qsync_api::{
    CacheStats, DeltaRequest, DeltaResponse, DeltaStats, MetricsSnapshot, PlanRequest,
    PlanResponse, SchedStats, ServerCommand, ServerEvent, ServerReply, SubscriberStats,
    TraceSpan, MAX_PROTOCOL_VERSION, MIN_PROTOCOL_VERSION,
};

use crate::error::{ClientError, Result};
use crate::raw::{RawClient, DEFAULT_TIMEOUT};
use crate::retry::RetryPolicy;

/// The counters of one `Stats` reply.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsSnapshot {
    /// Plan-cache counters.
    pub cache: CacheStats,
    /// Scheduler counters (absent on the schedulerless one-shot path).
    pub sched: Option<SchedStats>,
    /// Elasticity counters.
    pub deltas: DeltaStats,
    /// Per-subscriber dropped-event counters (empty when nobody subscribes).
    pub subscribers: Vec<SubscriberStats>,
}

/// The outcome of a `Resync` round-trip: the authoritative cache state and
/// a fresh event-sequence baseline (see [`Client::resync`] /
/// [`MuxClient::resync`](crate::MuxClient::resync)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResyncSnapshot {
    /// The event-seq baseline: every event already broadcast has a smaller
    /// `seq`; the next one carries at least this value. Feed it to
    /// [`EventStream::reset_baseline`](crate::EventStream::reset_baseline).
    pub seq: u64,
    /// Every key currently cached, sorted — the authoritative state to
    /// rebuild from after dropped events.
    pub keys: Vec<String>,
    /// This connection's dropped-event counter, reset by the resync.
    pub dropped: u64,
}

/// The outcome of a `Snapshot` round-trip: what the server persisted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotInfo {
    /// The file the snapshot was written to.
    pub path: String,
    /// Records written (one per plan entry).
    pub entries: u64,
    /// Total snapshot size in bytes.
    pub bytes: u64,
}

/// The outcome of a `Load` round-trip: what a verified snapshot merged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadInfo {
    /// The file the snapshot was read from.
    pub path: String,
    /// Plan entries adopted into the cache.
    pub plans: u64,
    /// Records skipped (schema drift, never an error).
    pub skipped: u64,
    /// Total snapshot size in bytes.
    pub bytes: u64,
}

/// A full plan store fetched over the wire (`FetchSnapshot`): the `data`
/// string is byte-identical to what `Snapshot` would write to disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotBlob {
    /// Records carried.
    pub entries: u64,
    /// Length of `data` in bytes.
    pub bytes: u64,
    /// The snapshot in the qsync-store file format.
    pub data: String,
}

/// A blocking, typed protocol client.
///
/// `connect` performs the `Hello` version handshake; every call sends one
/// enveloped (v1) command and blocks until its reply arrives. Event lines
/// from a [`subscribe`](Client::subscribe)d stream that interleave with a
/// call's reply are buffered and handed out by
/// [`next_event`](Client::next_event).
///
/// For many requests in flight over one socket, use
/// [`MuxClient`](crate::MuxClient).
///
/// With a [`RetryPolicy`] installed ([`connect_with_retry`] or
/// [`set_retry_policy`]), idempotent calls — [`plan`], [`stats`],
/// [`metrics`], [`trace`], [`resync`] — transparently reconnect and resend
/// on transport failures. Non-idempotent calls ([`delta`], [`cancel`],
/// [`subscribe`], [`unsubscribe`]) are **never** retried; see the
/// [`retry`](crate::retry) module for the reasoning.
///
/// [`connect_with_retry`]: Client::connect_with_retry
/// [`set_retry_policy`]: Client::set_retry_policy
/// [`plan`]: Client::plan
/// [`stats`]: Client::stats
/// [`metrics`]: Client::metrics
/// [`trace`]: Client::trace
/// [`resync`]: Client::resync
/// [`delta`]: Client::delta
/// [`cancel`]: Client::cancel
/// [`subscribe`]: Client::subscribe
/// [`unsubscribe`]: Client::unsubscribe
pub struct Client {
    raw: RawClient,
    /// Where we connected — kept for retry reconnects.
    addr: SocketAddr,
    /// Socket read/write timeout applied to the connection (and reconnects).
    timeout: Duration,
    retry: Option<RetryPolicy>,
    /// Server-advertised protocol range (from the connect handshake).
    server_versions: (u32, u32),
    /// Server software identifier (from the connect handshake).
    server_ident: String,
    next_id: u64,
    /// Events that arrived while waiting for a call's reply.
    buffered_events: VecDeque<(u64, ServerEvent)>,
}

impl Client {
    /// Connect and perform the `Hello` handshake, with the default timeout.
    pub fn connect(addr: SocketAddr) -> Result<Client> {
        Self::connect_timeout(addr, DEFAULT_TIMEOUT)
    }

    /// Connect with an explicit socket read/write timeout.
    pub fn connect_timeout(addr: SocketAddr, timeout: Duration) -> Result<Client> {
        let raw = RawClient::connect_timeout(addr, timeout)?;
        let mut client = Client {
            raw,
            addr,
            timeout,
            retry: None,
            server_versions: (MIN_PROTOCOL_VERSION, MAX_PROTOCOL_VERSION),
            server_ident: String::new(),
            next_id: 0,
            buffered_events: VecDeque::new(),
        };
        client.handshake()?;
        Ok(client)
    }

    /// Connect with a [`RetryPolicy`]: the initial dial-and-handshake is
    /// itself retried under the policy (with its `request_timeout` as the
    /// socket timeout), and the policy stays installed for later idempotent
    /// calls.
    pub fn connect_with_retry(addr: SocketAddr, policy: RetryPolicy) -> Result<Client> {
        let mut attempt: u32 = 0;
        loop {
            let err = match Self::connect_timeout(addr, policy.request_timeout) {
                Ok(mut client) => {
                    client.retry = Some(policy);
                    return Ok(client);
                }
                Err(e) if !retryable(&e) => return Err(e),
                Err(e) => e,
            };
            attempt += 1;
            if attempt >= policy.max_attempts.max(1) {
                return Err(ClientError::RetriesExhausted { attempts: attempt, last: Box::new(err) });
            }
            std::thread::sleep(policy.backoff(attempt - 1, u64::from(attempt)));
        }
    }

    /// Install (or with `None`, remove) a retry policy on an existing
    /// connection. Applies to idempotent calls only; see the type docs.
    pub fn set_retry_policy(&mut self, policy: Option<RetryPolicy>) {
        self.retry = policy;
    }

    /// The retry policy currently governing idempotent calls, if any.
    pub fn retry_policy(&self) -> Option<&RetryPolicy> {
        self.retry.as_ref()
    }

    /// Run the `Hello` version handshake on the current socket.
    fn handshake(&mut self) -> Result<()> {
        let id = self.fresh_id();
        let reply = self.request(ServerCommand::Hello {
            id,
            min_v: MIN_PROTOCOL_VERSION,
            max_v: MAX_PROTOCOL_VERSION,
        })?;
        match reply {
            ServerReply::Hello { min_v, max_v, server, .. } => {
                self.server_versions = (min_v, max_v);
                self.server_ident = server;
                Ok(())
            }
            other => Err(unexpected("Hello", &other)),
        }
    }

    /// Replace the (assumed broken) socket with a fresh connection and
    /// re-handshake. Connection state does not survive: buffered events are
    /// discarded and any server-side subscription is gone — after a retried
    /// call succeeds on a new connection, re-[`subscribe`](Client::subscribe)
    /// and [`resync`](Client::resync) if events matter.
    fn reconnect(&mut self) -> Result<()> {
        self.raw = RawClient::connect_timeout(self.addr, self.timeout)?;
        self.buffered_events.clear();
        self.handshake()
    }

    /// The protocol range the server advertised at connect time.
    pub fn server_versions(&self) -> (u32, u32) {
        self.server_versions
    }

    /// The server software identifier advertised at connect time.
    pub fn server_ident(&self) -> &str {
        &self.server_ident
    }

    fn fresh_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// Send one enveloped command and block until its reply arrives,
    /// buffering any event lines that interleave. A `Fault` (or legacy
    /// `Error`) answering this command returns as [`ClientError::Api`].
    fn request(&mut self, command: ServerCommand) -> Result<ServerReply> {
        let id = command.id();
        self.raw.send_enveloped(&command)?;
        loop {
            let reply = self.raw.recv()?;
            if let ServerReply::Event { seq, event } = reply {
                self.buffered_events.push_back((seq, event));
                continue;
            }
            if let Some(error) = reply.as_error() {
                // An id-less fault on a single-in-flight connection can only
                // concern this request (e.g. a parse failure of its line).
                if error.id == Some(id) || error.id.is_none() {
                    return Err(ClientError::Api(error));
                }
            }
            if reply.correlation_id() == Some(id) {
                return Ok(reply);
            }
            return Err(ClientError::Protocol(format!(
                "reply correlates to id {:?}, expected {id}: {reply:?}",
                reply.correlation_id()
            )));
        }
    }

    /// [`request`](Client::request), wrapped in the retry loop — callers
    /// vouch that `build` produces an idempotent command. Each attempt gets a
    /// fresh id; transport failures sleep out the policy's backoff, replace
    /// the broken socket via [`reconnect`](Client::reconnect) (a failed
    /// reconnect burns an attempt too) and resend, until the attempt budget
    /// is spent.
    fn request_idempotent(
        &mut self,
        build: impl Fn(u64) -> ServerCommand,
    ) -> Result<ServerReply> {
        let Some(policy) = self.retry else {
            let id = self.fresh_id();
            return self.request(build(id));
        };
        let mut attempt: u32 = 0;
        loop {
            let id = self.fresh_id();
            let mut err = match self.request(build(id)) {
                Ok(reply) => return Ok(reply),
                Err(e) if !retryable(&e) => return Err(e),
                Err(e) => e,
            };
            // A rate-limit shed is a healthy connection saying "slow down":
            // back off and resend on the same socket. Reconnecting here
            // would be both wasteful and wrong — a fresh connection starts
            // with a full per-connection bucket, cheating the limiter.
            let rate_limited = is_rate_limited(&err);
            loop {
                attempt += 1;
                if attempt >= policy.max_attempts.max(1) {
                    return Err(ClientError::RetriesExhausted {
                        attempts: attempt,
                        last: Box::new(err),
                    });
                }
                std::thread::sleep(policy.backoff(attempt - 1, id));
                if rate_limited {
                    break;
                }
                match self.reconnect() {
                    Ok(()) => break,
                    Err(e) => err = e,
                }
            }
        }
    }

    /// Request a plan and block for the response. The request's `id` is
    /// replaced with a connection-unique one (echoed in the response).
    ///
    /// Retried under the client's [`RetryPolicy`]: a plan is keyed by its
    /// request's cache key, so resending after a lost reply is safe.
    pub fn plan(&mut self, request: PlanRequest) -> Result<PlanResponse> {
        match self.request_idempotent(|id| {
            let mut request = request.clone();
            request.id = id;
            ServerCommand::Plan(request)
        })? {
            ServerReply::Plan(response) => Ok(response),
            other => Err(unexpected("Plan", &other)),
        }
    }

    /// Apply a cluster delta and block for the outcome (the delta is a
    /// barrier server-side; this can wait out queued planning work).
    ///
    /// **Never retried**, policy or not: a delta moves the cluster shape, so
    /// resending one whose reply was lost could apply it twice. On a
    /// transport failure the caller must decide — typically by
    /// [`resync`](Client::resync)ing and inspecting the authoritative state.
    pub fn delta(&mut self, mut request: DeltaRequest) -> Result<DeltaResponse> {
        request.id = self.fresh_id();
        match self.request(ServerCommand::Delta(request))? {
            ServerReply::Delta(response) => Ok(response),
            other => Err(unexpected("Delta", &other)),
        }
    }

    /// Read the server's cache/scheduler/elasticity counters.
    ///
    /// Retried under the client's [`RetryPolicy`] (read-only).
    pub fn stats(&mut self) -> Result<StatsSnapshot> {
        match self.request_idempotent(|id| ServerCommand::Stats { id })? {
            ServerReply::Stats { stats, sched, deltas, subscribers, .. } => {
                Ok(StatsSnapshot { cache: stats, sched, deltas, subscribers })
            }
            other => Err(unexpected("Stats", &other)),
        }
    }

    /// Read the server's full metrics snapshot (counters, gauges and latency
    /// histograms across transport, scheduler, engine and delta pipeline).
    ///
    /// Retried under the client's [`RetryPolicy`] (read-only).
    pub fn metrics(&mut self) -> Result<MetricsSnapshot> {
        match self.request_idempotent(|id| ServerCommand::Metrics { id })? {
            ServerReply::Metrics { metrics, .. } => Ok(metrics),
            other => Err(unexpected("Metrics", &other)),
        }
    }

    /// Fetch the recorded spans of one request's trace (oldest first). The
    /// trace id is echoed in [`PlanResponse::trace_id`] — or chosen by the
    /// caller via [`PlanRequest::trace_id`]. `limit` caps the span count
    /// (server-side ring capacity when `None`).
    ///
    /// Retried under the client's [`RetryPolicy`] (read-only).
    pub fn trace(&mut self, trace_id: u64, limit: Option<usize>) -> Result<Vec<TraceSpan>> {
        match self.request_idempotent(|id| ServerCommand::Trace { id, trace_id, limit })? {
            ServerReply::Trace { spans, .. } => Ok(spans),
            other => Err(unexpected("Trace", &other)),
        }
    }

    /// Recover from dropped events: returns the authoritative cache state,
    /// an event-seq baseline, and resets this connection's dropped counter.
    ///
    /// Retried under the client's [`RetryPolicy`]: resync is the designated
    /// recovery command, so re-running one is always safe.
    pub fn resync(&mut self) -> Result<ResyncSnapshot> {
        match self.request_idempotent(|id| ServerCommand::Resync { id })? {
            ServerReply::Resynced { seq, keys, dropped, .. } => {
                Ok(ResyncSnapshot { seq, keys, dropped })
            }
            other => Err(unexpected("Resync", &other)),
        }
    }

    /// Cancel a still-queued plan by the id echoed from
    /// [`plan`](Client::plan)'s request. Returns whether the plan was still
    /// queued (on this connection) and has been removed.
    ///
    /// Note: the blocking client waits out every plan it submits, so this is
    /// chiefly useful against plans submitted through the same connection by
    /// [`send_raw`](Client::send_raw)-style pipelining in tests; the
    /// multiplexing client is the natural cancel user.
    ///
    /// Never retried: whether the target was still queued is not stable
    /// across attempts.
    pub fn cancel(&mut self, plan_id: u64) -> Result<bool> {
        let id = self.fresh_id();
        match self.request(ServerCommand::Cancel { id, plan_id })? {
            ServerReply::Cancelled { cancelled, .. } => Ok(cancelled),
            other => Err(unexpected("Cancel", &other)),
        }
    }

    /// Subscribe this connection to the server's event stream; events are
    /// then read with [`next_event`](Client::next_event).
    ///
    /// Never retried: a subscription is connection state, and a retry runs
    /// on a fresh connection.
    pub fn subscribe(&mut self) -> Result<()> {
        let id = self.fresh_id();
        match self.request(ServerCommand::Subscribe { id, adopt: false })? {
            ServerReply::Subscribed { .. } => Ok(()),
            other => Err(unexpected("Subscribe", &other)),
        }
    }

    /// End this connection's event stream.
    pub fn unsubscribe(&mut self) -> Result<()> {
        let id = self.fresh_id();
        match self.request(ServerCommand::Unsubscribe { id })? {
            ServerReply::Unsubscribed { .. } => Ok(()),
            other => Err(unexpected("Unsubscribe", &other)),
        }
    }

    /// Block for the next event: buffered first, then from the socket
    /// (subject to the connection's receive timeout). Returns the server's
    /// event sequence number and the event.
    pub fn next_event(&mut self) -> Result<(u64, ServerEvent)> {
        if let Some(buffered) = self.buffered_events.pop_front() {
            return Ok(buffered);
        }
        match self.raw.recv()? {
            ServerReply::Event { seq, event } => Ok((seq, event)),
            other => {
                Err(ClientError::Protocol(format!("expected an event line, got {other:?}")))
            }
        }
    }

    /// Events received but not yet handed out by
    /// [`next_event`](Client::next_event).
    pub fn buffered_event_count(&self) -> usize {
        self.buffered_events.len()
    }

    /// Escape hatch for tests and tools: the underlying raw connection.
    pub fn raw(&mut self) -> &mut RawClient {
        &mut self.raw
    }

    /// Send a pre-serialized line as-is (tests pipelining legacy input).
    pub fn send_raw(&mut self, line: &str) -> Result<()> {
        self.raw.send_line(line)
    }
}

fn unexpected(wanted: &str, got: &ServerReply) -> ClientError {
    ClientError::Protocol(format!("expected a {wanted} reply, got {got:?}"))
}

/// Transport failures are retryable: the request may never have reached the
/// server, or the reply was lost. Among server-spoken errors (`Api`) exactly
/// one is retryable — `rate_limited`, the server's explicit "back off and
/// resend" signal (the command was rejected before any state changed).
/// Every other `Api` error and all protocol violations mean the server *did*
/// process something — retrying would not change the answer.
fn retryable(e: &ClientError) -> bool {
    matches!(e, ClientError::Io(_) | ClientError::Closed) || is_rate_limited(e)
}

/// Whether this error is the server's structured rate-limit shed.
fn is_rate_limited(e: &ClientError) -> bool {
    matches!(e, ClientError::Api(err) if err.code == qsync_api::ErrorCode::RateLimited)
}
