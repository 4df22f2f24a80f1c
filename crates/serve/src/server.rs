//! The plan server: JSON-line protocol over stdin/stdout or TCP, executed by
//! one shared scheduling core.
//!
//! Protocol: one [`ServerCommand`] per input line — bare (legacy, protocol
//! v0) or wrapped in a v1 [`qsync_api::RequestEnvelope`] — and one
//! [`ServerReply`] per output line, rendered in the form the command arrived
//! in ([`qsync_api::parse_line`] / [`qsync_api::render_reply`]). Plan
//! requests are submitted to a [`Scheduler`] and executed by a pool of
//! planner threads; replies stream back **as they complete** — callers
//! correlate by the echoed `id`, not by line order. Scheduling honors the
//! request's optional `priority`, `client_id`, `deadline_ms` and `weight`
//! fields (see [`crate::request::PlanRequest`]); a request without a
//! `client_id` is fair-queued under its **connection identity**, so one
//! flooding connection cannot starve the others.
//!
//! There is exactly **one** scheduler, one [`PlanEngine`], one delta queue
//! and one worker pool per server, shared by every connection
//! ([`ServeCore`]): DRR fairness, delta quiescing and the plan cache are all
//! global, and `ServeCore::handle_command` is the one place a command gets
//! its meaning. The blocking JSONL path ([`PlanServer::serve_lines`]) is a
//! thin adapter over that core; the TCP path multiplexes all connections
//! onto an epoll reactor ([`crate::transport`]).
//!
//! Elasticity deltas are barriers, applied in **waves** by one function
//! (`ServeCore::run_delta_wave`): every delta queued once the oldest has
//! waited out the collection window (`--delta-window-ms`, zero by default)
//! is taken together, the wave waits for every plan submitted (on any
//! connection) before it, then applies as one [`PlanEngine`] batch. A
//! threaded core runs waves on its single delta thread and fans the warm
//! re-plans out through the scheduler's **batch** class; the threadless
//! simulation core ([`crate::sim`]) runs the same function from its pump
//! and the re-plans inline. Either way the connection that submitted a
//! delta keeps streaming; in particular a `Stats` read taken mid-quiesce
//! answers immediately from counters instead of blocking behind the
//! barrier.
//!
//! `Cancel` removes a still-queued plan request submitted **on the same
//! connection** (a successfully cancelled plan produces no `Plan` reply; the
//! `Cancelled` confirmation is its reply); plans queued by other connections
//! are out of reach and report `cancelled: false`.
//!
//! Connections that [`Subscribe`](ServerCommand::Subscribe) receive the
//! server's **event stream**: each delta wave broadcasts
//! [`ServerEvent::CacheInvalidated`] (what was evicted), one
//! [`ServerEvent::Replanned`] per warm re-plan, then
//! [`ServerEvent::DeltaApplied`] per composed delta — so a watching client
//! observes invalidate → re-plan for deltas *other* clients submit, without
//! polling `Stats`.

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use qsync_api::{
    render_plan_hit, render_reply, ApiError, ErrorCode, PlanPayload, ServerEvent, SubscriberStats,
    WireProto, MAX_PROTOCOL_VERSION, MIN_PROTOCOL_VERSION,
};
use qsync_clock::{Clock, SystemClock};
use qsync_obs::{CounterValue, GaugeValue, MetricsSnapshot};
pub use qsync_api::{ServerCommand, ServerReply};

use qsync_sched::{Dispatch, JobMeta, Priority, SchedConfig, Scheduler, SubmitError};

use crate::elastic::DeltaRequest;
use crate::engine::{PlanEngine, ReplanChain};
use crate::persist::{self, StoreConfig};
use crate::request::{PlanOutcome, PlanRequest, PlanResponse};
use crate::sim::SimOp;
use crate::transport::{Outbox, TransportConfig};

/// Software identifier advertised in `Hello` replies.
const SERVER_IDENT: &str = concat!("qsync-serve/", env!("CARGO_PKG_VERSION"));

/// One scheduler job of the serving layer.
enum ServeJob {
    /// A client plan request; the reply is routed back to the submitting
    /// connection in the wire form the request arrived in.
    Plan {
        request: PlanRequest,
        conn: Arc<ConnState>,
        wire: WireProto,
    },
    /// One re-plan chain of a delta wave; the result is sent back to the
    /// wave leader.
    Replan {
        index: usize,
        chain: Box<ReplanChain>,
        tx: mpsc::Sender<(usize, PlanResponse)>,
    },
}

/// Where a connection's replies go.
pub(crate) enum Sink {
    /// The blocking-adapter path: serialized replies flow through a channel
    /// to a dedicated writer thread.
    Line(mpsc::Sender<String>),
    /// The reactor path: bytes are buffered per connection and flushed by the
    /// event loop under write-readiness.
    Outbox(Arc<Outbox>),
}

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

/// Token-bucket overload protection, enforced per command at admission.
///
/// A shed command is **always answered** with a structured
/// [`ErrorCode::RateLimited`] error carrying the command's `id` (legacy v0
/// connections get the byte-compatible `Error` shape) — never a silent drop
/// — and it is safe to retry after a backoff: the command was rejected
/// before any state changed. The default has no limits.
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
struct TokenBucket {
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

/// Per-connection serving state, shared between the transport (which reads
/// commands) and the workers (which produce replies).
pub(crate) struct ConnState {
    /// Server-unique connection number.
    id: u64,
    /// `conn-{id}`: the default fair-queuing identity.
    identity: String,
    /// Commands accepted but not yet replied to (plans queued or running,
    /// deltas pending). The transport closes a connection only once this
    /// returns to zero.
    pending: Mutex<usize>,
    /// Signalled when `pending` returns to zero.
    idle: Condvar,
    /// This connection's token bucket, created lazily from the core's
    /// [`RateLimitConfig`] on the first admission check.
    rate: Mutex<Option<TokenBucket>>,
    sink: Sink,
}

impl ConnState {
    /// The fair-queuing identity of requests that don't name a `client_id`.
    pub(crate) fn identity(&self) -> &str {
        &self.identity
    }

    /// The connection number.
    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    /// Serialize and enqueue one reply line in the given wire form.
    pub(crate) fn send(&self, wire: WireProto, reply: &ServerReply) {
        self.send_rendered(render_reply(wire, reply));
    }

    /// Enqueue one already-rendered reply line (no trailing newline).
    fn send_rendered(&self, line: String) {
        match &self.sink {
            // A dropped receiver means the stream ended; nothing to tell.
            Sink::Line(tx) => drop(tx.send(line)),
            Sink::Outbox(outbox) => outbox.push_line(&line),
        }
    }

    /// Send a structured error in the given wire form (legacy connections
    /// get the byte-identical v0 `Error` line).
    pub(crate) fn send_err(&self, wire: WireProto, error: ApiError) {
        self.send(wire, &ServerReply::Fault(error));
    }

    /// Whether this connection can absorb another server-push event. Replies
    /// are owed and always buffer; events are droppable, so a subscriber
    /// whose un-flushed bytes exceed `cap` loses the event instead of
    /// growing the server's memory without bound (the stream's monotone
    /// `seq` exposes the gap to the client).
    fn event_capacity_ok(&self, cap: usize) -> bool {
        match &self.sink {
            // The blocking path's writer thread drains continuously into the
            // caller-owned writer; there is no measurable backlog to bound.
            Sink::Line(_) => true,
            Sink::Outbox(outbox) => outbox.len() <= cap,
        }
    }

    fn begin(&self) {
        *self.pending.lock().expect("pending counter poisoned") += 1;
    }

    fn end(&self) {
        let mut pending = self.pending.lock().expect("pending counter poisoned");
        *pending -= 1;
        let idle = *pending == 0;
        drop(pending);
        if idle {
            self.idle.notify_all();
            // Wake the reactor so it can re-check closability of an EOF'd
            // connection whose last reply just landed.
            if let Sink::Outbox(outbox) = &self.sink {
                outbox.mark_dirty();
            }
        }
    }

    /// Outstanding replies (commands accepted but not yet answered).
    pub(crate) fn pending_count(&self) -> usize {
        *self.pending.lock().expect("pending counter poisoned")
    }

    /// Block until every accepted command has been replied to.
    fn wait_idle(&self) {
        let mut pending = self.pending.lock().expect("pending counter poisoned");
        while *pending > 0 {
            pending = self.idle.wait(pending).expect("pending counter poisoned");
        }
    }
}

/// A delta waiting in the core's queue for the next wave.
struct DeltaTask {
    request: DeltaRequest,
    conn: Arc<ConnState>,
    wire: WireProto,
    /// Core-clock milliseconds at which it was queued; the collection window
    /// is measured from the oldest queued task.
    queued_ms: u64,
}

/// The core's delta queue (guarded by one mutex, signalled by
/// `ServeCore::delta_ready`).
#[derive(Default)]
struct DeltaQueue {
    tasks: VecDeque<DeltaTask>,
    /// Set by [`CoreHandle::stop`]: new deltas draw `ShuttingDown`, what is
    /// already queued applies at once (no window) and the delta thread exits
    /// when the queue is empty.
    closed: bool,
}

/// One event-stream subscriber, with its slow-consumer accounting.
struct Subscriber {
    /// Wire form of the `Subscribe` command (events render in it).
    wire: WireProto,
    conn: Arc<ConnState>,
    /// Events dropped on this subscription because the connection's reply
    /// backlog was over the event cap. Reset by `Resync`.
    dropped: u64,
    /// Whether this subscriber opted into full adoption payloads
    /// (`Subscribe { adopt: true }`, the replica feed). Others receive the
    /// same events with the payload stripped.
    adopt: bool,
}

/// The shared serving core: exactly one scheduler, engine (plan cache),
/// delta queue and worker pool, shared by **every** connection of a server —
/// fairness, delta barriers and the event stream are global.
pub(crate) struct ServeCore {
    engine: Arc<PlanEngine>,
    sched: Scheduler<ServeJob>,
    /// (connection, plan-request id) → scheduler ticket, so `Cancel` can find
    /// the job — and only a job queued by the *same* connection. Workers
    /// remove their entry at dispatch; cancels remove it early.
    tickets: Mutex<HashMap<(u64, u64), u64>>,
    /// Planner threads this core runs. Zero is the **inline** core of the
    /// deterministic simulation: nothing runs except inside
    /// [`pump`](Self::pump), re-plan chains execute on the pumping thread,
    /// and every state mutation is appended to the op log.
    workers: usize,
    /// Deltas waiting for the next wave.
    deltas: Mutex<DeltaQueue>,
    /// Signalled when a delta is queued or the queue closes.
    delta_ready: Condvar,
    /// How long the oldest queued delta waits (on the scheduler's clock) for
    /// near-concurrent deltas to join its wave.
    delta_window_ms: u64,
    /// Event-stream subscribers by connection id.
    subscribers: Mutex<HashMap<u64, Subscriber>>,
    /// Server-wide monotone event sequence.
    event_seq: AtomicU64,
    /// Un-flushed bytes beyond which a subscriber stops receiving events
    /// ([`TransportConfig::event_outbox_cap`]).
    event_outbox_cap: usize,
    next_conn: AtomicU64,
    /// `Some` only on an inline core: the serial record of state-mutating
    /// operations in the exact order this core executed them — what the
    /// lab's cache-coherence oracle replays against a fresh engine.
    op_log: Mutex<Option<Vec<SimOp>>>,
    /// The persistent plan store, when configured: the default target of
    /// `Snapshot`/`Load` commands, and (with an interval) the periodic
    /// snapshot schedule. Set once right after start, before traffic.
    store: Mutex<Option<StoreConfig>>,
    /// Next periodic-snapshot deadline; `None` when no interval is set.
    snapshot_due: Mutex<Option<Instant>>,
    /// Token-bucket overload protection, enforced at the top of
    /// [`handle_command`](Self::handle_command).
    rate_limit: RateLimitConfig,
    /// Per-client token buckets (the `per_client` limit), keyed by the
    /// request's fair-share identity.
    client_buckets: Mutex<HashMap<String, TokenBucket>>,
}

/// Owner of a [`ServeCore`]'s threads; [`stop`](CoreHandle::stop) closes the
/// scheduler, drains and joins.
pub(crate) struct CoreHandle {
    pub(crate) core: Arc<ServeCore>,
    threads: Vec<thread::JoinHandle<()>>,
}

impl CoreHandle {
    /// Stop accepting work, drain queued jobs and join every core thread.
    pub(crate) fn stop(self) {
        // New deltas now error out instead of queueing; the delta thread
        // applies what's already queued, then exits on the closed queue.
        self.core.deltas.lock().expect("delta queue poisoned").closed = true;
        self.core.delta_ready.notify_all();
        // Workers drain the remaining queue, then exit.
        self.core.sched.close();
        for thread in self.threads {
            let _ = thread.join();
        }
        // Quiescent now: persist the final cache state, if configured.
        self.core.final_snapshot();
    }
}

impl ServeCore {
    /// Start a core: `workers` planner threads plus one delta thread.
    ///
    /// `workers == 0` starts the **inline** core of the deterministic
    /// simulation instead: no thread exists, so nothing runs concurrently
    /// with the caller. Queued plans and deltas execute only when the
    /// simulation driver calls [`pump`](Self::pump), single-threaded, in a
    /// fixed order, and every state mutation is appended to the op log for
    /// the coherence oracle.
    pub(crate) fn start(
        engine: Arc<PlanEngine>,
        workers: usize,
        config: SchedConfig,
        transport: &TransportConfig,
        delta_window: Duration,
        clock: Arc<dyn Clock>,
    ) -> CoreHandle {
        let core = Arc::new(ServeCore {
            engine,
            sched: Scheduler::with_clock(config, clock),
            tickets: Mutex::new(HashMap::new()),
            workers,
            deltas: Mutex::new(DeltaQueue::default()),
            delta_ready: Condvar::new(),
            delta_window_ms: delta_window.as_millis() as u64,
            subscribers: Mutex::new(HashMap::new()),
            event_seq: AtomicU64::new(0),
            event_outbox_cap: transport.event_outbox_cap,
            next_conn: AtomicU64::new(0),
            op_log: Mutex::new((workers == 0).then(Vec::new)),
            store: Mutex::new(None),
            snapshot_due: Mutex::new(None),
            rate_limit: transport.rate_limit,
            client_buckets: Mutex::new(HashMap::new()),
        });
        let mut threads = Vec::new();
        for i in 0..workers {
            let core = Arc::clone(&core);
            let builder = thread::Builder::new().name(format!("qsync-serve-worker-{i}"));
            threads.push(builder.spawn(move || core.worker_loop()).expect("spawn worker"));
        }
        if workers > 0 {
            let delta_core = Arc::clone(&core);
            let builder = thread::Builder::new().name("qsync-serve-delta".to_owned());
            threads.push(builder.spawn(move || delta_core.delta_loop()).expect("spawn delta thread"));
        }
        CoreHandle { core, threads }
    }

    /// Admission control: refill-and-spend this command's token(s). Returns
    /// the structured shed error when a bucket is empty — per-connection
    /// checked first (that bucket bounds the socket regardless of claimed
    /// identities), then per-client. `Batch` wrappers pass free: their
    /// members are checked individually on recursion, so a flooded batch
    /// draws exactly one error per member, never a wholesale drop.
    fn check_rate_limit(&self, conn: &Arc<ConnState>, command: &ServerCommand) -> Option<ApiError> {
        if matches!(command, ServerCommand::Batch { .. }) {
            return None;
        }
        let config = self.rate_limit;
        if !config.is_enabled() {
            return None;
        }
        let obs = self.engine.obs();
        let now = self.sched.clock().now_ms();
        if let Some(bucket_config) = config.per_conn {
            let mut bucket = conn.rate.lock().expect("conn rate bucket poisoned");
            let admitted = bucket
                .get_or_insert_with(|| TokenBucket::new(bucket_config, now))
                .try_admit(now);
            if !admitted {
                obs.rate_limited_conn.inc();
                return Some(
                    ApiError::new(
                        ErrorCode::RateLimited,
                        format!(
                            "connection rate limit exceeded ({}/s, burst {}); retry after backoff",
                            bucket_config.rate_per_sec, bucket_config.burst
                        ),
                    )
                    .with_id(command_id(command)),
                );
            }
        }
        if let Some(bucket_config) = config.per_client {
            let client = match command {
                ServerCommand::Plan(request) => {
                    request.client_id.as_deref().unwrap_or(conn.identity())
                }
                _ => conn.identity(),
            };
            let mut buckets = self.client_buckets.lock().expect("client buckets poisoned");
            let admitted = buckets
                .entry(client.to_owned())
                .or_insert_with(|| TokenBucket::new(bucket_config, now))
                .try_admit(now);
            if !admitted {
                obs.rate_limited_client.inc();
                return Some(
                    ApiError::new(
                        ErrorCode::RateLimited,
                        format!(
                            "client {client:?} rate limit exceeded ({}/s, burst {}); retry after backoff",
                            bucket_config.rate_per_sec, bucket_config.burst
                        ),
                    )
                    .with_id(command_id(command)),
                );
            }
        }
        None
    }

    /// Attach a persistent store: `Snapshot`/`Load` without an explicit
    /// `path` target it, and an interval schedules periodic snapshots on the
    /// delta thread. Called once right after start, before any traffic.
    pub(crate) fn set_store(&self, config: StoreConfig) {
        if let Some(interval) = config.snapshot_interval {
            *self.snapshot_due.lock().expect("snapshot deadline poisoned") =
                Some(Instant::now() + interval);
        }
        *self.store.lock().expect("store config poisoned") = Some(config);
    }

    /// Resolve a `Snapshot`/`Load` target: the explicit `path` operand wins,
    /// else the configured store path, else `None` (reported as an error).
    fn store_path(&self, explicit: Option<String>) -> Option<PathBuf> {
        explicit.map(PathBuf::from).or_else(|| {
            self.store
                .lock()
                .expect("store config poisoned")
                .as_ref()
                .map(|config| config.path.clone())
        })
    }

    /// Time until the next periodic snapshot is due (`None` when no interval
    /// is configured — the idle delta thread then sleeps until woken).
    fn snapshot_timeout(&self) -> Option<Duration> {
        self.snapshot_due
            .lock()
            .expect("snapshot deadline poisoned")
            .map(|due| due.saturating_duration_since(Instant::now()))
    }

    /// Write a periodic snapshot if one is due, and re-arm the deadline.
    fn maybe_periodic_snapshot(&self) {
        let Some((path, interval)) = self
            .store
            .lock()
            .expect("store config poisoned")
            .as_ref()
            .and_then(|c| c.snapshot_interval.map(|i| (c.path.clone(), i)))
        else {
            return;
        };
        {
            let mut due = self.snapshot_due.lock().expect("snapshot deadline poisoned");
            match *due {
                Some(deadline) if Instant::now() >= deadline => {
                    *due = Some(Instant::now() + interval);
                }
                _ => return,
            }
        }
        if let Err(error) = persist::snapshot_to_path(&self.engine, &path) {
            eprintln!("qsync-serve: periodic snapshot failed: {error}");
        }
    }

    /// Write a final snapshot at shutdown, if a store is configured. Runs
    /// after the worker and delta threads have joined, so the cache is
    /// quiescent.
    pub(crate) fn final_snapshot(&self) {
        let Some(path) =
            self.store.lock().expect("store config poisoned").as_ref().map(|c| c.path.clone())
        else {
            return;
        };
        if let Err(error) = persist::snapshot_to_path(&self.engine, &path) {
            eprintln!("qsync-serve: shutdown snapshot failed: {error}");
        }
    }

    /// Take the inline core's operation log (empty on a threaded core).
    pub(crate) fn take_op_log(&self) -> Vec<SimOp> {
        self.op_log
            .lock()
            .expect("op log poisoned")
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }

    fn record_op(&self, op: impl FnOnce() -> SimOp) {
        if let Some(log) = self.op_log.lock().expect("op log poisoned").as_mut() {
            log.push(op());
        }
    }

    /// Inline-core executor: run every queued job to completion on the
    /// calling thread. Plans drain first (preserving scheduler order), then
    /// a due delta wave runs — so when it reaches its barrier the plan queue
    /// is already empty. Loops until neither has work; returns whether
    /// anything ran.
    pub(crate) fn pump(&self) -> bool {
        let mut progressed = false;
        loop {
            let mut ran = false;
            while let Some(job) = self.sched.try_next() {
                self.process_dispatch(job);
                ran = true;
            }
            ran |= self.run_delta_wave();
            if !ran {
                return progressed;
            }
            progressed = true;
        }
    }

    /// How long until the oldest queued delta has waited out the collection
    /// window: `None` when nothing is queued, zero when a wave is due now
    /// (always, once the core is stopping).
    fn wave_due_in(&self, queue: &DeltaQueue) -> Option<Duration> {
        let oldest = queue.tasks.front()?;
        if queue.closed {
            return Some(Duration::ZERO);
        }
        let due_ms = oldest.queued_ms.saturating_add(self.delta_window_ms);
        Some(Duration::from_millis(due_ms.saturating_sub(self.sched.clock().now_ms())))
    }

    /// The one delta path, shared by the delta thread and the inline
    /// [`pump`](Self::pump): if a wave is due, take **everything** queued,
    /// wait for every plan submitted (on any connection) before this point,
    /// apply the deltas as one engine wave — announcing evictions, re-plans
    /// and applied deltas to subscribers — and answer each delta on its own
    /// connection. Deltas arriving meanwhile form the next wave together.
    /// Returns whether a wave ran.
    fn run_delta_wave(&self) -> bool {
        let tasks: Vec<DeltaTask> = {
            let mut queue = self.deltas.lock().expect("delta queue poisoned");
            if self.wave_due_in(&queue) != Some(Duration::ZERO) {
                return false;
            }
            self.obs().coalescer_pending.set(0);
            queue.tasks.drain(..).collect()
        };
        // Barrier. Plans submitted after it began are not waited for, so it
        // cannot starve under continuous cross-connection traffic; on the
        // inline core `pump` has already emptied the plan queue.
        self.sched.quiesce();
        let requests: Vec<DeltaRequest> = tasks.iter().map(|t| t.request.clone()).collect();
        self.record_op(|| SimOp::DeltaWave(requests.clone()));
        let wave_tid = requests.last().and_then(|r| r.trace_id).unwrap_or(0);
        let results = self.engine.apply_deltas_with(&requests, |chains| {
            self.broadcast(ServerEvent::CacheInvalidated {
                keys: chains.iter().map(|c| c.entry.response.key.clone()).collect(),
                trace_id: wave_tid,
            });
            // The one fork between the two cores: with planner threads the
            // chains fan out across them, without any they run right here
            // (`fan_out_replans` would wait on a pool that does not exist).
            let responses: Vec<PlanResponse> = if self.workers > 0 {
                self.fan_out_replans(chains)
            } else {
                chains.iter().map(|chain| self.engine.run_replan_chain(chain)).collect()
            };
            for response in &responses {
                self.broadcast(ServerEvent::Replanned {
                    key: response.key.clone(),
                    outcome: response.outcome,
                    predicted_iteration_us: response.predicted_iteration_us,
                    trace_id: response.trace_id.unwrap_or(0),
                    adopt: self.adopt_payload(&response.key),
                });
            }
            responses
        });
        for (task, result) in tasks.into_iter().zip(results) {
            let reply = match result {
                Ok(outcome) => {
                    self.broadcast(ServerEvent::DeltaApplied {
                        id: outcome.id,
                        old_cluster_fingerprint: outcome.old_cluster_fingerprint.clone(),
                        new_cluster_fingerprint: outcome.new_cluster_fingerprint.clone(),
                        invalidated: outcome.invalidated,
                        replanned: outcome.replanned.len(),
                        trace_id: outcome.trace_id.unwrap_or(0),
                    });
                    ServerReply::Delta(outcome)
                }
                Err(error) => ServerReply::Fault(error),
            };
            task.conn.send(task.wire, &reply);
            task.conn.end();
        }
        true
    }

    /// Delta-thread body (threaded core): run every due wave off the
    /// transport threads, sleeping in between until a delta is queued, the
    /// oldest queued one's collection window lapses, a periodic snapshot
    /// falls due or the core stops. Periodic snapshots ride this thread —
    /// there is no dedicated snapshot thread.
    fn delta_loop(&self) {
        loop {
            if self.run_delta_wave() {
                continue;
            }
            self.maybe_periodic_snapshot();
            let queue = self.deltas.lock().expect("delta queue poisoned");
            let wait = match self.wave_due_in(&queue) {
                Some(Duration::ZERO) => continue,
                // Mid-window. Capped so a frozen manual clock is re-read
                // instead of sleeping out the whole window in real time.
                Some(window) => Some(window.min(Duration::from_millis(50))),
                None if queue.closed => return,
                None => self.snapshot_timeout(),
            };
            // A wakeup only means "look again"; every condition is re-read
            // at the top of the loop.
            match wait {
                Some(timeout) => drop(
                    self.delta_ready.wait_timeout(queue, timeout).expect("delta queue poisoned"),
                ),
                None => drop(self.delta_ready.wait(queue).expect("delta queue poisoned")),
            }
        }
    }

    /// Register a new connection over the given reply sink.
    pub(crate) fn register_conn(&self, sink: Sink) -> Arc<ConnState> {
        let id = self.next_conn.fetch_add(1, Ordering::Relaxed);
        Arc::new(ConnState {
            id,
            identity: format!("conn-{id}"),
            pending: Mutex::new(0),
            idle: Condvar::new(),
            rate: Mutex::new(None),
            sink,
        })
    }

    /// Drop a (closed) connection's server-side footprint: cancel every
    /// still-queued plan it submitted and end its event subscription.
    pub(crate) fn drop_conn(&self, conn_id: u64) {
        self.subscribers.lock().expect("subscriber map poisoned").remove(&conn_id);
        let orphaned: Vec<u64> = {
            let mut tickets = self.tickets.lock().expect("ticket map poisoned");
            let doomed: Vec<(u64, u64)> =
                tickets.keys().filter(|(conn, _)| *conn == conn_id).copied().collect();
            doomed.into_iter().filter_map(|key| tickets.remove(&key)).collect()
        };
        for ticket in orphaned {
            self.sched.cancel(ticket);
        }
    }

    /// The observability bundle shared with the engine (the transport
    /// records its instruments through this).
    pub(crate) fn obs(&self) -> &Arc<crate::metrics::ServeObs> {
        self.engine.obs()
    }

    /// Broadcast one event to every subscribed connection. A subscriber
    /// that has stopped reading (its reply buffer past the cap) is skipped:
    /// events are droppable server push, and an unbounded outbox would let
    /// one stalled watcher grow server memory with every delta wave. The
    /// dropped events appear to that client as a gap in the monotone `seq`;
    /// they are counted per subscriber (surfaced by `Stats`/`Metrics`) and
    /// recoverable through `Resync`.
    fn broadcast(&self, event: ServerEvent) {
        let obs = Arc::clone(self.engine.obs());
        let mut subscribers = self.subscribers.lock().expect("subscriber map poisoned");
        if subscribers.is_empty() {
            return;
        }
        let seq = self.event_seq.fetch_add(1, Ordering::Relaxed);
        // Every subscriber sees the same event under the same seq, but only
        // those that opted in (`Subscribe { adopt: true }`) receive the full
        // adoption payload; the rest get the stripped form, rendered once.
        let mut stripped: Option<ServerEvent> = None;
        for sub in subscribers.values_mut() {
            if sub.conn.event_capacity_ok(self.event_outbox_cap) {
                obs.events_emitted.inc();
                let event = if sub.adopt {
                    event.clone()
                } else {
                    stripped.get_or_insert_with(|| event.without_adopt()).clone()
                };
                sub.conn.send(sub.wire, &ServerReply::Event { seq, event });
            } else {
                sub.dropped += 1;
                obs.events_dropped.inc();
            }
        }
    }

    /// Whether any current subscriber asked for adoption payloads. Building
    /// a payload clones the full cached plan, so broadcasters skip the work
    /// when nobody is following.
    fn wants_adopt(&self) -> bool {
        self.subscribers
            .lock()
            .expect("subscriber map poisoned")
            .values()
            .any(|sub| sub.adopt)
    }

    /// The adoption payload for a just-completed plan: the cached entry
    /// under the response's key, cloned — or `None` when no subscriber wants
    /// payloads (or the entry was already evicted again).
    fn adopt_payload(&self, key: &str) -> Option<PlanPayload> {
        if !self.wants_adopt() {
            return None;
        }
        let entry = self.engine.cache().peek(key)?;
        Some(PlanPayload {
            request: entry.request,
            response: entry.response,
            inference_pdag: entry.inference_pdag,
        })
    }

    /// Per-subscriber event accounting (for `Stats` and the metrics
    /// snapshot), in connection-id order.
    fn subscriber_stats(&self) -> Vec<SubscriberStats> {
        let subscribers = self.subscribers.lock().expect("subscriber map poisoned");
        let mut stats: Vec<SubscriberStats> = subscribers
            .iter()
            .map(|(&conn, sub)| SubscriberStats { conn, dropped: sub.dropped })
            .collect();
        stats.sort_by_key(|s| s.conn);
        stats
    }

    /// The full server metrics snapshot: the engine's registry + derived
    /// values, plus the scheduler and event-stream dynamics only the
    /// streaming core knows.
    pub(crate) fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.engine.metrics_snapshot();
        let sched = self.sched.stats();
        for (class, stats) in [
            ("interactive", sched.interactive),
            ("batch", sched.batch),
            ("background", sched.background),
        ] {
            snap.gauges.push(GaugeValue {
                name: format!("qsync_sched_queue_depth{{class=\"{class}\"}}"),
                value: stats.depth as i64,
            });
            for (kind, value) in [
                ("dispatched", stats.dispatched),
                ("completed", stats.completed),
                ("shed", stats.shed),
            ] {
                snap.counters.push(CounterValue {
                    name: format!("qsync_sched_{kind}{{class=\"{class}\"}}"),
                    value,
                });
            }
        }
        for (name, value) in [
            ("qsync_sched_cancelled_total", sched.cancelled),
            ("qsync_sched_expired_total", sched.expired),
            ("qsync_sched_deadline_met_total", sched.deadline_met),
            ("qsync_sched_deadline_misses_total", sched.deadline_misses),
            ("qsync_sched_aged_total", sched.aged),
        ] {
            snap.counters.push(CounterValue { name: name.to_string(), value });
        }
        snap.gauges.push(GaugeValue {
            name: "qsync_sched_deficit_carry".to_string(),
            value: self.sched.deficit_carry() as i64,
        });
        let subscribers = self.subscriber_stats();
        snap.gauges.push(GaugeValue {
            name: "qsync_event_subscribers".to_string(),
            value: subscribers.len() as i64,
        });
        for sub in &subscribers {
            snap.counters.push(CounterValue {
                name: format!("qsync_events_dropped{{conn=\"{}\"}}", sub.conn),
                value: sub.dropped,
            });
        }
        snap
    }

    /// Handle one raw input line from a connection: parse errors become
    /// error replies (in the wire form of the failing line), everything else
    /// dispatches through [`handle_command`](Self::handle_command). Blank
    /// lines are skipped.
    ///
    /// This is also where requests enter the trace machinery: plan and delta
    /// payloads that don't carry a client-chosen `trace_id` are stamped with
    /// a freshly minted one, and a `parse` span is recorded for them — the
    /// first stage of the request's reconstructable journey.
    pub(crate) fn handle_line(&self, conn: &Arc<ConnState>, line: &str) {
        if line.trim().is_empty() {
            return;
        }
        let obs = self.engine.obs();
        obs.frame_bytes.record(line.len() as u64);
        let parse_start = obs.trace.now_us();
        match qsync_api::parse_line(line) {
            Err(e) => conn.send_err(e.wire, e.error),
            Ok(parsed) => {
                let mut cmd = parsed.cmd;
                let mut stamped = Vec::new();
                self.stamp_trace(&mut cmd, &mut stamped);
                for trace_id in stamped {
                    obs.trace.span(
                        trace_id,
                        "parse",
                        parse_start,
                        format!("{} bytes on {}", line.len(), conn.identity()),
                    );
                }
                self.handle_command(conn, parsed.wire, cmd);
            }
        }
    }

    /// Ensure every plan/delta payload in `cmd` (recursing into batches)
    /// carries a trace id, minting where the client chose none. Every
    /// stamped id is pushed onto `stamped` — batch members included — so the
    /// caller can record a `parse` span per traced payload (commands with no
    /// payload — stats reads, cancels and the like — are not traced).
    fn stamp_trace(&self, cmd: &mut ServerCommand, stamped: &mut Vec<u64>) {
        let trace = &self.engine.obs().trace;
        match cmd {
            ServerCommand::Plan(request) => {
                let id = request.trace_id.filter(|&t| t != 0).unwrap_or_else(|| trace.mint());
                request.trace_id = Some(id);
                stamped.push(id);
            }
            ServerCommand::Delta(request) => {
                let id = request.trace_id.filter(|&t| t != 0).unwrap_or_else(|| trace.mint());
                request.trace_id = Some(id);
                stamped.push(id);
            }
            ServerCommand::Batch { cmds, .. } => {
                for inner in cmds.iter_mut() {
                    self.stamp_trace(inner, stamped);
                }
            }
            _ => {}
        }
    }

    /// Dispatch one parsed command — the only place a command gets its
    /// meaning. Never blocks on planning or on the delta barrier: plans are
    /// queued, stats answer from counters, deltas join the delta queue,
    /// batches fan out inline.
    pub(crate) fn handle_command(&self, conn: &Arc<ConnState>, wire: WireProto, command: ServerCommand) {
        // Overload protection runs before any other handling: a shed command
        // costs the server one token-bucket check and one error line, and
        // touches neither the scheduler nor the engine.
        if let Some(error) = self.check_rate_limit(conn, &command) {
            conn.send_err(wire, error);
            return;
        }
        match command {
            ServerCommand::Plan(request) => {
                let mut meta = request.job_meta();
                if request.client_id.is_none() {
                    // Fair-queue anonymous requests per connection, so one
                    // flooding connection cannot starve the others.
                    meta.client = conn.identity().to_owned();
                }
                let request_id = request.id;
                conn.begin();
                // Hold the ticket-map lock across the submit: a woken worker
                // checks the map at dispatch, so inserting after an unlocked
                // submit could leave a stale entry for an already-dispatched
                // job.
                let mut tickets = self.tickets.lock().expect("ticket map poisoned");
                match self.sched.submit(ServeJob::Plan { request, conn: Arc::clone(conn), wire }, meta)
                {
                    Ok(ticket) => {
                        tickets.insert((conn.id, request_id), ticket);
                    }
                    Err(rejected) => {
                        drop(tickets);
                        // Admission control: shed immediately.
                        conn.send_err(wire, submit_error(&rejected.error).with_id(request_id));
                        conn.end();
                    }
                }
            }
            ServerCommand::Stats { id } => {
                // Stats are a monitoring read: answer immediately from
                // counters, never behind queued work or a delta barrier.
                conn.send(wire, &ServerReply::Stats {
                    id,
                    stats: self.engine.cache().stats(),
                    sched: Some(self.sched.stats()),
                    deltas: self.engine.delta_stats(),
                    subscribers: self.subscriber_stats(),
                });
            }
            ServerCommand::Metrics { id } => {
                // Like Stats: a monitoring read answered inline from
                // counters, never behind queued work or a delta barrier.
                conn.send(wire, &ServerReply::Metrics { id, metrics: self.metrics_snapshot() });
            }
            ServerCommand::Trace { id, trace_id, limit } => {
                let trace = &self.engine.obs().trace;
                let limit = limit.unwrap_or(trace.capacity());
                conn.send(wire, &ServerReply::Trace {
                    id,
                    trace_id,
                    spans: trace.spans_for(trace_id, limit),
                });
            }
            ServerCommand::Resync { id } => {
                // Baseline first, keys second: any event broadcast between
                // the two shows up both in `keys` and as a seq at or past
                // the baseline, so the client double-applies instead of
                // missing.
                let seq = self.event_seq.load(Ordering::Relaxed);
                let keys = self.engine.cache().keys();
                let dropped = self
                    .subscribers
                    .lock()
                    .expect("subscriber map poisoned")
                    .get_mut(&conn.id)
                    .map(|sub| std::mem::take(&mut sub.dropped))
                    .unwrap_or(0);
                conn.send(wire, &ServerReply::Resynced { id, seq, keys, dropped });
            }
            ServerCommand::Cancel { id, plan_id } => {
                let ticket =
                    self.tickets.lock().expect("ticket map poisoned").remove(&(conn.id, plan_id));
                let cancelled = ticket.is_some_and(|t| self.sched.cancel(t));
                conn.send(wire, &ServerReply::Cancelled { id, plan_id, cancelled });
                if cancelled {
                    // The cancelled plan will never reply; the confirmation
                    // above was its reply.
                    conn.end();
                }
            }
            ServerCommand::Delta(request) => {
                let request_id = request.id;
                let mut queue = self.deltas.lock().expect("delta queue poisoned");
                if queue.closed {
                    drop(queue);
                    conn.send_err(
                        wire,
                        ApiError::new(
                            ErrorCode::ShuttingDown,
                            "server is shutting down; delta not applied",
                        )
                        .with_id(request_id),
                    );
                    return;
                }
                conn.begin();
                queue.tasks.push_back(DeltaTask {
                    request,
                    conn: Arc::clone(conn),
                    wire,
                    queued_ms: self.sched.clock().now_ms(),
                });
                self.obs().coalescer_pending.set(queue.tasks.len() as i64);
                drop(queue);
                self.delta_ready.notify_one();
            }
            ServerCommand::Hello { id, .. } => {
                conn.send(wire, &ServerReply::Hello {
                    id,
                    min_v: MIN_PROTOCOL_VERSION,
                    max_v: MAX_PROTOCOL_VERSION,
                    server: SERVER_IDENT.to_owned(),
                });
            }
            ServerCommand::Batch { id, cmds } => {
                if cmds.iter().any(|c| matches!(c, ServerCommand::Batch { .. })) {
                    conn.send_err(
                        wire,
                        ApiError::new(ErrorCode::InvalidField, "nested Batch commands are not allowed")
                            .with_id(id)
                            .with_field("cmds"),
                    );
                    return;
                }
                // Dispatch in order; every inner command produces its own
                // reply (the batch itself replies only on rejection above).
                for cmd in cmds {
                    self.handle_command(conn, wire, cmd);
                }
            }
            ServerCommand::Subscribe { id, adopt } => {
                self.subscribers
                    .lock()
                    .expect("subscriber map poisoned")
                    .insert(conn.id, Subscriber { wire, conn: Arc::clone(conn), dropped: 0, adopt });
                conn.send(wire, &ServerReply::Subscribed { id });
            }
            ServerCommand::Unsubscribe { id } => {
                self.subscribers.lock().expect("subscriber map poisoned").remove(&conn.id);
                conn.send(wire, &ServerReply::Unsubscribed { id });
            }
            ServerCommand::Snapshot { id, path } => {
                // An admin write: runs inline on the transport thread (the
                // cache is concurrent; no barrier needed) so it can't be
                // starved by queued planning work.
                let reply = match self.store_path(path) {
                    None => ServerReply::Fault(no_store_error(id)),
                    Some(path) => match persist::snapshot_to_path(&self.engine, &path) {
                        Ok((entries, bytes)) => ServerReply::Snapshotted {
                            id,
                            path: path.display().to_string(),
                            entries,
                            bytes,
                        },
                        Err(error) => ServerReply::Fault(
                            ApiError::new(ErrorCode::Internal, format!("snapshot failed: {error}"))
                                .with_id(id),
                        ),
                    },
                };
                conn.send(wire, &reply);
            }
            ServerCommand::Load { id, path } => {
                let reply = match self.store_path(path) {
                    None => ServerReply::Fault(no_store_error(id)),
                    Some(path) => match persist::load_from_path(&self.engine, &path) {
                        Ok(stats) => ServerReply::Loaded {
                            id,
                            path: path.display().to_string(),
                            plans: stats.plans,
                            memos: stats.memos,
                            skipped: stats.skipped,
                            bytes: stats.bytes,
                        },
                        Err(error) => ServerReply::Fault(
                            ApiError::new(ErrorCode::Internal, format!("load failed: {error}"))
                                .with_id(id),
                        ),
                    },
                };
                conn.send(wire, &reply);
            }
            ServerCommand::FetchSnapshot { id } => {
                // The replication bootstrap: the same encoding a snapshot
                // file holds, shipped as one reply line.
                let (data, entries) = persist::snapshot_string(&self.engine);
                conn.send(wire, &ServerReply::SnapshotData {
                    id,
                    entries,
                    bytes: data.len() as u64,
                    data,
                });
            }
        }
    }

    /// Planner-thread body: drain the scheduler until it closes.
    fn worker_loop(&self) {
        while let Some(job) = self.sched.next() {
            self.process_dispatch(job);
        }
    }

    /// Execute one dispatched scheduler job — shared by the worker threads
    /// and the inline core's [`pump`](Self::pump).
    fn process_dispatch(&self, mut job: Dispatch<ServeJob>) {
        let obs = Arc::clone(self.engine.obs());
        let expired = job.expired();
        let wait_ms = job.queue_wait_ms();
        obs.dispatch_wait_ms.record(wait_ms);
        match job.take_payload() {
            ServeJob::Plan { request, conn, wire } => {
                let mut tickets = self.tickets.lock().expect("ticket map poisoned");
                if tickets.get(&(conn.id, request.id)) == Some(&job.id()) {
                    tickets.remove(&(conn.id, request.id));
                }
                drop(tickets);
                let trace_id = request.trace_id.unwrap_or(0);
                if trace_id != 0 {
                    // The dispatch span covers the time the job sat in
                    // its queue, ending now (at worker pickup).
                    let now = obs.trace.now_us();
                    obs.trace.span(
                        trace_id,
                        "dispatch",
                        now.saturating_sub(wait_ms.saturating_mul(1000)),
                        format!("queued {wait_ms} ms"),
                    );
                }
                // `hit_body` is `Some` exactly for a cache hit: its line is
                // spliced from the entry's rendered body, not re-serialized.
                let (reply, hit_body) = if expired {
                    let fault = ServerReply::Fault(
                        ApiError::new(
                            ErrorCode::DeadlineExceeded,
                            format!(
                                "deadline exceeded before planning started (queued {wait_ms} ms)"
                            ),
                        )
                        .with_id(request.id),
                    );
                    (fault, None)
                } else {
                    self.record_op(|| SimOp::Plan(request.clone()));
                    match self.engine.plan_with_hit_body(&request) {
                        Ok((response, hit_body)) => {
                            // A plan actually computed (not a cache hit) is
                            // news: fire-and-forget watchers key on it, and
                            // adopt-subscribed replicas mirror the entry.
                            if response.outcome != PlanOutcome::CacheHit {
                                self.broadcast(ServerEvent::PlanReady {
                                    key: response.key.clone(),
                                    outcome: response.outcome,
                                    predicted_iteration_us: response.predicted_iteration_us,
                                    trace_id: response.trace_id.unwrap_or(0),
                                    adopt: self.adopt_payload(&response.key),
                                });
                            }
                            (ServerReply::Plan(response), hit_body)
                        }
                        Err(error) => (ServerReply::Fault(error), None),
                    }
                };
                let write_start = obs.trace.now_us();
                match (&reply, &hit_body) {
                    (ServerReply::Plan(hit), Some(body)) => {
                        conn.send_rendered(render_plan_hit(wire, hit, body))
                    }
                    _ => conn.send(wire, &reply),
                }
                if trace_id != 0 {
                    obs.trace.span(
                        trace_id,
                        "reply_write",
                        write_start,
                        format!("to {}", conn.identity()),
                    );
                }
                conn.end();
            }
            ServeJob::Replan { index, chain, tx } => {
                let _ = tx.send((index, self.engine.run_replan_chain(&chain)));
            }
        }
    }

    /// Execute a delta wave's re-plan chains on the worker pool: submit each
    /// as a batch-class job, collect the results, and return them in chain
    /// order. A chain the batch queue sheds (cap reached) runs inline on the
    /// calling thread — re-plans are never lost.
    fn fan_out_replans(&self, chains: Vec<ReplanChain>) -> Vec<PlanResponse> {
        let fanout_start = Instant::now();
        let total = chains.len();
        let (tx, rx) = mpsc::channel();
        let mut inline: Vec<(usize, Box<ReplanChain>)> = Vec::new();
        for (index, chain) in chains.into_iter().enumerate() {
            let job = ServeJob::Replan { index, chain: Box::new(chain), tx: tx.clone() };
            let meta = JobMeta::new("__elastic", Priority::Batch);
            if let Err(rejected) = self.sched.submit(job, meta) {
                let ServeJob::Replan { index, chain, .. } = rejected.payload else {
                    unreachable!("rejected payload is the submitted replan job")
                };
                inline.push((index, chain));
            }
        }
        drop(tx);
        let mut responses: Vec<Option<PlanResponse>> = (0..total).map(|_| None).collect();
        for (index, chain) in inline {
            responses[index] = Some(self.engine.run_replan_chain(&chain));
        }
        for (index, response) in rx {
            responses[index] = Some(response);
        }
        let responses: Vec<PlanResponse> = responses
            .into_iter()
            .map(|r| r.expect("every replan chain completed"))
            .collect();
        self.engine
            .obs()
            .fanout_us
            .record(fanout_start.elapsed().as_micros() as u64);
        responses
    }
}

/// The error for `Snapshot`/`Load` on a server with no configured store and
/// no explicit `path` operand.
fn no_store_error(id: u64) -> ApiError {
    ApiError::new(
        ErrorCode::InvalidField,
        "no store path: pass `path` or start the server with --store",
    )
    .with_id(id)
    .with_field("path")
}

/// The `id` operand of any command (every command shape carries one; a plan
/// or delta's is its request id) — what a rate-limit shed error echoes so
/// the client can correlate it.
fn command_id(command: &ServerCommand) -> u64 {
    match command {
        ServerCommand::Plan(request) => request.id,
        ServerCommand::Delta(request) => request.id,
        ServerCommand::Stats { id }
        | ServerCommand::Metrics { id }
        | ServerCommand::Trace { id, .. }
        | ServerCommand::Resync { id }
        | ServerCommand::Cancel { id, .. }
        | ServerCommand::Hello { id, .. }
        | ServerCommand::Batch { id, .. }
        | ServerCommand::Subscribe { id, .. }
        | ServerCommand::Unsubscribe { id }
        | ServerCommand::Snapshot { id, .. }
        | ServerCommand::Load { id, .. }
        | ServerCommand::FetchSnapshot { id } => *id,
    }
}

/// Map a scheduler admission failure to its protocol error code, keeping the
/// v0 message text.
fn submit_error(error: &SubmitError) -> ApiError {
    let code = match error {
        SubmitError::QueueFull { .. } => ErrorCode::QueueFull,
        SubmitError::Closed => ErrorCode::ShuttingDown,
    };
    ApiError::new(code, error.to_string())
}

/// The plan server: a shared [`PlanEngine`], a worker-pool size, the
/// scheduler configuration and the transport tuning.
#[derive(Debug, Clone)]
pub struct PlanServer {
    engine: Arc<PlanEngine>,
    workers: usize,
    sched: SchedConfig,
    transport: TransportConfig,
    clock: Arc<dyn Clock>,
    store: Option<StoreConfig>,
    delta_window: Duration,
}

impl PlanServer {
    /// A server over a fresh engine with `workers` planner threads (min 1)
    /// and the default scheduler (DRR, generous per-class caps).
    pub fn new(workers: usize) -> Self {
        Self::with_engine(PlanEngine::shared(), workers)
    }

    /// A server over an existing engine (e.g. to pre-warm the cache).
    pub fn with_engine(engine: Arc<PlanEngine>, workers: usize) -> Self {
        Self::with_sched(engine, workers, SchedConfig::default())
    }

    /// A server with an explicit scheduler configuration (policy, per-class
    /// queue caps, quantum, expired-job shedding).
    pub fn with_sched(engine: Arc<PlanEngine>, workers: usize, sched: SchedConfig) -> Self {
        PlanServer {
            engine,
            workers: workers.max(1),
            sched,
            transport: TransportConfig::default(),
            clock: Arc::new(SystemClock::new()),
            store: None,
            delta_window: Duration::ZERO,
        }
    }

    /// This server with a persistent plan store: the serving paths warm-load
    /// it on start (a missing or corrupt file boots cold, never fails),
    /// `Snapshot`/`Load` default to its path, a configured interval writes
    /// periodic snapshots on the delta thread, and shutdown writes a final
    /// one.
    pub fn with_store(mut self, store: StoreConfig) -> Self {
        self.store = Some(store);
        self
    }

    /// This server with an explicit transport configuration (line-length
    /// cap, per-connection buffer cap, shutdown drain budget).
    pub fn with_transport(mut self, transport: TransportConfig) -> Self {
        self.transport = transport;
        self
    }

    /// This server with a delta collection window: the oldest queued delta
    /// waits this long (on the server's clock) for near-concurrent deltas to
    /// join its wave, so an event storm trickling in over the window still
    /// invalidates once — at the cost of that much added latency on the
    /// first delta. Zero (the default) batches only what is already queued
    /// when a wave starts. `--delta-window-ms` on the `qsync-serve` binary.
    pub fn with_delta_window(mut self, window: Duration) -> Self {
        self.delta_window = window;
        self
    }

    /// This server over an explicit time source. Every timed behavior —
    /// scheduler deadlines, accept backoff, the shutdown drain window, the
    /// delta collection window — reads this clock; injecting a
    /// [`ManualClock`](qsync_clock::ManualClock) puts them all on virtual
    /// time together.
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    /// The shared engine.
    pub fn engine(&self) -> &Arc<PlanEngine> {
        &self.engine
    }

    /// The transport configuration.
    pub(crate) fn transport_config(&self) -> &TransportConfig {
        &self.transport
    }

    /// The server's time source.
    pub(crate) fn clock(&self) -> Arc<dyn Clock> {
        Arc::clone(&self.clock)
    }

    /// Start this server's core: its planner threads plus the delta thread,
    /// with the configured store attached (and warm-loaded).
    pub(crate) fn start_core(&self) -> CoreHandle {
        let handle = ServeCore::start(
            Arc::clone(&self.engine),
            self.workers,
            self.sched.clone(),
            &self.transport,
            self.delta_window,
            self.clock(),
        );
        self.attach_store(&handle.core);
        handle
    }

    /// The store configuration, if any.
    pub fn store(&self) -> Option<&StoreConfig> {
        self.store.as_ref()
    }

    /// Wire the configured store into a freshly started core and warm-load
    /// the snapshot file if one exists. Load failures (corrupt, unreadable)
    /// are reported to stderr and the server boots cold — a bad snapshot
    /// must never prevent serving.
    fn attach_store(&self, core: &Arc<ServeCore>) {
        let Some(store) = &self.store else {
            return;
        };
        core.set_store(store.clone());
        if !store.path.exists() {
            return;
        }
        match persist::load_from_path(&self.engine, &store.path) {
            Ok(stats) => eprintln!(
                "qsync-serve: warm boot from {}: {} plans, {} memos, {} skipped ({} bytes)",
                store.path.display(),
                stats.plans,
                stats.memos,
                stats.skipped,
                stats.bytes
            ),
            Err(error) => eprintln!(
                "qsync-serve: store load failed ({error}); starting cold from {}",
                store.path.display()
            ),
        }
    }

    /// Serve a JSON-line stream until EOF — the blocking adapter over the
    /// same [`ServeCore`] the TCP reactor uses. Plan commands are scheduled
    /// onto the worker pool; stats answer immediately; deltas run in waves on
    /// the delta thread (quiescing the scheduler, fanning re-plans out
    /// through the batch class). Returns once every accepted command has
    /// been answered.
    pub fn serve_lines<R: BufRead, W: Write + Send>(
        &self,
        reader: R,
        writer: W,
    ) -> std::io::Result<()> {
        let handle = self.start_core();
        let core = Arc::clone(&handle.core);
        let (reply_tx, reply_rx) = mpsc::channel::<String>();
        let conn = core.register_conn(Sink::Line(reply_tx));
        let mut io_error: Option<std::io::Error> = None;

        thread::scope(|scope| {
            // Replies are produced by the worker and delta threads; a dedicated
            // writer thread owns the (possibly non-'static) writer. Write
            // errors are swallowed, as they always were on this path — the
            // reader side decides when the stream ends.
            let writer_thread = scope.spawn(move || {
                let mut writer = writer;
                for line in reply_rx {
                    if writeln!(writer, "{line}").is_err() || writer.flush().is_err() {
                        // Keep draining so reply producers never observe a
                        // closed channel mid-stream.
                    }
                }
            });
            for line in reader.lines() {
                match line {
                    Ok(line) => core.handle_line(&conn, &line),
                    Err(e) => {
                        io_error = Some(e);
                        break;
                    }
                }
            }
            // Every accepted command replies (worker plans, delta waves)
            // before the reply channel may close.
            conn.wait_idle();
            core.drop_conn(conn.id());
            drop(conn);
            writer_thread.join().expect("writer thread panicked");
        });
        handle.stop();

        match io_error {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Serve one already-accepted TCP connection with a private core (the
    /// single-connection helper; fleets should use
    /// [`serve_listener`](Self::serve_listener), which multiplexes every
    /// connection onto one shared core).
    pub fn serve_stream(&self, stream: TcpStream) -> std::io::Result<()> {
        let reader = BufReader::new(stream.try_clone()?);
        self.serve_lines(reader, stream)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelSpec;
    use qsync_cluster::topology::ClusterSpec;

    fn plan_line(id: u64) -> String {
        let request = PlanRequest::new(
            id,
            ModelSpec::SmallMlp { batch: 8, in_features: 16, hidden: 32, classes: 4 },
            ClusterSpec::hybrid_small(),
        );
        serde_json::to_string(&ServerCommand::Plan(request)).unwrap()
    }

    fn parse_replies(raw: &[u8]) -> Vec<ServerReply> {
        String::from_utf8_lossy(raw)
            .lines()
            .map(|l| serde_json::from_str::<ServerReply>(l).expect("reply parses"))
            .collect()
    }

    #[test]
    fn serves_a_stream_of_commands() {
        let input = format!("{}\n{}\n{}\n", plan_line(1), plan_line(2), r#"{"Stats":{"id":3}}"#);
        let server = PlanServer::new(4);
        let mut out: Vec<u8> = Vec::new();
        server.serve_lines(input.as_bytes(), &mut out).unwrap();
        let replies = parse_replies(&out);
        assert_eq!(replies.len(), 3);
        // Stats answers immediately (no barrier), so the streamed reply may
        // predate the plan completions — only its presence is asserted here.
        assert!(replies.iter().any(|r| matches!(r, ServerReply::Stats { id: 3, .. })));
        // After EOF every worker has drained: identical requests were one
        // miss then one hit.
        let stats = server.engine().cache().stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn hit_after_same_key_replacement_is_spliced_from_the_new_entry() {
        // One worker, one connection: replies arrive in request order.
        let server = PlanServer::new(1);
        let serve = |input: String| -> Vec<String> {
            let mut out: Vec<u8> = Vec::new();
            server.serve_lines(input.as_bytes(), &mut out).unwrap();
            String::from_utf8(out).unwrap().lines().map(str::to_owned).collect()
        };
        // A hit line must be the canonical rendering of the response it
        // carries, and that response must be `entry`'s.
        let assert_hit_of = |line: &str, entry: &PlanResponse| {
            let ServerReply::Plan(hit) = serde_json::from_str(line).expect("reply parses") else {
                panic!("expected a Plan reply: {line}");
            };
            assert_eq!(render_reply(WireProto::V0, &ServerReply::Plan(hit.clone())), line);
            let want = PlanResponse {
                id: hit.id,
                outcome: PlanOutcome::CacheHit,
                elapsed_us: hit.elapsed_us,
                trace_id: hit.trace_id,
                ..entry.clone()
            };
            assert_eq!(hit, want);
        };

        // Cold plan, then two hits — the second spliced from the body the
        // first one rendered.
        let lines = serve(format!("{}\n{}\n{}\n", plan_line(1), plan_line(2), plan_line(3)));
        assert_eq!(lines.len(), 3);
        let ServerReply::Plan(cold) = serde_json::from_str(&lines[0]).unwrap() else {
            panic!("expected a Plan reply: {}", lines[0]);
        };
        assert_eq!(cold.outcome, PlanOutcome::ColdPlanned);
        assert_hit_of(&lines[1], &cold);
        assert_hit_of(&lines[2], &cold);

        // Replace the entry under the SAME key with a different plan, as a
        // replica adopting its primary's re-plan does.
        let engine = server.engine();
        let old = engine.cache().peek(&cold.key).expect("entry resident");
        let adopted = PlanResponse {
            predicted_iteration_us: old.response.predicted_iteration_us * 2.0,
            promotions_accepted: old.response.promotions_accepted + 5,
            warm_demotions: 2,
            outcome: PlanOutcome::WarmReplanned,
            ..old.response.clone()
        };
        assert!(engine.adopt_plan(old.request, adopted.clone(), old.inference_pdag));
        let lines = serve(format!("{}\n{}\n", plan_line(4), plan_line(5)));
        assert_eq!(lines.len(), 2);
        assert_hit_of(&lines[0], &adopted);
        assert_hit_of(&lines[1], &adopted);
    }

    #[test]
    fn bad_lines_produce_error_replies() {
        let input = "this is not json\n";
        let server = PlanServer::new(1);
        let mut out: Vec<u8> = Vec::new();
        server.serve_lines(input.as_bytes(), &mut out).unwrap();
        let replies = parse_replies(&out);
        assert_eq!(replies.len(), 1);
        // Legacy lines draw the legacy error shape, byte-compatible with v0.
        assert!(matches!(&replies[0], ServerReply::Error { id: None, .. }));
    }

    #[test]
    fn enveloped_commands_get_enveloped_replies() {
        let plan: ServerCommand = serde_json::from_str(&plan_line(4)).unwrap();
        let input = format!(
            "{}\n{}\n",
            serde_json::to_string(&qsync_api::RequestEnvelope::v1(plan)).unwrap(),
            r#"{"v":1,"id":9,"cmd":{"Stats":{"id":9}}}"#,
        );
        let server = PlanServer::new(2);
        let mut out: Vec<u8> = Vec::new();
        server.serve_lines(input.as_bytes(), &mut out).unwrap();
        let envelopes: Vec<qsync_api::ReplyEnvelope> = String::from_utf8_lossy(&out)
            .lines()
            .map(|l| serde_json::from_str(l).expect("enveloped reply parses"))
            .collect();
        assert_eq!(envelopes.len(), 2);
        assert!(envelopes.iter().all(|e| e.v == qsync_api::PROTOCOL_VERSION));
        assert!(envelopes
            .iter()
            .any(|e| matches!(&e.reply, ServerReply::Plan(p) if p.id == 4)));
        assert!(envelopes.iter().any(|e| matches!(&e.reply, ServerReply::Stats { id: 9, .. })));
    }

    #[test]
    fn mixed_wire_forms_share_one_connection() {
        // A legacy Stats and an enveloped Stats on the same stream: each is
        // answered in its own form.
        let input = format!("{}\n{}\n", r#"{"Stats":{"id":1}}"#, r#"{"v":1,"cmd":{"Stats":{"id":2}}}"#);
        let server = PlanServer::new(1);
        let mut out: Vec<u8> = Vec::new();
        server.serve_lines(input.as_bytes(), &mut out).unwrap();
        let text = String::from_utf8_lossy(&out);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let legacy = lines.iter().find(|l| !l.contains("\"v\":")).expect("legacy reply");
        let enveloped = lines.iter().find(|l| l.contains("\"v\":")).expect("enveloped reply");
        assert!(matches!(
            serde_json::from_str::<ServerReply>(legacy).unwrap(),
            ServerReply::Stats { id: 1, .. }
        ));
        let envelope: qsync_api::ReplyEnvelope = serde_json::from_str(enveloped).unwrap();
        assert!(matches!(envelope.reply, ServerReply::Stats { id: 2, .. }));
    }

    #[test]
    fn hello_advertises_the_supported_version_range() {
        let server = PlanServer::new(1);
        let hello = ServerCommand::Hello { id: 5, min_v: 1, max_v: 1 };
        let input = format!("{}\n", serde_json::to_string(&hello).unwrap());
        let mut out: Vec<u8> = Vec::new();
        server.serve_lines(input.as_bytes(), &mut out).unwrap();
        let reply = parse_replies(&out).pop().expect("one reply");
        let ServerReply::Hello { id, min_v, max_v, server: ident } = reply else {
            panic!("expected hello reply, got {reply:?}")
        };
        assert_eq!(id, 5);
        assert_eq!(min_v, MIN_PROTOCOL_VERSION);
        assert_eq!(max_v, MAX_PROTOCOL_VERSION);
        assert!(ident.starts_with("qsync-serve/"), "{ident}");
    }

    #[test]
    fn queue_cap_zero_sheds_every_plan() {
        let engine = PlanEngine::shared();
        let sched = SchedConfig { class_caps: [0; 3], ..SchedConfig::default() };
        let server = PlanServer::with_sched(engine, 2, sched);
        let input = format!("{}\n{}\n", plan_line(1), plan_line(2));
        let mut out: Vec<u8> = Vec::new();
        server.serve_lines(input.as_bytes(), &mut out).unwrap();
        let replies = parse_replies(&out);
        assert_eq!(replies.len(), 2);
        for reply in &replies {
            match reply {
                ServerReply::Error { id: Some(_), message } => {
                    assert!(message.contains("shed"), "unexpected message {message:?}");
                }
                other => panic!("expected shed error, got {other:?}"),
            }
        }
        assert_eq!(server.engine().cache().stats().misses, 0, "nothing was planned");
    }

    #[test]
    fn shed_of_an_enveloped_plan_reports_the_queue_full_code() {
        let engine = PlanEngine::shared();
        let sched = SchedConfig { class_caps: [0; 3], ..SchedConfig::default() };
        let server = PlanServer::with_sched(engine, 1, sched);
        let plan: ServerCommand = serde_json::from_str(&plan_line(7)).unwrap();
        let input =
            format!("{}\n", serde_json::to_string(&qsync_api::RequestEnvelope::v1(plan)).unwrap());
        let mut out: Vec<u8> = Vec::new();
        server.serve_lines(input.as_bytes(), &mut out).unwrap();
        let envelope: qsync_api::ReplyEnvelope =
            serde_json::from_str(String::from_utf8_lossy(&out).lines().next().unwrap()).unwrap();
        let ServerReply::Fault(error) = envelope.reply else {
            panic!("expected structured fault, got {:?}", envelope.reply)
        };
        assert_eq!(error.code, ErrorCode::QueueFull);
        assert_eq!(error.id, Some(7));
        assert!(error.message.contains("shed"));
    }

    #[test]
    fn cancel_of_unknown_plan_reports_false() {
        let input = r#"{"Cancel":{"id":5,"plan_id":99}}"#.to_string() + "\n";
        let server = PlanServer::new(1);
        let mut out: Vec<u8> = Vec::new();
        server.serve_lines(input.as_bytes(), &mut out).unwrap();
        let replies = parse_replies(&out);
        assert_eq!(
            replies,
            vec![ServerReply::Cancelled { id: 5, plan_id: 99, cancelled: false }]
        );
    }

    #[test]
    fn stats_reply_carries_scheduler_counters() {
        let input = format!("{}\n{}\n", plan_line(1), r#"{"Stats":{"id":2}}"#);
        let server = PlanServer::new(1);
        let mut out: Vec<u8> = Vec::new();
        server.serve_lines(input.as_bytes(), &mut out).unwrap();
        let stats = parse_replies(&out)
            .into_iter()
            .find_map(|r| match r {
                ServerReply::Stats { sched, .. } => Some(sched),
                _ => None,
            })
            .expect("stats reply present");
        let sched = stats.expect("streaming path reports scheduler stats");
        assert_eq!(sched.policy, "drr");
        assert_eq!(sched.interactive.submitted, 1);
    }

    #[test]
    fn batch_dispatches_inner_commands_in_order() {
        let plan: ServerCommand = serde_json::from_str(&plan_line(21)).unwrap();
        let batch = ServerCommand::Batch {
            id: 20,
            cmds: vec![plan, ServerCommand::Stats { id: 22 }],
        };
        let input = format!(
            "{}\n",
            serde_json::to_string(&qsync_api::RequestEnvelope::v1(batch)).unwrap()
        );
        let server = PlanServer::new(2);
        let mut out: Vec<u8> = Vec::new();
        server.serve_lines(input.as_bytes(), &mut out).unwrap();
        let replies: Vec<ServerReply> = String::from_utf8_lossy(&out)
            .lines()
            .map(|l| serde_json::from_str::<qsync_api::ReplyEnvelope>(l).unwrap().reply)
            .collect();
        assert_eq!(replies.len(), 2, "one reply per inner command, none for the batch itself");
        assert!(replies.iter().any(|r| matches!(r, ServerReply::Plan(p) if p.id == 21)));
        assert!(replies.iter().any(|r| matches!(r, ServerReply::Stats { id: 22, .. })));

        // Nested batches are rejected with a structured fault.
        let nested = ServerCommand::Batch {
            id: 30,
            cmds: vec![ServerCommand::Batch { id: 31, cmds: vec![] }],
        };
        let input = format!(
            "{}\n",
            serde_json::to_string(&qsync_api::RequestEnvelope::v1(nested)).unwrap()
        );
        let mut out: Vec<u8> = Vec::new();
        server.serve_lines(input.as_bytes(), &mut out).unwrap();
        let envelope: qsync_api::ReplyEnvelope =
            serde_json::from_str(String::from_utf8_lossy(&out).lines().next().unwrap()).unwrap();
        let ServerReply::Fault(error) = envelope.reply else { panic!("expected fault") };
        assert_eq!(error.code, ErrorCode::InvalidField);
        assert_eq!(error.id, Some(30));
        assert_eq!(error.field.as_deref(), Some("cmds"));
    }

    #[test]
    fn batch_members_get_parse_spans() {
        let engine = PlanEngine::shared();
        let handle = PlanServer::with_engine(Arc::clone(&engine), 1).start_core();
        let (tx, _rx) = mpsc::channel();
        let conn = handle.core.register_conn(Sink::Line(tx));
        let plan: ServerCommand = serde_json::from_str(&plan_line(21)).unwrap();
        let ServerCommand::Plan(mut request) = plan else { panic!("plan_line yields a Plan") };
        request.trace_id = Some(555);
        let mut delta_request = DeltaRequest::new(
            22,
            ClusterSpec::hybrid_small(),
            qsync_api::ClusterDelta::Degraded {
                rank: 0,
                memory_fraction: 0.9,
                compute_fraction: 0.9,
            },
        );
        delta_request.trace_id = Some(556);
        let batch = ServerCommand::Batch {
            id: 20,
            cmds: vec![ServerCommand::Plan(request), ServerCommand::Delta(delta_request)],
        };
        let line =
            serde_json::to_string(&qsync_api::RequestEnvelope::v1(batch)).unwrap();
        // The parse span is recorded synchronously in handle_line, before the
        // inner commands dispatch — so it is visible as soon as the call
        // returns, for every traced payload of the batch.
        handle.core.handle_line(&conn, &line);
        for trace_id in [555, 556] {
            let spans = engine.obs().trace.spans_for(trace_id, 16);
            assert!(
                spans.iter().any(|s| s.stage == "parse"),
                "batch member trace {trace_id} is missing its parse span: {spans:?}"
            );
        }
        handle.stop();
    }

    fn degrade_line(id: u64) -> String {
        let cluster = ClusterSpec::hybrid_small();
        let rank = cluster.inference_ranks()[0];
        let delta = qsync_api::ClusterDelta::Degraded {
            rank,
            memory_fraction: 0.5,
            compute_fraction: 0.9,
        };
        serde_json::to_string(&ServerCommand::Delta(DeltaRequest::new(id, cluster, delta))).unwrap()
    }

    /// The `coalesced` count of every `Delta` reply among `lines`, by id.
    fn coalesced_by_id(lines: &[String]) -> Vec<(u64, usize)> {
        let mut seen: Vec<(u64, usize)> = lines
            .iter()
            .filter_map(|l| match serde_json::from_str::<ServerReply>(l).expect("reply parses") {
                ServerReply::Delta(outcome) => Some((outcome.id, outcome.coalesced)),
                _ => None,
            })
            .collect();
        seen.sort_unstable();
        seen
    }

    #[test]
    fn collection_window_batches_near_concurrent_deltas_into_one_wave() {
        use crate::sim::{SimConfig, SimServer};
        let windowed = || {
            let config =
                SimConfig { delta_window: Duration::from_millis(400), ..SimConfig::default() };
            let mut server = SimServer::with_config(config);
            let mut conn = server.connect();
            conn.send_line(&plan_line(1));
            server.step();
            assert_eq!(conn.recv_lines().len(), 1, "plan answered");
            // Two deltas staggered well within the window: without it the
            // second would find the first's wave already applied.
            conn.send_line(&degrade_line(10));
            server.advance(60);
            conn.send_line(&degrade_line(11));
            server.step();
            assert!(conn.recv_lines().is_empty(), "both deltas wait out the window");
            (server, conn)
        };

        let (mut server, mut conn) = windowed();
        server.advance(400);
        assert_eq!(coalesced_by_id(&conn.recv_lines()), vec![(10, 2), (11, 2)]);
        let stats = server.engine().delta_stats();
        assert_eq!((stats.waves, stats.events), (1, 2), "one collection window, one wave");

        // Shutdown mid-window: the drain lets virtual time pass, the window
        // lapses and both deltas are still answered (as one wave).
        let (mut server, mut conn) = windowed();
        server.shutdown();
        assert_eq!(coalesced_by_id(&conn.recv_lines()), vec![(10, 2), (11, 2)]);
        assert_eq!(server.engine().delta_stats().waves, 1);
    }

    #[test]
    fn threaded_core_runs_one_delta_thread_beside_its_workers() {
        let handle = PlanServer::new(3).start_core();
        assert_eq!(handle.threads.len(), 3 + 1, "workers + the delta thread");
        handle.stop();
    }

    #[test]
    fn delta_racing_shutdown_is_answered_exactly_once() {
        use std::sync::atomic::AtomicBool;
        let handle = PlanServer::new(2).start_core();
        let core = Arc::clone(&handle.core);
        let (tx, rx) = mpsc::channel();
        let conn = core.register_conn(Sink::Line(tx));
        let stopped = Arc::new(AtomicBool::new(false));
        let sent = Arc::new(AtomicU64::new(0));
        let sender = {
            let (core, stopped, sent) = (Arc::clone(&core), Arc::clone(&stopped), Arc::clone(&sent));
            thread::spawn(move || {
                // Stream deltas across the stop, then a few more after it.
                let mut after_stop = 0;
                while after_stop < 5 {
                    if stopped.load(Ordering::SeqCst) {
                        after_stop += 1;
                    }
                    core.handle_line(&conn, &degrade_line(sent.fetch_add(1, Ordering::SeqCst)));
                }
            })
        };
        while sent.load(Ordering::SeqCst) < 10 {
            thread::yield_now();
        }
        handle.stop();
        stopped.store(true, Ordering::SeqCst);
        sender.join().expect("sender thread");
        drop(core);
        let sent = sent.load(Ordering::SeqCst);

        let mut replies = vec![0u32; sent as usize];
        let (mut applied, mut refused) = (0, 0);
        for line in rx {
            match serde_json::from_str::<ServerReply>(&line).expect("reply parses") {
                ServerReply::Delta(outcome) => {
                    applied += 1;
                    replies[outcome.id as usize] += 1;
                }
                ServerReply::Error { id: Some(id), message } => {
                    assert!(message.contains("shutting down"), "unexpected error: {message}");
                    refused += 1;
                    replies[id as usize] += 1;
                }
                other => panic!("unexpected reply {other:?}"),
            }
        }
        assert!(replies.iter().all(|&n| n == 1), "a delta was answered {replies:?} times");
        assert!(applied >= 1 && refused >= 5, "applied {applied}, refused {refused} of {sent}");
    }

    #[test]
    fn anonymous_requests_fair_queue_under_the_connection_identity() {
        let engine = PlanEngine::shared();
        let handle = PlanServer::with_engine(Arc::clone(&engine), 1).start_core();
        let (tx_a, _rx_a) = mpsc::channel();
        let (tx_b, _rx_b) = mpsc::channel();
        let a = handle.core.register_conn(Sink::Line(tx_a));
        let b = handle.core.register_conn(Sink::Line(tx_b));
        assert_ne!(a.identity(), b.identity(), "each connection gets its own DRR queue");
        // And an explicit client_id overrides the connection identity — the
        // submit path is exercised end-to-end by the transport e2e tests.
        handle.stop();
    }
}
