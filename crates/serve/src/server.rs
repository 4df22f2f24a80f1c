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
//! fields (see [`PlanRequest`]); a request without a
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
//! Elasticity events cluster in time — a spot reclaim degrades several
//! devices at once, a scale-down removes ranks back to back — so deltas
//! ([`qsync_api::delta`]) are barriers applied in **waves** by one function
//! (`ServeCore::run_delta_wave`): every delta queued once the oldest has
//! waited out the collection window (`--delta-window-ms`, zero by default)
//! is taken together, the wave waits for every plan submitted (on any
//! connection) before it, then [`PlanEngine::apply_deltas_with`] composes
//! same-cluster deltas, invalidates once and emits the re-plan chains as one
//! batch — there is no second batching layer. A threaded core runs waves on
//! its single delta thread and fans the warm re-plans out through the
//! scheduler's **batch** class; the threadless simulation core
//! ([`crate::sim`]) runs the same function from its pump and the re-plans
//! inline. Either way the connection that submitted a delta keeps streaming;
//! a `Stats` read taken mid-quiesce answers immediately from counters.
//!
//! `Cancel` removes a still-queued plan request submitted **on the same
//! connection** (a successfully cancelled plan produces no `Plan` reply; the
//! `Cancelled` confirmation is its reply); plans queued by other connections
//! are out of reach and report `cancelled: false`. The scheduler's job table
//! is the only record of a queued plan — `Cancel` and connection close scan
//! it — so a plan takes no core-owned lock on its way in or out.
//!
//! Connections that [`Subscribe`](ServerCommand::Subscribe) receive the
//! server's **event stream** (`events.rs`): each delta wave broadcasts
//! [`ServerEvent::CacheInvalidated`] (what was evicted), one
//! [`ServerEvent::Replanned`] per warm re-plan, then
//! [`ServerEvent::DeltaApplied`] per composed delta — so a watching client
//! observes invalidate → re-plan for deltas *other* clients submit, without
//! polling `Stats`. Overload protection is [`crate::admission`]. This file
//! keeps connections, the one dispatch, delta waves and [`PlanServer`].

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use qsync_api::{
    render_plan_hit, render_reply, ApiError, DeltaRequest, ErrorCode, PlanOutcome, PlanRequest,
    PlanResponse, ServerEvent, WireProto, MAX_PROTOCOL_VERSION, MIN_PROTOCOL_VERSION,
};
use qsync_clock::{Clock, SystemClock};
use qsync_obs::MetricsSnapshot;
pub use qsync_api::{ServerCommand, ServerReply};

use qsync_sched::{Dispatch, JobMeta, Priority, SchedConfig, Scheduler, SubmitError};
use qsync_store::StoreError;

use crate::admission::{Admission, TokenBucket};
use crate::engine::{PlanEngine, ReplanChain};
use crate::events::EventHub;
use crate::persist::{self, StoreConfig};
use crate::sim::SimOp;
use crate::transport::{Outbox, TransportConfig};

/// Software identifier advertised in `Hello` replies.
const SERVER_IDENT: &str = concat!("qsync-serve/", env!("CARGO_PKG_VERSION"));

/// One scheduler job of the serving layer.
enum ServeJob {
    /// A client plan request; the reply is routed back to the submitting
    /// connection in the wire form the request arrived in. `queued_us` is
    /// the trace clock at submit, where the `dispatch` span starts.
    Plan {
        request: PlanRequest,
        conn: Arc<ConnState>,
        wire: WireProto,
        queued_us: u64,
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
    /// This connection's token bucket; `None` without a per-connection
    /// rate limit.
    rate: Option<Mutex<TokenBucket>>,
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

    /// The bucket [`Admission`] spends this connection's tokens from.
    pub(crate) fn rate_bucket(&self) -> Option<&Mutex<TokenBucket>> {
        self.rate.as_ref()
    }

    /// Serialize and enqueue one line that completes no accepted command
    /// (an inline answer or an event).
    pub(crate) fn send(&self, wire: WireProto, reply: &ServerReply) {
        let line = render_reply(wire, reply);
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
    pub(crate) fn event_capacity_ok(&self, cap: usize) -> bool {
        match &self.sink {
            // The blocking path's writer thread drains continuously into the
            // caller-owned writer; there is no measurable backlog to bound.
            Sink::Line(_) => true,
            Sink::Outbox(outbox) => outbox.len() <= cap,
        }
    }

    /// Accept one command, to be answered by [`complete`](Self::complete).
    fn begin(&self) {
        *self.pending.lock().expect("pending counter poisoned") += 1;
    }

    /// Answer one accepted command: enqueue its reply, release its
    /// `pending` slot, then wake the reactor **once** for both. The bytes go
    /// first, so a reactor that reads `pending == 0` (and may close an EOF'd
    /// connection on it) also sees them.
    fn complete(&self, wire: WireProto, reply: &ServerReply) {
        self.complete_rendered(render_reply(wire, reply));
    }

    /// [`complete`](Self::complete) with an already-rendered line.
    fn complete_rendered(&self, line: String) {
        match &self.sink {
            Sink::Line(tx) => drop(tx.send(line)),
            Sink::Outbox(outbox) => {
                outbox.append_line(&line);
            }
        }
        let mut pending = self.pending.lock().expect("pending counter poisoned");
        *pending -= 1;
        let idle = *pending == 0;
        drop(pending);
        if idle {
            self.idle.notify_all();
        }
        if let Sink::Outbox(outbox) = &self.sink {
            outbox.mark_dirty();
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

/// The shared serving core: exactly one scheduler, engine (plan cache),
/// delta queue and worker pool, shared by **every** connection of a server —
/// fairness, delta barriers and the event stream are global.
pub(crate) struct ServeCore {
    engine: Arc<PlanEngine>,
    /// The plan queue, and the only record of a queued plan.
    sched: Scheduler<ServeJob>,
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
    events: EventHub,
    admission: Admission,
    next_conn: AtomicU64,
    /// `Some` only on an inline core: the serial record of state-mutating
    /// operations in the exact order this core executed them — what the
    /// lab's cache-coherence oracle replays against a fresh engine.
    op_log: Option<Mutex<Vec<SimOp>>>,
    /// The persistent plan store, when configured: the default target of
    /// `Snapshot`/`Load` commands, of the shutdown snapshot and (with an
    /// interval) of the delta thread's periodic ones.
    store: Option<StoreConfig>,
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
        self.core.snapshot_to_store("shutdown");
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
        store: Option<StoreConfig>,
    ) -> CoreHandle {
        let core = Arc::new(ServeCore {
            sched: Scheduler::with_clock(config, clock),
            workers,
            deltas: Mutex::new(DeltaQueue::default()),
            delta_ready: Condvar::new(),
            delta_window_ms: delta_window.as_millis() as u64,
            events: EventHub::new(Arc::clone(&engine), transport.event_outbox_cap),
            admission: Admission::new(transport.rate_limit, Arc::clone(engine.obs())),
            next_conn: AtomicU64::new(0),
            op_log: (workers == 0).then(|| Mutex::new(Vec::new())),
            store,
            engine,
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

    /// Run a `Snapshot`/`Load` against its target — the explicit `path`
    /// operand, else the configured store — answering "no target" and a
    /// failed `run` with faults.
    fn on_store_path(
        &self,
        id: u64,
        explicit: Option<String>,
        what: &str,
        run: impl FnOnce(&Path) -> Result<ServerReply, StoreError>,
    ) -> ServerReply {
        let configured = || self.store.as_ref().map(|store| store.path.clone());
        let Some(path) = explicit.map(PathBuf::from).or_else(configured) else {
            let message = "no store path: pass `path` or start the server with --store";
            let error = ApiError::new(ErrorCode::InvalidField, message);
            return ServerReply::Fault(error.with_id(id).with_field("path"));
        };
        run(&path).unwrap_or_else(|error| {
            let message = format!("{what} failed: {error}");
            ServerReply::Fault(ApiError::new(ErrorCode::Internal, message).with_id(id))
        })
    }

    /// Snapshot the cache to the configured store, if there is one; `when`
    /// names the occasion in the (otherwise ignored) failure's message.
    fn snapshot_to_store(&self, when: &str) {
        let Some(store) = &self.store else { return };
        if let Err(error) = persist::snapshot_to_path(&self.engine, &store.path) {
            eprintln!("qsync-serve: {when} snapshot failed: {error}");
        }
    }

    /// Take the inline core's operation log (empty on a threaded core).
    pub(crate) fn take_op_log(&self) -> Vec<SimOp> {
        match &self.op_log {
            Some(log) => std::mem::take(&mut *log.lock().expect("op log poisoned")),
            None => Vec::new(),
        }
    }

    fn record_op(&self, op: impl FnOnce() -> SimOp) {
        if let Some(log) = &self.op_log {
            log.lock().expect("op log poisoned").push(op());
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
            self.events.broadcast(ServerEvent::CacheInvalidated {
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
                self.events.broadcast(ServerEvent::Replanned {
                    key: response.key.clone(),
                    outcome: response.outcome,
                    predicted_iteration_us: response.predicted_iteration_us,
                    trace_id: response.trace_id.unwrap_or(0),
                    adopt: None,
                });
            }
            responses
        });
        for (task, result) in tasks.into_iter().zip(results) {
            let reply = match result {
                Ok(outcome) => {
                    self.events.broadcast(ServerEvent::DeltaApplied {
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
            task.conn.complete(task.wire, &reply);
        }
        true
    }

    /// Delta-thread body (threaded core): run every due wave off the
    /// transport threads, sleeping in between until a delta is queued, the
    /// oldest queued one's collection window lapses, a periodic snapshot
    /// falls due or the core stops. Periodic snapshots ride this thread —
    /// there is no dedicated snapshot thread — so their deadline is a local.
    fn delta_loop(&self) {
        let interval = self.store.as_ref().and_then(|store| store.snapshot_interval);
        let mut snapshot_due = interval.map(|interval| Instant::now() + interval);
        loop {
            if self.run_delta_wave() {
                continue;
            }
            if snapshot_due.is_some_and(|due| Instant::now() >= due) {
                snapshot_due = interval.map(|interval| Instant::now() + interval);
                self.snapshot_to_store("periodic");
            }
            let queue = self.deltas.lock().expect("delta queue poisoned");
            let wait = match self.wave_due_in(&queue) {
                Some(Duration::ZERO) => continue,
                // Mid-window. Capped so a frozen manual clock is re-read
                // instead of sleeping out the whole window in real time.
                Some(window) => Some(window.min(Duration::from_millis(50))),
                None if queue.closed => return,
                // Idle: until the next snapshot, or until woken.
                None => snapshot_due.map(|due| due.saturating_duration_since(Instant::now())),
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
            rate: self.admission.conn_bucket(self.sched.clock().now_ms()),
            sink,
        })
    }

    /// Drop a (closed) connection's server-side footprint: end its event
    /// subscription and cancel every still-queued plan it submitted.
    pub(crate) fn drop_conn(&self, conn_id: u64) {
        self.events.unsubscribe(conn_id);
        self.sched.cancel_all_where(
            |job| matches!(job, ServeJob::Plan { conn, .. } if conn.id == conn_id),
        );
    }

    /// The observability bundle shared with the engine (the transport
    /// records its instruments through this).
    pub(crate) fn obs(&self) -> &Arc<crate::metrics::ServeObs> {
        self.engine.obs()
    }

    /// The full server metrics snapshot: the engine's registry + derived
    /// values, plus the scheduler and event-stream dynamics only the
    /// streaming core knows.
    pub(crate) fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.engine.metrics_snapshot();
        crate::metrics::append_sched(&mut snap, &self.sched);
        self.events.append_metrics(&mut snap);
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
            ServerCommand::Plan(PlanRequest { trace_id, .. })
            | ServerCommand::Delta(DeltaRequest { trace_id, .. }) => {
                let id = trace_id.filter(|&t| t != 0).unwrap_or_else(|| trace.mint());
                *trace_id = Some(id);
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
        if let Some(error) = self.admission.admit(conn, &command, self.sched.clock().now_ms()) {
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
                let queued_us = self.engine.obs().trace.now_us();
                let job = ServeJob::Plan { request, conn: Arc::clone(conn), wire, queued_us };
                if let Err(rejected) = self.sched.submit(job, meta) {
                    // Admission control: shed immediately.
                    let error = submit_error(&rejected.error).with_id(request_id);
                    conn.complete(wire, &ServerReply::Fault(error));
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
                    subscribers: self.events.stats(),
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
                let seq = self.events.seq();
                let keys = self.engine.cache().keys();
                let dropped = self.events.take_dropped(conn.id);
                conn.send(wire, &ServerReply::Resynced { id, seq, keys, dropped });
            }
            ServerCommand::Cancel { id, plan_id } => {
                // Newest first: of two queued plans sharing an id, the later
                // submission is the one a client can still mean.
                let cancelled = self.sched.cancel_newest_where(|job| {
                    matches!(job, ServeJob::Plan { request, conn: owner, .. }
                        if owner.id == conn.id && request.id == plan_id)
                });
                let reply = ServerReply::Cancelled { id, plan_id, cancelled };
                if cancelled {
                    // The cancelled plan will never reply; this confirmation
                    // is its reply.
                    conn.complete(wire, &reply);
                } else {
                    conn.send(wire, &reply);
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
                self.events.subscribe(conn, wire, adopt);
                conn.send(wire, &ServerReply::Subscribed { id });
            }
            ServerCommand::Unsubscribe { id } => {
                self.events.unsubscribe(conn.id);
                conn.send(wire, &ServerReply::Unsubscribed { id });
            }
            ServerCommand::Snapshot { id, path } => {
                // An admin write: runs inline on the transport thread (the
                // cache is concurrent; no barrier needed) so it can't be
                // starved by queued planning work.
                let reply = self.on_store_path(id, path, "snapshot", |path| {
                    let (entries, bytes) = persist::snapshot_to_path(&self.engine, path)?;
                    let path = path.display().to_string();
                    Ok(ServerReply::Snapshotted { id, path, entries, bytes })
                });
                conn.send(wire, &reply);
            }
            ServerCommand::Load { id, path } => {
                let reply = self.on_store_path(id, path, "load", |path| {
                    let stats = persist::load_from_path(&self.engine, path)?;
                    Ok(ServerReply::Loaded {
                        id,
                        path: path.display().to_string(),
                        plans: stats.plans,
                        memos: stats.memos,
                        skipped: stats.skipped,
                        bytes: stats.bytes,
                    })
                });
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
            ServeJob::Plan { request, conn, wire, queued_us } => {
                let trace_id = request.trace_id.unwrap_or(0);
                if trace_id != 0 {
                    // The dispatch span covers the time the job sat in
                    // its queue, ending now (at worker pickup).
                    obs.trace.span(trace_id, "dispatch", queued_us, format!("queued {wait_ms} ms"));
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
                                self.events.broadcast(ServerEvent::PlanReady {
                                    key: response.key.clone(),
                                    outcome: response.outcome,
                                    predicted_iteration_us: response.predicted_iteration_us,
                                    trace_id: response.trace_id.unwrap_or(0),
                                    adopt: None,
                                });
                            }
                            (ServerReply::Plan(response), hit_body)
                        }
                        Err(error) => (ServerReply::Fault(error), None),
                    }
                };
                let write_start = obs.trace.now_us();
                conn.complete_rendered(match (&reply, &hit_body) {
                    (ServerReply::Plan(hit), Some(body)) => render_plan_hit(wire, hit, body),
                    _ => render_reply(wire, &reply),
                });
                if trace_id != 0 {
                    obs.trace.span(
                        trace_id,
                        "reply_write",
                        write_start,
                        format!("to {}", conn.identity()),
                    );
                }
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
    /// queue caps, expired-job shedding, aging bound).
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

    /// Start this server's core — its planner threads plus the delta thread
    /// — over the configured store, warm-loading the snapshot file first if
    /// one exists. A load failure (corrupt, unreadable) is reported to
    /// stderr and the server boots cold — a bad snapshot must never prevent
    /// serving.
    pub(crate) fn start_core(&self) -> CoreHandle {
        if let Some(store) = self.store.as_ref().filter(|store| store.path.exists()) {
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
        ServeCore::start(
            Arc::clone(&self.engine),
            self.workers,
            self.sched.clone(),
            &self.transport,
            self.delta_window,
            self.clock(),
            self.store.clone(),
        )
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
mod tests;
