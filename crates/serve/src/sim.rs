//! Deterministic whole-server simulation: the real reactor, core, scheduler,
//! engine and delta-wave path running on virtual time over in-memory
//! connections.
//!
//! Nothing here is a mock of server logic. [`SimServer`] wires the exact
//! production pieces together — [`crate::transport`]'s reactor over a
//! [`SimNet`] instead of a TCP listener, a threadless
//! [`ServeCore`](crate::server) whose scheduler queue is drained by explicit
//! [`SimServer::step`] calls instead of worker threads, and a
//! [`ManualClock`] that only moves when the harness says so. Because no
//! thread runs concurrently with the driver, a run is a pure function of the
//! scripted inputs: same script, same virtual times, same bytes — same
//! replies, same cache, same event stream, byte for byte.
//!
//! Faults are injected at the connection pipe: torn/partial client frames,
//! mid-frame hard drops (reset), stalled readers (bounded server→client
//! capacity), chunked server writes, and scripted `accept(2)` errnos such as
//! EMFILE. The `qsync-lab` crate builds the seeded fault scripts and the
//! invariant oracle on top of this module.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use polling::{Event, Interest};

use qsync_api::{DeltaRequest, PlanRequest};
use qsync_clock::ManualClock;
use qsync_sched::SchedConfig;

use crate::cache::CacheConfig;
use crate::engine::PlanEngine;
use crate::server::ServeCore;
use crate::transport::{NetStream, Reactor, ShutdownSignal, TransportConfig, LISTENER_KEY};

/// One state-mutating operation the simulated core executed, in execution
/// order. The lab's coherence oracle replays this log serially against a
/// fresh engine and demands byte-identical cached plans.
#[derive(Debug, Clone)]
pub enum SimOp {
    /// A plan request reached the engine (cache hit or miss).
    Plan(PlanRequest),
    /// A delta wave applied, carrying every member in order.
    DeltaWave(Vec<DeltaRequest>),
}

/// One in-memory duplex connection: a client→server byte stream and a
/// server→client byte stream, with fault knobs on both.
#[derive(Debug, Default)]
pub(crate) struct SimPipe {
    state: Mutex<PipeState>,
}

#[derive(Debug)]
struct PipeState {
    /// Bytes the client sent that the server has not read yet.
    c2s: VecDeque<u8>,
    /// Client closed its write side (server reads EOF after draining).
    c2s_closed: bool,
    /// Bytes the server wrote that the client has not received yet.
    s2c: Vec<u8>,
    /// Server→client capacity: a "stalled reader" is simulated by a small
    /// cap the client never drains, making server writes `WouldBlock`.
    s2c_cap: usize,
    /// Hard failure: both directions error (`ECONNRESET`-style).
    reset: bool,
    /// Cap on bytes accepted per server `write` call — simulates short
    /// (torn) writes so flush paths must handle partial progress.
    max_write: Option<usize>,
    /// Server closed the connection (reactor reaped it).
    server_closed: bool,
}

impl Default for PipeState {
    fn default() -> Self {
        PipeState {
            c2s: VecDeque::new(),
            c2s_closed: false,
            s2c: Vec::new(),
            s2c_cap: 16 << 20,
            reset: false,
            max_write: None,
            server_closed: false,
        }
    }
}

impl SimPipe {
    fn lock(&self) -> std::sync::MutexGuard<'_, PipeState> {
        self.state.lock().expect("sim pipe poisoned")
    }

    fn server_read(&self, buf: &mut [u8]) -> io::Result<usize> {
        let mut state = self.lock();
        if state.reset {
            return Err(io::Error::new(io::ErrorKind::ConnectionReset, "simulated reset"));
        }
        if !state.c2s.is_empty() {
            let n = buf.len().min(state.c2s.len());
            for slot in buf.iter_mut().take(n) {
                *slot = state.c2s.pop_front().expect("length checked");
            }
            return Ok(n);
        }
        if state.c2s_closed {
            return Ok(0);
        }
        Err(io::Error::new(io::ErrorKind::WouldBlock, "no data"))
    }

    fn server_write(&self, buf: &[u8]) -> io::Result<usize> {
        let mut state = self.lock();
        if state.reset {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "simulated reset"));
        }
        let space = state.s2c_cap.saturating_sub(state.s2c.len());
        if space == 0 {
            return Err(io::Error::new(io::ErrorKind::WouldBlock, "peer buffer full"));
        }
        let n = buf.len().min(space).min(state.max_write.unwrap_or(usize::MAX)).max(1).min(buf.len());
        state.s2c.extend_from_slice(&buf[..n]);
        Ok(n)
    }

    /// Readiness as the reactor's poller sees it: readable covers data, EOF
    /// and errors (all of which a `read` call should discover).
    fn server_ready(&self) -> (bool, bool) {
        let state = self.lock();
        let readable = state.reset || !state.c2s.is_empty() || state.c2s_closed;
        let writable = state.reset || state.s2c.len() < state.s2c_cap;
        (readable, writable)
    }

    fn server_close(&self) {
        self.lock().server_closed = true;
    }

    // ---- client side ----

    fn client_send(&self, bytes: &[u8]) {
        let mut state = self.lock();
        if state.reset || state.c2s_closed {
            return;
        }
        state.c2s.extend(bytes.iter().copied());
    }

    fn client_recv(&self) -> Vec<u8> {
        std::mem::take(&mut self.lock().s2c)
    }

    fn client_close_write(&self) {
        self.lock().c2s_closed = true;
    }

    fn client_reset(&self) {
        self.lock().reset = true;
    }

    fn set_recv_cap(&self, cap: usize) {
        self.lock().s2c_cap = cap;
    }

    fn set_max_write(&self, cap: Option<usize>) {
        self.lock().max_write = cap;
    }

    fn is_server_closed(&self) -> bool {
        self.lock().server_closed
    }
}

/// The server end of a simulated connection — what the reactor reads and
/// writes instead of a `TcpStream`. Dropping it (the reactor reaping the
/// connection) closes the server side, which the client observes.
#[derive(Debug)]
pub(crate) struct SimStream {
    pipe: Arc<SimPipe>,
}

impl SimStream {
    pub(crate) fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.pipe.server_read(buf)
    }

    pub(crate) fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.pipe.server_write(buf)
    }

    pub(crate) fn pipe(&self) -> Arc<SimPipe> {
        Arc::clone(&self.pipe)
    }
}

impl Drop for SimStream {
    fn drop(&mut self) {
        self.pipe.server_close();
    }
}

/// One entry in the simulated accept backlog.
#[derive(Debug)]
enum AcceptItem {
    /// A connection waiting to be accepted.
    Conn(Arc<SimPipe>),
    /// A scripted `accept(2)` failure (e.g. 24 = EMFILE), consumed by one
    /// accept call — this is how the lab exercises the accept-backoff path.
    Errno(i32),
}

/// The simulated network: the accept backlog plus every registered
/// connection's pipe and poller interest. Doubles as the reactor's listener
/// and poller backend (see [`crate::transport`]).
#[derive(Debug, Default)]
pub(crate) struct SimNet {
    state: Mutex<NetState>,
}

#[derive(Debug, Default)]
struct NetState {
    backlog: VecDeque<AcceptItem>,
    listener_interest: bool,
    conns: HashMap<usize, (Arc<SimPipe>, Interest)>,
}

impl SimNet {
    fn lock(&self) -> std::sync::MutexGuard<'_, NetState> {
        self.state.lock().expect("sim net poisoned")
    }

    fn enqueue_conn(&self, pipe: Arc<SimPipe>) {
        self.lock().backlog.push_back(AcceptItem::Conn(pipe));
    }

    fn enqueue_accept_error(&self, errno: i32) {
        self.lock().backlog.push_back(AcceptItem::Errno(errno));
    }

    pub(crate) fn accept(&self) -> io::Result<NetStream> {
        match self.lock().backlog.pop_front() {
            Some(AcceptItem::Conn(pipe)) => Ok(NetStream::Sim(SimStream { pipe })),
            Some(AcceptItem::Errno(errno)) => Err(io::Error::from_raw_os_error(errno)),
            None => Err(io::Error::new(io::ErrorKind::WouldBlock, "backlog empty")),
        }
    }

    pub(crate) fn set_listener_interest(&self, interest: Interest) {
        self.lock().listener_interest = interest.readable;
    }

    pub(crate) fn register_conn(&self, key: usize, pipe: Arc<SimPipe>, interest: Interest) {
        self.lock().conns.insert(key, (pipe, interest));
    }

    pub(crate) fn set_conn_interest(&self, key: usize, interest: Interest) {
        if let Some((_, slot)) = self.lock().conns.get_mut(&key) {
            *slot = interest;
        }
    }

    pub(crate) fn deregister_conn(&self, key: usize) {
        self.lock().conns.remove(&key);
    }

    /// Compute the current ready set, deterministically ordered: the
    /// listener first (if interested and the backlog is non-empty), then
    /// connections by ascending key. Level-triggered semantics fall out of
    /// recomputing from pipe state on every call.
    pub(crate) fn poll_ready(&self, events: &mut Vec<Event>) {
        let state = self.lock();
        if state.listener_interest && !state.backlog.is_empty() {
            events.push(Event { key: LISTENER_KEY, readable: true, writable: false });
        }
        let mut keys: Vec<usize> = state.conns.keys().copied().collect();
        keys.sort_unstable();
        for key in keys {
            let (pipe, interest) = &state.conns[&key];
            let (readable, writable) = pipe.server_ready();
            let event = Event {
                key,
                readable: readable && interest.readable,
                writable: writable && interest.writable,
            };
            if event.readable || event.writable {
                events.push(event);
            }
        }
    }
}

/// Configuration of a [`SimServer`] — the same scheduler/transport/engine
/// knobs the production binary exposes, with simulation-friendly defaults.
#[derive(Debug, Clone, Default)]
pub struct SimConfig {
    /// Scheduler policy and queue caps.
    pub sched: SchedConfig,
    /// Transport tuning (buffer caps, drain budget, accept backoff,
    /// reactor count, rate limits).
    pub transport: TransportConfig,
    /// Plan-cache sizing.
    pub cache: CacheConfig,
    /// Delta collection window on virtual time: the oldest queued delta
    /// waits this long for later ones to join its wave (see
    /// [`PlanServer::with_delta_window`](crate::server::PlanServer::with_delta_window)).
    pub delta_window: Duration,
    /// Cooperative preemption budget for the brute-force initial pass
    /// ([`PlanEngine::with_plan_budget`]); `None` runs it exhaustively.
    pub plan_budget_evals: Option<u64>,
}

/// The whole plan server — reactor, core, scheduler, engine, delta waves —
/// running deterministically on virtual time over in-memory connections.
///
/// Nothing executes except inside [`step`](SimServer::step) (and the
/// methods that call it), on the caller's thread, in a fixed order; the
/// [`ManualClock`] moves only via [`advance`](SimServer::advance). A run
/// driven by a fixed script is therefore exactly reproducible.
pub struct SimServer {
    clock: Arc<ManualClock>,
    engine: Arc<PlanEngine>,
    core: Arc<ServeCore>,
    /// Reactor 0's network: the accept backlog every scripted connection
    /// enters (peer reactors own private [`SimNet`]s holding only the
    /// connections handed off to them).
    net: Arc<SimNet>,
    /// All reactors, index order; 0 is the acceptor. `step` drives them in
    /// this fixed order, so multi-reactor runs stay deterministic.
    reactors: Vec<Reactor>,
    /// Pins the qsync-pool to inline execution for this server's lifetime:
    /// a simulated run must be a pure function of its script, so plan math
    /// may not fan out to free-running worker threads.
    _pool_guard: qsync_pool::SequentialGuard,
}

impl SimServer {
    /// A simulated server with default configuration.
    pub fn new() -> Self {
        Self::with_config(SimConfig::default())
    }

    /// A simulated server with explicit scheduler/transport/engine tuning.
    pub fn with_config(config: SimConfig) -> Self {
        let clock = Arc::new(ManualClock::new());
        let engine = Arc::new(
            PlanEngine::with_cache_config(config.cache).with_plan_budget(config.plan_budget_evals),
        );
        // Zero workers: the inline core, executed only by `step`'s pump.
        let core = ServeCore::start(
            Arc::clone(&engine),
            0,
            config.sched,
            &config.transport,
            config.delta_window,
            clock.clone() as Arc<dyn qsync_clock::Clock>,
            None,
        )
        .core;
        let net = Arc::new(SimNet::default());
        let shutdown = ShutdownSignal::new();
        let n_reactors = config.transport.reactors.max(1);
        let mut reactors = vec![Reactor::new_sim(
            Arc::clone(&core),
            Arc::clone(&net),
            shutdown.clone(),
            config.transport.clone(),
            clock.clone() as Arc<dyn qsync_clock::Clock>,
        )
        .expect("sim reactor construction is infallible")];
        for id in 1..n_reactors {
            reactors.push(
                Reactor::new_sim_peer(
                    Arc::clone(&core),
                    id,
                    Arc::new(SimNet::default()),
                    shutdown.clone(),
                    config.transport.clone(),
                    clock.clone() as Arc<dyn qsync_clock::Clock>,
                )
                .expect("sim reactor construction is infallible"),
            );
        }
        let ring: Vec<_> = reactors.iter().map(|r| r.shared()).collect();
        reactors[0].set_peers(ring);
        SimServer { clock, engine, core, net, reactors, _pool_guard: qsync_pool::pin_sequential() }
    }

    /// The virtual clock. Advancing it directly does **not** run the server;
    /// use [`advance`](SimServer::advance) to move time and then settle.
    pub fn clock(&self) -> &Arc<ManualClock> {
        &self.clock
    }

    /// The shared plan engine (cache inspection for oracles).
    pub fn engine(&self) -> &Arc<PlanEngine> {
        &self.engine
    }

    /// Open a client connection: it enters the accept backlog and is
    /// accepted on the next [`step`](SimServer::step).
    pub fn connect(&mut self) -> SimConn {
        let pipe = Arc::new(SimPipe::default());
        self.net.enqueue_conn(Arc::clone(&pipe));
        SimConn { pipe, carry: Vec::new() }
    }

    /// Script one `accept(2)` failure: the next accept attempt fails with
    /// this OS errno (24 = EMFILE triggers the backoff-pause path).
    pub fn inject_accept_error(&mut self, errno: i32) {
        self.net.enqueue_accept_error(errno);
    }

    /// Run the server until quiescent at the current virtual time: loop the
    /// reactor's poll pass against the core's job pump until neither makes
    /// progress. Returns whether anything ran at all.
    pub fn step(&mut self) -> bool {
        let mut progressed = false;
        loop {
            let mut io_progress = false;
            for reactor in &mut self.reactors {
                io_progress |= reactor.poll_step().expect("sim reactor step");
            }
            let core_progress = self.core.pump();
            if !io_progress && !core_progress {
                return progressed;
            }
            progressed = true;
        }
    }

    /// Advance virtual time by `ms` and settle (timer-driven behavior —
    /// accept-backoff expiry, delta collection windows, deadline expiry — observes
    /// the new time on this step).
    pub fn advance(&mut self, ms: u64) {
        self.clock.advance(ms);
        self.step();
    }

    /// Gracefully shut the server down: stop accepting, EOF every
    /// connection, run all queued work to completion and flush replies —
    /// advancing virtual time as needed — then force-close whatever the
    /// drain budget (`TransportConfig::drain_timeout`) left behind. The
    /// "no reply lost during drain" oracle runs against the bytes this
    /// delivers.
    pub fn shutdown(&mut self) {
        for reactor in &mut self.reactors {
            reactor.begin_drain();
        }
        loop {
            self.step();
            if self.reactors.iter().any(|r| r.drain_pending()) {
                // Nothing runnable now: let virtual time pass (a stalled
                // reader burns the budget; everyone else finished above).
                self.clock.advance(50);
            } else {
                break;
            }
        }
        for reactor in &mut self.reactors {
            reactor.finish_drain();
        }
        self.step();
    }

    /// Take the core's operation log: every plan/delta the server executed,
    /// in execution order (consumes the log).
    pub fn take_op_log(&self) -> Vec<SimOp> {
        self.core.take_op_log()
    }

    /// The full metrics snapshot (counters such as
    /// `qsync_transport_accept_pauses_total` for fault assertions).
    pub fn metrics(&self) -> qsync_obs::MetricsSnapshot {
        self.core.metrics_snapshot()
    }
}

impl Default for SimServer {
    fn default() -> Self {
        Self::new()
    }
}

/// The client end of a simulated connection: scripted sends (whole lines or
/// torn byte fragments), reply reads, and per-connection fault knobs.
#[derive(Debug)]
pub struct SimConn {
    pipe: Arc<SimPipe>,
    /// Partial reply line carried between [`recv_lines`](Self::recv_lines)
    /// calls (the server may flush mid-line under small write chunks).
    carry: Vec<u8>,
}

impl SimConn {
    /// Send one complete JSONL command line (newline appended).
    pub fn send_line(&self, line: &str) {
        self.pipe.client_send(line.as_bytes());
        self.pipe.client_send(b"\n");
    }

    /// Send raw bytes — a *partial* frame when no newline is included. The
    /// server must hold the fragment until the rest (or EOF/drop) arrives.
    pub fn send_bytes(&self, bytes: &[u8]) {
        self.pipe.client_send(bytes);
    }

    /// Receive every complete reply line delivered so far; a trailing
    /// partial line is held for the next call.
    pub fn recv_lines(&mut self) -> Vec<String> {
        self.carry.extend(self.pipe.client_recv());
        let mut lines = Vec::new();
        let mut start = 0;
        while let Some(offset) = self.carry[start..].iter().position(|&b| b == b'\n') {
            lines.push(String::from_utf8_lossy(&self.carry[start..start + offset]).into_owned());
            start += offset + 1;
        }
        self.carry.drain(..start);
        lines
    }

    /// Close the client's write side: the server reads EOF after draining
    /// buffered bytes (a clean half-close; replies still flow back).
    pub fn close_write(&self) {
        self.pipe.client_close_write();
    }

    /// Hard-drop the connection (both directions error) — a mid-frame drop
    /// when preceded by a partial [`send_bytes`](Self::send_bytes).
    pub fn drop_hard(&self) {
        self.pipe.client_reset();
    }

    /// Bound the server→client buffer: a small cap that is never drained
    /// simulates a stalled reader, driving the server's write-side
    /// backpressure (and, for subscribers, event dropping).
    pub fn set_recv_cap(&self, cap: usize) {
        self.pipe.set_recv_cap(cap);
    }

    /// Cap bytes accepted per server `write` call (`None` = unlimited):
    /// forces short writes so reply flushing happens in torn fragments.
    pub fn set_max_write(&self, cap: Option<usize>) {
        self.pipe.set_max_write(cap);
    }

    /// Whether the server has closed this connection.
    pub fn server_closed(&self) -> bool {
        self.pipe.is_server_closed()
    }
}

#[cfg(test)]
mod tests {
    //! `Cancel` and connection close against plans that are still queued —
    //! which on this core means: within one reactor pass, before the pump.

    use super::*;
    use qsync_api::{ModelSpec, ServerCommand, ServerReply};
    use qsync_cluster::topology::ClusterSpec;

    fn plan_request(id: u64, hidden: usize) -> PlanRequest {
        let model = ModelSpec::SmallMlp { batch: 8, in_features: 16, hidden, classes: 4 };
        PlanRequest::new(id, model, ClusterSpec::hybrid_small())
    }

    fn plan_line(id: u64, hidden: usize) -> String {
        serde_json::to_string(&ServerCommand::Plan(plan_request(id, hidden))).unwrap()
    }

    fn cancel_line(id: u64, plan_id: u64) -> String {
        serde_json::to_string(&ServerCommand::Cancel { id, plan_id }).unwrap()
    }

    fn replies(conn: &mut SimConn) -> Vec<ServerReply> {
        conn.recv_lines().iter().map(|l| serde_json::from_str(l).expect("reply parses")).collect()
    }

    fn cancelled_total(server: &SimServer) -> u64 {
        server.metrics().counter("qsync_sched_cancelled_total").expect("counter exported")
    }

    #[test]
    fn cancel_of_a_queued_plan_is_its_reply_and_frees_the_connection() {
        let mut server = SimServer::new();
        let mut conn = server.connect();
        conn.send_line(&plan_line(1, 32));
        conn.send_line(&cancel_line(2, 1));
        conn.close_write();
        server.step();
        // The confirmation, and no Plan reply.
        let confirmation = ServerReply::Cancelled { id: 2, plan_id: 1, cancelled: true };
        assert_eq!(replies(&mut conn), vec![confirmation]);
        assert!(conn.server_closed(), "nothing is owed: the half-closed connection drains");
        assert!(server.take_op_log().is_empty(), "the cancelled plan never reached the engine");
        assert_eq!(cancelled_total(&server), 1);
    }

    #[test]
    fn cancel_takes_the_newer_of_two_queued_plans_sharing_an_id() {
        let mut server = SimServer::new();
        let mut conn = server.connect();
        conn.send_line(&plan_line(5, 32));
        conn.send_line(&plan_line(5, 48));
        conn.send_line(&cancel_line(6, 5));
        server.step();
        let older_key = plan_request(5, 32).cache_key();
        let replies = replies(&mut conn);
        assert!(
            matches!(replies.as_slice(), [
                ServerReply::Cancelled { id: 6, plan_id: 5, cancelled: true },
                ServerReply::Plan(plan),
            ] if plan.id == 5 && plan.key == older_key),
            "the older submission still replies: {replies:?}"
        );
        let ops = server.take_op_log();
        assert!(
            matches!(ops.as_slice(), [SimOp::Plan(request)] if request.cache_key() == older_key),
            "only the older plan ran: {ops:?}"
        );
    }

    #[test]
    fn cancel_cannot_reach_another_connections_plan() {
        let mut server = SimServer::new();
        let mut owner = server.connect();
        let mut other = server.connect();
        // One step: both are accepted, then `owner` (the lower key) is read
        // before `other`, and both before the pump.
        owner.send_line(&plan_line(1, 32));
        other.send_line(&cancel_line(9, 1));
        server.step();
        let refusal = ServerReply::Cancelled { id: 9, plan_id: 1, cancelled: false };
        assert_eq!(replies(&mut other), vec![refusal]);
        assert!(matches!(replies(&mut owner).as_slice(), [ServerReply::Plan(plan)] if plan.id == 1));
        assert_eq!(cancelled_total(&server), 0);
    }

    #[test]
    fn dropping_a_connection_cancels_every_plan_it_still_has_queued() {
        let mut server = SimServer::new();
        let conn = server.connect();
        for id in 1..=3 {
            conn.send_line(&plan_line(id, 32));
        }
        // Reactor passes without the pump: accept, then read and submit.
        server.reactors[0].poll_step().unwrap();
        server.reactors[0].poll_step().unwrap();
        let queued = "qsync_sched_queue_depth{class=\"interactive\"}";
        assert_eq!(server.metrics().gauge(queued), Some(3));
        conn.drop_hard();
        server.step();
        assert_eq!((cancelled_total(&server), server.metrics().gauge(queued)), (3, Some(0)));
        assert!(server.take_op_log().is_empty(), "none of the dropped connection's plans ran");
    }
}
