//! Readiness-based TCP transport: connections multiplexed across one or more
//! epoll reactor threads.
//!
//! The previous transport spawned a thread (and a private scheduler!) per
//! connection, so a thousand idle clients pinned a thousand stacks and
//! fairness stopped at the connection boundary. Each reactor holds its
//! connections on a single [`polling::Poller`]:
//!
//! * **Nonblocking accept** — the listener is registered like any other
//!   source; an accept burst is drained in one readiness event.
//! * **Incremental JSONL framing** — per-connection read buffers accumulate
//!   bytes until `\n`; partial lines survive any read-boundary split, and a
//!   line exceeding [`TransportConfig::max_line_bytes`] draws an `Error`
//!   reply and a connection close instead of unbounded buffering.
//! * **Write-side backpressure** — replies land in a per-connection
//!   `Outbox`; the reactor flushes opportunistically and registers
//!   **write interest only while bytes remain** (level-triggered epoll).
//!   When a slow reader lets the buffered bytes exceed
//!   [`TransportConfig::max_buffered_bytes`], the reactor drops the
//!   connection's *read* interest until the backlog drains below half.
//! * **Graceful shutdown** — a [`ShutdownSignal`] stops the accept loop,
//!   stops reading new commands, and drains outstanding replies for up to
//!   [`TransportConfig::drain_timeout`] before closing.
//!
//! Commands are parsed on the reactor thread and dispatched into the shared
//! [`ServeCore`](crate::server): planning runs on the worker pool, deltas on
//! the delta thread — the reactor itself never blocks on either, so a
//! pending delta barrier cannot stall unrelated connections (nor `Stats`
//! reads, which answer inline from counters).
//!
//! **Multi-reactor scale-out.** With [`TransportConfig::reactors`] > 1 the
//! transport shards across N reactor threads by **accept-and-hand-off**:
//! reactor 0 owns the listener and hands each accepted stream to the
//! least-loaded reactor's inbound queue (waking it through its poller). Connection
//! state — read buffers, outboxes, write-backpressure, interest — stays
//! strictly reactor-local; exactly one shared `ServeCore` (scheduler, plan
//! engine, delta queue, event fan-out) serves all reactors, and each
//! reactor drains its own connections on shutdown.
//!
//! **Virtual time and simulation.** Every time the reactor consults —
//! the accept-backoff deadline and the shutdown drain budget — is read from
//! an injected [`Clock`], and the socket layer is abstracted behind
//! `NetStream`/`NetListener`/`NetPoller` enums whose second variants
//! are in-memory simulated connections ([`crate::sim`]). The `qsync-lab`
//! harness drives the *same* reactor code, step by step, on a
//! [`ManualClock`](qsync_clock::ManualClock) with scripted faults.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use polling::{Event, Interest, Poller};

use qsync_api::WireProto;
use qsync_clock::Clock;

use crate::admission::RateLimitConfig;
use crate::server::{PlanServer, ServeCore, ServerReply, Sink};
use crate::sim::{SimNet, SimStream};

/// Raise the process's soft `RLIMIT_NOFILE` toward `want` (capped at the
/// hard limit) and return the resulting soft limit. A reactor is bounded by
/// file descriptors, not threads, so a many-connection server (or test)
/// should lift the often-1024 default soft limit before serving.
#[cfg(target_os = "linux")]
pub fn ensure_fd_limit(want: u64) -> io::Result<u64> {
    #[repr(C)]
    struct RLimit {
        rlim_cur: u64,
        rlim_max: u64,
    }
    extern "C" {
        fn getrlimit(resource: std::os::raw::c_int, rlim: *mut RLimit) -> std::os::raw::c_int;
        fn setrlimit(resource: std::os::raw::c_int, rlim: *const RLimit) -> std::os::raw::c_int;
    }
    const RLIMIT_NOFILE: std::os::raw::c_int = 7;

    let mut limit = RLimit { rlim_cur: 0, rlim_max: 0 };
    if unsafe { getrlimit(RLIMIT_NOFILE, &mut limit) } != 0 {
        return Err(io::Error::last_os_error());
    }
    if limit.rlim_cur >= want {
        return Ok(limit.rlim_cur);
    }
    let target = want.min(limit.rlim_max);
    let raised = RLimit { rlim_cur: target, rlim_max: limit.rlim_max };
    if unsafe { setrlimit(RLIMIT_NOFILE, &raised) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(target)
}

/// Unsupported off Linux (`RLIMIT_NOFILE`'s value is per-OS, and the
/// reactor itself is Linux-only anyway).
#[cfg(not(target_os = "linux"))]
pub fn ensure_fd_limit(_want: u64) -> io::Result<u64> {
    Err(io::Error::new(io::ErrorKind::Unsupported, "ensure_fd_limit is Linux-only"))
}

/// Tuning of the reactor transport.
#[derive(Debug, Clone)]
pub struct TransportConfig {
    /// Hard cap on one JSONL command line. A connection that exceeds it
    /// (i.e. streams this many bytes without a newline) gets an `Error`
    /// reply and is closed — wire input must not buffer unboundedly.
    pub max_line_bytes: usize,
    /// Soft cap on a connection's un-flushed reply bytes. Beyond it the
    /// reactor stops *reading* from that connection (backpressure) until the
    /// backlog drains below half.
    pub max_buffered_bytes: usize,
    /// How long a graceful shutdown waits for in-flight replies to flush
    /// before force-closing connections.
    pub drain_timeout: Duration,
    /// Cap on a *subscriber's* un-flushed bytes beyond which broadcast
    /// events are dropped (counted per subscriber; see the `Resync`
    /// command) rather than buffered without bound. Replies to the
    /// subscriber's own commands are never dropped — this cap gates only
    /// the event fan-out.
    pub event_outbox_cap: usize,
    /// How long accepts stay paused after a resource-exhaustion accept
    /// error (e.g. `EMFILE`): the backlog keeps the listener readable, so
    /// without a pause the reactor would spin hot on the failing `accept`.
    pub accept_backoff: Duration,
    /// Number of reactor threads the transport shards connections across
    /// (min 1). Reactor 0 owns the listener and hands each accepted
    /// connection to the least-loaded reactor; all reactors share one
    /// `ServeCore`. The `qsync-serve` binary defaults `--reactors` to the
    /// available cores.
    pub reactors: usize,
    /// Token-bucket overload protection, enforced per command at admission
    /// (see [`RateLimitConfig`]). Default: no limits.
    pub rate_limit: RateLimitConfig,
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig {
            max_line_bytes: 1 << 20,
            max_buffered_bytes: 8 << 20,
            drain_timeout: Duration::from_secs(10),
            event_outbox_cap: 4 << 20,
            accept_backoff: Duration::from_millis(250),
            reactors: 1,
            rate_limit: RateLimitConfig::default(),
        }
    }
}

/// Cooperative stop flag for [`PlanServer::serve_listener`]. Clone it before
/// starting the server; [`shutdown`](ShutdownSignal::shutdown) from any
/// thread makes the reactor stop accepting, drain and return.
#[derive(Debug, Clone, Default)]
pub struct ShutdownSignal {
    inner: Arc<ShutdownInner>,
}

#[derive(Debug, Default)]
struct ShutdownInner {
    stop: AtomicBool,
    /// One waker per attached reactor — a shutdown must wake every reactor
    /// thread, not just the acceptor.
    wakers: Mutex<Vec<Arc<ReactorShared>>>,
}

impl ShutdownSignal {
    /// A fresh, un-fired signal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request shutdown. Idempotent; safe from any thread.
    pub fn shutdown(&self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        for shared in self.inner.wakers.lock().expect("shutdown waker poisoned").iter() {
            let _ = shared.poller.notify();
        }
    }

    /// Whether shutdown has been requested.
    fn is_shutdown(&self) -> bool {
        self.inner.stop.load(Ordering::SeqCst)
    }

    fn attach(&self, shared: &Arc<ReactorShared>) {
        self.inner.wakers.lock().expect("shutdown waker poisoned").push(Arc::clone(shared));
    }
}

/// A connection stream: a real socket or an in-memory simulated pipe. The
/// reactor reads/writes through this enum so the whole transport runs
/// unchanged against either backend.
pub(crate) enum NetStream {
    /// A real TCP socket.
    Tcp(TcpStream),
    /// The server end of a simulated connection (see [`crate::sim`]).
    Sim(SimStream),
}

impl std::fmt::Debug for NetStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            NetStream::Tcp(_) => "NetStream::Tcp",
            NetStream::Sim(_) => "NetStream::Sim",
        })
    }
}

impl NetStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            NetStream::Tcp(s) => s.read(buf),
            NetStream::Sim(s) => s.read(buf),
        }
    }

    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            NetStream::Tcp(s) => s.write(buf),
            NetStream::Sim(s) => s.write(buf),
        }
    }

    fn prepare(&self) -> io::Result<()> {
        if let NetStream::Tcp(s) = self {
            s.set_nonblocking(true)?;
            // Replies are whole JSON lines; don't let Nagle sit on them.
            let _ = s.set_nodelay(true);
        }
        Ok(())
    }
}

/// A listening endpoint: a bound TCP listener or the simulated accept queue.
pub(crate) enum NetListener {
    /// A real TCP listener.
    Tcp(TcpListener),
    /// The simulated accept backlog (connections and scripted accept
    /// errors queued by the lab driver).
    Sim(Arc<SimNet>),
}

impl NetListener {
    fn accept(&self) -> io::Result<NetStream> {
        match self {
            NetListener::Tcp(l) => l.accept().map(|(stream, _peer)| NetStream::Tcp(stream)),
            NetListener::Sim(net) => net.accept(),
        }
    }
}

/// Readiness source: the real epoll-backed [`Poller`] or the simulated
/// network's synchronous readiness computation.
#[derive(Debug)]
pub(crate) enum NetPoller {
    /// epoll (vendored `polling` crate).
    Tcp(Poller),
    /// In-memory readiness — [`SimNet`] computes ready events from pipe
    /// state and registered interest, deterministically ordered by key.
    Sim(Arc<SimNet>),
}

impl NetPoller {
    fn notify(&self) -> io::Result<()> {
        match self {
            NetPoller::Tcp(p) => p.notify(),
            // The sim reactor is driven synchronously by the lab; there is
            // no blocked wait to interrupt.
            NetPoller::Sim(_) => Ok(()),
        }
    }

    fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        match self {
            NetPoller::Tcp(p) => p.wait(events, timeout),
            NetPoller::Sim(net) => {
                net.poll_ready(events);
                Ok(events.len())
            }
        }
    }

    fn add_listener(&self, listener: &NetListener, key: usize, interest: Interest) -> io::Result<()> {
        match (self, listener) {
            (NetPoller::Tcp(p), NetListener::Tcp(l)) => p.add(l, key, interest),
            (NetPoller::Sim(net), NetListener::Sim(_)) => {
                net.set_listener_interest(interest);
                Ok(())
            }
            _ => Err(io::Error::new(io::ErrorKind::InvalidInput, "mixed net backends")),
        }
    }

    fn modify_listener(&self, listener: &NetListener, key: usize, interest: Interest) -> io::Result<()> {
        self.add_listener(listener, key, interest)
    }

    fn delete_listener(&self, listener: &NetListener) -> io::Result<()> {
        match (self, listener) {
            (NetPoller::Tcp(p), NetListener::Tcp(l)) => p.delete(l),
            (NetPoller::Sim(net), NetListener::Sim(_)) => {
                net.set_listener_interest(Interest::NONE);
                Ok(())
            }
            _ => Err(io::Error::new(io::ErrorKind::InvalidInput, "mixed net backends")),
        }
    }

    fn add_stream(&self, stream: &NetStream, key: usize, interest: Interest) -> io::Result<()> {
        match (self, stream) {
            (NetPoller::Tcp(p), NetStream::Tcp(s)) => p.add(s, key, interest),
            (NetPoller::Sim(net), NetStream::Sim(s)) => {
                net.register_conn(key, s.pipe(), interest);
                Ok(())
            }
            _ => Err(io::Error::new(io::ErrorKind::InvalidInput, "mixed net backends")),
        }
    }

    fn modify_stream(&self, stream: &NetStream, key: usize, interest: Interest) -> io::Result<()> {
        match (self, stream) {
            (NetPoller::Tcp(p), NetStream::Tcp(s)) => p.modify(s, key, interest),
            (NetPoller::Sim(net), NetStream::Sim(_)) => {
                net.set_conn_interest(key, interest);
                Ok(())
            }
            _ => Err(io::Error::new(io::ErrorKind::InvalidInput, "mixed net backends")),
        }
    }

    fn delete_stream(&self, stream: &NetStream, key: usize) -> io::Result<()> {
        match (self, stream) {
            (NetPoller::Tcp(p), NetStream::Tcp(s)) => p.delete(s),
            (NetPoller::Sim(net), NetStream::Sim(_)) => {
                net.deregister_conn(key);
                Ok(())
            }
            _ => Err(io::Error::new(io::ErrorKind::InvalidInput, "mixed net backends")),
        }
    }
}

/// State shared between a reactor and the reply producers (workers, the
/// delta thread) plus its peer reactors: the poller, the list of connections
/// with fresh output, and the inbound queue of accepted streams handed off
/// by the acceptor reactor.
#[derive(Debug)]
pub(crate) struct ReactorShared {
    poller: NetPoller,
    dirty: Mutex<Vec<usize>>,
    /// Accepted streams handed off by the acceptor, awaiting registration
    /// on this reactor's poller (drained at the top of each pass).
    inbound: Mutex<Vec<NetStream>>,
}

impl ReactorShared {
    /// Queue an accepted stream for this reactor and wake it.
    fn hand_off(&self, stream: NetStream) {
        self.inbound.lock().expect("inbound queue poisoned").push(stream);
        let _ = self.poller.notify();
    }
}

/// A connection's reply buffer, filled by worker threads and flushed by the
/// reactor under write readiness.
#[derive(Debug)]
pub(crate) struct Outbox {
    key: usize,
    buf: Mutex<OutboxBuf>,
    shared: Arc<ReactorShared>,
}

#[derive(Debug, Default)]
struct OutboxBuf {
    bytes: Vec<u8>,
    closed: bool,
}

impl Outbox {
    /// Queue one reply line and wake the reactor to flush it. Replies to a
    /// connection that already closed are dropped silently.
    pub(crate) fn push_line(&self, line: &str) {
        if self.append_line(line) {
            self.mark_dirty();
        }
    }

    /// Queue one reply line **without** waking the reactor: the caller owes
    /// a [`mark_dirty`](Self::mark_dirty). Returns whether it was buffered.
    pub(crate) fn append_line(&self, line: &str) -> bool {
        let mut buf = self.buf.lock().expect("outbox poisoned");
        if buf.closed {
            return false;
        }
        buf.bytes.extend_from_slice(line.as_bytes());
        buf.bytes.push(b'\n');
        true
    }

    /// Flag this connection for the reactor's next flush/closability pass.
    pub(crate) fn mark_dirty(&self) {
        self.shared.dirty.lock().expect("dirty list poisoned").push(self.key);
        let _ = self.shared.poller.notify();
    }

    /// Move all buffered bytes into `into`.
    fn take_into(&self, into: &mut Vec<u8>) {
        let mut buf = self.buf.lock().expect("outbox poisoned");
        into.extend_from_slice(&buf.bytes);
        buf.bytes.clear();
    }

    pub(crate) fn len(&self) -> usize {
        self.buf.lock().expect("outbox poisoned").bytes.len()
    }

    fn close(&self) {
        let mut buf = self.buf.lock().expect("outbox poisoned");
        buf.closed = true;
        buf.bytes.clear();
    }
}

/// Reactor key of the listener; connections start above it.
pub(crate) const LISTENER_KEY: usize = 0;

struct Conn {
    stream: NetStream,
    state: Arc<crate::server::ConnState>,
    outbox: Arc<Outbox>,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    write_pos: usize,
    interest: Interest,
    /// Peer closed its write side (or the server decided to stop reading):
    /// finish outstanding replies, flush, then close.
    peer_eof: bool,
    /// Read interest withdrawn because the reply backlog passed the cap.
    paused: bool,
    /// Hard I/O error: discard without flushing.
    dropped: bool,
}

impl Conn {
    fn unflushed(&self) -> usize {
        self.write_buf.len() - self.write_pos + self.outbox.len()
    }

    fn closable(&self) -> bool {
        self.dropped
            || (self.peer_eof
                && self.state.pending_count() == 0
                && self.write_pos == self.write_buf.len()
                && self.outbox.len() == 0)
    }
}

/// Bytes consumed from one connection per readiness pass. Level-triggered
/// epoll re-delivers the event while bytes remain, so a flooding connection
/// is revisited only after every other ready connection (and the
/// flush/backpressure pass) had its turn — one client can neither starve
/// the reactor nor buffer unboundedly in a single pass.
const READ_BUDGET: usize = 256 * 1024;

pub(crate) struct Reactor {
    core: Arc<ServeCore>,
    shared: Arc<ReactorShared>,
    /// The accept source. `None` on peer reactors (index > 0 of a
    /// multi-reactor server), which only receive handed-off connections.
    listener: Option<NetListener>,
    /// This reactor's index (0 = the acceptor).
    reactor_id: usize,
    /// Hand-off ring of every reactor's shared state, in reactor-index
    /// order, including this reactor's own. Non-empty only on the acceptor
    /// of a multi-reactor server.
    peers: Vec<Arc<ReactorShared>>,
    /// `qsync_transport_reactor_conns{reactor="<i>"}` for each ring slot:
    /// the load signal the least-loaded hand-off reads. Resolved once in
    /// [`set_peers`](Self::set_peers); index-aligned with `peers`.
    peer_conns: Vec<Arc<qsync_obs::Gauge>>,
    /// `qsync_transport_reactor_conns{reactor="<id>"}`.
    reactor_conns: Arc<qsync_obs::Gauge>,
    conns: HashMap<usize, Conn>,
    next_key: usize,
    config: TransportConfig,
    shutdown: ShutdownSignal,
    clock: Arc<dyn Clock>,
    /// While set (clock milliseconds), listener interest is withdrawn;
    /// accepts resume at the deadline.
    accept_paused_until: Option<u64>,
    /// Set by [`begin_drain`](Self::begin_drain): the clock-ms deadline past
    /// which leftover connections are force-closed.
    drain_deadline: Option<u64>,
}

impl Reactor {
    fn new(
        core: Arc<ServeCore>,
        listener: TcpListener,
        shutdown: ShutdownSignal,
        config: TransportConfig,
        clock: Arc<dyn Clock>,
    ) -> io::Result<Reactor> {
        listener.set_nonblocking(true)?;
        Self::with_backend(
            core,
            Some(NetListener::Tcp(listener)),
            NetPoller::Tcp(Poller::new()?),
            0,
            shutdown,
            config,
            clock,
        )
    }

    /// A listenerless peer reactor (TCP backend): serves only connections
    /// the acceptor hands off.
    fn new_peer(
        core: Arc<ServeCore>,
        reactor_id: usize,
        shutdown: ShutdownSignal,
        config: TransportConfig,
        clock: Arc<dyn Clock>,
    ) -> io::Result<Reactor> {
        Self::with_backend(
            core,
            None,
            NetPoller::Tcp(Poller::new()?),
            reactor_id,
            shutdown,
            config,
            clock,
        )
    }

    /// A reactor over the simulated network — same machinery, in-memory
    /// connections, virtual time. Driven step-by-step by [`crate::sim`].
    pub(crate) fn new_sim(
        core: Arc<ServeCore>,
        net: Arc<SimNet>,
        shutdown: ShutdownSignal,
        config: TransportConfig,
        clock: Arc<dyn Clock>,
    ) -> io::Result<Reactor> {
        Self::with_backend(
            core,
            Some(NetListener::Sim(Arc::clone(&net))),
            NetPoller::Sim(net),
            0,
            shutdown,
            config,
            clock,
        )
    }

    /// A listenerless peer reactor over its own [`SimNet`] — the simulated
    /// twin of [`new_peer`](Self::new_peer); `net` carries only this
    /// reactor's registered connections, never an accept backlog.
    pub(crate) fn new_sim_peer(
        core: Arc<ServeCore>,
        reactor_id: usize,
        net: Arc<SimNet>,
        shutdown: ShutdownSignal,
        config: TransportConfig,
        clock: Arc<dyn Clock>,
    ) -> io::Result<Reactor> {
        Self::with_backend(core, None, NetPoller::Sim(net), reactor_id, shutdown, config, clock)
    }

    fn with_backend(
        core: Arc<ServeCore>,
        listener: Option<NetListener>,
        poller: NetPoller,
        reactor_id: usize,
        shutdown: ShutdownSignal,
        config: TransportConfig,
        clock: Arc<dyn Clock>,
    ) -> io::Result<Reactor> {
        let shared = Arc::new(ReactorShared {
            poller,
            dirty: Mutex::new(Vec::new()),
            inbound: Mutex::new(Vec::new()),
        });
        shutdown.attach(&shared);
        if let Some(listener) = &listener {
            shared.poller.add_listener(listener, LISTENER_KEY, Interest::READ)?;
        }
        let reactor_conns = core.obs().reactor_conns(reactor_id);
        Ok(Reactor {
            core,
            shared,
            listener,
            reactor_id,
            peers: Vec::new(),
            peer_conns: Vec::new(),
            reactor_conns,
            conns: HashMap::new(),
            next_key: LISTENER_KEY + 1,
            config,
            shutdown,
            clock,
            accept_paused_until: None,
            drain_deadline: None,
        })
    }

    /// This reactor's shared state (for the acceptor's hand-off ring).
    pub(crate) fn shared(&self) -> Arc<ReactorShared> {
        Arc::clone(&self.shared)
    }

    /// Install the hand-off ring on the acceptor: every reactor's shared
    /// state in reactor-index order (including the acceptor's own, so the
    /// hand-off covers it too).
    pub(crate) fn set_peers(&mut self, peers: Vec<Arc<ReactorShared>>) {
        self.peer_conns = (0..peers.len()).map(|i| self.core.obs().reactor_conns(i)).collect();
        self.peers = peers;
    }

    /// The ring slot the next accepted connection goes to: the reactor
    /// currently carrying the fewest connections, lowest index on ties. From
    /// an empty ring this deals like round-robin; after churn (long-lived
    /// connections piling onto some reactors while others drain) new
    /// connections refill the emptiest reactor first.
    fn pick_handoff_target(&self) -> usize {
        // A peer's load is what it carries plus what it has been handed but
        // not yet registered (the inbound queue drains only on that
        // reactor's next poll pass — without counting it, a burst of
        // accepts would all land on the same peer).
        let load = |i: usize| {
            self.peer_conns[i].get().max(0) as usize
                + self.peers[i].inbound.lock().expect("inbound queue poisoned").len()
        };
        (0..self.peers.len()).min_by_key(|&i| load(i)).unwrap_or(0)
    }

    fn run(&mut self) -> io::Result<()> {
        let mut events: Vec<Event> = Vec::new();
        while !self.shutdown.is_shutdown() {
            events.clear();
            // While accepts are backed off, wake at the deadline instead of
            // blocking indefinitely.
            let timeout = self.accept_paused_until.map(|until| {
                Duration::from_millis(until.saturating_sub(self.clock.now_ms()).max(1))
            });
            self.shared.poller.wait(&mut events, timeout)?;
            if self.shutdown.is_shutdown() {
                break;
            }
            self.drain_inbound();
            self.maybe_resume_accepts();
            let ready = std::mem::take(&mut events);
            self.process_events(&ready);
            events = ready;
            self.flush_dirty();
            self.reap();
        }
        self.drain_on_shutdown()
    }

    /// Handle one batch of readiness events.
    fn process_events(&mut self, events: &[Event]) {
        for event in events {
            if event.key == LISTENER_KEY && self.listener.is_some() {
                self.accept_ready();
            } else {
                if event.readable {
                    self.read_conn(event.key);
                }
                self.flush_conn(event.key);
            }
        }
    }

    /// One non-blocking reactor pass: poll readiness, process events, flush
    /// dirty outboxes, reap finished connections. Returns whether anything
    /// was ready — the sim driver loops this against the core's job pump
    /// until the whole system is quiescent.
    pub(crate) fn poll_step(&mut self) -> io::Result<bool> {
        let had_inbound = self.drain_inbound();
        let mut events: Vec<Event> = Vec::new();
        self.shared.poller.wait(&mut events, Some(Duration::ZERO))?;
        self.maybe_resume_accepts();
        let had_events = !events.is_empty();
        self.process_events(&events);
        let had_dirty = self.flush_dirty();
        self.reap();
        Ok(had_inbound || had_events || had_dirty)
    }

    /// Register every stream the acceptor handed off since the last pass.
    /// Returns whether any arrived.
    fn drain_inbound(&mut self) -> bool {
        let inbound =
            std::mem::take(&mut *self.shared.inbound.lock().expect("inbound queue poisoned"));
        let any = !inbound.is_empty();
        for stream in inbound {
            if let Err(e) = self.register(stream) {
                eprintln!(
                    "qsync-serve: reactor {}: failed to register handed-off connection: {e}",
                    self.reactor_id
                );
            }
        }
        any
    }

    /// Drain the accept backlog (level-triggered: one event may cover many
    /// queued connections). On a multi-reactor server the accepted stream is
    /// handed off across the reactor ring (which includes this reactor) to
    /// the least-loaded slot.
    fn accept_ready(&mut self) {
        loop {
            let accepted = match &self.listener {
                Some(listener) => listener.accept(),
                None => return,
            };
            match accepted {
                Ok(stream) => {
                    if self.peers.len() > 1 {
                        let target = self.pick_handoff_target();
                        if !Arc::ptr_eq(&self.peers[target], &self.shared) {
                            self.core.obs().reactor_handoffs.inc();
                            self.peers[target].hand_off(stream);
                            continue;
                        }
                    }
                    if let Err(e) = self.register(stream) {
                        eprintln!("qsync-serve: failed to register connection: {e}");
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // The peer reset before we got to it: just move on.
                Err(e) if e.kind() == io::ErrorKind::ConnectionAborted => continue,
                Err(e) => {
                    // Resource exhaustion (EMFILE/ENFILE/ENOMEM): the
                    // backlog keeps the listener readable, so withdraw
                    // listener interest and retry after a pause instead of
                    // spinning hot on the failing accept.
                    self.core.obs().accept_pauses.inc();
                    self.core.obs().accept_paused.set(1);
                    eprintln!("qsync-serve: accept error: {e}; pausing accepts briefly");
                    if let Some(listener) = &self.listener {
                        let _ =
                            self.shared.poller.modify_listener(listener, LISTENER_KEY, Interest::NONE);
                    }
                    let backoff = self.config.accept_backoff.as_millis() as u64;
                    self.accept_paused_until = Some(self.clock.now_ms() + backoff);
                    break;
                }
            }
        }
    }

    /// Re-arm the listener once an accept backoff expires.
    fn maybe_resume_accepts(&mut self) {
        if self.accept_paused_until.is_none_or(|until| self.clock.now_ms() < until) {
            return;
        }
        let Some(listener) = &self.listener else { return };
        if self.shared.poller.modify_listener(listener, LISTENER_KEY, Interest::READ).is_ok() {
            self.accept_paused_until = None;
            self.core.obs().accept_paused.set(0);
        }
    }

    fn register(&mut self, stream: NetStream) -> io::Result<()> {
        stream.prepare()?;
        let key = self.next_key;
        self.next_key += 1;
        let outbox = Arc::new(Outbox {
            key,
            buf: Mutex::new(OutboxBuf::default()),
            shared: Arc::clone(&self.shared),
        });
        let state = self.core.register_conn(Sink::Outbox(Arc::clone(&outbox)));
        self.shared.poller.add_stream(&stream, key, Interest::READ)?;
        self.core.obs().accepts.inc();
        self.core.obs().conns_open.add(1);
        self.reactor_conns.add(1);
        self.conns.insert(
            key,
            Conn {
                stream,
                state,
                outbox,
                read_buf: Vec::new(),
                write_buf: Vec::new(),
                write_pos: 0,
                interest: Interest::READ,
                peer_eof: false,
                paused: false,
                dropped: false,
            },
        );
        Ok(())
    }

    /// Pull everything readable out of a connection, frame complete JSONL
    /// lines, and dispatch them into the core.
    fn read_conn(&mut self, key: usize) {
        let obs = Arc::clone(self.core.obs());
        let mut lines: Vec<String> = Vec::new();
        let mut oversized = false;
        let state = {
            let Some(conn) = self.conns.get_mut(&key) else { return };
            if conn.paused || conn.peer_eof || conn.dropped {
                return;
            }
            let mut chunk = [0u8; 16 * 1024];
            let mut budget = READ_BUDGET;
            loop {
                if budget == 0 {
                    // Level-triggered: the remaining bytes re-deliver the
                    // event after other connections get their pass.
                    obs.read_budget_exhausted.inc();
                    break;
                }
                match conn.stream.read(&mut chunk) {
                    Ok(0) => {
                        conn.peer_eof = true;
                        // EOF terminates a trailing unterminated line, same
                        // as `BufRead::lines` on the blocking path.
                        if !conn.read_buf.is_empty() {
                            lines.push(String::from_utf8_lossy(&conn.read_buf).into_owned());
                            conn.read_buf.clear();
                        }
                        break;
                    }
                    Ok(n) => {
                        budget = budget.saturating_sub(n);
                        obs.bytes_in.add(n as u64);
                        conn.read_buf.extend_from_slice(&chunk[..n]);
                        let mut start = 0;
                        while let Some(offset) =
                            conn.read_buf[start..].iter().position(|&b| b == b'\n')
                        {
                            lines.push(
                                String::from_utf8_lossy(&conn.read_buf[start..start + offset])
                                    .into_owned(),
                            );
                            start += offset + 1;
                        }
                        conn.read_buf.drain(..start);
                        if conn.read_buf.len() > self.config.max_line_bytes {
                            oversized = true;
                            conn.peer_eof = true;
                            conn.read_buf.clear();
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        conn.dropped = true;
                        break;
                    }
                }
            }
            if conn.dropped {
                return;
            }
            Arc::clone(&conn.state)
        };
        for line in &lines {
            self.core.handle_line(&state, line);
        }
        if oversized {
            // Connection-level failure: no command (and so no wire form) was
            // ever parsed, so it renders in the legacy v0 shape.
            state.send(WireProto::V0, &ServerReply::Error {
                id: None,
                message: format!(
                    "input line exceeds {} bytes without a newline; closing connection",
                    self.config.max_line_bytes
                ),
            });
        }
    }

    /// Stage outbox bytes and write as much as the socket accepts, then
    /// recompute interest (write interest only while bytes remain, read
    /// interest unless EOF'd or backpressured).
    fn flush_conn(&mut self, key: usize) {
        let obs = Arc::clone(self.core.obs());
        let Some(conn) = self.conns.get_mut(&key) else { return };
        if conn.dropped {
            return;
        }
        if conn.write_pos == conn.write_buf.len() {
            conn.write_buf.clear();
            conn.write_pos = 0;
        }
        conn.outbox.take_into(&mut conn.write_buf);
        while conn.write_pos < conn.write_buf.len() {
            match conn.stream.write(&conn.write_buf[conn.write_pos..]) {
                Ok(0) => {
                    conn.dropped = true;
                    return;
                }
                Ok(n) => {
                    obs.bytes_out.add(n as u64);
                    conn.write_pos += n;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.dropped = true;
                    return;
                }
            }
        }
        if conn.write_pos == conn.write_buf.len() {
            conn.write_buf.clear();
            conn.write_pos = 0;
        }
        let backlog = conn.unflushed();
        if conn.paused {
            if backlog <= self.config.max_buffered_bytes / 2 {
                conn.paused = false;
                obs.backpressure_resumes.inc();
            }
        } else if backlog > self.config.max_buffered_bytes {
            conn.paused = true;
            obs.backpressure_pauses.inc();
        }
        let interest = Interest {
            readable: !conn.peer_eof && !conn.paused,
            writable: backlog > 0,
        };
        if interest != conn.interest {
            match self.shared.poller.modify_stream(&conn.stream, key, interest) {
                Ok(()) => conn.interest = interest,
                Err(_) => conn.dropped = true,
            }
        }
    }

    /// Flush every connection a worker flagged since the last pass. Returns
    /// whether any connection was flushed.
    fn flush_dirty(&mut self) -> bool {
        let mut any = false;
        loop {
            let mut dirty =
                std::mem::take(&mut *self.shared.dirty.lock().expect("dirty list poisoned"));
            if dirty.is_empty() {
                return any;
            }
            any = true;
            dirty.sort_unstable();
            dirty.dedup();
            for key in dirty {
                self.flush_conn(key);
            }
        }
    }

    /// Close every connection that is finished (EOF seen, all replies
    /// delivered) or broken. Keys are visited in sorted order so close-time
    /// side effects (ticket cancellation, subscriber removal) are
    /// deterministic under simulation.
    fn reap(&mut self) {
        let mut done: Vec<usize> =
            self.conns.iter().filter(|(_, c)| c.closable()).map(|(k, _)| *k).collect();
        done.sort_unstable();
        for key in done {
            self.close_conn(key);
        }
    }

    fn close_conn(&mut self, key: usize) {
        if let Some(conn) = self.conns.remove(&key) {
            conn.outbox.close();
            self.core.obs().conns_open.add(-1);
            self.reactor_conns.add(-1);
            let _ = self.shared.poller.delete_stream(&conn.stream, key);
            // A broken connection may still have plans queued; nobody can
            // receive them, so free the scheduler slots (and end any event
            // subscription).
            self.core.drop_conn(conn.state.id());
        }
    }

    /// Start a graceful drain: stop accepting, EOF every connection (no new
    /// commands), flush what is already writable, and arm the drain
    /// deadline. Returns that deadline in clock milliseconds.
    pub(crate) fn begin_drain(&mut self) -> u64 {
        if let Some(listener) = &self.listener {
            let _ = self.shared.poller.delete_listener(listener);
        }
        // Handed-off streams that never got registered are simply dropped
        // (which closes them): they carry no pending replies.
        self.shared.inbound.lock().expect("inbound queue poisoned").clear();
        let mut keys: Vec<usize> = self.conns.keys().copied().collect();
        keys.sort_unstable();
        for key in &keys {
            if let Some(conn) = self.conns.get_mut(key) {
                conn.peer_eof = true;
            }
            self.flush_conn(*key);
        }
        self.reap();
        let deadline = self.clock.now_ms() + self.config.drain_timeout.as_millis() as u64;
        self.drain_deadline = Some(deadline);
        deadline
    }

    /// Whether the drain phase still has work and budget: connections remain
    /// and the deadline (armed by [`begin_drain`](Self::begin_drain)) has
    /// not passed.
    pub(crate) fn drain_pending(&self) -> bool {
        !self.conns.is_empty()
            && self.drain_deadline.is_some_and(|deadline| self.clock.now_ms() < deadline)
    }

    /// Force-close whatever connections the drain budget left behind.
    pub(crate) fn finish_drain(&mut self) {
        let mut leftover: Vec<usize> = self.conns.keys().copied().collect();
        leftover.sort_unstable();
        for key in leftover {
            self.close_conn(key);
        }
    }

    /// Graceful shutdown: stop accepting and reading, give in-flight work up
    /// to `drain_timeout` to reply and flush, then close everything.
    fn drain_on_shutdown(&mut self) -> io::Result<()> {
        self.begin_drain();
        let mut events: Vec<Event> = Vec::new();
        while self.drain_pending() {
            events.clear();
            self.shared.poller.wait(&mut events, Some(Duration::from_millis(50)))?;
            let ready = std::mem::take(&mut events);
            for event in &ready {
                if event.key != LISTENER_KEY {
                    self.flush_conn(event.key);
                }
            }
            events = ready;
            self.flush_dirty();
            self.reap();
        }
        self.finish_drain();
        Ok(())
    }
}

impl PlanServer {
    /// Serve TCP connections on `addr` forever: every connection is
    /// multiplexed onto one epoll reactor and shares one scheduler, plan
    /// engine and worker pool.
    pub fn serve_tcp(&self, addr: &str) -> io::Result<()> {
        let listener = TcpListener::bind(addr)?;
        eprintln!("qsync-serve: listening on {}", listener.local_addr()?);
        self.serve_listener(listener, ShutdownSignal::new())
    }

    /// Serve an already-bound listener until `shutdown` fires (the testable
    /// entry point behind [`serve_tcp`](Self::serve_tcp)). With
    /// `TransportConfig::reactors` > 1, reactor 0 (this thread) owns the
    /// listener and hands accepted connections off to the least-loaded
    /// reactor thread; all reactors share one `ServeCore`. On shutdown
    /// every reactor stops, drains its own connections within the
    /// transport's `drain_timeout`, then the shared core stops.
    pub fn serve_listener(
        &self,
        listener: TcpListener,
        shutdown: ShutdownSignal,
    ) -> io::Result<()> {
        let config = self.transport_config().clone();
        let handle = self.start_core();
        let n_reactors = config.reactors.max(1);
        let result = (|| -> io::Result<()> {
            let mut acceptor = Reactor::new(
                Arc::clone(&handle.core),
                listener,
                shutdown.clone(),
                config.clone(),
                self.clock(),
            )?;
            let mut peers: Vec<Reactor> = (1..n_reactors)
                .map(|id| {
                    Reactor::new_peer(
                        Arc::clone(&handle.core),
                        id,
                        shutdown.clone(),
                        config.clone(),
                        self.clock(),
                    )
                })
                .collect::<io::Result<_>>()?;
            let mut ring = vec![acceptor.shared()];
            ring.extend(peers.iter().map(|r| r.shared()));
            acceptor.set_peers(ring);
            std::thread::scope(|scope| {
                let joins: Vec<_> = peers
                    .iter_mut()
                    .map(|reactor| scope.spawn(move || reactor.run()))
                    .collect();
                let accept_result = acceptor.run();
                // The acceptor only returns once shutdown fired (or on a
                // poller error, in which case take the server down with it).
                shutdown.shutdown();
                let mut result = accept_result;
                for join in joins {
                    let peer_result = join.join().expect("reactor thread panicked");
                    if result.is_ok() {
                        result = peer_result;
                    }
                }
                result
            })
        })();
        handle.stop();
        result
    }
}
